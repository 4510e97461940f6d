"""What perfbench reads of csgnn: the functions the traced benchmark wraps by
name, and the names its workloads use. A rename must fail here."""

import importlib
from pathlib import Path

import numpy as np

from csgnn.cli import main
from csgnn.dynamics import LayerParams
from csgnn.training import TrainConfig, init_params
from csgnn.verify import run_all

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    # executed from its source text, so no bytecode cache lands next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_trace_target_is_bound():
    targets = _tracing_namespace()["TARGETS"]
    missing = [f"csgnn.{mod}.{fn}" for mod, fn, _, _ in targets
               if not callable(getattr(importlib.import_module(f"csgnn.{mod}"), fn, None))]
    assert targets and missing == []


def test_verify_checks_are_the_suites_run_all_runs():
    # the traced benchmark reports one span per suite under these ids
    results = run_all(seed=0, trials_scale=0.02)
    assert [r.check_id for r in results] == _tracing_namespace()["VERIFY_CHECKS"]


# Kept only because perfbench's workloads use them; each can go with the next
# benchmark change.

def test_a_layer_has_no_node_mixer():
    # `workloads.layer_dicts` reads `feature.W` and expects None
    assert LayerParams(h=0.1, K=np.eye(2)).W is None


def test_init_params_takes_five_positional_arguments():
    # `CertifyVerify._build_params` passes the unread node count positionally
    params = init_params(3, 2, 10, TrainConfig(hidden_dim=4), np.random.default_rng(0))
    assert params.encoder.shape == (3, 4)


def test_the_parameterization_key_accepts_learn_k(tmp_path):
    # train-n1000 passes `--set parameterization=learn_k`
    graph = tmp_path / "graph"
    assert main(["gen-sbm", "--out", str(graph), "--set", "n=20"]) == 0
    assert main(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                 "--set", "epochs=1", "--set", "parameterization=learn_k"]) == 0
