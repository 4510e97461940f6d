"""The traced benchmark wraps csgnn functions by name; a rename must fail here."""

import importlib
from pathlib import Path

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
    results, _ = run_all(seed=0, trials_scale=0.02)
    assert [r.check_id for r in results] == _tracing_namespace()["VERIFY_CHECKS"]
