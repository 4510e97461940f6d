"""Spans recorded around csgnn's public functions, from outside the program.

Each wrapped function is replaced under every name a csgnn module binds it
to (`training` calls `forward` through its own `from .network import
forward`, so that binding is the one the call looks up). A span holds name,
start, end, parent span and operation id. Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


class Patcher:
    """Replaces every binding of a function in the csgnn modules; undoes it all."""

    def __init__(self):
        self._undo = []

    def replace(self, fn, wrapper) -> int:
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "csgnn" or mod_name.startswith("csgnn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    count += 1
        return count

    def restore(self):
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)


def _trace_nbytes(trace) -> int:
    """Bytes held by the arrays of one ForwardTrace, each array counted once."""
    seen = {}
    for value in vars(trace).values():
        for arr in value if isinstance(value, list) else [value]:
            if isinstance(arr, np.ndarray):
                seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def _on_forward(span, result):
    span["bytes"] = _trace_nbytes(result[1])


def _on_train(span, result):
    span["epochs"] = len(result[1])


def _on_check(span, result):
    check = result[0] if isinstance(result, tuple) else result
    span["name"] = f"verify.{check.check_id}"


# (module, function, span name, result hook). jacobian_l1_probe_unchecked is
# the form verify's probe suites call; jacobian_l1_probe only forwards to it.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("network", "forward", "network.forward", _on_forward),
    ("network", "evolve", "network.evolve", None),
    ("network", "certificate", "network.certificate", None),
    ("network", "lipschitz_upper", "network.lipschitz_upper", None),
    ("network", "save_checkpoint", "network.save_checkpoint", None),
    ("network", "load_checkpoint", "network.load_checkpoint", None),
    ("training", "backward", "training.backward", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "rebuild_params", "training.rebuild_params", None),
    ("training", "train", "training.train", _on_train),
    ("dynamics", "max_feature_step", "dynamics.max_feature_step", None),
    ("dynamics", "feature_step", "dynamics.feature_step", None),
    ("equivariant", "equivariant_linear", "equivariant.equivariant_linear", None),
    ("equivariant", "equivariant_linear_adjoint", "equivariant.equivariant_linear_adjoint", None),
    ("equivariant", "coeff_gradients", "equivariant.coeff_gradients", None),
    ("equivariant", "build_T", "equivariant.build_T", None),
    ("equivariant", "jacobian_l1_probe_unchecked", "equivariant.jacobian_l1_probe", None),
    ("attacks", "apply_attack", "attacks.apply_attack", None),
    ("attacks", "train_gcn", "attacks.train_gcn", None),
    ("attacks", "evaluate_robustness", "attacks.evaluate_robustness", None),
    ("gradcheck", "max_gradient_rel_error", "gradcheck.max_gradient_rel_error", None),
    ("graph", "load_graph", "graph.load_graph", None),
    ("graph", "save_graph", "graph.save_graph", None),
    ("sbm", "gen_sbm", "sbm.gen_sbm", None),
]

VERIFY_CHECKS = [
    "metric_l0_l1_binary_agreement", "metric_l1_lower_bound", "graph_permutation_composition",
    "adjacency_l1_contraction", "adjacency_equivariance", "adjacency_symmetry_preservation",
    "equivariant_map_linearity", "tmatrix_vectorization_consistency", "tmatrix_l1_norm_bound",
    "adjacency_jacobian_probe_margin_regime", "adjacency_jacobian_probe_unconstrained",
    "feature_gradient_adjointness", "feature_frobenius_contraction", "feature_energy_monotonicity",
    "feature_constant_row_fixed_point", "feature_step_equivariance", "coupled_expansivity_bound",
    "coupled_weighted_contraction", "gradient_finite_difference",
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0
        self._patcher = Patcher()

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def scope(self, name):
        """A benchmark-level span, one operation; its name is the scope of
        every span under it."""
        self.op += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, result)
            return result
        return traced

    def install(self):
        from csgnn import verify
        for mod_name, fn_name, span_name, hook in TARGETS:
            fn = getattr(sys.modules[f"csgnn.{mod_name}"], fn_name)
            if self._patcher.replace(fn, self._wrap(fn, span_name, hook)) == 0:
                raise RuntimeError(f"no binding of csgnn.{mod_name}.{fn_name} to trace")
        for fn_name in dir(verify):
            if fn_name.startswith("check_"):
                fn = getattr(verify, fn_name)
                self._patcher.replace(fn, self._wrap(fn, f"verify.{fn_name}", _on_check))

    def uninstall(self):
        self._patcher.restore()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- per-layer metrics derived from the spans -----------------------------------

def _roots(spans):
    """Id of the root (scope) span above each span; parents precede children."""
    root = []
    for s in spans:
        root.append(s["id"] if s["parent"] is None else root[s["parent"]])
    return root


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_metric_specs():
    """(metric, scope, span name, statistic, unit, better) for every per-layer metric.

    The scope is the benchmark phase whose calls define the metric: the n=1000
    training command, the n=100 sweep, the verify command, the n=1000 certify
    command, or the n=1000 graph set-up.
    """
    specs = []

    def add(metric, scope, span, stat):
        unit, better = {"median": ("s", "lower"), "self": ("s", "lower"),
                        "calls": ("count", "lower"), "bytes": ("B", "lower"),
                        "epochs": ("count", "higher"), "fits": ("count", "higher")}[stat]
        specs.append((metric, scope, span, stat, unit, better))

    add("network.forward_s", "train", "network.forward", "median")
    add("network.forward_calls", "train", "network.forward", "calls")
    add("network.trace_bytes", "train", "network.forward", "bytes")
    add("network.save_checkpoint_s", "train", "network.save_checkpoint", "median")
    add("network.evolve_s", "certify", "network.evolve", "median")
    add("network.certificate_s", "certify", "network.certificate", "median")
    add("network.lipschitz_upper_s", "certify", "network.lipschitz_upper", "median")
    add("network.load_checkpoint_s", "certify", "network.load_checkpoint", "median")
    add("training.backward_s", "train", "training.backward", "median")
    add("training.epochs", "train", "training.train", "epochs")
    add("training.adam_step_s", "sweep", "training.adam_step", "median")
    add("training.rebuild_params_s", "sweep", "training.rebuild_params", "median")
    add("training.train_self_s", "sweep", "training.train", "self")
    add("dynamics.max_feature_step_s", "certify", "dynamics.max_feature_step", "median")
    add("dynamics.max_feature_step_calls", "certify", "dynamics.max_feature_step", "calls")
    add("dynamics.feature_step_s", "certify", "dynamics.feature_step", "median")
    for fn in ("equivariant_linear", "equivariant_linear_adjoint", "coeff_gradients",
               "build_T", "jacobian_l1_probe"):
        add(f"equivariant.{fn}_s", "verify", f"equivariant.{fn}", "median")
        add(f"equivariant.{fn}_calls", "verify", f"equivariant.{fn}", "calls")
    add("attacks.apply_attack_s", "sweep", "attacks.apply_attack", "median")
    add("attacks.train_gcn_s", "sweep", "attacks.train_gcn", "median")
    add("attacks.fits", "sweep", "attacks.evaluate_robustness", "fits")
    for check in VERIFY_CHECKS:
        add(f"verify.{check}_s", "verify", f"verify.{check}", "median")
    add("gradcheck.max_gradient_rel_error_s", "verify", "gradcheck.max_gradient_rel_error", "median")
    add("graph.load_graph_s", "train", "graph.load_graph", "median")
    add("graph.save_graph_s", "setup-train-n1000", "graph.save_graph", "median")
    add("sbm.gen_sbm_s", "setup-train-n1000", "sbm.gen_sbm", "median")
    add("cli.self_s", "train", "cli.main", "self")
    return specs


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of traced rounds.

    Times are medians over every call in the scope; counts are per round,
    taken from the first round of the scope.
    """
    root = _roots(spans)
    self_t = _self_times(spans)
    first_root, by_name = {}, {}
    for s in spans:
        if s["parent"] is None:
            first_root.setdefault(s["name"], s["id"])
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, scope, span_name, stat, unit, _ in layer_metric_specs():
        chosen = [s for s in by_name.get(span_name, []) if spans[root[s["id"]]]["name"] == scope]
        if not chosen:
            raise RuntimeError(f"no {span_name} span in scope {scope} for {metric}")
        first = [s for s in chosen if root[s["id"]] == first_root[scope]]
        if stat == "median":
            value = statistics.median(s["end"] - s["start"] for s in chosen)
        elif stat == "self":
            value = statistics.median(self_t[s["id"]] for s in chosen)
        elif stat == "calls":
            value = len(first)
        elif stat == "bytes":
            value = max(s["bytes"] for s in first)
        elif stat == "epochs":
            value = sum(s["epochs"] for s in first)
        else:  # fits: model fits made directly inside the first sweep
            inside = {s["id"] for s in first}
            value = sum(1 for s in spans if s["name"] in ("training.train", "attacks.train_gcn")
                        and s["parent"] in inside)
        out[metric] = {"value": value, "unit": unit}
    return out
