"""Command-line entry point.

Subcommands: gen-sbm, train, attack-sweep, verify, certify. Every command is
deterministic given (config, seed): all randomness flows from the one seed.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import verify as verifymod
from .attacks import MODELS, AttackKind, AttackSpec, evaluate_robustness, results_to_csv
from .equivariant import slope_uniform_margin
from .graph import PerturbationBudget, load_graph, save_graph
from .network import certificate, forward, load_checkpoint, save_checkpoint
from .sbm import gen_sbm
from .training import accuracy, history_to_csv, train


def _load_values(args, keys) -> dict:
    """The run's config values; a key the command does not read (`keys`, and
    `seed` for every command) is a usage error."""
    values = cfgmod.load_file(args.config) if args.config else {}
    values = cfgmod.apply_overrides(values, args.set or [])
    stray = sorted(set(values) - set(keys) - {"seed"})
    if stray:
        raise SystemExit2(f"{args.command} does not read the config key(s) {', '.join(stray)}")
    if args.seed is not None:
        values["seed"] = args.seed
    _checked(values, "seed", 0, lambda seed: seed >= 0, "a non-negative integer")
    return values


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _get(values: dict, key: str, default):
    """The value of `key`, or `default`, read as the type of `default`."""
    return cfgmod.cast(key, values.get(key, default), type(default))


def _checked(values: dict, key: str, default, ok, what: str):
    """`_get`, raising ValueError naming `key` unless `ok(value)` holds."""
    value = _get(values, key, default)
    if not ok(value):
        raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def _finite_nonnegative(x) -> bool:
    return bool(np.isfinite(x)) and x >= 0


def _float_list(values: dict, key: str, default) -> list:
    raw = values.get(key)
    if raw is None:
        return list(default)
    try:
        items = [float(tok) for tok in str(raw).split(",") if tok != ""]
    except ValueError:
        items = None
    if items is None or not all(map(_finite_nonnegative, items)):
        raise ValueError(f"config key {key!r} must be a comma-separated list of finite "
                         f"nonnegative numbers, got {raw!r}")
    return items


def cmd_gen_sbm(args) -> int:
    values = _load_values(args, ("n", "classes", "p_in", "p_out", "feat_dim", "signal"))
    g = gen_sbm(
        n=_get(values, "n", 100),
        classes=_get(values, "classes", 2),
        p_in=_get(values, "p_in", 0.3),
        p_out=_get(values, "p_out", 0.02),
        feat_dim=_get(values, "feat_dim", 8),
        signal=_get(values, "signal", 1.5),
        seed=_get(values, "seed", 0),
    )
    out = _out_dir(args)
    save_graph(g, out)
    print(f"wrote SBM graph: n={g.n}, undirected edges={g.num_undirected_edges()} -> {out}")
    return 0


def cmd_train(args) -> int:
    values = _load_values(args, ("graph", *cfgmod.TRAIN_KEYS))
    if "graph" not in values:
        raise SystemExit2("train needs a 'graph = <dir>' config entry")
    g = load_graph(values["graph"])
    tc = cfgmod.train_config_from(values)
    params, history = train(g, tc)
    out = _out_dir(args)
    (out / "metrics.csv").write_text(history_to_csv(history))
    save_checkpoint(params, out / "model.ckpt")
    logits, _ = forward(g, params, mode="eval")
    summary = (f"epochs_run = {len(history)}\n"
               f"val_acc = {accuracy(logits, g.labels, g.val_mask):.10g}\n"
               f"test_acc = {accuracy(logits, g.labels, g.test_mask):.10g}\n")
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_attack_sweep(args) -> int:
    values = _load_values(args, ("graph", *cfgmod.TRAIN_KEYS, "edge_ratios", "feat_eps_list",
                                 "models", "n_seeds"))
    if "graph" not in values:
        raise SystemExit2("attack-sweep needs a 'graph = <dir>' config entry")
    g = load_graph(values["graph"])
    tc = cfgmod.train_config_from(values)
    ratios = _float_list(values, "edge_ratios", (0.0, 0.5, 1.0))
    feat_epss = _float_list(values, "feat_eps_list", ())
    seed0 = _get(values, "seed", 0)
    specs = [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=r, seed=seed0) for r in ratios]
    specs += [AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=e, seed=seed0) for e in feat_epss]
    models = [name.strip() for name in str(values.get("models", "csgnn,gcn")).split(",")]
    for name in models:
        if name not in MODELS:
            raise SystemExit2(f"unknown model {name!r}")
    # a tuple of seeds holds at most sys.maxsize of them
    n_seeds = _checked(values, "n_seeds", 10, lambda k: 1 <= k <= sys.maxsize,
                       f"an integer from 1 to {sys.maxsize}")
    rows = evaluate_robustness(g, specs, models, tc, seeds=tuple(range(n_seeds)))
    out = _out_dir(args)
    csv_text = results_to_csv(rows)
    (out / "results.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def cmd_verify(args) -> int:
    values = _load_values(args, ("trials_scale", "fault_adjacency_step_scale"))
    def scale(key):
        return _checked(values, key, 1.0, lambda x: np.isfinite(x) and x > 0,
                        "finite and greater than 0")

    results, failures = verifymod.run_all(
        seed=_get(values, "seed", 0), trials_scale=scale("trials_scale"),
        fault_adjacency_step_scale=scale("fault_adjacency_step_scale"))
    report = verifymod.render_report(results)
    print(report, end="")
    if args.out:
        out = _out_dir(args)
        (out / "verify_report.txt").write_text(report)
        if failures:
            lines = ["trial,distance_before,distance_after"]
            lines += [f"{idx},{before:.10g},{after:.10g}" for idx, before, after in failures]
            (out / "coupled_contraction_failures.csv").write_text("\n".join(lines) + "\n")
    return 0 if verifymod.all_passed(results) else 1


def cmd_certify(args) -> int:
    values = _load_values(args, ("checkpoint", "graph", "eps_feat", "eps_adj"))
    for key in ("checkpoint", "graph"):
        if key not in values:
            raise SystemExit2(f"certify needs a '{key} = <path>' config entry")
    budget = PerturbationBudget(**{key: _checked(values, key, 0.0, _finite_nonnegative,
                                                 "finite and nonnegative")
                                   for key in ("eps_feat", "eps_adj")})
    params = load_checkpoint(values["checkpoint"])
    g = load_graph(values["graph"])
    if g.feat_dim != params.encoder.shape[0]:
        raise ValueError(f"the graph's feature width {g.feat_dim} does not match the "
                         f"checkpoint's encoder input {params.encoder.shape[0]}")
    f0 = g.features @ params.encoder
    cert = certificate(f0, g.adjacency, params.layers, budget)
    text = render_certificate(cert, params)
    print(text, end="")
    if args.out:
        (_out_dir(args) / "certificate.txt").write_text(text)
    return 0


def render_certificate(cert: dict, params) -> str:
    lines = [
        "expansivity certificate (embedded-state budgets)",
        f"eps_feat = {cert['eps_feat']:.10g}",
        f"eps_adj  = {cert['eps_adj']:.10g}",
        f"encoder spectral gain = {np.linalg.norm(params.encoder, 2):.10g}",
        "layer  h_feat      h_feat_safe  h_adj       h_adj_max   slope_margin  lip_upper",
    ]
    bad = []
    for row, layer in zip(cert["layers"], params.layers):
        margin = slope_uniform_margin(layer.adjacency.coeffs, layer.adjacency.leaky_slope)
        if margin < 0:
            bad.append(str(row["layer"]))
        lines.append(
            f"{row['layer']:<6} {row['h_feature']:<11.4g} {row['h_feature_safe']:<12.4g} "
            f"{row['h_adjacency']:<11.4g} {row['h_adjacency_max']:<11.4g} "
            f"{margin:<13.4g} {row['lipschitz_upper']:.6g}")
    if bad:
        lines.append("warning: layers " + ",".join(bad)
                     + " have negative slope-uniform margin; the l1 nonexpansiveness"
                     " of their adjacency step is not certified for all activation patterns")
    over = [str(row["layer"]) for row in cert["layers"]
            if row["h_feature"] > row["h_feature_safe"]]
    if over:
        lines.append("warning: layers " + ",".join(over)
                     + " have h_feat above h_feat_safe; their feature step bound does not hold"
                     " over the eps_adj ball around the clean trajectory")
    lines.append(f"certified output-distance bound = {cert['bound']:.10g}")
    return "\n".join(lines) + "\n"


class SystemExit2(Exception):
    """Usage error: exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csgnn",
                                     description="coupled contractive graph dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, desc in (
        ("gen-sbm", cmd_gen_sbm, "generate a stochastic block model benchmark graph"),
        ("train", cmd_train, "train on a (possibly attacked) graph"),
        ("attack-sweep", cmd_attack_sweep, "poisoning attack sweep over budgets and models"),
        ("verify", cmd_verify, "run every property suite and report pass/fail"),
        ("certify", cmd_certify, "print an expansivity certificate for a checkpoint"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override (repeatable)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, FloatingPointError, OverflowError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
