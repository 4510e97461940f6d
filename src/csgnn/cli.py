"""Command-line entry point.

Subcommands: gen-sbm, train, attack-sweep, verify, certify. All randomness flows
from the one seed; certify draws none and reads no seed. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import verify as verifymod
from .attacks import (MODELS, AttackKind, AttackSpec, evaluate_robustness, format_budget,
                      results_to_csv)
from .equivariant import slope_uniform_margin
from .graph import PerturbationBudget, load_graph, save_graph
from .network import certificate, load_checkpoint, save_checkpoint
from .sbm import gen_sbm
from .training import TrainConfig, checkpoint_accuracies, history_to_csv, train


def _settings(args, table: dict) -> dict:
    """The run's settings: each key of `table` read from the config file, --set
    and --seed as the type of its default, or that default; None marks a required
    path, read as text. A malformed line or override, a key outside `table` and a
    missing path are usage errors; an --out at or below a file is refused here."""
    try:
        text = Path(args.config).read_bytes().decode() if args.config else ""
        raw = {**cfgmod.loads(text), **cfgmod.overrides(args.set or [])}
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"config file {args.config} is not UTF-8 text: byte "
                          f"{exc.object[exc.start]:#04x} at position {exc.start}") from None
    except ValueError as exc:
        raise SystemExit2(exc) from None
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    stray = sorted(set(raw) - set(table))
    if stray:
        raise SystemExit2(f"{args.command} does not read the config key(s) {', '.join(stray)}")
    for key, default in table.items():
        if default is None and key not in raw:
            raise SystemExit2(f"{args.command} needs a '{key} = <path>' config entry")
    settings = {key: cfgmod.read(key, raw[key], str if default is None else type(default))
                if key in raw else default for key, default in table.items()}
    if "seed" in table:
        _check(settings, "seed", lambda seed: seed >= 0, "a non-negative integer")
    out = Path(args.out or ".")
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {out}: {nearest} exists and is not a directory")
    return settings


def _check(settings: dict, key: str, ok, what: str) -> None:
    """Raises ValueError naming `key` unless `ok(settings[key])` holds."""
    if not ok(settings[key]):
        raise ValueError(f"config key {key!r} must be {what}, got {settings[key]!r}")


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finite_nonnegative(x) -> bool:
    return bool(np.isfinite(x)) and x >= 0


def _budget_list(settings: dict, key: str) -> list:
    """The budgets `key` lists, none for an empty list; an empty entry is a
    runtime error, and a budget listed twice (0, 0.0 and -0 are one) a usage
    error. A -0 reads as 0."""
    raw = settings[key]
    try:
        # + 0.0 turns -0.0 into +0.0 and leaves every other float as it is
        items = [float(tok) + 0.0 for tok in raw.split(",")] if raw else []
    except ValueError:
        items = None
    if items is None or not all(map(_finite_nonnegative, items)):
        raise ValueError(f"config key {key!r} must be a comma-separated list of finite "
                         f"nonnegative numbers, got {raw!r}")
    for i, budget in enumerate(items):
        if budget in items[:i]:
            raise SystemExit2(f"config key {key!r} lists the budget {format_budget(budget)} twice")
    return items


# Each command's settings, {key: default}: a default of None marks a required
# path. Every command but certify reads `seed`.
GEN_SBM = {"n": 100, "classes": 2, "p_in": 0.3, "p_out": 0.02, "feat_dim": 8, "signal": 1.5,
           "seed": 0}
TRAIN_CONFIG = {field.name: field.default for field in dataclasses.fields(TrainConfig)}
TRAIN = {"graph": None, **TRAIN_CONFIG}
ATTACK_SWEEP = {**TRAIN, "edge_ratios": "0,0.5,1.0", "feat_eps_list": "",
                "models": "csgnn,gcn", "n_seeds": 10}
VERIFY = {"trials_scale": 1.0, "seed": 0}
CERTIFY = {"checkpoint": None, "graph": None, "eps_feat": 0.0, "eps_adj": 0.0}


def cmd_gen_sbm(args) -> int:
    g = gen_sbm(**_settings(args, GEN_SBM))
    out = _out_dir(args)
    save_graph(g, out)
    print(f"wrote SBM graph: n={g.n}, undirected edges={g.num_undirected_edges()} -> {out}")
    return 0


def cmd_train(args) -> int:
    settings = _settings(args, TRAIN)
    g = load_graph(settings.pop("graph"))
    params, history = train(g, TrainConfig(**settings))
    out = _out_dir(args)
    (out / "metrics.csv").write_text(history_to_csv(history))
    save_checkpoint(params, out / "model.ckpt")
    val_acc, test_acc = checkpoint_accuracies(g, params, history)
    summary = (f"epochs_run = {len(history)}\n"
               f"val_acc = {val_acc:.10g}\n"
               f"test_acc = {test_acc:.10g}\n")
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_attack_sweep(args) -> int:
    settings = _settings(args, ATTACK_SWEEP)
    models = [name.strip() for name in settings["models"].split(",")]
    for i, name in enumerate(models):
        if name not in MODELS:
            raise SystemExit2(f"unknown model {name!r}")
        if name in models[:i]:
            raise SystemExit2(f"model {name!r} is named twice")
    ratios = _budget_list(settings, "edge_ratios")
    feat_epss = _budget_list(settings, "feat_eps_list")
    if not ratios and not feat_epss:
        raise SystemExit2("attack-sweep needs a budget: edge_ratios and feat_eps_list are both empty")
    # a tuple of seeds holds at most sys.maxsize of them
    _check(settings, "n_seeds", lambda k: 1 <= k <= sys.maxsize,
           f"an integer from 1 to {sys.maxsize}")
    g = load_graph(settings["graph"])
    tc = TrainConfig(**{key: settings[key] for key in TRAIN_CONFIG})
    specs = [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=r) for r in ratios]
    specs += [AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=e) for e in feat_epss]
    rows = evaluate_robustness(g, specs, models, tc, seeds=tuple(range(settings["n_seeds"])))
    out = _out_dir(args)
    csv_text = results_to_csv(rows)
    (out / "results.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def cmd_verify(args) -> int:
    settings = _settings(args, VERIFY)
    _check(settings, "trials_scale", lambda x: np.isfinite(x) and x > 0,
           "finite and greater than 0")
    results = verifymod.run_all(seed=settings["seed"], trials_scale=settings["trials_scale"])
    report = verifymod.render_report(results)
    print(report, end="")
    if args.out:
        (_out_dir(args) / "verify_report.txt").write_text(report)
    return 0 if verifymod.all_passed(results) else 1


def cmd_certify(args) -> int:
    settings = _settings(args, CERTIFY)
    for key in ("eps_feat", "eps_adj"):
        _check(settings, key, _finite_nonnegative, "finite and nonnegative")
    budget = PerturbationBudget(eps_feat=settings["eps_feat"], eps_adj=settings["eps_adj"])
    params = load_checkpoint(settings["checkpoint"])
    g = load_graph(settings["graph"])
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
