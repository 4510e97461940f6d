"""The three workloads: set-up, one timed round, and the checks of its outputs.

Every round repeats the same CLI commands on the same inputs, so every round
attempts the same operations. Checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
import statistics
import time

import numpy as np

from csgnn import attacks, cli, dynamics, equivariant, graph, network, training

import reference as ref
from tracing import VERIFY_CHECKS

# slack for comparing a stored step size with a bound recomputed here
BOUND_RTOL = 1e-9


def run_cli(args):
    """Run one csgnn command in-process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.main([str(a) for a in args])
    return rc, time.perf_counter() - start


def scope(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.scope(name)


def rel_err(x, y):
    return float(np.abs(x - y).max() / max(float(np.abs(y).max()), 1e-300))


def gen_sbm(out, seed, n):
    """The README's two-class SBM recipe (p_in 0.1, p_out 0.02, signal 1.3) at size n."""
    rc, _ = run_cli(["gen-sbm", "--out", out, "--seed", seed, "--set", f"n={n}",
                     "--set", "p_in=0.1", "--set", "signal=1.3"])
    if rc != 0:
        raise RuntimeError(f"gen-sbm exited {rc}")
    return graph.load_graph(out)


def layer_dicts(params):
    """Per-layer parameters as plain arrays for the reference computations."""
    out = []
    for ly in params.layers:
        if ly.feature.W is not None:
            raise ValueError("the reference computations assume W = I (learn_k)")
        out.append({"h_feat": ly.feature.h, "K": np.array(ly.feature.K),
                    "feat_slope": ly.feature.leaky_slope, "h_adj": ly.adjacency.h,
                    "k": np.array(ly.adjacency.coeffs.k), "alpha": ly.adjacency.coeffs.alpha,
                    "adj_slope": ly.adjacency.leaky_slope})
    return out


def step_bound_ratios(a0, layers):
    """Per layer (h_adj / its bound, h_feat / h_safe) along the clean trajectory."""
    out = []
    a = a0
    for ly in layers:
        out.append((ly["h_adj"] / ref.adjacency_step_bound(ly["k"], ly["alpha"]),
                    ly["h_feat"] / ref.feature_step_bound(a, ly["K"], ly["K"].shape[0])))
        a = ref.adjacency_step(a, ly["k"], ly["alpha"], ly["h_adj"], ly["adj_slope"])
    return out


def violates(ratios) -> bool:
    return any(r > 1.0 + BOUND_RTOL for pair in ratios for r in pair)


def self_check(rng):
    """Each reference against csgnn at small n, so a broken reference fails loudly."""
    n, c = 7, 4
    a = ref.symmetric_binary(rng, n, 0.5) * rng.uniform(0.5, 1.5, (n, n))
    a = 0.5 * (a + a.T)
    f = rng.standard_normal((n, c))
    k_feat = 0.5 * np.eye(c) + 0.1 * rng.standard_normal((c, c))
    k_adj, alpha = rng.standard_normal(8), -abs(float(rng.standard_normal()))
    layer = dynamics.LayerParams(h=0.1, K=k_feat)
    coeffs = equivariant.EquivariantCoeffs(k=k_adj, alpha=alpha)
    a_any = rng.standard_normal((n, n))
    errors = {
        "feature_field": rel_err(ref.feature_field(f, a, k_feat, layer.leaky_slope),
                                 dynamics.feature_field(f, a, layer)),
        "equivariant_map": rel_err(ref.equivariant_map(a_any, k_adj, alpha),
                                   equivariant.equivariant_linear(a_any, coeffs)),
        "feature_step_bound": rel_err(np.array(ref.feature_step_bound(a, k_feat, c)),
                                      np.array(dynamics.max_feature_step(a, layer))),
        "adjacency_step_bound": rel_err(np.array(ref.adjacency_step_bound(k_adj, alpha)),
                                        np.array(equivariant.max_step_adjacency(coeffs))),
    }
    return [f"reference self-check: {name} differs from csgnn by {err:.2e}"
            for name, err in errors.items() if not err <= 1e-10]


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    detail: dict = dataclasses.field(default_factory=dict)

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


def _same_outputs(rounds, key, out: Outcome, what):
    for r in rounds[1:]:
        out.expect(r[key] == rounds[0][key], f"{what} differs between rounds")


# --- train-n1000 ---------------------------------------------------------------

class TrainN1000:
    """`csgnn train` at n=1000, c=16, L=2, learn_k, a fixed number of epochs.

    The fit's inputs (graph seed and training seed) are fixed, so the
    step-bound fault in training.train fails it on every run; the workload
    seed drives the checks' random parameter directions.
    """

    name = "train-n1000"
    N = 1000
    GRAPH_SEED = 0
    TRAIN_SEED = 0
    EPOCHS = 2
    FD_DIRECTIONS = 2
    FD_STEP = 1e-5
    FD_RTOL = 1e-6

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def setup(self):
        self.graph_dir = self.work / "graph"
        self.g = gen_sbm(self.graph_dir, self.GRAPH_SEED, self.N)

    def round(self, idx, tracer=None):
        out = self.work / f"train-{idx}"
        with scope(tracer, "train"):
            rc, wall = run_cli(["train", "--out", out, "--seed", self.TRAIN_SEED,
                                "--set", f"graph={self.graph_dir}",
                                "--set", f"epochs={self.EPOCHS}", "--set", f"patience={self.EPOCHS}",
                                "--set", "hidden_dim=16", "--set", "num_layers=2",
                                "--set", "parameterization=learn_k"])
        files = {}
        if rc == 0:
            files = {name: (out / name).read_bytes()
                     for name in ("metrics.csv", "model.ckpt", "summary.txt")}
        if idx > 0:
            shutil.rmtree(out, ignore_errors=True)
        rows = files.get("metrics.csv", b"").decode().splitlines()[1:]
        return {"rc": rc, "wall": wall, "files": files,
                "epoch_s": wall / max(len(rows), 1), "dir": out}

    def work_s(self, rounds):
        return statistics.median(r["epoch_s"] for r in rounds)

    def detail(self, rounds):
        return {"epoch_s": self.work_s(rounds)}

    def check(self, rounds, rng) -> Outcome:
        out = Outcome(attempted=len(rounds))
        for r in rounds:
            out.expect(r["rc"] == 0, f"train exited {r['rc']}")
        if out.problems:
            out.failed = sum(1 for r in rounds if r["rc"] != 0)
            return out
        _same_outputs(rounds, "files", out, "train output")
        lines = rounds[0]["files"]["metrics.csv"].decode().splitlines()
        out.expect(lines[0] == "epoch,train_loss,val_acc,test_acc", "metrics.csv header")
        rows = [line.split(",") for line in lines[1:]]
        out.expect([int(r[0]) for r in rows] == list(range(self.EPOCHS)),
                   f"metrics.csv has {len(rows)} epochs, expected {self.EPOCHS}")
        out.expect(all(math.isfinite(float(r[1])) for r in rows), "non-finite training loss")

        g = self.g
        params = network.load_checkpoint(rounds[0]["dir"] / "model.ckpt")
        layers = layer_dicts(params)
        enc = np.array(params.encoder)
        states = ref.trajectory(g.features @ enc, g.adjacency, layers)
        for l, ly in enumerate(params.layers):
            f, a = states[l]
            err = rel_err(dynamics.feature_field(f, a, ly.feature),
                          ref.feature_field(f, a, layers[l]["K"], layers[l]["feat_slope"]))
            out.expect(err <= 1e-10, f"feature_field at layer {l} off the Laplacian form by {err:.2e}")

        logits, trace = network.forward(g, params, mode="eval")
        tensors = {"encoder": enc, "classifier_w": np.array(params.classifier_w),
                   "classifier_b": np.array(params.classifier_b)}
        for l, ly in enumerate(layers):
            tensors[f"K{l}"], tensors[f"k{l}"] = ly["K"], ly["k"]
        err = rel_err(logits, ref.logits(g.features, g.adjacency, tensors, layers))
        out.expect(err <= 1e-9, f"forward logits off the reference by {err:.2e}")
        grads = training.backward(trace, g, params,
                                  ref.cross_entropy_logit_grad(logits, g.labels, g.train_mask))
        grad_of = {"encoder": grads["encoder"], "classifier_w": grads["classifier_w"],
                   "classifier_b": grads["classifier_b"]}
        for l in range(len(layers)):
            grad_of[f"K{l}"], grad_of[f"k{l}"] = grads[f"layer{l}.K"], grads[f"layer{l}.k"]

        def loss(step, direction):
            moved = {key: val + step * direction[key] for key, val in tensors.items()}
            return ref.masked_cross_entropy(ref.logits(g.features, g.adjacency, moved, layers),
                                            g.labels, g.train_mask)

        worst = 0.0
        for _ in range(self.FD_DIRECTIONS):
            direction = {key: rng.standard_normal(np.shape(val)) for key, val in tensors.items()}
            scale = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
            direction = {key: d / scale for key, d in direction.items()}
            analytic = sum(float((grad_of[key] * direction[key]).sum()) for key in tensors)
            numeric = (loss(self.FD_STEP, direction) - loss(-self.FD_STEP, direction)) / (2 * self.FD_STEP)
            worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-12))
        out.expect(worst <= self.FD_RTOL,
                   f"backward directional derivative off the central difference by {worst:.2e}")

        ratios = step_bound_ratios(g.adjacency, layers)
        out.detail["step_bound_ratios"] = [[round(x, 4) for x in pair] for pair in ratios]
        out.detail["fd_rel_err"] = worst
        if violates(ratios):
            out.failed = len(rounds)
        return out


# --- sweep-n100 ----------------------------------------------------------------

class SweepN100:
    """`csgnn attack-sweep` on the README's n=100 SBM (graph seed 0).

    The workload seed is the sweep's attack seed. Clean-budget fits have
    inputs that do not depend on it, so their step-bound result is counted;
    on attacked fits it is reported in the run detail only.
    """

    name = "sweep-n100"
    N = 100
    GRAPH_SEED = 0
    RATIOS = (0.0, 1.0)
    MODELS = ("csgnn", "gcn")
    N_SEEDS = 2
    EPOCHS = 25

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def setup(self):
        self.graph_dir = self.work / "graph"
        self.g = gen_sbm(self.graph_dir, self.GRAPH_SEED, self.N)

    def round(self, idx, tracer=None):
        out = self.work / f"sweep-{idx}"
        events = []
        orig = {name: getattr(attacks, name) for name in ("apply_attack", "train", "train_gcn")}

        def capture_attack(g, spec, rng=None):
            if tracer is not None:
                tracer.op += 1  # each fit starts with its attack
            result = orig["apply_attack"](g, spec, rng)
            events.append(("attack", spec, result))
            return result

        def capture_train(g, config):
            params, history = orig["train"](g, config)
            events.append(("csgnn", g, params, history))
            return params, history

        def capture_gcn(g, **kwargs):
            weights = orig["train_gcn"](g, **kwargs)
            events.append(("gcn", g, weights))
            return weights

        attacks.apply_attack, attacks.train, attacks.train_gcn = capture_attack, capture_train, capture_gcn
        try:
            with scope(tracer, "sweep"):
                rc, wall = run_cli(["attack-sweep", "--out", out, "--seed", self.seed,
                                    "--set", f"graph={self.graph_dir}",
                                    "--set", "models=" + ",".join(self.MODELS),
                                    "--set", "edge_ratios=" + ",".join(f"{r:g}" for r in self.RATIOS),
                                    "--set", f"n_seeds={self.N_SEEDS}",
                                    "--set", f"epochs={self.EPOCHS}", "--set", f"patience={self.EPOCHS}"])
        finally:
            for name, fn in orig.items():
                setattr(attacks, name, fn)
        csv = (out / "results.csv").read_text() if rc == 0 else ""
        shutil.rmtree(out, ignore_errors=True)
        return {"rc": rc, "wall": wall, "csv": csv, "events": events}

    def work_s(self, rounds):
        return statistics.median(r["wall"] for r in rounds)

    def detail(self, rounds):
        return {"sweep_s": self.work_s(rounds)}

    def _check_poisoned(self, spec, g, out: Outcome):
        clean = self.g.adjacency
        a = g.adjacency
        out.expect(np.array_equal(a, a.T), "poisoned graph not symmetric")
        out.expect(bool(np.all((a == 0.0) | (a == 1.0))), "poisoned graph not binary")
        out.expect(not np.any(np.diag(a)), "poisoned graph has self-loops")
        out.expect(bool(np.all(a[clean == 1.0] == 1.0)), "poisoned graph lost a clean edge")
        m = int(np.count_nonzero(np.triu(clean, 1)))
        added = int(np.count_nonzero(np.triu(a, 1))) - m
        out.expect(added == math.floor(spec.edge_ratio * m),
                   f"ratio {spec.edge_ratio:g} added {added} edges, expected floor({spec.edge_ratio:g}*{m})")

    def check(self, rounds, rng) -> Outcome:
        out = Outcome()
        n_fits = len(self.RATIOS) * len(self.MODELS) * self.N_SEEDS
        seeded_violations = 0
        for r in rounds:
            out.attempted += n_fits
            if r["rc"] != 0:
                out.failed += n_fits
                out.problems.append(f"attack-sweep exited {r['rc']}")
                continue
            lines = r["csv"].splitlines()
            out.expect(lines[0] == "model,attack_kind,budget,seed_count,mean_acc,std_acc",
                       "results.csv header")
            rows = [line.split(",") for line in lines[1:]]
            out.expect(sorted((row[0], row[2]) for row in rows)
                       == sorted((m, f"{ratio:g}") for m in self.MODELS for ratio in self.RATIOS),
                       "results.csv does not hold one row per (model, budget)")
            for row in rows:
                out.expect(int(row[3]) == self.N_SEEDS, f"seed_count {row[3]} != {self.N_SEEDS}")
                out.expect(0.0 <= float(row[4]) <= 1.0, f"mean_acc {row[4]} outside [0, 1]")
                out.expect(0.0 <= float(row[5]) <= 0.5, f"std_acc {row[5]} outside [0, 0.5]")
            spec = None
            fits = {"csgnn": 0, "gcn": 0}
            for event in r["events"]:
                if event[0] == "attack":
                    spec = event[1]
                    self._check_poisoned(spec, event[2], out)
                    continue
                fits[event[0]] += 1
                out.expect(spec is not None, "fit without an attack")
                if event[0] == "gcn":
                    out.expect(all(np.all(np.isfinite(w)) for w in (event[2].w1, event[2].w2)),
                               "non-finite GCN weights")
                    continue
                _, g, params, history = event
                out.expect(len(history) == self.EPOCHS, f"csgnn fit ran {len(history)} epochs")
                out.expect(all(math.isfinite(rec.train_loss) for rec in history), "non-finite loss")
                if violates(step_bound_ratios(g.adjacency, layer_dicts(params))):
                    if spec.edge_ratio == 0.0:
                        out.failed += 1
                    else:
                        seeded_violations += 1
            per_model = len(self.RATIOS) * self.N_SEEDS
            out.expect(fits == {"csgnn": per_model, "gcn": per_model}, f"fits made: {fits}")
        _same_outputs(rounds, "csv", out, "results.csv")
        out.detail["attacked_csgnn_fits"] = len(rounds) * (len(self.RATIOS) - 1) * self.N_SEEDS
        out.detail["attacked_csgnn_step_bound_violations"] = seeded_violations
        return out


# --- certify-verify -------------------------------------------------------------

class CertifyVerify:
    """`csgnn verify --seed 0` at default trials, then `csgnn certify` on a
    seeded n=1000 graph with a checkpoint built in set-up."""

    name = "certify-verify"
    N = 1000
    VERIFY_SEED = 0
    EPS_FEAT = 0.5
    EPS_ADJ = 2.0
    K_L1 = 0.05            # sum|k_i|, inside the slope-uniform margin for alpha = -1
    H_FRACTION = 0.9       # feature step as a share of its bound over the eps_adj ball
    PERTURBATIONS = 4

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def setup(self):
        self.graph_dir = self.work / "graph"
        self.g = gen_sbm(self.graph_dir, self.seed, self.N)
        self.ckpt = self.work / "model.ckpt"
        network.save_checkpoint(self._build_params(), self.ckpt)
        self.params = network.load_checkpoint(self.ckpt)

    def _build_params(self):
        """Initial parameters with every step inside its bound on the clean trajectory."""
        g = self.g
        config = training.TrainConfig(hidden_dim=16, num_layers=2, seed=self.seed)
        params = training.init_params(g.feat_dim, int(g.labels.max()) + 1, g.n, config,
                                      np.random.default_rng(self.seed))
        layers = []
        a = g.adjacency
        for ly in params.layers:
            k = np.array(ly.adjacency.coeffs.k)
            coeffs = equivariant.EquivariantCoeffs(k=k * (self.K_L1 / np.abs(k).sum()),
                                                   alpha=config.alpha)
            adjacency = dataclasses.replace(
                ly.adjacency, coeffs=coeffs,
                h=min(config.h, equivariant.max_step_adjacency(coeffs)))
            h_feat = self.H_FRACTION * dynamics.max_feature_step(a, ly.feature, l1_radius=self.EPS_ADJ)
            layers.append(network.CoupledLayer(feature=dataclasses.replace(ly.feature, h=h_feat),
                                               adjacency=adjacency))
            a = equivariant.adjacency_step(a, adjacency)
        return dataclasses.replace(params, layers=tuple(layers))

    def round(self, idx, tracer=None):
        v_out, c_out = self.work / f"verify-{idx}", self.work / f"certify-{idx}"
        with scope(tracer, "verify"):
            v_rc, v_wall = run_cli(["verify", "--out", v_out, "--seed", self.VERIFY_SEED])
        with scope(tracer, "certify"):
            c_rc, c_wall = run_cli(["certify", "--out", c_out,
                                    "--set", f"checkpoint={self.ckpt}",
                                    "--set", f"graph={self.graph_dir}",
                                    "--set", f"eps_feat={self.EPS_FEAT:g}",
                                    "--set", f"eps_adj={self.EPS_ADJ:g}"])
        report = (v_out / "verify_report.txt").read_text() if v_out.exists() else ""
        cert = (c_out / "certificate.txt").read_text() if c_rc == 0 else ""
        shutil.rmtree(v_out, ignore_errors=True)
        shutil.rmtree(c_out, ignore_errors=True)
        return {"rc": (v_rc, c_rc), "wall": v_wall + c_wall, "verify_s": v_wall,
                "certify_s": c_wall, "report": report, "cert": cert}

    def work_s(self, rounds):
        return statistics.median(r["wall"] for r in rounds)

    def detail(self, rounds):
        return {"verify_s": statistics.median(r["verify_s"] for r in rounds),
                "certify_s": statistics.median(r["certify_s"] for r in rounds)}

    def _check_report(self, report, out: Outcome) -> bool:
        lines = report.splitlines()
        statuses = {}
        for line in lines[1:-1]:
            parts = line.split()
            if parts and parts[0] in VERIFY_CHECKS:
                statuses[parts[0]] = parts[1]
        ok = (set(statuses) == set(VERIFY_CHECKS)
              and all(s in ("PASS", "REPORT") for s in statuses.values())
              and bool(lines) and lines[-1].startswith("summary:") and " 0 failed" in lines[-1])
        out.expect(ok, f"verify report: {statuses}")
        return ok

    def check(self, rounds, rng) -> Outcome:
        out = Outcome(attempted=2 * len(rounds))
        for r in rounds:
            v_rc, c_rc = r["rc"]
            out.expect(v_rc == 0, f"verify exited {v_rc}")
            if not (self._check_report(r["report"], out) and v_rc == 0):
                out.failed += 1
            if c_rc != 0:
                out.failed += 1
                out.problems.append(f"certify exited {c_rc}")
        _same_outputs(rounds, "report", out, "verify report")
        _same_outputs(rounds, "cert", out, "certificate")
        if rounds[0]["rc"][1] != 0:
            return out
        bound = float(rounds[0]["cert"].splitlines()[-1].split("=")[1])
        g = self.g
        layers = layer_dicts(self.params)
        f0 = g.features @ np.array(self.params.encoder)
        clean = ref.trajectory(f0, g.adjacency, layers)[-1]
        worst = -math.inf
        for t in range(self.PERTURBATIONS):
            df = rng.standard_normal(f0.shape)
            df *= self.EPS_FEAT / np.linalg.norm(df)
            if t % 2 == 0:  # dense symmetric dA
                da = rng.standard_normal((g.n, g.n))
                da = da + da.T
            else:           # the whole budget on one random symmetric pair
                i, j = rng.choice(g.n, size=2, replace=False)
                da = np.zeros((g.n, g.n))
                da[i, j] = da[j, i] = 1.0 if rng.random() < 0.5 else -1.0
            da *= self.EPS_ADJ / np.abs(da).sum()
            moved = ref.trajectory(f0 + df, g.adjacency + da, layers)[-1]
            worst = max(worst, ref.weighted_distance(clean, moved) / bound)
        out.expect(worst <= 1.0 + BOUND_RTOL,
                   f"perturbed output distance exceeds the certified bound ({worst:.4f} of it)")
        out.detail["certified_bound"] = bound
        out.detail["worst_distance_over_bound"] = worst
        return out


WORKLOADS = {cls.name: cls for cls in (TrainN1000, SweepN100, CertifyVerify)}
