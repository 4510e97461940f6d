"""Attack generators, robustness evaluation, and the plain-GCN baseline.

Attacks are poisoning attacks: the defended model is trained on the attacked
graph and never sees the clean one. Random edge attacks add a fixed fraction
of the original undirected edge count as new fake edges drawn uniformly from
the non-edges; feature attacks add a random direction scaled to sit just
inside the Frobenius budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

import dataclasses

from .graph import Graph
from .training import TrainConfig, accuracy, cross_entropy_logit_grad, train
from .network import forward

EVAL_SEEDS = tuple(range(10))


class AttackKind(str, Enum):
    RANDOM_EDGES = "random_edges"
    FEATURE_NOISE = "feature_noise"
    BOTH = "both"


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    edge_ratio: float = 0.0
    feat_eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.edge_ratio < 0 or self.feat_eps < 0:
            raise ValueError("attack budgets must be nonnegative")

    def budget_token(self) -> str:
        if self.kind == AttackKind.RANDOM_EDGES:
            return f"{self.edge_ratio:g}"
        if self.kind == AttackKind.FEATURE_NOISE:
            return f"{self.feat_eps:g}"
        return f"er{self.edge_ratio:g}+fe{self.feat_eps:g}"


def random_edge_attack(g: Graph, spec: AttackSpec, rng=None) -> Graph:
    """Add floor(edge_ratio * m) distinct undirected non-edges, chosen uniformly.

    Never removes edges, never adds self-loops; labels and masks are untouched.
    """
    a = g.adjacency
    if not np.all((a == 0.0) | (a == 1.0)) or not np.array_equal(a, a.T):
        raise ValueError("random edge attack requires a binary symmetric graph")
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    m = g.num_undirected_edges()
    n_add = int(np.floor(spec.edge_ratio * m))
    if n_add == 0:
        return g
    iu, ju = np.triu_indices(g.n, k=1)
    free = a[iu, ju] == 0.0
    candidates = np.flatnonzero(free)
    if n_add > candidates.size:
        raise ValueError(f"not enough non-edges: need {n_add}, have {candidates.size}")
    chosen = rng.choice(candidates, size=n_add, replace=False)
    out = np.array(a)
    out[iu[chosen], ju[chosen]] = 1.0
    out[ju[chosen], iu[chosen]] = 1.0
    return g.replace(adjacency=out)


def feature_noise_attack(g: Graph, spec: AttackSpec, rng=None) -> Graph:
    """Add a random direction scaled to Frobenius norm just under feat_eps."""
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    if spec.feat_eps == 0.0:
        return g
    direction = rng.standard_normal(g.features.shape)
    direction *= spec.feat_eps * (1.0 - 1e-9) / np.linalg.norm(direction)
    return g.replace(features=g.features + direction)


def apply_attack(g: Graph, spec: AttackSpec, rng=None) -> Graph:
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    out = g
    if spec.kind in (AttackKind.RANDOM_EDGES, AttackKind.BOTH):
        out = random_edge_attack(out, spec, rng)
    if spec.kind in (AttackKind.FEATURE_NOISE, AttackKind.BOTH):
        out = feature_noise_attack(out, spec, rng)
    return out


# --- plain GCN baseline --------------------------------------------------------

@dataclass(frozen=True)
class GCNWeights:
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "w2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _sym_normalized(a: np.ndarray) -> np.ndarray:
    a_hat = a + np.eye(a.shape[0])
    d = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def gcn_baseline_forward(g: Graph, weights: GCNWeights) -> np.ndarray:
    """Two propagation rounds: A_hat relu(A_hat F W1) W2 with A_hat the
    symmetric-normalized adjacency with self-loops."""
    if g.features.shape[1] != weights.w1.shape[0]:
        raise ValueError("feature width does not match first GCN weight")
    a_hat = _sym_normalized(g.adjacency)
    hidden = np.maximum(a_hat @ g.features @ weights.w1, 0.0)
    return a_hat @ hidden @ weights.w2


def train_gcn(g: Graph, seed: int = 0, hidden: int = 16, epochs: int = 200,
              lr: float = 1e-2, weight_decay: float = 5e-4, patience: int = 50):
    """Adam training of the baseline on the (possibly attacked) graph."""
    rng = np.random.default_rng(seed)
    c_in = g.feat_dim
    c_out = int(g.labels.max()) + 1

    def uni(fi, fo):
        s = np.sqrt(6.0 / (fi + fo))
        return rng.uniform(-s, s, size=(fi, fo))

    w = {"w1": uni(c_in, hidden), "w2": uni(hidden, c_out)}
    m = {k: np.zeros_like(v) for k, v in w.items()}
    v = {k: np.zeros_like(val) for k, val in w.items()}
    a_hat = _sym_normalized(g.adjacency)
    f = g.features
    best, best_val, since = dict(w), -np.inf, 0
    for t in range(1, epochs + 1):
        pre = a_hat @ f @ w["w1"]
        hid = np.maximum(pre, 0.0)
        prop = a_hat @ hid
        logits = prop @ w["w2"]
        gl = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
        grads = {
            "w2": prop.T @ gl,
            "w1": (a_hat @ f).T @ ((pre > 0) * ((a_hat @ gl) @ w["w2"].T)),
        }
        for key in w:
            m[key] = 0.9 * m[key] + 0.1 * grads[key]
            v[key] = 0.999 * v[key] + 0.001 * grads[key] ** 2
            m_hat = m[key] / (1 - 0.9 ** t)
            v_hat = v[key] / (1 - 0.999 ** t)
            w[key] = w[key] - lr * m_hat / (np.sqrt(v_hat) + 1e-8) - lr * weight_decay * w[key]
        logits = gcn_baseline_forward(g, GCNWeights(**w))
        # same selection policy as the coupled model: latest among accuracy ties
        val = accuracy(logits, g.labels, g.val_mask)
        if val > best_val:
            best_val, best, since = val, dict(w), 0
        else:
            if val == best_val:
                best = dict(w)
            since += 1
            if since >= patience:
                break
    return GCNWeights(**best)


# --- evaluation harness ---------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    model: str
    attack_kind: str
    budget: str
    seed_count: int
    mean_acc: float
    std_acc: float


def _score(attacked: Graph, model_name: str, model_cfg, seed: int) -> float:
    if model_name == "csgnn":
        cfg = dataclasses.replace(model_cfg, seed=seed)
        params, _ = train(attacked, cfg)
        logits, _ = forward(attacked, params, mode="eval")
    elif model_name == "gcn":
        weights = train_gcn(attacked, seed=seed, **(model_cfg or {}))
        logits = gcn_baseline_forward(attacked, weights)
    else:
        raise ValueError(f"unknown model {model_name!r}")
    return accuracy(logits, attacked.labels, attacked.test_mask)


def evaluate_robustness(clean: Graph, specs: list, model_cfgs: list,
                        seeds=EVAL_SEEDS) -> list:
    """Poisoning protocol: attack, train on the attacked graph, record test
    accuracy; one aggregate row per (model, attack spec). Every model sees
    the same attacked graph for a given (spec, seed), built once."""
    if not clean.test_mask.any():
        raise ValueError("clean graph needs split masks")
    rows = []
    for spec in specs:
        accs = [[] for _ in model_cfgs]
        for seed in seeds:
            attacked = apply_attack(clean, spec, np.random.default_rng([spec.seed, seed]))
            for per_model, (model_name, model_cfg) in zip(accs, model_cfgs):
                per_model.append(_score(attacked, model_name, model_cfg, seed))
        for per_model, (model_name, _) in zip(accs, model_cfgs):
            rows.append(ResultRow(
                model=model_name,
                attack_kind=spec.kind.value,
                budget=spec.budget_token(),
                seed_count=len(per_model),
                mean_acc=float(np.mean(per_model)),
                std_acc=float(np.std(per_model)),
            ))
    return rows


def results_to_csv(rows: list) -> str:
    lines = ["model,attack_kind,budget,seed_count,mean_acc,std_acc"]
    for r in rows:
        lines.append(f"{r.model},{r.attack_kind},{r.budget},{r.seed_count},"
                     f"{r.mean_acc:.10g},{r.std_acc:.10g}")
    return "\n".join(lines) + "\n"
