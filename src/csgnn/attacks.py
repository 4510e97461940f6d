"""Attack generators, robustness evaluation, and the plain-GCN baseline.

Attacks are poisoning attacks: the defended model is trained on the attacked
graph and never sees the clean one. A spec is of one of two kinds: a random
edge attack adds a fixed fraction of the original undirected edge count as
fake edges drawn uniformly from the non-edges; a feature attack adds a random
direction scaled to sit just inside the Frobenius budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Graph, edge_array
from .training import (AdamState, TrainConfig, _uniform_init, accuracy, adam_step,
                       checkpoint_accuracies, cross_entropy_logit_grad, require_train_and_val,
                       select_checkpoint, train)
from .stacks import freeze


class AttackKind(str, Enum):
    RANDOM_EDGES = "random_edges"
    FEATURE_NOISE = "feature_noise"


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    edge_ratio: float = 0.0
    feat_eps: float = 0.0

    def __post_init__(self):
        for budget in (self.edge_ratio, self.feat_eps):
            if not (np.isfinite(budget) and budget >= 0):
                raise ValueError(f"attack budgets must be finite and nonnegative, got {budget}")

    def budget_token(self) -> str:
        return format_budget(self.edge_ratio if self.kind == AttackKind.RANDOM_EDGES
                             else self.feat_eps)


def format_budget(budget: float) -> str:
    """`budget` as `:g` prints it where that reads back as the same float, and
    as its repr otherwise, so two distinct budgets never print alike."""
    short = f"{budget:g}"
    return short if float(short) == budget else repr(float(budget))


def random_edge_attack(g: Graph, spec: AttackSpec, rng) -> Graph:
    """Add floor(edge_ratio * m) distinct undirected non-edges, chosen uniformly.

    Never removes edges, never adds self-loops; labels and masks are untouched.
    The pairs i < j are numbered row by row, and the draw picks positions
    among the non-edges in that order, in O(m log m) time and memory.
    """
    m = g.num_undirected_edges()
    n_add = np.floor(spec.edge_ratio * m)  # inf for a huge ratio: refused below
    if n_add == 0:
        return g
    n = g.n
    # pair (i, i+1), the first of row i, has number row_start[i]
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    i, j = g.edges[g.edges[:, 0] < g.edges[:, 1]].T
    taken = row_start[i] + j - i - 1  # the edges' numbers, increasing
    free = n * (n - 1) // 2 - taken.size
    if n_add > free:
        raise ValueError(f"not enough non-edges: need {n_add:.0f}, have {free}")
    pick = rng.choice(free, size=int(n_add), replace=False)
    # the k-th non-edge is pair k + (the number of edges with at most k
    # non-edges before them)
    pair = pick + np.searchsorted(taken - np.arange(taken.size), pick, side="right")
    rows = np.searchsorted(row_start, pair, side="right") - 1
    cols = pair - row_start[rows] + rows + 1
    edges = edge_array(n, np.concatenate([g.edges[:, 0], rows]),
                       np.concatenate([g.edges[:, 1], cols]))
    return dataclasses.replace(g, edges=edges)


def feature_noise_attack(g: Graph, spec: AttackSpec, rng) -> Graph:
    """Add a random direction scaled to Frobenius norm just under feat_eps."""
    if spec.feat_eps == 0.0:
        return g
    direction = rng.standard_normal(g.features.shape)
    direction *= spec.feat_eps * (1.0 - 1e-9) / np.linalg.norm(direction)
    return dataclasses.replace(g, features=g.features + direction)


def apply_attack(g: Graph, spec: AttackSpec, rng) -> Graph:
    attack = random_edge_attack if spec.kind == AttackKind.RANDOM_EDGES else feature_noise_attack
    return attack(g, spec, rng)


# --- plain GCN baseline --------------------------------------------------------

@dataclass(frozen=True)
class GCNFit:
    """The weights `train_gcn` chose and the test accuracy of their logits."""
    w1: np.ndarray
    w2: np.ndarray
    test_acc: float

    def __post_init__(self):
        for name in ("w1", "w2"):
            freeze(self, name)


def _sym_normalized(a: np.ndarray) -> np.ndarray:
    a_hat = a + np.eye(a.shape[0])
    d = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def _gcn_logits(a_hat: np.ndarray, a_hat_f: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> tuple:
    """GCN logits from A_hat and A_hat F, with the first layer's
    pre-activation and the propagated hidden state that the gradient needs."""
    pre = a_hat_f @ w1
    prop = a_hat @ np.maximum(pre, 0.0)
    return prop @ w2, pre, prop


def train_gcn(g: Graph, config: TrainConfig) -> GCNFit:
    """Train the baseline, two propagation rounds A_hat relu(A_hat F W1) W2
    with A_hat the symmetric-normalized adjacency with self-loops, on the
    (possibly attacked) graph as the coupled model is trained: the same
    initialization, Adam step and checkpoint selection, with `config`'s seed,
    epochs, patience, `hidden_dim`, learning rate and weight decay. An Adam
    step that leaves a non-finite weight or logit stops training at the best
    checkpoint so far. The fit's test accuracy is read from the logits that
    selected its weights, or from one forward of the initial weights when no
    epoch completes."""
    require_train_and_val(g)
    rng = np.random.default_rng(config.seed)
    w = {"w1": _uniform_init(rng, g.feat_dim, config.hidden_dim),
         "w2": _uniform_init(rng, config.hidden_dim, int(g.labels.max()) + 1)}
    state = AdamState.init(w)
    a_hat = _sym_normalized(g.adjacency)
    a_hat_f = a_hat @ g.features

    def epoch_step(epoch, checkpoint):
        w = checkpoint[0]
        # a step that overflows to inf or nan stops training just below
        with np.errstate(over="ignore", invalid="ignore"):
            logits, pre, prop = _gcn_logits(a_hat, a_hat_f, w["w1"], w["w2"])
            gl = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
            grads = {"w1": a_hat_f.T @ ((pre > 0) * ((a_hat @ gl) @ w["w2"].T)),
                     "w2": prop.T @ gl}
            w = adam_step(w, grads, state, config)
            logits = _gcn_logits(a_hat, a_hat_f, w["w1"], w["w2"])[0]
        if not all(np.isfinite(t).all() for t in (*w.values(), logits)):
            return None
        return (w, logits), accuracy(logits, g.labels, g.val_mask)

    w, logits = select_checkpoint((w, None), config.epochs, config.patience, epoch_step)
    if logits is None:
        logits = _gcn_logits(a_hat, a_hat_f, w["w1"], w["w2"])[0]
    return GCNFit(w1=w["w1"], w2=w["w2"], test_acc=accuracy(logits, g.labels, g.test_mask))


# --- evaluation harness ---------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    model: str
    attack_kind: str
    budget: str
    seed_count: int
    mean_acc: float
    std_acc: float


MODELS = ("csgnn", "gcn")


def _score(attacked: Graph, model_name: str, config: TrainConfig) -> float:
    if model_name == "csgnn":
        return checkpoint_accuracies(attacked, *train(attacked, config))[1]
    if model_name != "gcn":
        raise ValueError(f"unknown model {model_name!r}")
    # the config by keyword: perfbench's sweep capture wraps train_gcn(g, **kwargs)
    return train_gcn(attacked, config=config).test_acc


def evaluate_robustness(clean: Graph, specs: list, models: list, config: TrainConfig,
                        seeds) -> list:
    """Poisoning protocol: attack, train on the attacked graph, record test
    accuracy over the caller's `seeds`; one aggregate row per (model, attack
    spec). Every model sees the same attacked graph for a given (spec, seed),
    built once from the generator seeded with (`config.seed`, seed), and trains
    with `config` under that seed."""
    if not clean.test_mask.any():
        raise ValueError("clean graph needs split masks")
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    rows = []
    for spec in specs:
        accs = [[] for _ in models]
        for seed in seeds:
            attacked = apply_attack(clean, spec, np.random.default_rng([config.seed, seed]))
            seeded = dataclasses.replace(config, seed=seed)
            for per_model, model_name in zip(accs, models):
                per_model.append(_score(attacked, model_name, seeded))
        for per_model, model_name in zip(accs, models):
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
