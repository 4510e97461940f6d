"""Graph containers, perturbation metrics, and the on-disk graph format.

A graph is undirected and held densely: an exactly symmetric n x n real
adjacency matrix plus an n x c_in feature matrix, integer class labels (-1
marks unlabeled nodes) and three disjoint boolean split masks. Attack budgets
are measured with the l0 edit count, the vectorized l1 norm, and the Frobenius
norm.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics
from .stacks import all_symmetric, any_of, freeze, scalar_or_stack


@dataclass(frozen=True)
class Graph:
    """Immutable dense undirected graph with features, labels and split masks.

    Construction (`dataclasses.replace` included) raises ValueError on an
    adjacency that is not exactly symmetric, or on a non-finite adjacency or
    feature entry: everything downstream relies on that.
    """

    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray = None
    train_mask: np.ndarray = None
    val_mask: np.ndarray = None
    test_mask: np.ndarray = None

    def __post_init__(self):
        adj = freeze(self, "adjacency")
        feat = freeze(self, "features")
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if not all_symmetric(adj):
            # NaN equals nothing, so this also rejects any NaN entry
            raise ValueError("adjacency must be exactly symmetric (an undirected graph), without NaN")
        if np.isinf(adj).any() or not np.isfinite(feat).all():
            raise ValueError("adjacency and feature entries must be finite")
        n = adj.shape[0]
        if feat.ndim != 2 or feat.shape[0] != n:
            raise ValueError(f"features must have {n} rows, got shape {feat.shape}")
        labels = freeze(self, "labels", int, default=-np.ones(n, dtype=int))
        if labels.shape != (n,):
            raise ValueError("labels must be a length-n integer vector")
        masks = []
        for name in ("train_mask", "val_mask", "test_mask"):
            m = freeze(self, name, bool, default=np.zeros(n, dtype=bool))
            if m.shape != (n,):
                raise ValueError(f"{name} must be a length-n boolean vector")
            masks.append(m)
        if np.any(masks[0] & masks[1]) or np.any(masks[0] & masks[2]) or np.any(masks[1] & masks[2]):
            raise ValueError("train/val/test masks must be pairwise disjoint")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def binary(self) -> bool:
        """Whether every adjacency entry is 0 or 1; checked on first use only."""
        return bool(np.all((self.adjacency == 0.0) | (self.adjacency == 1.0)))

    @functools.cached_property
    def gradient_operator_sq_norm(self) -> float:
        """||G(A)||_2^2 of the adjacency, the graph term of every step bound on
        it; computed on first use only. One float: a Graph caches no n x n array."""
        return dynamics.gradient_operator_sq_norm(self.adjacency)

    def num_undirected_edges(self) -> int:
        """Count of off-diagonal undirected edges (nonzero entries above the diagonal)."""
        a = self.adjacency
        return int((np.count_nonzero(a) - np.count_nonzero(np.diagonal(a))) // 2)


@dataclass(frozen=True)
class PerturbationBudget:
    """Attack budget: Frobenius bound on feature noise, vectorized-l1 bound on adjacency edits."""

    eps_feat: float
    eps_adj: float

    def __post_init__(self):
        for eps in (self.eps_feat, self.eps_adj):
            if any_of(~np.isfinite(eps) | (eps < 0)):
                raise ValueError(f"budgets must be finite and nonnegative, got {eps}")


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def l0_distance(a: np.ndarray, a_star: np.ndarray) -> int:
    """Number of entries where the two matrices differ (exact inequality, no tolerance)."""
    a = np.asarray(a, dtype=float)
    a_star = np.asarray(a_star, dtype=float)
    _check_same_shape(a, a_star)
    return int(np.count_nonzero(a != a_star))


def l1_vec_distance(a: np.ndarray, a_star: np.ndarray) -> float:
    """Vectorized l1 distance: sum of absolute entrywise differences.

    For stacks of shape (..., n, m), one distance per pair of matrices.
    """
    a = np.asarray(a, dtype=float)
    a_star = np.asarray(a_star, dtype=float)
    _check_same_shape(a, a_star)
    return scalar_or_stack(np.abs(a - a_star).sum(axis=(-2, -1)))


def frobenius_distance(f: np.ndarray, f_star: np.ndarray) -> float:
    """For stacks of shape (..., n, c), one distance per pair of matrices."""
    f = np.asarray(f, dtype=float)
    f_star = np.asarray(f_star, dtype=float)
    _check_same_shape(f, f_star)
    return scalar_or_stack(np.sqrt(((f - f_star) ** 2).sum(axis=(-2, -1))))


# On-disk layout: edges.txt ("i j" per undirected edge, 0-indexed), features.csv
# (one row of comma-separated floats per node), labels.csv (one integer per node),
# masks.csv (header train,val,test then 0/1 rows). Loader symmetrizes edges.

_FLOAT_FMT = "%.17g"
# edges.txt is written this many adjacency rows at a time
_ROW_BLOCK = 64


def save_graph(g: Graph, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not g.binary:
        raise ValueError("edge-list format only stores binary adjacency matrices")
    with open(out / "edges.txt", "w", newline="\n") as fh:
        for i in range(0, g.n, _ROW_BLOCK):
            # the nonzeros on and above the diagonal of rows i.., in row-major order
            rows, cols = np.nonzero(np.triu(g.adjacency[i:i + _ROW_BLOCK], k=i))
            fh.write("".join(f"{r} {c}\n" for r, c in zip((rows + i).tolist(), cols.tolist())))
    np.savetxt(out / "features.csv", g.features, fmt=_FLOAT_FMT, delimiter=",", newline="\n")
    np.savetxt(out / "labels.csv", g.labels[:, None], fmt="%d", newline="\n")
    masks = np.stack([g.train_mask, g.val_mask, g.test_mask], axis=1).astype(int)
    np.savetxt(out / "masks.csv", masks, fmt="%d", delimiter=",",
               header="train,val,test", comments="", newline="\n")


def _load_table(path: Path, **kwargs) -> np.ndarray:
    """`np.loadtxt`, with the file's name at the head of a parse error."""
    try:
        return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def load_graph(in_dir) -> Graph:
    src = Path(in_dir)
    features = _load_table(src / "features.csv", delimiter=",", ndmin=2)
    n = features.shape[0]
    adjacency = np.zeros((n, n))
    with warnings.catch_warnings():  # an edgeless graph's empty edges.txt is zero edges
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = _load_table(src / "edges.txt", dtype=int, ndmin=2)
    if edges.size:
        if edges.shape[1] != 2:
            raise ValueError(f"edges.txt must hold two columns (i j) per row, got {edges.shape[1]}")
        if edges.min() < 0:
            raise ValueError("negative edge index in edges.txt")
        if edges.max() >= n:
            raise ValueError("edge index exceeds node count implied by features.csv")
        adjacency[edges[:, 0], edges[:, 1]] = 1.0
        adjacency[edges[:, 1], edges[:, 0]] = 1.0
    adjacency.setflags(write=False)  # so that Graph keeps it without a copy
    labels = _load_table(src / "labels.csv", dtype=int, ndmin=1)
    masks = _load_table(src / "masks.csv", dtype=int, delimiter=",", skiprows=1, ndmin=2)
    if masks.shape[1] != 3 or not np.isin(masks, (0, 1)).all():
        raise ValueError("masks.csv must hold three columns (train,val,test) of 0/1 values")
    for name, rows in (("labels.csv", labels.shape[0]), ("masks.csv", masks.shape[0])):
        if rows != n:
            raise ValueError(f"{name} has {rows} rows, but features.csv has {n}")
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=masks[:, 0] == 1,
        val_mask=masks[:, 1] == 1,
        test_mask=masks[:, 2] == 1,
    )
