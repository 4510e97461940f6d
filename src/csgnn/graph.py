"""Graph containers, perturbation metrics, and the on-disk graph format.

A graph is undirected and unweighted, held by its m edges, plus an n x c_in
feature matrix, integer class labels (-1 marks unlabeled nodes) and three
disjoint boolean split masks. Attack budgets are measured with the l0 edit
count, the vectorized l1 norm, and the Frobenius norm.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics
from .stacks import any_of, freeze, scalar_or_stack


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with binary edges, features, labels and split masks.

    `edges` is an (m, 2) integer array of the pairs (i, j), 0 <= i <= j < n,
    joined by an edge, each once and in row-major order, as `edges.txt` holds
    them. The adjacency, 1 on each edge and its mirror and 0 elsewhere, is
    symmetric and binary by construction; `adjacency` builds it afresh on each
    access, so a Graph keeps no n x n array. Construction (`dataclasses.replace`
    included) raises ValueError on any field out of its form or a non-finite
    feature: everything downstream relies on that.
    """

    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray = None
    train_mask: np.ndarray = None
    val_mask: np.ndarray = None
    test_mask: np.ndarray = None

    def __post_init__(self):
        feat = freeze(self, "features")
        edges = freeze(self, "edges", int)
        if not np.isfinite(feat).all():
            raise ValueError("feature entries must be finite")
        if feat.ndim != 2:
            raise ValueError(f"features must be an n x c matrix, got shape {feat.shape}")
        n = feat.shape[0]
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) integer array")
        i, j = edges.T
        if np.any(i < 0) or np.any(i > j) or np.any(j >= n) or np.any(np.diff(i * n + j) <= 0):
            raise ValueError("edges must hold pairs (i, j), 0 <= i <= j < n,"
                             " each once and in row-major order")
        for name, dtype, default in (("labels", int, -1), ("train_mask", bool, False),
                                     ("val_mask", bool, False), ("test_mask", bool, False)):
            if freeze(self, name, dtype, default=np.full(n, default)).shape != (n,):
                raise ValueError(f"{name} must be a length-n {dtype.__name__} vector")
        masks = self.train_mask, self.val_mask, self.test_mask
        if np.any(np.sum(masks, axis=0) > 1):
            raise ValueError("train/val/test masks must be pairwise disjoint")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def adjacency(self) -> np.ndarray:
        """The dense n x n 0/1 adjacency, read-only, built afresh on each access."""
        a = np.zeros((self.n, self.n))
        i, j = self.edges.T
        a[i, j] = a[j, i] = 1.0
        a.setflags(write=False)
        return a

    @functools.cached_property
    def gradient_operator_sq_norm(self) -> float:
        """||G(A)||_2^2 of the adjacency, the graph term of every step bound on
        it; computed on first use only. One float: a Graph caches no n x n array."""
        return dynamics.gradient_operator_sq_norm(self.adjacency)

    def num_undirected_edges(self) -> int:
        """Count of off-diagonal undirected edges."""
        return int(np.count_nonzero(self.edges[:, 0] != self.edges[:, 1]))


def edge_array(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distinct unordered pairs {i_k, j_k} of nodes 0..n-1 as `Graph.edges`
    reads them, read-only, so that a Graph keeps the array without a copy."""
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    edges = np.stack(np.divmod(keys, n), axis=1)
    edges.setflags(write=False)
    return edges


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
# edges.txt is written this many edges at a time
_EDGE_BLOCK = 4096


def save_graph(g: Graph, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "edges.txt", "w", newline="\n") as fh:
        for k in range(0, len(g.edges), _EDGE_BLOCK):
            fh.write("".join(f"{i} {j}\n" for i, j in g.edges[k:k + _EDGE_BLOCK].tolist()))
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
    with warnings.catch_warnings():  # an edgeless graph's empty edges.txt is zero edges
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        pairs = _load_table(src / "edges.txt", dtype=int, ndmin=2)
    if pairs.size:
        if pairs.shape[1] != 2:
            raise ValueError(f"edges.txt must hold two columns (i j) per row, got {pairs.shape[1]}")
        if pairs.min() < 0 or pairs.max() >= n:
            raise ValueError(f"edges.txt: edge index outside 0..{n - 1}, the rows of features.csv")
    labels = _load_table(src / "labels.csv", dtype=int, ndmin=1)
    masks = _load_table(src / "masks.csv", dtype=int, delimiter=",", skiprows=1, ndmin=2)
    if masks.shape[1] != 3 or not np.isin(masks, (0, 1)).all():
        raise ValueError("masks.csv must hold three columns (train,val,test) of 0/1 values")
    for name, rows in (("labels.csv", labels.shape[0]), ("masks.csv", masks.shape[0])):
        if rows != n:
            raise ValueError(f"{name} has {rows} rows, but features.csv has {n}")
    return Graph(
        edges=edge_array(n, *pairs.reshape(-1, 2).T),  # an empty file's (0, 1) too
        features=features,
        labels=labels,
        train_mask=masks[:, 0] == 1,
        val_mask=masks[:, 1] == 1,
        test_mask=masks[:, 2] == 1,
    )
