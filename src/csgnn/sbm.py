"""Stochastic block model benchmark generator.

Balanced communities with intra-class edge probability p_in and inter-class
probability p_out; node features are Gaussian with a class-dependent mean shift
of magnitude `signal` along per-class coordinate directions. Nodes are split
10/10/80 into train/val/test, stratified by class. The edges are drawn
straight into `Graph`'s edge form: no n x n array forms.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

TRAIN_FRACTION = 0.1
VAL_FRACTION = 0.1
# the uniform draws are taken this many rows at a time
_ROW_BLOCK = 64


def gen_sbm(n: int, classes: int, p_in: float, p_out: float, feat_dim: int,
            signal: float, seed: int) -> Graph:
    """Seeded SBM graph; node i is in class i % classes.

    Edge (i, j), i < j, is present when the (i, j) entry of one n x n uniform
    draw falls below its class pair's probability. That draw is taken a block
    of rows at a time from the same generator, so it is the same stream, and
    each block's hits above the diagonal become edges at once: no n x n
    array forms, and memory grows with the edges and one block. Every class
    must get a train, a validation and a test node, so n // classes must be
    at least 3.
    """
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if classes < 2 or feat_dim < 1:
        raise ValueError("degenerate size parameters")
    if n // classes < 3:
        raise ValueError(f"n={n} and classes={classes} leave a class without a train, a"
                         " validation and a test node: n // classes must be at least 3")
    if not np.isfinite(signal):
        raise ValueError(f"signal must be finite, got {signal}")
    rng = np.random.default_rng(seed)

    labels = np.arange(n) % classes
    rows, cols = [], []
    for i in range(0, n, _ROW_BLOCK):
        same = labels[i:i + _ROW_BLOCK, None] == labels[None, :]
        u = rng.random(same.shape)
        # rows i.. of the uniform draw below their class pair's probability,
        # from column i on; the hits above the diagonal, in row-major order
        r, c = np.nonzero(np.where(same[:, i:], u[:, i:] < p_in, u[:, i:] < p_out))
        del u, same  # before the next block's are drawn
        above = c > r
        rows.append(r[above] + i)
        cols.append(c[above] + i)
    edges = np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)

    means = np.zeros((classes, feat_dim))
    for k in range(classes):
        means[k, k % feat_dim] = signal
    features = means[labels] + rng.standard_normal((n, feat_dim))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for k in range(classes):
        idx = rng.permutation(np.flatnonzero(labels == k))
        n_train = max(1, int(round(TRAIN_FRACTION * idx.size)))
        n_val = max(1, int(round(VAL_FRACTION * idx.size)))
        train[idx[:n_train]] = True
        val[idx[n_train:n_train + n_val]] = True
        test[idx[n_train + n_val:]] = True

    edges.setflags(write=False)  # so that Graph keeps it without a copy
    return Graph(edges=edges, features=features, labels=labels,
                 train_mask=train, val_mask=val, test_mask=test)
