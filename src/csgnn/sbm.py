"""Stochastic block model benchmark generator.

Balanced communities with intra-class edge probability p_in and inter-class
probability p_out; node features are Gaussian with a class-dependent mean shift
of magnitude `signal` along per-class coordinate directions. Nodes are split
10/10/80 into train/val/test, stratified by class.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

TRAIN_FRACTION = 0.1
VAL_FRACTION = 0.1


def gen_sbm(n: int, classes: int, p_in: float, p_out: float, feat_dim: int,
            signal: float, seed: int) -> Graph:
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if n < classes or classes < 2 or feat_dim < 1:
        raise ValueError("degenerate size parameters")
    rng = np.random.default_rng(seed)

    labels = np.arange(n) % classes
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adjacency = (upper | upper.T).astype(float)

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

    return Graph(adjacency=adjacency, features=features, labels=labels,
                 train_mask=train, val_mask=val, test_mask=test)
