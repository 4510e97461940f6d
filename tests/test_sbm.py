"""The row-blocked SBM generator against the one-shot formula it replaced."""

import numpy as np
import pytest

from csgnn.sbm import TRAIN_FRACTION, VAL_FRACTION, gen_sbm


def one_shot_gen_sbm(n, classes, p_in, p_out, feat_dim, signal, seed):
    """The generator with the whole n x n uniform draw taken at once."""
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
    masks = np.zeros((3, n), dtype=bool)
    for k in range(classes):
        idx = rng.permutation(np.flatnonzero(labels == k))
        n_train = max(1, int(round(TRAIN_FRACTION * idx.size)))
        n_val = max(1, int(round(VAL_FRACTION * idx.size)))
        masks[0, idx[:n_train]] = True
        masks[1, idx[n_train:n_train + n_val]] = True
        masks[2, idx[n_train + n_val:]] = True
    return adjacency, features, labels, masks


@pytest.mark.parametrize("n, classes, p_in, p_out", [
    (130, 3, 0.3, 0.05), (64, 2, 0.5, 0.1), (65, 2, 1.0, 0.0), (200, 4, 0.2, 0.02)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_blocked_draw_gives_the_one_shot_graph(n, classes, p_in, p_out, seed):
    g = gen_sbm(n, classes, p_in, p_out, feat_dim=5, signal=1.3, seed=seed)
    adjacency, features, labels, masks = one_shot_gen_sbm(n, classes, p_in, p_out, 5, 1.3, seed)
    assert g.adjacency.tobytes() == adjacency.tobytes()
    assert g.features.tobytes() == features.tobytes()
    assert np.array_equal(g.labels, labels)
    assert np.array_equal(np.stack([g.train_mask, g.val_mask, g.test_mask]), masks)
