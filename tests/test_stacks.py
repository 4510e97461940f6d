"""Every function that takes stacks gives each matrix of a stack the bits a
call on that matrix alone gives."""

import dataclasses

import numpy as np
import pytest

from conftest import graph_of
from csgnn import dynamics, equivariant, network, stacks, verify
from csgnn.dynamics import LayerParams
from csgnn.equivariant import AdjacencyStepConfig, EquivariantCoeffs
from csgnn.graph import PerturbationBudget
from csgnn.network import CoupledLayer
from csgnn.training import (TrainConfig, init_params, masked_cross_entropy, params_to_tensors,
                            rebuild_params)

NS = range(1, 9)
M = 6  # matrices per stack


def _coeff_sets(rng, zero_some: bool) -> list:
    sets = []
    for i in range(M):
        k = rng.standard_normal(8)
        alpha = -abs(rng.standard_normal())
        if zero_some:  # some zero coefficients; set 1 is all zero, so M = 0 there
            k = k * (rng.random(8) < 0.5) * (i != 1)
            alpha = 0.0 if i % 2 else alpha
        sets.append(EquivariantCoeffs(k=k, alpha=alpha))
    return sets


def _adjacency(rng, n: int, symmetric: bool) -> np.ndarray:
    a = rng.standard_normal((M, n, n))
    if symmetric:
        a = a + np.swapaxes(a, -1, -2)
    return a


def _stacked(sets: list) -> EquivariantCoeffs:
    return EquivariantCoeffs(k=np.array([c.k for c in sets]), alpha=np.array([c.alpha for c in sets]))


def _same(stacked, per_slice) -> bool:
    return np.array_equal(stacked, np.array(per_slice))


def _layers(h: np.ndarray, k: np.ndarray) -> tuple:
    """Stacked parameters and the per-matrix ones."""
    return LayerParams(h=h, K=k), [LayerParams(h=h[i], K=k[i]) for i in range(M)]


def _learn_k(rng, c: int, definite: bool) -> tuple:
    b = rng.standard_normal((M, c, c))
    k = b @ np.swapaxes(b, -1, -2) + 0.05 * np.eye(c) if definite else b
    return _layers(rng.random(M), k)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("zero_some", [False, True])
@pytest.mark.parametrize("symmetric", [False, True])
def test_adjacency_functions_match_per_matrix_calls(n, zero_some, symmetric):
    rng = np.random.default_rng(100 * n + 10 * zero_some + symmetric)
    sets = _coeff_sets(rng, zero_some)
    coeffs = _stacked(sets)
    a = _adjacency(rng, n, symmetric)
    assert _same(coeffs.full(), [c.full() for c in sets])
    assert _same(coeffs.k1, [c.k1 for c in sets])
    assert _same(equivariant.equivariant_linear(a, coeffs),
                 [equivariant.equivariant_linear(a[i], sets[i]) for i in range(M)])
    # one coefficient set for the whole stack, as the Jacobian probe uses it
    assert _same(equivariant.equivariant_linear(a, sets[0]),
                 [equivariant.equivariant_linear(a[i], sets[0]) for i in range(M)])
    h = equivariant.max_step_adjacency(coeffs)
    assert _same(h, [equivariant.max_step_adjacency(c) for c in sets])
    if zero_some:  # set 1 bounds no step; an infinite step would turn 0 * inf into NaN
        assert np.isinf(h[1]) and np.isfinite(np.delete(h, 1)).all()
        h = np.minimum(rng.random(M), h)
    cfg = AdjacencyStepConfig(coeffs=coeffs, h=h, leaky_slope=0.3)
    assert _same(equivariant.adjacency_step(a, cfg),
                 [equivariant.adjacency_step(a[i], AdjacencyStepConfig(coeffs=sets[i], h=h[i],
                                                                       leaky_slope=0.3))
                  for i in range(M)])


def test_stacked_step_config_checks_every_step():
    rng = np.random.default_rng(0)
    coeffs = _stacked(_coeff_sets(rng, False))
    h = equivariant.max_step_adjacency(coeffs)
    h[3] *= 1.01
    with pytest.raises(ValueError, match="exceeds"):
        AdjacencyStepConfig(coeffs=coeffs, h=h)
    with pytest.raises(ValueError, match="positive"):
        AdjacencyStepConfig(coeffs=coeffs, h=np.zeros(M))
    with pytest.raises(ValueError, match="one alpha"):
        EquivariantCoeffs(k=np.zeros((M, 8)), alpha=-np.ones(M - 1))
    with pytest.raises(ValueError, match="alpha"):
        EquivariantCoeffs(k=np.zeros((2, 8)), alpha=np.array([-1.0, 0.5]))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("kind", ["scaled_identity", "learn_k", "learn_k_indefinite", "identity"])
def test_feature_functions_match_per_matrix_calls(n, symmetric, kind):
    rng = np.random.default_rng(1000 * n + 10 * symmetric + len(kind))
    c = int(rng.integers(1, 5))
    if kind == "scaled_identity":  # K = lam I, as the coupled verify suites draw it
        lam = 0.2 + rng.random(M)
        params, singles = _layers(rng.random(M), lam[:, None, None] * np.eye(c))
    elif kind == "identity":  # K = I exactly, the layer that mixes no channels
        params, singles = _layers(rng.random(M), np.broadcast_to(np.eye(c), (M, c, c)))
    else:
        params, singles = _learn_k(rng, c, definite=kind == "learn_k")
    a = _adjacency(rng, n, symmetric)
    f = rng.standard_normal((M, n, c))
    o = rng.standard_normal((M, n, n, c))
    assert _same(verify.graph_gradient(a, f),
                 [verify.graph_gradient(a[i], f[i]) for i in range(M)])
    assert _same(verify.graph_gradient_adjoint(a, o),
                 [verify.graph_gradient_adjoint(a[i], o[i]) for i in range(M)])
    assert _same(dynamics.feature_field(f, a, params),
                 [dynamics.feature_field(f[i], a[i], singles[i]) for i in range(M)])
    assert _same(dynamics.feature_step(f, a, params),
                 [dynamics.feature_step(f[i], a[i], singles[i]) for i in range(M)])
    assert _same(verify.energy(a, f, 0.2), [verify.energy(a[i], f[i], 0.2) for i in range(M)])
    assert _same(dynamics.gradient_operator_sq_norm(a),
                 [dynamics.gradient_operator_sq_norm(a[i]) for i in range(M)])
    assert _same(dynamics.max_feature_step(a, params),
                 [dynamics.max_feature_step(a[i], singles[i]) for i in range(M)])
    radius = rng.random(M) * (rng.random(M) < 0.7)
    assert _same(dynamics.max_feature_step(a, params, l1_radius=radius),
                 [dynamics.max_feature_step(a[i], singles[i], l1_radius=radius[i]) for i in range(M)])
    assert _same(dynamics.max_feature_step(a, params, l1_radius=0.5),
                 [dynamics.max_feature_step(a[i], singles[i], l1_radius=0.5) for i in range(M)])
    entry = 1.0 + rng.random(M)
    assert _same(network.lipschitz_upper(f, params, entry),
                 [network.lipschitz_upper(f[i], singles[i], entry[i]) for i in range(M)])


def test_float_power_rounds_as_a_float_square():
    # the stacked step bound squares with np.float_power so that it rounds as
    # the `** 2` of a single float does; an array's `** 2` does not always
    x = np.abs(np.random.default_rng(3).standard_normal(20000)) * 7.0
    assert _same(np.float_power(x, 2), [v ** 2 for v in x.tolist()])


@pytest.mark.parametrize("n", NS)
def test_distances_bounds_and_trajectories_match_per_matrix_calls(n):
    rng = np.random.default_rng(50 + n)
    c = int(rng.integers(1, 5))
    f, fp = rng.standard_normal((2, M, n, c))
    a = _adjacency(rng, n, symmetric=True)
    ap = _adjacency(rng, n, symmetric=True)
    assert _same(verify.l1_vec_distance(a, ap), [verify.l1_vec_distance(a[i], ap[i]) for i in range(M)])
    assert _same(verify.frobenius_distance(f, fp),
                 [verify.frobenius_distance(f[i], fp[i]) for i in range(M)])
    assert _same(verify.weighted_distance(0.5, 2.0, (f, a), (fp, ap)),
                 [verify.weighted_distance(0.5, 2.0, (f[i], a[i]), (fp[i], ap[i])) for i in range(M)])
    assert _same(network._max_row_gap(f), [network._max_row_gap(f[i]) for i in range(M)])

    sets = _coeff_sets(rng, False)
    coeffs = _stacked(sets)
    h_adj = equivariant.max_step_adjacency(coeffs)
    feature, singles = _learn_k(rng, c, definite=True)
    layers = [CoupledLayer(feature=feature, adjacency=AdjacencyStepConfig(coeffs=coeffs, h=h_adj))]
    fs, as_ = network.evolve(f, a, layers * 2)

    def one_layer(i):
        return [CoupledLayer(feature=singles[i], adjacency=AdjacencyStepConfig(coeffs=sets[i], h=h_adj[i]))]

    for i in range(M):
        fs_i, as_i = network.evolve(f[i], a[i], one_layer(i) * 2)
        assert all(np.array_equal(x[i], y) for x, y in zip(fs, fs_i))
        assert all(np.array_equal(x[i], y) for x, y in zip(as_, as_i))

    eps_feat, eps_adj = rng.random((2, M))
    cert = network.certificate(f, a, layers * 2, PerturbationBudget(eps_feat, eps_adj))
    singles_cert = [network.certificate(f[i], a[i], one_layer(i) * 2,
                                        PerturbationBudget(eps_feat[i], eps_adj[i])) for i in range(M)]
    assert _same(cert["bound"], [c["bound"] for c in singles_cert])
    for l, row in enumerate(cert["layers"]):
        for key in ("h_feature", "h_adjacency", "h_adjacency_max", "h_feature_safe", "lipschitz_upper"):
            assert _same(row[key], [c["layers"][l][key] for c in singles_cert])


def _small_network(rng, share_weights: bool) -> tuple:
    n = 7
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    g = graph_of((upper | upper.T).astype(float), features=rng.standard_normal((n, 3)),
                 labels=rng.integers(0, 3, n), train_mask=rng.random(n) < 0.7)
    cfg = TrainConfig(hidden_dim=4, num_layers=3, h=0.3, dropout_p=0.3, share_weights=share_weights)
    return g, init_params(3, 3, n, cfg, rng)


# the last layer's k is unread, so its stack gives unstacked logits
@pytest.mark.parametrize("key", ["encoder", "classifier_w", "classifier_b", "layer1.K", "layer0.k",
                                 "layer2.k", "shared.K", "shared.k"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_network_takes_one_stacked_tensor(key, mode):
    rng = np.random.default_rng(len(key) + 10 * len(mode))
    g, params = _small_network(rng, share_weights=key.startswith("shared"))
    key = key.replace("shared", "layer0")
    tensors = params_to_tensors(params)
    stack = tensors[key] + 0.05 * rng.standard_normal((M,) + tensors[key].shape)
    members = [rebuild_params(params, {**tensors, key: x}) for x in stack]
    stacked = rebuild_params(params, {**tensors, key: stack})
    seed = int(rng.integers(2**31))

    def logits(p):
        return network.forward(g, p, mode=mode, rng=np.random.default_rng(seed))[0]

    got = logits(stacked)
    assert got.ndim == (2 if key == "layer2.k" else 3)
    got = np.broadcast_to(got, (M, g.n, 3))
    want = [logits(p) for p in members]
    assert _same(got, want)
    losses = [masked_cross_entropy(x, g.labels, g.train_mask) for x in want]
    assert all(type(x) is float for x in losses)
    assert _same(masked_cross_entropy(np.array(want), g.labels, g.train_mask), losses)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def test_freeze_keeps_only_a_read_only_array_that_owns_its_data():
    base = np.arange(9.0).reshape(3, 3)
    cases = [
        (_read_only(base.copy()), True),
        (base, False),  # writable
        (_read_only(base[:]), False),  # a read-only view of a writable array
        (_read_only(base.astype(np.float32)), False),  # another dtype
        (base.tolist(), False),
    ]
    for value, kept in cases:
        k = LayerParams(h=0.5, K=value).K
        assert (k is value) == kept
        assert not k.flags.writeable and k.dtype == float
        assert np.array_equal(k, base)
        if not kept and isinstance(value, np.ndarray):
            assert not np.shares_memory(k, base)


@dataclasses.dataclass(frozen=True)
class _Holder:
    x: object


@pytest.mark.parametrize("dtype, value", [
    (int, [0.5]), (int, [np.nan]), (int, [np.inf]), (int, [1e20]),
    (bool, [2]), (bool, [0.5]), (bool, [np.nan]),
])
def test_freeze_refuses_a_cast_that_changes_a_value(dtype, value):
    # freeze cast 0.5 to 0 and 2 to True without a word, and NaN, inf and
    # 1e20 raised numpy's own errors, which name no field
    with pytest.raises(ValueError, match=f"^x must hold {dtype.__name__} values"):
        stacks.freeze(_Holder(value), "x", dtype)


@pytest.mark.parametrize("dtype, value", [(int, [3.0, -1.0]), (bool, [1.0, 0, True])])
def test_freeze_takes_a_cast_that_keeps_every_value(dtype, value):
    arr = stacks.freeze(_Holder(value), "x", dtype)
    assert arr.dtype == dtype and arr.tolist() == [dtype(v) for v in value]
