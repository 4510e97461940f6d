"""Symmetry decided once per trajectory.

Every kernel told that its adjacency is exactly symmetric gives the bits its
own check gives, on one matrix and on stacks; the adjacency step keeps an
exactly symmetric matrix exactly symmetric in any memory layout;
`Graph.symmetric` is worked out on first use only, once per training run; and
an asymmetric graph still takes the edge form.
"""

import numpy as np
import pytest

from csgnn import dynamics, equivariant, graph, network, stacks, training
from csgnn.activations import leaky_relu
from csgnn.dynamics import (LayerParams, Parameterization, feature_field, feature_field_vjp,
                            feature_step, gradient_operator_sq_norm, graph_gradient,
                            graph_gradient_adjoint, max_feature_step, symmetrized)
from csgnn.equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step,
                               coeff_gradients, equivariant_linear, max_step_adjacency)
from csgnn.graph import Graph, PerturbationBudget
from csgnn.network import CoupledLayer, NetworkParams, certificate, evolve, forward
from csgnn.sbm import gen_sbm
from csgnn.stacks import all_symmetric, transposed
from csgnn.training import TrainConfig, backward, init_params, train

# one matrix, a stack and a two-axis stack; n=40 sums rows pairwise, so a
# strided and a contiguous row sum can round apart
SHAPES = [(40, 40), (3, 9, 9), (2, 2, 6, 6)]


def _symmetric(rng, shape) -> np.ndarray:
    a = rng.random(shape) * (rng.random(shape) < 0.3)
    return a + transposed(a)


def _column_major(a: np.ndarray) -> np.ndarray:
    """The same matrices with each one stored column by column."""
    return transposed(np.ascontiguousarray(transposed(a)))


def _coeffs(rng) -> EquivariantCoeffs:
    return EquivariantCoeffs(k=0.2 * rng.standard_normal(8), alpha=-1.0 - rng.random())


def _layer(rng, n, c, parameterization) -> LayerParams:
    if parameterization == Parameterization.LEARN_W:
        return LayerParams(h=0.05, parameterization=parameterization,
                           W=np.eye(n) + 0.1 * rng.standard_normal((n, n)), K=0.7 * np.eye(c))
    return LayerParams(h=0.05, K=0.5 * np.eye(c) + 0.1 * rng.standard_normal((c, c)))


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
def test_adjacency_kernels_told_symmetric_match_the_check(shape, layout):
    rng = np.random.default_rng(0)
    a = layout(_symmetric(rng, shape))
    coeffs = _coeffs(rng)
    cfg = AdjacencyStepConfig(coeffs=coeffs, h=0.5 * max_step_adjacency(coeffs))
    assert _same(equivariant._sums(a, assume_symmetric=True), equivariant._sums(a))
    image = equivariant_linear(a, coeffs)
    assert _same(equivariant_linear(a, coeffs, assume_symmetric=True), image)
    stepped = adjacency_step(a, cfg)
    assert _same(adjacency_step(a, cfg, assume_symmetric=True), stepped)
    # M sums the rows of a row-major copy, so a column-major matrix's rows
    # and columns sum to the same bits and its image stays exactly symmetric
    assert all_symmetric(image) and all_symmetric(stepped)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
def test_coefficient_gradients_told_symmetric_match_the_check(layout):
    rng = np.random.default_rng(1)
    a = layout(_symmetric(rng, (40, 40)))
    m_bar = rng.standard_normal((40, 40))  # not symmetric: its sums stay checked
    assert _same(coeff_gradients(a, m_bar, assume_symmetric=True), coeff_gradients(a, m_bar))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("parameterization", list(Parameterization))
def test_feature_kernels_told_symmetric_match_the_check(shape, parameterization):
    rng = np.random.default_rng(2)
    n, c = shape[-1], 3
    a = _symmetric(rng, shape)
    f = rng.standard_normal(shape[:-1] + (c,))
    layer = _layer(rng, n, c, parameterization)
    assert _same(feature_field(f, a, layer, assume_symmetric=True), feature_field(f, a, layer))
    assert _same(feature_step(f, a, layer, assume_symmetric=True), feature_step(f, a, layer))
    assert _same(gradient_operator_sq_norm(a, layer.W, assume_symmetric=True),
                 gradient_operator_sq_norm(a, layer.W))
    for radius in (0.0, 0.5):
        assert _same(max_feature_step(a, layer, radius, assume_symmetric=True),
                     max_feature_step(a, layer, radius))


@pytest.mark.parametrize("parameterization", list(Parameterization))
def test_step_bound_told_symmetric_matches_the_check_on_the_lanczos_path(parameterization):
    rng = np.random.default_rng(3)
    n = dynamics._LANCZOS_MIN_N + 4
    a = _symmetric(rng, (n, n))
    layer = _layer(rng, n, 3, parameterization)
    assert _same(gradient_operator_sq_norm(a, layer.W, assume_symmetric=True),
                 gradient_operator_sq_norm(a, layer.W))
    assert _same(max_feature_step(a, layer, 0.5, assume_symmetric=True),
                 max_feature_step(a, layer, 0.5))


@pytest.mark.parametrize("parameterization", list(Parameterization))
def test_reverse_pass_told_symmetric_matches_the_check(parameterization):
    rng = np.random.default_rng(4)
    n, c = 12, 3
    a = _symmetric(rng, (n, n))
    f, x_bar = rng.standard_normal((n, c)), rng.standard_normal((n, c))
    layer = _layer(rng, n, c, parameterization)
    assert _same(feature_field_vjp(f, a, layer, x_bar, assume_symmetric=True),
                 feature_field_vjp(f, a, layer, x_bar))
    a[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        feature_field_vjp(f, a, layer, x_bar)


class TestGraphSymmetric:
    def _graph(self, a):
        return Graph(adjacency=a, features=np.ones((a.shape[0], 2)))

    def test_decided_on_first_use_and_kept(self):
        g = self._graph(_symmetric(np.random.default_rng(6), (5, 5)))
        assert "symmetric" not in vars(g)
        assert g.symmetric is True
        assert vars(g)["symmetric"] is True

    def test_asymmetric_and_replaced_graphs(self):
        a = _symmetric(np.random.default_rng(7), (5, 5))
        g = self._graph(a)
        assert g.symmetric
        a[0, 3] += 1.0
        assert not g.replace(adjacency=a).symmetric


# --- an asymmetric graph keeps the edge form on every product path ------------

def _edge_form_step(f, a, layer):
    """F + h X(F, A) through the (n, n, c) edge tensors, whatever A is."""
    edge = leaky_relu(graph_gradient(a, f), layer.leaky_slope)
    return f + layer.h * -(graph_gradient_adjoint(a, edge) @ symmetrized(layer.K, f.shape[1]))


def _asymmetric_instance():
    rng = np.random.default_rng(8)
    n, c_in, c = 7, 3, 4
    a = _symmetric(rng, (n, n))
    a[0, 1] += 0.7
    a[4, 2] += 0.3
    g = Graph(adjacency=a, features=rng.standard_normal((n, c_in)))
    layers = []
    for _ in range(2):
        coeffs = _coeffs(rng)
        layers.append(CoupledLayer(
            feature=LayerParams(h=0.1, K=0.5 * rng.standard_normal((c, c))),
            adjacency=AdjacencyStepConfig(coeffs=coeffs, h=0.5 * max_step_adjacency(coeffs))))
    params = NetworkParams(encoder=rng.standard_normal((c_in, c)), layers=tuple(layers),
                           classifier_w=rng.standard_normal((c, 2)), classifier_b=np.zeros(2))
    return g, params


def _edge_form_trajectory(f, a, layers):
    fs, as_ = [f], [a]
    for layer in layers:
        fs.append(_edge_form_step(fs[-1], as_[-1], layer.feature))
        as_.append(adjacency_step(as_[-1], layer.adjacency))
    return fs, as_


def test_asymmetric_graph_takes_the_edge_form():
    g, params = _asymmetric_instance()
    assert not g.symmetric
    f0 = g.features @ params.encoder
    fs, as_ = _edge_form_trajectory(f0, g.adjacency, params.layers)
    # the Laplacian form would give other values, not only other bits
    laplacian = f0 + 0.1 * -(1.1 * dynamics._laplacian_apply(g.adjacency ** 2, f0)
                             @ symmetrized(params.layers[0].feature.K, f0.shape[1]))
    assert not np.allclose(laplacian, fs[1])

    logits, trace = forward(g, params, mode="eval")
    assert np.array_equal(logits, fs[-1] @ params.classifier_w + params.classifier_b)
    assert all(np.array_equal(x, y) for x, y in zip(trace.adjacency_states, as_))

    got_fs, got_as = evolve(f0, g.adjacency, params.layers)
    assert all(np.array_equal(x, y) for x, y in zip(got_fs, fs))
    assert all(np.array_equal(x, y) for x, y in zip(got_as, as_))

    budget = PerturbationBudget(eps_feat=0.1, eps_adj=0.2)
    cert = certificate(f0, g.adjacency, params, budget)
    for row, layer, a in zip(cert["layers"], params.layers, as_):
        assert row["h_feature_safe"] == max_feature_step(a, layer.feature, l1_radius=0.2)
        assert row["h_feature_safe"] != max_feature_step(a, layer.feature, l1_radius=0.2,
                                                         assume_symmetric=True)


def test_weighted_column_major_graph_trains():
    """Every adjacency state of a column-major graph stays exactly symmetric,
    so the reverse pass takes it."""
    rng = np.random.default_rng(10)
    n = 40
    g = Graph(adjacency=_column_major(_symmetric(rng, (n, n))),
              features=rng.standard_normal((n, 3)))
    assert not g.adjacency.flags.c_contiguous  # stored as given
    params = init_params(3, 2, n, TrainConfig(hidden_dim=4), rng)
    logits, trace = forward(g, params, mode="eval")
    assert all(all_symmetric(a) for a in trace.adjacency_states)
    backward(trace, g, params, np.ones_like(logits))


def test_train_compares_symmetry_once_per_graph(monkeypatch):
    compare = stacks.all_symmetric
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return compare(a)

    for module in (stacks, graph, dynamics, equivariant, network, training):
        monkeypatch.setattr(module, "all_symmetric", counting, raising=False)
    g = gen_sbm(n=30, classes=2, p_in=0.4, p_out=0.05, feat_dim=4, signal=1.5, seed=0)
    _, history = train(g, TrainConfig(epochs=6, patience=6, hidden_dim=4))
    assert len(history) == 6
    assert calls == [(30, 30)]
