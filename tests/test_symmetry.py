"""Undirected by contract.

`Graph` rejects an asymmetric adjacency at construction and `evolve` rejects
an asymmetric A_0, so the comparison runs once per graph built and once per
trajectory started from raw arrays, and never during training. Below that
boundary the adjacency step keeps an exactly symmetric matrix exactly
symmetric in any memory layout, and M's row-sum shortcut for symmetric input
gives the bits of its general form.
"""

import dataclasses

import numpy as np
import pytest

from csgnn import dynamics, equivariant, graph, network, stacks, training
from csgnn.dynamics import LayerParams
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


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return all(_same(a, b) for a, b in zip(x, y))
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


class TestGraphSymmetric:
    def _graph(self, a):
        return Graph(adjacency=a, features=np.ones((a.shape[0], 2)))

    def test_checked_once_at_construction(self, monkeypatch):
        calls = _counted_symmetry_checks(monkeypatch)
        g = self._graph(_symmetric(np.random.default_rng(6), (5, 5)))
        assert calls == [(5, 5)]
        forward(g, init_params(2, 2, 5, TrainConfig(hidden_dim=3), np.random.default_rng(0)))
        assert calls == [(5, 5)]

    def test_asymmetric_and_replaced_graphs(self):
        a = _symmetric(np.random.default_rng(7), (5, 5))
        g = self._graph(a)
        a[0, 3] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            self._graph(a)
        with pytest.raises(ValueError, match="symmetric"):
            dataclasses.replace(g, adjacency=a)


def _asymmetric_instance():
    """An embedded state whose adjacency misses symmetry in two entries, and
    a two-layer network for it."""
    rng = np.random.default_rng(8)
    n, c = 7, 4
    a = _symmetric(rng, (n, n))
    a[0, 1] += 0.7
    a[4, 2] += 0.3
    layers = []
    for _ in range(2):
        coeffs = _coeffs(rng)
        layers.append(CoupledLayer(
            feature=LayerParams(h=0.1, K=0.5 * rng.standard_normal((c, c))),
            adjacency=AdjacencyStepConfig(coeffs=coeffs, h=0.5 * max_step_adjacency(coeffs))))
    params = NetworkParams(encoder=np.eye(c), layers=tuple(layers),
                           classifier_w=rng.standard_normal((c, 2)), classifier_b=np.zeros(2))
    return rng.standard_normal((n, c)), a, params


def test_evolve_and_certificate_reject_an_asymmetric_a0():
    f0, a0, params = _asymmetric_instance()
    with pytest.raises(ValueError, match="symmetric"):
        evolve(f0, a0, params.layers)
    with pytest.raises(ValueError, match="symmetric"):
        certificate(f0, a0, params.layers, PerturbationBudget(eps_feat=0.1, eps_adj=0.2))
    # a stack is rejected when any one of its matrices is asymmetric
    stack = np.stack([a0 + a0.T, a0])
    with pytest.raises(ValueError, match="symmetric"):
        evolve(np.stack([f0, f0]), stack, params.layers)
    fs, as_ = evolve(f0, a0 + a0.T, params.layers)
    assert all(all_symmetric(a) for a in as_)


def test_weighted_column_major_graph_trains():
    """Every adjacency state of a column-major graph stays exactly symmetric,
    as the Laplacian form of the reverse pass needs."""
    rng = np.random.default_rng(10)
    n = 40
    g = Graph(adjacency=_column_major(_symmetric(rng, (n, n))),
              features=rng.standard_normal((n, 3)))
    assert not g.adjacency.flags.c_contiguous  # stored as given
    params = init_params(3, 2, n, TrainConfig(hidden_dim=4), rng)
    logits, trace = forward(g, params, mode="eval")
    assert all(all_symmetric(a) for a in trace.adjacency_states)
    backward(trace, g, params, np.ones_like(logits))


def _counted_symmetry_checks(monkeypatch) -> list:
    """The shape of every matrix `all_symmetric` is called on from now on."""
    compare = stacks.all_symmetric
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return compare(a)

    for module in (stacks, graph, dynamics, equivariant, network, training):
        monkeypatch.setattr(module, "all_symmetric", counting, raising=False)
    return calls


def test_train_compares_symmetry_once_per_graph(monkeypatch):
    calls = _counted_symmetry_checks(monkeypatch)
    g = gen_sbm(n=30, classes=2, p_in=0.4, p_out=0.05, feat_dim=4, signal=1.5, seed=0)
    _, history = train(g, TrainConfig(epochs=6, patience=6, hidden_dim=4))
    assert len(history) == 6
    assert calls == [(30, 30)]


def test_certificate_compares_symmetry_once(monkeypatch):
    f0, a0, params = _asymmetric_instance()
    a0 = a0 + a0.T
    calls = _counted_symmetry_checks(monkeypatch)
    certificate(f0, a0, params.layers, PerturbationBudget(eps_feat=0.1, eps_adj=0.2))
    assert calls == [(7, 7)]
