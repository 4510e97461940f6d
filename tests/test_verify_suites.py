"""The stacked property suites against the per-trial loops they replaced.

Each oracle below is the loop a suite ran before it evaluated same-shaped
trials as stacks, changed only to return its per-trial values, in the
feature suites to symmetrize the drawn adjacency as `a + a.T`, and in the
Frobenius-contraction and coupled suites to draw a channel mixer K where they
drew a node mixer W (K = B B^T + 0.05 I, and K = lam I with no W). Both draw
from generators with the same seed; the values must agree to the bit and
both generators must end in the same state, so every later suite sees the
same stream.
"""

import numpy as np
import pytest

from csgnn import dynamics, equivariant, network, verify
from csgnn.dynamics import LayerParams
from csgnn.equivariant import AdjacencyStepConfig
from csgnn.graph import PerturbationBudget
from csgnn.network import CoupledLayer
from csgnn.verify import _margin_coeffs, _random_coeffs, _sym_binary


def _perm_matrix(perm):
    n = len(perm)
    pm = np.zeros((n, n))
    pm[np.arange(n), perm] = 1.0
    return pm


def loop_adjacency_l1_contraction(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        coeffs = _random_coeffs(rng)
        cfg = AdjacencyStepConfig(coeffs=coeffs, h=equivariant.max_step_adjacency(coeffs))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        d_in = verify.l1_vec_distance(a, b)
        d_out = verify.l1_vec_distance(equivariant.adjacency_step(a, cfg),
                                       equivariant.adjacency_step(b, cfg))
        yield d_out - d_in


def loop_adjacency_equivariance(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        coeffs = _random_coeffs(rng)
        cfg = AdjacencyStepConfig(coeffs=coeffs, h=equivariant.max_step_adjacency(coeffs))
        a = rng.standard_normal((n, n))
        pm = _perm_matrix(rng.permutation(n))
        lhs = equivariant.adjacency_step(pm @ a @ pm.T, cfg)
        rhs = pm @ equivariant.adjacency_step(a, cfg) @ pm.T
        scale = max(1.0, float(np.abs(rhs).max()))
        yield float(np.abs(lhs - rhs).max()) / scale


def loop_adjacency_symmetry(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        coeffs = _random_coeffs(rng)
        cfg = AdjacencyStepConfig(coeffs=coeffs, h=equivariant.max_step_adjacency(coeffs))
        a = rng.standard_normal((n, n))
        a = a + a.T
        out = equivariant.adjacency_step(a, cfg)
        yield float(np.abs(out - out.T).max())


def loop_equivariant_linearity(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        coeffs = _random_coeffs(rng)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        s, t = rng.standard_normal(2)
        lhs = equivariant.equivariant_linear(s * a + t * b, coeffs)
        rhs = (s * equivariant.equivariant_linear(a, coeffs)
               + t * equivariant.equivariant_linear(b, coeffs))
        scale = max(1.0, float(np.abs(rhs).max()))
        yield float(np.abs(lhs - rhs).max()) / scale


def loop_feature_adjointness(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        a = a + a.T
        f = rng.standard_normal((n, c))
        o = rng.standard_normal((n, n, c))
        lhs = float((verify.graph_gradient(a, f) * o).sum())
        rhs = float((f * verify.graph_gradient_adjoint(a, o)).sum())
        yield abs(lhs - rhs) / max(1.0, abs(rhs))


def loop_feature_contraction(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 5))
        b = rng.standard_normal((c, c))
        k = b @ b.T + 0.05 * np.eye(c)
        params = LayerParams(h=1.0, K=k)
        a = rng.standard_normal((n, n))
        a = a + a.T
        h = dynamics.max_feature_step(a, params)
        params = LayerParams(h=h, K=k)
        f = rng.standard_normal((n, c))
        df = rng.standard_normal((n, c))
        moved = dynamics.feature_step(f + df, a, params)
        base = dynamics.feature_step(f, a, params)
        yield float(np.linalg.norm(moved - base) - np.linalg.norm(df))


def loop_energy_monotonicity(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 5))
        b = rng.standard_normal((c, c))
        k = b @ b.T + 0.05 * np.eye(c)
        params = LayerParams(h=1.0, K=k)
        a = rng.standard_normal((n, n))
        a = a + a.T
        h = dynamics.max_feature_step(a, params)
        params = LayerParams(h=h, K=k)
        f = rng.standard_normal((n, c))
        e0 = verify.energy(a, f, params.leaky_slope)
        e1 = verify.energy(a, dynamics.feature_step(f, a, params), params.leaky_slope)
        yield e1 - e0


def loop_constant_row_fixed_point(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 4))
        a = _sym_binary(rng, n)
        f = np.tile(rng.standard_normal((1, c)), (n, 1))
        params = LayerParams(h=0.7, K=rng.standard_normal((c, c)))
        yield float(np.abs(dynamics.feature_step(f, a, params) - f).max())


def loop_feature_step_equivariance(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 4))
        params = LayerParams(h=0.3, K=rng.standard_normal((c, c)))
        a = rng.standard_normal((n, n))
        a = a + a.T
        f = rng.standard_normal((n, c))
        pm = _perm_matrix(rng.permutation(n))
        lhs = dynamics.feature_step(pm @ f, pm @ a @ pm.T, params)
        rhs = pm @ dynamics.feature_step(f, a, params)
        scale = max(1.0, float(np.abs(rhs).max()))
        yield float(np.abs(lhs - rhs).max()) / scale


def _contractive_trial(rng):
    slope = 0.1
    n = int(rng.integers(4, 8))
    c = int(rng.integers(2, 5))
    depth = int(rng.integers(1, 4))
    eps_feat = rng.random()
    eps_adj = 0.05 + rng.random()
    f0 = rng.standard_normal((n, c))
    a0 = _sym_binary(rng, n)

    df = rng.standard_normal((n, c))
    df *= eps_feat / max(np.linalg.norm(df), 1e-12)
    da = rng.standard_normal((n, n))
    da = da + da.T
    da *= eps_adj / np.abs(da).sum()

    layers = []
    a_clean = a0
    for _ in range(depth):
        lam = 0.3 + 1.7 * rng.random()
        coeffs = _margin_coeffs(rng)
        base = LayerParams(h=1.0, K=lam * np.eye(c), leaky_slope=slope)
        h = 0.9 * min(equivariant.max_step_adjacency(coeffs),
                      dynamics.max_feature_step(a_clean, base, l1_radius=eps_adj))
        feature = LayerParams(h=h, K=lam * np.eye(c), leaky_slope=slope)
        adjacency = AdjacencyStepConfig(coeffs=coeffs, h=min(h, equivariant.max_step_adjacency(coeffs)),
                                        leaky_slope=slope)
        layers.append(CoupledLayer(feature=feature, adjacency=adjacency))
        a_clean = equivariant.adjacency_step(a_clean, adjacency)
    budget = PerturbationBudget(eps_feat=float(np.linalg.norm(df)), eps_adj=float(np.abs(da).sum()))
    return f0, a0, df, da, layers, budget


def loop_expansivity_bound(rng, trials):
    for _ in range(trials):
        f0, a0, df, da, layers, budget = _contractive_trial(rng)
        fs, as_ = network.evolve(f0, a0, layers)
        fs_p, as_p = network.evolve(f0 + df, a0 + da, layers)
        a_out = equivariant.adjacency_step(as_[-1], layers[-1].adjacency)
        a_out_p = equivariant.adjacency_step(as_p[-1], layers[-1].adjacency)
        measured = verify.weighted_distance(1.0, 1.0, (fs[-1], a_out), (fs_p[-1], a_out_p))
        yield measured - network.certificate(f0, a0, layers, budget)["bound"]


def loop_coupled_weighted_contraction(rng, trials):
    """The old suite's result, plus the (before, after) distances of every
    trial at the weight pair it reports."""
    cases = []
    for _ in range(trials):
        f0, a0, df, da, layers, _ = _contractive_trial(rng)
        layer = layers[0]
        f1, a1 = dynamics.feature_step(f0, a0, layer.feature), equivariant.adjacency_step(a0, layer.adjacency)
        f1p = dynamics.feature_step(f0 + 0.1 * df, a0 + 0.1 * da, layer.feature)
        a1p = equivariant.adjacency_step(a0 + 0.1 * da, layer.adjacency)
        cases.append(((f0, a0), (f0 + 0.1 * df, a0 + 0.1 * da), (f1, a1), (f1p, a1p)))
    grid = [10.0 ** j for j in range(-3, 4)]
    best, best_rate, best_dist = None, 0.0, None
    for m1 in grid:
        for m2 in grid:
            ok, dist = 0, []
            for s0, s0p, s1, s1p in cases:
                before = verify.weighted_distance(m1, m2, s0, s0p)
                after = verify.weighted_distance(m1, m2, s1, s1p)
                dist.append((before, after))
                if after <= before + 1e-12:
                    ok += 1
            rate = ok / len(cases)
            if rate > best_rate:
                best_rate, best, best_dist = rate, (m1, m2), dist
            if rate >= 0.95:
                note = f"m1={m1:g}, m2={m2:g} shrink the distance on {rate:.1%} of layers"
                return (1.0 - rate, note), dist
    note = f"no grid pair reached 95%; best m1={best[0]:g}, m2={best[1]:g} at {best_rate:.1%}"
    return (1.0 - best_rate, note), best_dist


SUITES = [
    (verify.check_adjacency_l1_contraction, loop_adjacency_l1_contraction),
    (verify.check_adjacency_equivariance, loop_adjacency_equivariance),
    (verify.check_adjacency_symmetry, loop_adjacency_symmetry),
    (verify.check_equivariant_linearity, loop_equivariant_linearity),
    (verify.check_feature_adjointness, loop_feature_adjointness),
    (verify.check_feature_contraction, loop_feature_contraction),
    (verify.check_energy_monotonicity, loop_energy_monotonicity),
    (verify.check_constant_row_fixed_point, loop_constant_row_fixed_point),
    (verify.check_feature_step_equivariance, loop_feature_step_equivariance),
    (verify.check_expansivity_bound, loop_expansivity_bound),
]


def _same_stream(rng_a, rng_b) -> bool:
    return np.array_equal(rng_a.random(4), rng_b.random(4))


@pytest.mark.parametrize("seed,stack", [(0, verify._STACK), (1, verify._STACK), (2, 4), (11, 3)])
@pytest.mark.parametrize("check,loop", SUITES, ids=[c.__name__ for c, _ in SUITES])
def test_stacked_suite_values_equal_the_loop(check, loop, seed, stack, monkeypatch):
    # small stacks fill up and are handed out while later trials are drawn
    monkeypatch.setattr(verify, "_STACK", stack)
    trials = 60
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    result = check(rng_new, trials)
    expected = list(loop(rng_old, trials))
    assert np.array_equal(result.values, expected)
    assert result.worst == max([result.worst] + expected)
    assert _same_stream(rng_new, rng_old)


@pytest.mark.parametrize("seed", [0, 3])
def test_stacked_contraction_fault_injection_equals_the_loop(seed, monkeypatch):
    bound = equivariant.max_step_adjacency
    monkeypatch.setattr(equivariant, "max_step_adjacency", lambda coeffs: bound(coeffs) * 25.0)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    result = verify.check_adjacency_l1_contraction(rng_new, 80)
    assert np.array_equal(result.values, list(loop_adjacency_l1_contraction(rng_old, 80)))
    assert result.status == verify.FAIL
    assert _same_stream(rng_new, rng_old)


@pytest.mark.parametrize("seed,trials", [(0, 40), (1, 40), (5, 25), (9, 12)])
def test_stacked_weighted_contraction_equals_the_loop(seed, trials, monkeypatch):
    monkeypatch.setattr(verify, "_STACK", 2)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    result = verify.check_coupled_weighted_contraction(rng_new, trials)
    (worst, note), dist = loop_coupled_weighted_contraction(rng_old, trials)
    assert (result.worst, result.note) == (worst, note)
    assert np.array_equal(result.values, dist)
    assert _same_stream(rng_new, rng_old)
