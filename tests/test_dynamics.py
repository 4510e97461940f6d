import dataclasses

import numpy as np
import pytest

from csgnn import dynamics
from csgnn.dynamics import (H_SAFE_EPS, LayerParams, feature_field, feature_field_vjp,
                            feature_step, gradient_operator_sq_norm, max_feature_step)
from csgnn.equivariant import AdjacencyStepConfig, EquivariantCoeffs, adjacency_step, leaky_relu
from csgnn.sbm import gen_sbm
from csgnn.verify import energy, graph_gradient, graph_gradient_adjoint

PATH_GRAPH = np.array([[0.0, 1.0], [1.0, 0.0]])
TWO_NODE_F = np.array([[1.0], [3.0]])


def linear_params(h, c):
    # slope-1 LeakyReLU and K = I: hand-computable oracles
    return LayerParams(h=h, K=np.eye(c), leaky_slope=1.0)


class TestGraphGradient:
    def test_single_edge_hand_case(self):
        out = graph_gradient(PATH_GRAPH, TWO_NODE_F)
        expected = np.zeros((2, 2, 1))
        expected[0, 1, 0] = -2.0
        expected[1, 0, 0] = 2.0
        assert np.array_equal(out, expected)

    def test_constant_features_vanish(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        f = np.tile(rng.standard_normal((1, 3)), (5, 1))
        assert np.abs(graph_gradient(a, f)).max() == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        f = rng.standard_normal((4, 3))
        out = graph_gradient(a, f)
        for i in range(4):
            for j in range(4):
                for k in range(3):
                    assert out[i, j, k] == a[i, j] * (f[i, k] - f[j, k])

    def test_zero_on_non_edges(self):
        rng = np.random.default_rng(2)
        a = (rng.random((6, 6)) < 0.3).astype(float)
        out = graph_gradient(a, rng.standard_normal((6, 2)))
        assert np.all(out[a == 0.0] == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            graph_gradient(np.zeros((3, 3)), np.zeros((2, 1)))


class TestAdjoint:
    def test_hand_case_equals_twice_laplacian(self):
        o = graph_gradient(PATH_GRAPH, TWO_NODE_F)
        assert np.array_equal(graph_gradient_adjoint(PATH_GRAPH, o), [[-4.0], [4.0]])

    def test_zero_tensor(self):
        out = graph_gradient_adjoint(PATH_GRAPH, np.zeros((2, 2, 1)))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_shape_mismatch(self):
        for o in (np.zeros((2, 2)), np.zeros((3, 2, 1)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="edge tensor shape"):
                graph_gradient_adjoint(PATH_GRAPH, o)

    def test_adjointness_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n, c = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            f = rng.standard_normal((n, c))
            o = rng.standard_normal((n, n, c))
            lhs = float((graph_gradient(a, f) * o).sum())
            rhs = float((f * graph_gradient_adjoint(a, o)).sum())
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestFeatureStep:
    def test_consensus_hand_case(self):
        out = feature_step(TWO_NODE_F, PATH_GRAPH, linear_params(h=0.25, c=1))
        assert np.allclose(out, [[2.0], [2.0]])

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((5, 3))
        a = symmetric_normal(rng, 5)
        assert np.array_equal(feature_step(f, a, linear_params(h=0.0, c=3)), f)

    def test_equal_inputs_equal_outputs(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((4, 2))
        a = symmetric_normal(rng, 4)
        p = LayerParams(h=0.1, K=rng.standard_normal((2, 2)))
        assert np.array_equal(feature_step(f, a, p), feature_step(f.copy(), a, p))

    def test_constant_rows_are_fixed_points(self):
        rng = np.random.default_rng(6)
        a = (rng.random((6, 6)) < 0.5).astype(float)
        a = np.maximum(a, a.T)
        f = np.tile(rng.standard_normal((1, 3)), (6, 1))
        p = LayerParams(h=0.9, K=rng.standard_normal((3, 3)))
        assert np.abs(feature_step(f, a, p) - f).max() <= 1e-12

    def test_permutation_equivariance_identity_w(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n, c = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            p = LayerParams(h=0.3, K=rng.standard_normal((c, c)))
            a = symmetric_normal(rng, n)
            f = rng.standard_normal((n, c))
            perm = rng.permutation(n)
            pm = np.zeros((n, n))
            pm[np.arange(n), perm] = 1.0
            lhs = feature_step(pm @ f, pm @ a @ pm.T, p)
            rhs = pm @ feature_step(f, a, p)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_learn_k_rejects_w(self):
        # the node mixer is the identity: W is not a parameter; K always is
        assert LayerParams(h=0.1, K=np.eye(2)).W is None
        with pytest.raises(TypeError):
            LayerParams(h=0.1, K=np.eye(2), W=np.eye(2))
        with pytest.raises(TypeError):
            LayerParams(h=0.1)

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5, 2.0, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="slope"):
            LayerParams(h=0.1, K=np.eye(2), leaky_slope=slope)


def symmetric_normal(rng, n):
    """An exactly symmetric draw: a standard normal matrix plus its transpose."""
    a = rng.standard_normal((n, n))
    return a + a.T


def edge_form_field(f, a, params):
    """X = -G(A)^T sigma(G(A) F) Ktilde through the (n, n, c) edge tensors."""
    k = 0.5 * (params.K + params.K.T)
    edge = leaky_relu(graph_gradient(a, f), params.leaky_slope)
    return -graph_gradient_adjoint(a, edge) @ k


def edge_form_energy(a, f, slope=0.1):
    """sum gamma(G(A) F) through the (n, n, c) edge tensor, with gamma the
    half-quadratic antiderivative of the LeakyReLU (gamma(0) = 0)."""
    x = graph_gradient(a, f)
    return float(np.where(x > 0, 0.5 * x * x, 0.5 * slope * x * x).sum())


def weighted_symmetric(rng, n):
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    return a + a.T


def layer_draws(rng, c):
    """A general K and a scaled identity, at two activation slopes."""
    yield LayerParams(h=0.1, K=rng.standard_normal((c, c)), leaky_slope=0.2)
    yield LayerParams(h=0.1, K=0.7 * np.eye(c))


class TestLaplacianForm:
    def test_matches_edge_form_on_weighted_symmetric_graph(self):
        rng = np.random.default_rng(14)
        n, c = 50, 4
        a = weighted_symmetric(rng, n)
        f = rng.standard_normal((n, c))
        for params in layer_draws(rng, c):
            ref = edge_form_field(f, a, params)
            assert np.abs(feature_field(f, a, params) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_vjp_matches_edge_form_central_differences(self):
        rng = np.random.default_rng(15)
        n, c, eps = 8, 3, 1e-6
        a = weighted_symmetric(rng, n)
        f = rng.standard_normal((n, c))
        x_bar = rng.standard_normal((n, c))
        for params in layer_draws(rng, c):
            f_bar, a_bar, k_bar = feature_field_vjp(f, a, params, x_bar)
            df = rng.standard_normal((n, c))
            da = rng.standard_normal((n, n))
            da = da + da.T
            dp = rng.standard_normal(params.K.shape)

            def moved(t):
                p = dataclasses.replace(params, K=params.K + t * dp)
                return float((x_bar * edge_form_field(f + t * df, a + t * da, p)).sum())

            numeric = (moved(eps) - moved(-eps)) / (2 * eps)
            analytic = float((f_bar * df).sum() + (a_bar * da).sum() + (k_bar * dp).sum())
            assert analytic == pytest.approx(numeric, rel=1e-7)

    def test_energy_matches_edge_form_on_weighted_symmetric_graph(self):
        rng = np.random.default_rng(16)
        n, c = 50, 4
        a = weighted_symmetric(rng, n)
        f = rng.standard_normal((n, c))
        for params in layer_draws(rng, c):
            ref = edge_form_energy(a, f, params.leaky_slope)
            assert energy(a, f, params.leaky_slope) == pytest.approx(ref, rel=1e-12)


class TestEnergy:
    def test_constant_rows_zero(self):
        a = weighted_symmetric(np.random.default_rng(8), 4)
        f = np.ones((4, 2))
        assert energy(a, f, leaky_slope=1.0) == 0.0

    def test_hand_case(self):
        assert energy(PATH_GRAPH, TWO_NODE_F, leaky_slope=1.0) == pytest.approx(4.0)

    def test_consensus_step_dissipates(self):
        stepped = feature_step(TWO_NODE_F, PATH_GRAPH, linear_params(h=0.25, c=1))
        e0 = energy(PATH_GRAPH, TWO_NODE_F, leaky_slope=1.0)
        e1 = energy(PATH_GRAPH, stepped, leaky_slope=1.0)
        assert e1 == pytest.approx(0.0, abs=1e-12)
        assert e1 <= e0

    def test_monotone_under_safe_step(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n, c = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            b = rng.standard_normal((c, c))
            k = b @ b.T + 0.05 * np.eye(c)
            a = symmetric_normal(rng, n)
            p = LayerParams(h=max_feature_step(a, LayerParams(h=1.0, K=k)), K=k)
            f = rng.standard_normal((n, c))
            e0 = energy(a, f, leaky_slope=p.leaky_slope)
            e1 = energy(a, feature_step(f, a, p), leaky_slope=p.leaky_slope)
            assert e1 <= e0 + 1e-9

    def test_shape_mismatch(self):
        for a in (np.zeros((3, 3)), np.zeros((1, 1))):
            with pytest.raises(ValueError):
                energy(a, np.zeros((2, 1)), leaky_slope=1.0)


def moved_distance(f, df, a, params):
    """||step(F + dF) - step(F)||_F, to set against ||dF||_F."""
    return np.linalg.norm(feature_step(f + df, a, params) - feature_step(f, a, params))


class TestContraction:
    def test_zero_perturbation_trivially_true(self):
        rng = np.random.default_rng(10)
        p = LayerParams(h=0.1, K=rng.standard_normal((2, 2)))
        f = rng.standard_normal((3, 2))
        assert moved_distance(f, np.zeros((3, 2)), symmetric_normal(rng, 3), p) == 0.0

    def test_holds_under_safe_step(self):
        # for every positive definite Ktilde, not only a multiple of I
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n, c = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            b = rng.standard_normal((c, c))
            k = b @ b.T + 0.05 * np.eye(c)
            a = symmetric_normal(rng, n)
            p = LayerParams(h=max_feature_step(a, LayerParams(h=1.0, K=k)), K=k)
            f, df = rng.standard_normal((n, c)), rng.standard_normal((n, c))
            assert moved_distance(f, df, a, p) <= np.linalg.norm(df) + 1e-9

    def test_enormous_step_expands_somewhere(self):
        rng = np.random.default_rng(12)
        found = False
        for _ in range(200):
            n, c = 5, 3
            a = symmetric_normal(rng, n)
            p = LayerParams(h=1e3 * max_feature_step(a, LayerParams(h=1.0, K=np.eye(c))), K=np.eye(c))
            f, df = rng.standard_normal((n, c)), rng.standard_normal((n, c))
            if moved_distance(f, df, a, p) > np.linalg.norm(df) + 1e-9:
                found = True
                break
        assert found

    def test_operator_norm_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = symmetric_normal(rng, n)
            dense = np.zeros((n * n, n))
            for col in range(n):
                e = np.zeros(n)
                e[col] = 1.0
                dense[:, col] = (a * (e[:, None] - e[None, :])).reshape(-1)
            sv = np.linalg.norm(dense, 2) ** 2
            assert gradient_operator_sq_norm(a) == pytest.approx(sv, rel=1e-10, abs=1e-10)


def _dense_lam_max(a):
    b = a * a
    b = b + b.T
    lap = np.diag(b.sum(axis=1)) - b
    return max(float(np.linalg.eigvalsh(lap).max()), 0.0)


def _sbm_adjacency(n, seed=0):
    return np.array(gen_sbm(n=n, classes=2, p_in=0.1, p_out=0.02, feat_dim=2,
                            signal=1.0, seed=seed).adjacency)


def _closed_form_case(name):
    n = dynamics._CLOSED_FORM_MIN_N + 44
    rng = np.random.default_rng(21)
    if name == "sbm":
        return _sbm_adjacency(n)
    if name == "weighted":
        cfg = AdjacencyStepConfig(coeffs=EquivariantCoeffs(k=0.05 * rng.standard_normal(8),
                                                           alpha=-1.0), h=0.5)
        a = adjacency_step(_sbm_adjacency(n), cfg)
        assert (a != 0).all()
        return a
    if name == "repeated_top":
        half = _sbm_adjacency(n // 2, seed=3)
        a = np.zeros((n, n))
        a[:n // 2, :n // 2] = half
        a[n // 2:, n // 2:] = half
        return a
    if name == "complete":
        return np.ones((n, n)) - np.eye(n)
    return np.zeros((n, n))


CLOSED_FORM_CASES = ("sbm", "weighted", "repeated_top", "complete", "edgeless")


def _random_weighted(seed):
    # symmetric, with weights of both signs and every diagonal entry nonzero
    rng = np.random.default_rng(seed)
    n = dynamics._CLOSED_FORM_MIN_N + int(rng.integers(0, 100))
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.5))
    a = a + a.T
    a[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return a


class TestClosedFormStepBound:
    @pytest.mark.parametrize("name", CLOSED_FORM_CASES)
    def test_bounds_dense_eigvalsh_within_a_factor_of_two(self, name):
        a = _closed_form_case(name)
        assert a.shape[0] >= dynamics._CLOSED_FORM_MIN_N
        dense = _dense_lam_max(a)
        got = gradient_operator_sq_norm(a)
        if name == "edgeless":
            assert got == 0.0
        else:
            assert dense <= got <= 2 * dense * (1 + 1e-9)
        assert gradient_operator_sq_norm(a) == got

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_random_weighted_matrices_within_a_factor_of_two(self, seed):
        a = _random_weighted(seed)
        dense = _dense_lam_max(a)
        assert dense <= gradient_operator_sq_norm(a) <= 2 * dense * (1 + 1e-9)

    def test_is_attained_on_a_regular_bipartite_graph(self):
        # an even cycle: lam_max = 4 d_max exactly, so no smaller multiple of
        # d_max bounds every graph
        n = dynamics._CLOSED_FORM_MIN_N + 44
        a = np.roll(np.eye(n), 1, axis=1)
        a = 0.5 * (a + a.T)
        dense = _dense_lam_max(a)
        got = gradient_operator_sq_norm(a)
        assert got == pytest.approx(dense, rel=1e-12) and got >= 2.0

    def test_a_dominant_diagonal_leaves_an_upper_bound(self):
        # L(2 A o A) ignores the diagonal, which cancels in s_i - A_ii^2 with a
        # rounding error the padding must cover
        a = _random_weighted(0)
        off = a.copy()
        off[np.diag_indices(len(a))] = 0.0
        a[np.diag_indices(len(a))] = 1e8
        assert gradient_operator_sq_norm(a) >= _dense_lam_max(off)

    @pytest.mark.parametrize("name", CLOSED_FORM_CASES)
    def test_step_never_exceeds_dense_oracle(self, name):
        a = _closed_form_case(name)
        oracle = 1.0 / (_dense_lam_max(a) + H_SAFE_EPS)
        assert max_feature_step(a, LayerParams(h=1.0, K=np.eye(2))) <= oracle * (1 + 1e-12)

    @pytest.mark.parametrize("name", CLOSED_FORM_CASES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(3, 5), (5, 5)])
    def test_non_finite_input_raises(self, name, bad, where):
        a = _closed_form_case(name).copy()
        a[where] = bad
        with pytest.raises(np.linalg.LinAlgError):
            gradient_operator_sq_norm(a)

    def test_l1_radius_step_never_exceeds_svd_oracle(self):
        a = _closed_form_case("sbm")
        s = np.sqrt(_dense_lam_max(a)) + 2.0 * 0.5
        assert max_feature_step(a, LayerParams(h=1.0, K=np.eye(2)), l1_radius=0.5) <= 1.0 / (s * s + H_SAFE_EPS) * (1 + 1e-12)

    def test_dense_path_rejects_non_finite_input(self):
        a = np.ones((5, 5))
        a[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            max_feature_step(a, LayerParams(h=1.0, K=np.eye(2)))


@pytest.mark.parametrize("n", [127])
def test_edge_weights_match_the_general_form_to_the_bit(n):
    # on a symmetric A the edge weights B = A o A + (A o A)^T are formed as
    # 2 (A o A); x*x + x*x and 2*(x*x) are the same float, so the norm is
    # the general form's on the dense path
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    a = a + a.T
    wts = a * a
    wts = wts + wts.T
    deg = wts.sum(axis=1)
    expected = float(max(np.linalg.eigvalsh(np.diag(deg) - wts).max(), 0.0))
    assert dynamics.gradient_operator_sq_norm(a) == expected
