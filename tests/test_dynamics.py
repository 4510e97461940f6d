import dataclasses

import numpy as np
import pytest

from csgnn import dynamics
from csgnn.activations import leaky_relu
from csgnn.dynamics import (H_SAFE_EPS, EdgeTensor, LayerParams, Parameterization,
                            check_feature_contraction, energy, feature_field,
                            feature_field_vjp, feature_step, graph_gradient,
                            graph_gradient_adjoint, gradient_operator_sq_norm,
                            max_feature_step)
from csgnn.equivariant import AdjacencyStepConfig, EquivariantCoeffs, adjacency_step
from csgnn.sbm import gen_sbm

PATH_GRAPH = np.array([[0.0, 1.0], [1.0, 0.0]])
TWO_NODE_F = np.array([[1.0], [3.0]])


def linear_params(h, **kw):
    # slope-1 LeakyReLU is the identity: hand-computable oracles
    return LayerParams(h=h, leaky_slope=1.0, **kw)


class TestGraphGradient:
    def test_single_edge_hand_case(self):
        out = graph_gradient(PATH_GRAPH, TWO_NODE_F).values
        expected = np.zeros((2, 2, 1))
        expected[0, 1, 0] = -2.0
        expected[1, 0, 0] = 2.0
        assert np.array_equal(out, expected)

    def test_constant_features_vanish(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        f = np.tile(rng.standard_normal((1, 3)), (5, 1))
        assert np.abs(graph_gradient(a, f).values).max() == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        f = rng.standard_normal((4, 3))
        out = graph_gradient(a, f).values
        for i in range(4):
            for j in range(4):
                for k in range(3):
                    assert out[i, j, k] == a[i, j] * (f[i, k] - f[j, k])

    def test_zero_on_non_edges(self):
        rng = np.random.default_rng(2)
        a = (rng.random((6, 6)) < 0.3).astype(float)
        out = graph_gradient(a, rng.standard_normal((6, 2))).values
        assert np.all(out[a == 0.0] == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            graph_gradient(np.zeros((3, 3)), np.zeros((2, 1)))


class TestAdjoint:
    def test_hand_case_equals_twice_laplacian(self):
        o = graph_gradient(PATH_GRAPH, TWO_NODE_F)
        assert np.array_equal(graph_gradient_adjoint(PATH_GRAPH, o), [[-4.0], [4.0]])

    def test_zero_tensor(self):
        out = graph_gradient_adjoint(PATH_GRAPH, EdgeTensor(np.zeros((2, 2, 1))))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_adjointness_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n, c = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            f = rng.standard_normal((n, c))
            o = rng.standard_normal((n, n, c))
            lhs = float((graph_gradient(a, f).values * o).sum())
            rhs = float((f * graph_gradient_adjoint(a, EdgeTensor(o))).sum())
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestFeatureStep:
    def test_consensus_hand_case(self):
        out = feature_step(TWO_NODE_F, PATH_GRAPH, linear_params(h=0.25))
        assert np.allclose(out, [[2.0], [2.0]])

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((5, 3))
        a = rng.standard_normal((5, 5))
        assert np.array_equal(feature_step(f, a, linear_params(h=0.0)), f)

    def test_equal_inputs_equal_outputs(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((4, 2))
        a = rng.standard_normal((4, 4))
        p = LayerParams(h=0.1, K=rng.standard_normal((2, 2)))
        assert np.array_equal(feature_step(f, a, p), feature_step(f.copy(), a, p))

    def test_constant_rows_are_fixed_points(self):
        rng = np.random.default_rng(6)
        a = (rng.random((6, 6)) < 0.5).astype(float)
        f = np.tile(rng.standard_normal((1, 3)), (6, 1))
        p = LayerParams(h=0.9, K=rng.standard_normal((3, 3)))
        assert np.abs(feature_step(f, a, p) - f).max() <= 1e-12

    def test_permutation_equivariance_identity_w(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n, c = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            p = LayerParams(h=0.3, K=rng.standard_normal((c, c)))
            a = rng.standard_normal((n, n))
            f = rng.standard_normal((n, c))
            perm = rng.permutation(n)
            pm = np.zeros((n, n))
            pm[np.arange(n), perm] = 1.0
            lhs = feature_step(pm @ f, pm @ a @ pm.T, p)
            rhs = pm @ feature_step(f, a, p)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_learn_k_rejects_w(self):
        with pytest.raises(ValueError):
            LayerParams(h=0.1, parameterization=Parameterization.LEARN_K, W=np.eye(2))

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5, 2.0, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="slope"):
            LayerParams(h=0.1, leaky_slope=slope)

    def test_learn_w_requires_scaled_identity_k(self):
        with pytest.raises(ValueError):
            LayerParams(h=0.1, parameterization=Parameterization.LEARN_W,
                        W=np.eye(2), K=np.array([[1.0, 0.2], [0.2, 1.0]]))


def edge_form_field(f, a, params):
    """X = -W^T G(A)^T sigma(G(A) W F) Ktilde through the (n, n, c) edge tensors."""
    w = np.eye(f.shape[0]) if params.W is None else params.W
    k = np.eye(f.shape[1]) if params.K is None else 0.5 * (params.K + params.K.T)
    edge = leaky_relu(graph_gradient(a, w @ f).values, params.leaky_slope)
    return -w.T @ graph_gradient_adjoint(a, EdgeTensor(edge)) @ k


def weighted_symmetric(rng, n):
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    return a + a.T


def both_parameterizations(rng, n, c):
    yield LayerParams(h=0.1, K=rng.standard_normal((c, c)), leaky_slope=0.2)
    yield LayerParams(h=0.1, parameterization=Parameterization.LEARN_W,
                      W=np.eye(n) + 0.1 * rng.standard_normal((n, n)), K=0.7 * np.eye(c))


class TestLaplacianForm:
    def test_matches_edge_form_on_weighted_symmetric_graph(self):
        rng = np.random.default_rng(14)
        n, c = 50, 4
        a = weighted_symmetric(rng, n)
        f = rng.standard_normal((n, c))
        for params in both_parameterizations(rng, n, c):
            ref = edge_form_field(f, a, params)
            assert np.abs(feature_field(f, a, params) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_vjp_matches_edge_form_central_differences(self):
        rng = np.random.default_rng(15)
        n, c, eps = 8, 3, 1e-6
        a = weighted_symmetric(rng, n)
        f = rng.standard_normal((n, c))
        x_bar = rng.standard_normal((n, c))
        for params in both_parameterizations(rng, n, c):
            name = "W" if params.parameterization == Parameterization.LEARN_W else "K"
            f_bar, a_bar, grads = feature_field_vjp(f, a, params, x_bar)
            df = rng.standard_normal((n, c))
            da = rng.standard_normal((n, n))
            da = da + da.T
            dp = rng.standard_normal(getattr(params, name).shape)

            def moved(t):
                p = dataclasses.replace(params, **{name: getattr(params, name) + t * dp})
                return float((x_bar * edge_form_field(f + t * df, a + t * da, p)).sum())

            numeric = (moved(eps) - moved(-eps)) / (2 * eps)
            analytic = float((f_bar * df).sum() + (a_bar * da).sum() + (grads[name] * dp).sum())
            assert analytic == pytest.approx(numeric, rel=1e-7)


class TestEnergy:
    def test_constant_rows_zero(self):
        a = np.random.default_rng(8).random((4, 4))
        f = np.ones((4, 2))
        assert energy(a, f, leaky_slope=1.0) == 0.0

    def test_hand_case(self):
        assert energy(PATH_GRAPH, TWO_NODE_F, leaky_slope=1.0) == pytest.approx(4.0)

    def test_consensus_step_dissipates(self):
        stepped = feature_step(TWO_NODE_F, PATH_GRAPH, linear_params(h=0.25))
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
            a = rng.standard_normal((n, n))
            p = LayerParams(h=max_feature_step(a, LayerParams(h=1.0, K=k)), K=k)
            f = rng.standard_normal((n, c))
            e0 = energy(a, f, leaky_slope=p.leaky_slope)
            e1 = energy(a, feature_step(f, a, p), leaky_slope=p.leaky_slope)
            assert e1 <= e0 + 1e-9


class TestContraction:
    def test_zero_perturbation_trivially_true(self):
        rng = np.random.default_rng(10)
        p = LayerParams(h=0.1, parameterization=Parameterization.LEARN_W,
                        W=rng.standard_normal((3, 3)), K=np.eye(2))
        assert check_feature_contraction(rng.standard_normal((3, 2)),
                                         np.zeros((3, 2)),
                                         rng.standard_normal((3, 3)), p)

    def test_holds_under_safe_step(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n, c = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            lam = 0.2 + 2.0 * rng.random()
            w = rng.standard_normal((n, n))
            a = rng.standard_normal((n, n))
            base = LayerParams(h=1.0, parameterization=Parameterization.LEARN_W,
                               W=w, K=lam * np.eye(c))
            p = LayerParams(h=max_feature_step(a, base),
                            parameterization=Parameterization.LEARN_W,
                            W=w, K=lam * np.eye(c))
            assert check_feature_contraction(rng.standard_normal((n, c)),
                                             rng.standard_normal((n, c)), a, p)

    def test_enormous_step_expands_somewhere(self):
        rng = np.random.default_rng(12)
        found = False
        for _ in range(200):
            n, c = 5, 3
            w = rng.standard_normal((n, n))
            a = rng.standard_normal((n, n))
            base = LayerParams(h=1.0, parameterization=Parameterization.LEARN_W,
                               W=w, K=np.eye(c))
            p = LayerParams(h=1e3 * max_feature_step(a, base),
                            parameterization=Parameterization.LEARN_W, W=w, K=np.eye(c))
            if not check_feature_contraction(rng.standard_normal((n, c)),
                                             rng.standard_normal((n, c)), a, p):
                found = True
                break
        assert found

    def test_operator_norm_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            w = rng.standard_normal((n, n))
            dense = np.zeros((n * n, n))
            for col in range(n):
                e = np.zeros(n)
                e[col] = 1.0
                dense[:, col] = (a * (e[:, None] - e[None, :])).reshape(-1)
            sv = np.linalg.norm(dense @ w, 2) ** 2
            assert gradient_operator_sq_norm(a, w) == pytest.approx(sv, rel=1e-10, abs=1e-10)


def _dense_lam_max(a, w=None):
    b = a * a
    b = b + b.T
    lap = np.diag(b.sum(axis=1)) - b
    if w is not None:
        lap = w.T @ lap @ w
    return max(float(np.linalg.eigvalsh(lap).max()), 0.0)


def _sbm_adjacency(n, seed=0):
    return np.array(gen_sbm(n=n, classes=2, p_in=0.1, p_out=0.02, feat_dim=2,
                            signal=1.0, seed=seed).adjacency)


def _lanczos_case(name):
    n = dynamics._LANCZOS_MIN_N + 44
    rng = np.random.default_rng(21)
    if name == "sbm":
        return _sbm_adjacency(n), None
    if name == "weighted":
        cfg = AdjacencyStepConfig(coeffs=EquivariantCoeffs(k=0.05 * rng.standard_normal(8),
                                                           alpha=-1.0), h=0.5)
        a = adjacency_step(_sbm_adjacency(n), cfg)
        assert (a != 0).all()
        return a, None
    if name == "learn_w":
        return _sbm_adjacency(n), np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    if name == "repeated_top":
        half = _sbm_adjacency(n // 2, seed=3)
        a = np.zeros((n, n))
        a[:n // 2, :n // 2] = half
        a[n // 2:, n // 2:] = half
        return a, None
    if name == "complete":
        return np.ones((n, n)) - np.eye(n), None
    return np.zeros((n, n)), None


LANCZOS_CASES = ("sbm", "weighted", "learn_w", "repeated_top", "complete", "edgeless")


class TestLanczosStepBound:
    @pytest.mark.parametrize("name", LANCZOS_CASES)
    def test_matches_dense_eigvalsh(self, name):
        a, w = _lanczos_case(name)
        assert a.shape[0] >= dynamics._LANCZOS_MIN_N
        dense = _dense_lam_max(a, w)
        got = gradient_operator_sq_norm(a, w)
        if name == "edgeless":
            assert got == 0.0
        else:
            assert abs(got - dense) <= 1e-12 * dense
        assert gradient_operator_sq_norm(a, w) == got

    @pytest.mark.parametrize("name", LANCZOS_CASES)
    def test_step_never_exceeds_dense_oracle(self, name):
        a, w = _lanczos_case(name)
        params = (LayerParams(h=1.0) if w is None else
                  LayerParams(h=1.0, parameterization=Parameterization.LEARN_W, W=w))
        oracle = 1.0 / (_dense_lam_max(a, w) + H_SAFE_EPS)
        assert max_feature_step(a, params) <= oracle * (1 + 1e-12)

    def test_repeated_top_case_has_a_double_eigenvalue(self):
        a, _ = _lanczos_case("repeated_top")
        lam = np.linalg.eigvalsh(np.diag((2 * a * a).sum(axis=1)) - 2 * a * a)
        assert lam[-1] - lam[-2] <= 1e-10 * lam[-1]

    @pytest.mark.parametrize("name", LANCZOS_CASES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, name, bad):
        a, w = _lanczos_case(name)
        a = a.copy()
        a[3, 5] = bad
        with pytest.raises(np.linalg.LinAlgError):
            gradient_operator_sq_norm(a, w)
        if w is not None:
            a[3, 5] = 0.0
            w = w.copy()
            w[7, 2] = bad
            with pytest.raises(np.linalg.LinAlgError):
                gradient_operator_sq_norm(a, w)

    def test_l1_radius_step_never_exceeds_svd_oracle(self):
        a, w = _lanczos_case("learn_w")
        params = LayerParams(h=1.0, parameterization=Parameterization.LEARN_W, W=w)
        s = np.sqrt(_dense_lam_max(a, w)) + 2.0 * 0.5 * float(np.linalg.norm(w, 2))
        assert max_feature_step(a, params, l1_radius=0.5) <= 1.0 / (s * s + H_SAFE_EPS) * (1 + 1e-12)

    def test_dense_path_rejects_non_finite_input(self):
        a = np.ones((5, 5))
        a[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            max_feature_step(a, LayerParams(h=1.0))


@pytest.mark.parametrize("n", [dynamics._ROW_BLOCK - 1, dynamics._LANCZOS_MIN_N + 44])
def test_blockwise_edge_weights_match_the_whole_matrix_form(n):
    # B = A o A + (A o A)^T is built a block of rows at a time; the norm must
    # be the one the whole-matrix B gives, to the bit
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    wts = a * a
    wts = wts + wts.T
    deg = wts.sum(axis=1)
    if n >= dynamics._LANCZOS_MIN_N:
        expected = dynamics._lanczos_lam_max(lambda x: deg * x - wts @ x, n)
    else:
        expected = float(max(np.linalg.eigvalsh(np.diag(deg) - wts).max(), 0.0))
    assert dynamics.gradient_operator_sq_norm(a) == expected
