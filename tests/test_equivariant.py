import numpy as np
import pytest

from csgnn.equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step,
                               adjacency_step_unchecked, build_T, build_T_raw,
                               coeff_gradients, equivariant_linear,
                               equivariant_linear_adjoint, jacobian_l1_probe,
                               jacobian_l1_probe_unchecked, max_step_adjacency,
                               operator_l1_norm, slope_uniform_margin, unvec, vec)
from csgnn.graph import l1_vec_distance


def coeffs_with(alpha=0.0, **k_entries):
    k = np.zeros(8)
    for name, val in k_entries.items():
        k[int(name[1:]) - 2] = val
    return EquivariantCoeffs(k=k, alpha=alpha)


def random_coeffs(rng, alpha_shift=0.0):
    return EquivariantCoeffs(k=rng.standard_normal(8),
                             alpha=-abs(rng.standard_normal()) - alpha_shift)


class TestEquivariantLinear:
    def test_identity_term_only(self):
        c = EquivariantCoeffs(k=np.zeros(8), alpha=-1.0)
        assert c.k1 == -1.0
        assert np.allclose(equivariant_linear(np.eye(2), c), -np.eye(2))

    def test_k2_hand_case(self):
        c = coeffs_with(k2=1.0)
        assert c.k1 == -1.0
        out = equivariant_linear(np.array([[1.0, 2.0], [3.0, 4.0]]), c)
        assert np.allclose(out, [[0.0, -2.0], [-3.0, 0.0]])

    def test_k3_hand_case(self):
        c = coeffs_with(k3=1.0)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        k3_term = (a @ np.ones((2, 2)) + np.ones((2, 2)) @ a) / 4.0
        assert np.allclose(k3_term, [[1.75, 2.25], [2.75, 3.25]])
        assert np.allclose(equivariant_linear(a, c), k3_term - a)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            c = random_coeffs(rng)
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            s, t = rng.standard_normal(2)
            lhs = equivariant_linear(s * a + t * b, c)
            rhs = s * equivariant_linear(a, c) + t * equivariant_linear(b, c)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            equivariant_linear(np.zeros((2, 3)), coeffs_with(k2=1.0))

    def test_alpha_must_be_nonpositive(self):
        with pytest.raises(ValueError, match="alpha"):
            EquivariantCoeffs(k=np.zeros(8), alpha=0.5)


class TestTMatrix:
    def test_raw_identity_coefficient(self):
        k_raw = np.zeros(9)
        k_raw[0] = 1.0
        assert np.array_equal(build_T_raw(k_raw, 2), np.eye(4))

    def test_k2_structure_n3(self):
        k_raw = np.zeros(9)
        k_raw[1] = 1.0
        t = build_T_raw(k_raw, 3)
        assert np.count_nonzero(t) == 3
        assert np.trace(t) == 3.0
        assert np.array_equal(t, np.diag(np.diag(t)))

    def test_vectorization_consistency(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                c = random_coeffs(rng)
                t = build_T(c, n)
                a = rng.standard_normal((n, n))
                err = np.abs(vec(equivariant_linear(a, c)) - t @ vec(a)).max()
                assert err <= 1e-10

    def test_adjoint_and_coeff_gradients_match_dense_reference(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                c = random_coeffs(rng)
                a = rng.standard_normal((n, n))
                m = rng.standard_normal((n, n))
                adjoint = unvec(build_T(c, n).T @ vec(m), n)
                assert np.abs(equivariant_linear_adjoint(m, c) - adjoint).max() <= 1e-10
                basis = [build_T_raw(np.eye(9)[i], n) @ vec(a) for i in range(9)]
                assert np.allclose(coeff_gradients(a, m), [vec(m) @ t for t in basis],
                                   rtol=0, atol=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            build_T(coeffs_with(k2=1.0), 65)

    def test_norm_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            c = random_coeffs(rng)
            s = build_T(c, n) - c.k1 * np.eye(n * n)
            assert operator_l1_norm(s) <= np.abs(c.k).sum() + 1e-12

    def test_operator_l1_norm_hand_cases(self):
        assert operator_l1_norm(np.eye(4)) == 1.0
        assert operator_l1_norm([[1.0, -2.0], [3.0, 0.0]]) == 4.0


class TestMaxStep:
    def test_identity_only(self):
        assert max_step_adjacency(EquivariantCoeffs(k=np.zeros(8), alpha=-2.0)) == 1.0

    def test_uniform_small_coeffs(self):
        c = EquivariantCoeffs(k=0.1 * np.ones(8), alpha=-1.0)
        assert max_step_adjacency(c) == pytest.approx(2.0 / 2.6, rel=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="unbounded step"):
            max_step_adjacency(EquivariantCoeffs(k=np.zeros(8), alpha=0.0))

    def test_config_rejects_oversized_step(self):
        c = coeffs_with(k2=1.0, alpha=-1.0)
        with pytest.raises(ValueError, match="exceeds"):
            AdjacencyStepConfig(coeffs=c, h=2.0 * max_step_adjacency(c))


class TestAdjacencyStep:
    def test_zero_coefficients_leave_input_unchanged(self):
        cfg = AdjacencyStepConfig(coeffs=EquivariantCoeffs(k=np.zeros(8), alpha=0.0), h=0.7)
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert np.array_equal(adjacency_step(a, cfg), a)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            c = random_coeffs(rng)
            cfg = AdjacencyStepConfig(coeffs=c, h=max_step_adjacency(c))
            a = rng.standard_normal((n, n))
            a = a + a.T
            out = adjacency_step(a, cfg)
            assert np.abs(out - out.T).max() <= 1e-12

    def test_weighted_symmetric_input_stays_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.random((200, 200)) * (rng.random((200, 200)) < 0.2)
        a = a + a.T
        c = random_coeffs(rng)
        cfg = AdjacencyStepConfig(coeffs=c, h=max_step_adjacency(c))
        for _ in range(4):
            a = adjacency_step(a, cfg)
            assert np.array_equal(a, a.T)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            c = random_coeffs(rng)
            cfg = AdjacencyStepConfig(coeffs=c, h=max_step_adjacency(c))
            a = rng.standard_normal((n, n))
            perm = rng.permutation(n)
            pm = np.zeros((n, n))
            pm[np.arange(n), perm] = 1.0
            lhs = adjacency_step(pm @ a @ pm.T, cfg)
            rhs = pm @ adjacency_step(a, cfg) @ pm.T
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_l1_contraction_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            c = random_coeffs(rng)
            h = max_step_adjacency(c)
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            d_in = l1_vec_distance(a, b)
            d_out = l1_vec_distance(adjacency_step_unchecked(a, c, h),
                                    adjacency_step_unchecked(b, c, h))
            assert d_out <= d_in + 1e-9


class TestJacobianProbe:
    def test_zero_coefficients_give_exact_identity(self):
        cfg = AdjacencyStepConfig(coeffs=EquivariantCoeffs(k=np.zeros(8), alpha=0.0), h=0.7)
        a = np.random.default_rng(0).standard_normal((3, 3))
        assert jacobian_l1_probe(a, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_kink_points(self):
        c = EquivariantCoeffs(k=np.zeros(8), alpha=-1.0)  # M(A) = -A
        cfg = AdjacencyStepConfig(coeffs=c, h=1.0)
        a = np.array([[1.0, 0.0], [1.0, 1.0]])  # a zero entry lands on the kink
        with pytest.raises(ValueError, match="non-smooth"):
            jacobian_l1_probe(a, cfg)

    def test_bounded_in_slope_uniform_regime(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 100:
            alpha = -0.5 - abs(rng.standard_normal())
            slope = 0.1
            k = rng.standard_normal(8)
            k *= 0.8 * slope * (-alpha) / (1 - slope) / np.abs(k).sum()
            c = EquivariantCoeffs(k=k, alpha=alpha)
            assert slope_uniform_margin(c, slope) > 0
            a = rng.standard_normal((int(rng.integers(3, 6)),) * 2)
            try:
                val = jacobian_l1_probe_unchecked(a, c, max_step_adjacency(c), slope)
            except ValueError:
                continue
            done += 1
            assert val <= 1.0 + 1e-6

    def test_oversized_step_violates_bound_somewhere(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            c = EquivariantCoeffs(k=2.0 * rng.standard_normal(8), alpha=-0.1)
            h = 10.0 * max_step_adjacency(c)
            a = rng.standard_normal((4, 4))
            try:
                worst = max(worst, jacobian_l1_probe_unchecked(a, c, h))
            except ValueError:
                continue
        assert worst > 1.0

    def test_heterogeneous_slope_counterexample(self):
        # A dead diagonal coordinate with active neighbours expands the l1
        # distance even at the nominal step bound; slope_uniform_margin flags it.
        c = coeffs_with(k3=1.0)
        h = max_step_adjacency(c)
        assert slope_uniform_margin(c, 0.1) < 0
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        b = a.copy()
        b[0, 0] += 1e-5
        d_out = l1_vec_distance(adjacency_step_unchecked(a, c, h, 0.1),
                                adjacency_step_unchecked(b, c, h, 0.1))
        assert d_out > l1_vec_distance(a, b) * 1.4
