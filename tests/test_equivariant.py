import numpy as np
import pytest

from csgnn import equivariant
from csgnn.equivariant import (FD_STEP, KINK_TOL, AdjacencyStepConfig, EquivariantCoeffs,
                               adjacency_step, adjacency_step_vjp,
                               build_T, build_T_raw, coeff_gradients, equivariant_linear,
                               equivariant_linear_adjoint, jacobian_l1_probe_unchecked,
                               leaky_relu, max_step_adjacency,
                               operator_l1_norm, slope_uniform_margin, unvec, vec)
from csgnn.graph import l1_vec_distance

TINY = np.finfo(float).tiny           # smallest normal
SUB = np.nextafter(0.0, 1.0)          # smallest subnormal


def coeffs_with(alpha=0.0, **k_entries):
    k = np.zeros(8)
    for name, val in k_entries.items():
        k[int(name[1:]) - 2] = val
    return EquivariantCoeffs(k=k, alpha=alpha)


def random_coeffs(rng, alpha_shift=0.0):
    return EquivariantCoeffs(k=rng.standard_normal(8),
                             alpha=-abs(rng.standard_normal()) - alpha_shift)


def kron_T_raw(k_full, n):
    """Reference T assembled from Kronecker products of e_i e_j^T, 1 and I."""
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = np.asarray(k_full, dtype=float)
    eye = np.eye(n)
    ones = np.ones((n, n))
    basis = [np.outer(eye[:, i], eye[:, i]) for i in range(n)]  # e_i e_i^T
    t = k1 * np.eye(n * n)
    if k2:
        t += k2 * sum(np.kron(b, b) for b in basis)
    if k3:
        t += k3 / (2 * n) * (np.kron(ones, eye) + np.kron(eye, ones))
    if k4:
        t += k4 * sum(np.kron(np.outer(eye[:, i], np.ones(n)), basis[i]) for i in range(n))
    if k5:
        t += k5 / n**2 * np.kron(ones, ones)
    if k6:
        t += k6 / n * sum(
            np.kron(np.outer(eye[:, i], np.ones(n)), np.outer(eye[:, i], np.ones(n)))
            for i in range(n)
        )
    if k7:
        t += k7 / n**2 * sum(
            np.kron(np.outer(np.ones(n), eye[:, i]), np.outer(np.ones(n), eye[:, i]))
            for i in range(n)
        )
    if k8:
        t += k8 / n * sum(
            np.kron(np.outer(eye[:, j], eye[:, i]), np.outer(eye[:, j], eye[:, i]))
            for i in range(n)
            for j in range(n)
        )
    if k9:
        t += k9 / (2 * n) * sum(
            np.kron(np.outer(np.ones(n), eye[:, i]), basis[i])
            + np.kron(basis[i], np.outer(np.ones(n), eye[:, i]))
            for i in range(n)
        )
    return t


@pytest.fixture
def guard_at_ten_bounds(monkeypatch):
    """The step guard admits up to ten times the nonexpansive bound, so a
    probe can step past it; this module's own `max_step_adjacency` still
    gives the true bound."""
    bound = equivariant.max_step_adjacency
    monkeypatch.setattr(equivariant, "max_step_adjacency", lambda coeffs: bound(coeffs) * 10.0)


def looped_probe(a, coeffs, h, leaky_slope=0.1):
    """Reference Jacobian probe: one pair of perturbed steps per vec(A) coordinate."""
    n = a.shape[0]
    pre = equivariant_linear(a, coeffs)
    if np.any(coeffs.full() != 0.0) and np.any(np.abs(pre) < KINK_TOL):
        raise ValueError("non-smooth point: pre-activation magnitude below tolerance")
    cfg = AdjacencyStepConfig(coeffs=coeffs, h=h, leaky_slope=leaky_slope)
    cols = np.empty((n * n, n * n))
    base = vec(a)
    for j in range(n * n):
        plus = base.copy()
        minus = base.copy()
        plus[j] += FD_STEP
        minus[j] -= FD_STEP
        step_plus = adjacency_step(unvec(plus, n), cfg)
        step_minus = adjacency_step(unvec(minus, n), cfg)
        cols[:, j] = (vec(step_plus) - vec(step_minus)) / (2 * FD_STEP)
    return operator_l1_norm(cols)


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

    def test_index_patterns_equal_kron_reference(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for trial in range(12):
                k_raw = rng.standard_normal(9)
                if trial % 2:
                    k_raw[rng.random(9) < 0.5] = 0.0
                assert np.array_equal(build_T_raw(k_raw, n), kron_T_raw(k_raw, n))
            for i in range(9):
                assert np.array_equal(build_T_raw(np.eye(9)[i], n), kron_T_raw(np.eye(9)[i], n))

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

    def test_degenerate_is_unbounded(self):
        c = EquivariantCoeffs(k=np.zeros(8), alpha=0.0)
        assert max_step_adjacency(c) == np.inf
        for h in (1e-300, 0.7, 1e300):
            assert AdjacencyStepConfig(coeffs=c, h=h).h == h

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
            cfg = AdjacencyStepConfig(coeffs=c, h=max_step_adjacency(c))
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            d_in = l1_vec_distance(a, b)
            d_out = l1_vec_distance(adjacency_step(a, cfg), adjacency_step(b, cfg))
            assert d_out <= d_in + 1e-9


class TestAdjacencyStepVjp:
    """The pullback against central differences of <a_bar, adjacency_step(A)>."""

    T = 1e-6

    @staticmethod
    def smooth_instance(rng, k):
        # a symmetric A whose pre-activations stay well off the kink; h at half
        # the step bound, so a perturbed k_i still admits the same h
        coeffs = EquivariantCoeffs(k=k, alpha=-0.5)
        while True:
            a = rng.standard_normal((5, 5))
            a = a + a.T
            if np.abs(equivariant_linear(a, coeffs)).min() > 1e-3:
                break
        cfg = AdjacencyStepConfig(coeffs=coeffs, h=0.5 * max_step_adjacency(coeffs))
        return a, cfg, rng.standard_normal((5, 5))

    @staticmethod
    def objective(a, cfg, a_bar, k=None):
        if k is not None:
            coeffs = EquivariantCoeffs(k=k, alpha=cfg.coeffs.alpha)
            cfg = AdjacencyStepConfig(coeffs=coeffs, h=cfg.h, leaky_slope=cfg.leaky_slope)
        return float((a_bar * adjacency_step(a, cfg)).sum())

    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a, cfg, a_bar = self.smooth_instance(rng, rng.standard_normal(8))
            got_a, got_k = adjacency_step_vjp(a, cfg, a_bar)
            for _ in range(4):
                da = rng.standard_normal(a.shape)
                fd = (self.objective(a + self.T * da, cfg, a_bar)
                      - self.objective(a - self.T * da, cfg, a_bar)) / (2 * self.T)
                assert float((got_a * da).sum()) == pytest.approx(fd, rel=1e-6, abs=1e-8)
            k = cfg.coeffs.k
            for i in np.flatnonzero(k):
                step = np.zeros(8)
                step[i] = self.T
                fd = (self.objective(a, cfg, a_bar, k + step)
                      - self.objective(a, cfg, a_bar, k - step)) / (2 * self.T)
                assert got_k[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_zero_coefficient_takes_the_mean_of_the_one_sided_differences(self):
        rng = np.random.default_rng(22)
        for i in range(8):
            k = rng.standard_normal(8)
            k[i] = 0.0
            a, cfg, a_bar = self.smooth_instance(rng, k)
            step = np.zeros(8)
            step[i] = self.T
            at_zero = self.objective(a, cfg, a_bar, k)
            right = (self.objective(a, cfg, a_bar, k + step) - at_zero) / self.T
            left = (at_zero - self.objective(a, cfg, a_bar, k - step)) / self.T
            # k1 = alpha - sum |k_i| puts a kink at k_i = 0
            assert abs(right - left) > 1e-3
            _, got_k = adjacency_step_vjp(a, cfg, a_bar)
            assert got_k[i] == pytest.approx(0.5 * (right + left), rel=1e-6, abs=1e-8)


class TestJacobianProbe:
    def test_zero_coefficients_give_exact_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 3))
        assert jacobian_l1_probe_unchecked(a, EquivariantCoeffs(k=np.zeros(8), alpha=0.0),
                                           0.7) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_kink_points(self):
        c = EquivariantCoeffs(k=np.zeros(8), alpha=-1.0)  # M(A) = -A
        a = np.array([[1.0, 0.0], [1.0, 1.0]])  # a zero entry lands on the kink
        with pytest.raises(ValueError, match="non-smooth"):
            jacobian_l1_probe_unchecked(a, c, 1.0)

    def test_refuses_a_step_past_the_bound(self):
        c = EquivariantCoeffs(k=np.full(8, 0.1), alpha=-1.0)
        a = np.random.default_rng(0).standard_normal((3, 3))
        with pytest.raises(ValueError, match="exceeds the nonexpansive bound"):
            jacobian_l1_probe_unchecked(a, c, 1.01 * max_step_adjacency(c))

    def test_batched_probe_equals_column_loop(self, guard_at_ten_bounds):
        rng = np.random.default_rng(12)
        done = 0
        while done < 250:
            n = int(rng.integers(1, 9))
            c = random_coeffs(rng)
            if rng.random() < 0.2:
                c = EquivariantCoeffs(k=c.k * (rng.random(8) < 0.5), alpha=c.alpha)
            h = max_step_adjacency(c) * float(rng.choice([1.0, 0.3, 5.0]))
            slope = float(rng.choice([0.1, 0.5, 1.0]))
            a = rng.standard_normal((n, n)) * float(rng.choice([1.0, 1e-3, 1e3]))
            try:
                expected = looped_probe(a, c, h, slope)
            except ValueError:
                with pytest.raises(ValueError, match="non-smooth"):
                    jacobian_l1_probe_unchecked(a, c, h, slope)
                continue
            done += 1
            assert jacobian_l1_probe_unchecked(a, c, h, slope) == expected

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

    def test_oversized_step_violates_bound_somewhere(self, guard_at_ten_bounds):
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
        cfg = AdjacencyStepConfig(coeffs=c, h=max_step_adjacency(c), leaky_slope=0.1)
        assert slope_uniform_margin(c, 0.1) < 0
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        b = a.copy()
        b[0, 0] += 1e-5
        d_out = l1_vec_distance(adjacency_step(a, cfg), adjacency_step(b, cfg))
        assert d_out > l1_vec_distance(a, b) * 1.4


@pytest.mark.parametrize("slope", [1.0, 0.5, 0.1, 1e-3, TINY, SUB])
def test_leaky_relu_bits_equal_where_form(slope):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, SUB, -SUB, 3 * SUB, -3 * SUB,
               TINY, -TINY, 1e-310, -1e-310, 1.0, -1.0, np.finfo(float).max, -np.finfo(float).max]
    rng = np.random.default_rng(0)
    x = np.concatenate([special, rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200)])
    where = np.where(x > 0, x, slope * x)
    got = leaky_relu(x, slope)
    assert np.array_equal(got.view(np.uint64), where.view(np.uint64))
    matrix = x[:196].reshape(14, 14)
    assert np.array_equal(leaky_relu(matrix, slope).view(np.uint64),
                          np.where(matrix > 0, matrix, slope * matrix).view(np.uint64))
