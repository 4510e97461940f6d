"""Permutation-equivariant adjacency dynamics.

The adjacency matrix is evolved by explicit Euler steps A <- A + h*sigma(M(A)),
where M is the nine-term basis of linear maps on square matrices that are both
permutation-equivariant and symmetry preserving:

    M(A) = k1*A + k2*diag(diag(A)) + k3/(2n)*(A*1*1^T + 1*1^T*A) + k4*diag(A*1)
         + k5/n^2*(1^T A 1)*1*1^T + k6/n*(1^T A 1)*I + k7/n^2*tr(A)*1*1^T
         + k8/n*tr(A)*I + k9/(2n)*(diag(A)*1^T + 1*diag(A)^T).

Only k2..k9 are free: k1 is derived as k1 = alpha - sum_i |k_i| for a fixed
margin alpha <= 0, which makes the Euler step nonexpansive in the vectorized
l1 norm whenever h <= 2 / (2*sum_i |k_i| - alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import leaky_relu, leaky_relu_prime

T_SIZE_GUARD = 64

# Probe points closer than this to an activation kink are rejected.
KINK_TOL = 1e-6
FD_STEP = 1e-5


@dataclass(frozen=True)
class EquivariantCoeffs:
    """Free coefficients k2..k9 plus the contractivity margin alpha <= 0.

    k1 is never stored; it is always derived so that k1 + sum |k_i| = alpha.
    """

    k: np.ndarray  # the eight free coefficients k2..k9
    alpha: float

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        k.setflags(write=False)
        if k.shape != (8,):
            raise ValueError("expected the eight free coefficients k2..k9")
        if self.alpha > 0:
            raise ValueError(f"alpha must be <= 0, got {self.alpha}")
        object.__setattr__(self, "k", k)

    @property
    def k1(self) -> float:
        return float(self.alpha - np.abs(self.k).sum())

    def full(self) -> np.ndarray:
        """All nine coefficients (k1..k9) with k1 derived."""
        return np.concatenate([[self.k1], self.k])


@dataclass(frozen=True)
class AdjacencyStepConfig:
    coeffs: EquivariantCoeffs
    h: float
    leaky_slope: float = 0.1

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size must be positive")
        if not 0 < self.leaky_slope <= 1:
            raise ValueError("activation slope must lie in (0, 1]")
        hmax = _max_step(self.coeffs.k, self.coeffs.alpha)
        if hmax is not None and self.h > hmax * (1 + 1e-12):
            raise ValueError(f"step {self.h} exceeds the nonexpansive bound {hmax}")


def _sums(a: np.ndarray) -> tuple:
    """Diagonal, row sums, column sums, total and trace of a square matrix.

    Column sums are taken as the row sums of the transposed copy, so an
    exactly symmetric matrix gets bit-identical row and column sums and M
    maps it to an exactly symmetric image.
    """
    d = np.diagonal(a)
    row = a.sum(axis=1)
    col = np.ascontiguousarray(a.T).sum(axis=1)
    return d, row, col, float(a.sum()), float(d.sum())


def equivariant_linear(a: np.ndarray, coeffs: EquivariantCoeffs) -> np.ndarray:
    """Evaluate M(A) from its row/column sums, diagonal, total and trace."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = coeffs.full()
    d, row, col, tot, tr = _sums(a)
    out = (k3 * row + k9 * d)[:, None] / (2 * n) + (k3 * col + k9 * d)[None, :] / (2 * n)
    out += (k5 * tot + k7 * tr) / n**2
    out += k1 * a
    out[np.diag_indices(n)] += k2 * d + k4 * row + (k6 * tot + k8 * tr) / n
    return out


def equivariant_linear_adjoint(m_bar: np.ndarray, coeffs: EquivariantCoeffs) -> np.ndarray:
    """Adjoint of A -> M(A): pulls a cotangent on M(A) back to a cotangent on A."""
    n = m_bar.shape[0]
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = coeffs.full()
    d, row, col, tot, tr = _sums(m_bar)
    out = (k3 / (2 * n) * row + k4 * d)[:, None] + (k3 / (2 * n) * col)[None, :]
    out += k5 / n**2 * tot + k6 / n * tr
    out += k1 * m_bar
    out[np.diag_indices(n)] += k2 * d + k7 / n**2 * tot + k8 / n * tr + k9 / (2 * n) * (row + col)
    return out


def coeff_gradients(a: np.ndarray, m_bar: np.ndarray) -> np.ndarray:
    """Gradient of <m_bar, M(A)> with respect to the nine raw coefficients."""
    n = a.shape[0]
    d, row, col, tot, tr = _sums(a)
    md, mrow, mcol, mtot, mtr = _sums(m_bar)
    return np.array([
        float((m_bar * a).sum()),
        float(md @ d),
        float(mrow @ row + mcol @ col) / (2 * n),
        float(md @ row),
        tot / n**2 * mtot,
        tot / n * mtr,
        tr / n**2 * mtot,
        tr / n * mtr,
        float((mrow + mcol) @ d) / (2 * n),
    ])


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking flattener (column-major order)."""
    return np.asarray(a).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v).reshape((n, n), order="F")


def build_T_raw(k_full: np.ndarray, n: int) -> np.ndarray:
    """Dense n^2 x n^2 matrix T with vec(M(A)) = T vec(A), for raw coefficients k1..k9."""
    if n > T_SIZE_GUARD:
        raise ValueError(f"n={n} exceeds the dense T guard (n <= {T_SIZE_GUARD})")
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


def build_T(coeffs: EquivariantCoeffs, n: int) -> np.ndarray:
    """Dense vectorization matrix of M for the derived-k1 coefficient set."""
    return build_T_raw(coeffs.full(), n)


def operator_l1_norm(t: np.ndarray) -> float:
    """Matrix l1 norm: maximum absolute column sum."""
    t = np.asarray(t, dtype=float)
    return float(np.abs(t).sum(axis=0).max())


def _max_step(k: np.ndarray, alpha: float):
    denom = 2 * np.abs(k).sum() - alpha
    if denom == 0.0:
        return None
    return 2.0 / denom


def max_step_adjacency(coeffs: EquivariantCoeffs) -> float:
    """Largest h for which the Euler step is provably nonexpansive in vectorized l1."""
    hmax = _max_step(coeffs.k, coeffs.alpha)
    if hmax is None:
        raise ValueError("unbounded step: all coefficients and alpha are zero")
    return hmax


def slope_uniform_margin(coeffs: EquivariantCoeffs, leaky_slope: float) -> float:
    """Margin of the slope-aware l1-nonexpansiveness condition.

    With an activation whose derivative varies over [slope, 1], the step-size
    bound of max_step_adjacency alone does not guarantee nonexpansiveness: a
    column whose diagonal pre-activation sits on the flat side loses most of
    its restoring k1 pull while its off-diagonal neighbours keep full gain.
    Nonexpansiveness for every derivative pattern holds (for all h up to the
    step bound) when

        slope * (-alpha) >= (1 - slope) * sum_i |k_i|,

    and this function returns the left side minus the right side. A negative
    margin means expanding derivative patterns exist.
    """
    return float(leaky_slope * (-coeffs.alpha) - (1.0 - leaky_slope) * np.abs(coeffs.k).sum())


def adjacency_step_unchecked(a: np.ndarray, coeffs: EquivariantCoeffs, h: float,
                             leaky_slope: float = 0.1) -> np.ndarray:
    """Euler step without the step-size guard; for diagnostics and fault injection."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a + h * leaky_relu(equivariant_linear(a, coeffs), leaky_slope)


def adjacency_step(a: np.ndarray, cfg: AdjacencyStepConfig) -> np.ndarray:
    """One explicit Euler step A + h*sigma(M(A))."""
    return adjacency_step_unchecked(a, cfg.coeffs, cfg.h, cfg.leaky_slope)


def jacobian_l1_probe_unchecked(a: np.ndarray, coeffs: EquivariantCoeffs, h: float,
                                leaky_slope: float = 0.1) -> float:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    pre = equivariant_linear(a, coeffs)
    if np.any(coeffs.full() != 0.0) and np.any(np.abs(pre) < KINK_TOL):
        raise ValueError("non-smooth point: pre-activation magnitude below tolerance")
    cols = np.empty((n * n, n * n))
    base = vec(a)
    for j in range(n * n):
        plus = base.copy()
        minus = base.copy()
        plus[j] += FD_STEP
        minus[j] -= FD_STEP
        step_plus = adjacency_step_unchecked(unvec(plus, n), coeffs, h, leaky_slope)
        step_minus = adjacency_step_unchecked(unvec(minus, n), coeffs, h, leaky_slope)
        cols[:, j] = (vec(step_plus) - vec(step_minus)) / (2 * FD_STEP)
    return operator_l1_norm(cols)


def jacobian_l1_probe(a: np.ndarray, cfg: AdjacencyStepConfig) -> float:
    """Finite-difference l1 operator norm of the step's Jacobian at `a`.

    Central differences with step FD_STEP on every vec(A) coordinate. The point
    must be smooth: probes where some pre-activation entry of M(A) has magnitude
    below KINK_TOL are rejected.
    """
    return jacobian_l1_probe_unchecked(a, cfg.coeffs, cfg.h, cfg.leaky_slope)
