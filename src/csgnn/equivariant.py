"""Permutation-equivariant adjacency dynamics.

The adjacency matrix is evolved by explicit Euler steps A <- A + h*sigma(M(A)),
where M is the nine-term basis of linear maps on square matrices that are both
permutation-equivariant and symmetry preserving:

    M(A) = k1*A + k2*diag(diag(A)) + k3/(2n)*(A*1*1^T + 1*1^T*A) + k4*diag(A*1)
         + k5/n^2*(1^T A 1)*1*1^T + k6/n*(1^T A 1)*I + k7/n^2*tr(A)*1*1^T
         + k8/n*tr(A)*I + k9/(2n)*(diag(A)*1^T + 1*diag(A)^T).

Only k2..k9 are free: k1 is derived as k1 = alpha - sum_i |k_i| for a fixed
margin alpha <= 0, which makes the Euler step nonexpansive in the vectorized
l1 norm whenever h <= 2 / (2*sum_i |k_i| - alpha). There is one step,
`adjacency_step`, and its `AdjacencyStepConfig` refuses an h past that bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stacks import any_of, freeze, per_matrix, transposed

T_SIZE_GUARD = 64

# Probe points closer than this to an activation kink are rejected.
KINK_TOL = 1e-6
FD_STEP = 1e-5


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU with slope in (0, 1], so its derivative stays in [0, 1];
    slope 1 is the identity, which the hand-computable test oracles rely on."""
    # For slope in (0, 1], max(x, slope*x) picks x on the positive side and
    # slope*x on the negative side: the same bits as np.where(x > 0, x, slope*x).
    # The result overwrites slope*x, so no third array of x's size is live.
    y = slope * x
    return np.maximum(x, y, out=y)


def leaky_relu_prime(x: np.ndarray, slope: float) -> np.ndarray:
    # Subgradient at the kink is resolved to the negative-side slope.
    return np.where(x > 0, 1.0, slope)


@dataclass(frozen=True)
class EquivariantCoeffs:
    """Free coefficients k2..k9 plus the contractivity margin alpha <= 0.

    k1 is never stored; it is always derived so that k1 + sum |k_i| = alpha.
    A stack of coefficient sets has k of shape (..., 8) and alpha of shape
    (...), or one alpha for the whole stack; M then acts on a stack of
    matrices with one set per matrix.
    """

    k: np.ndarray  # the eight free coefficients k2..k9
    alpha: float

    def __post_init__(self):
        k = freeze(self, "k")
        if k.ndim < 1 or k.shape[-1] != 8:
            raise ValueError("expected the eight free coefficients k2..k9")
        if k.ndim > 1:
            freeze(self, "alpha")
        if np.shape(self.alpha) not in ((), k.shape[:-1]):
            raise ValueError("expected one alpha, or one alpha per set of free coefficients")
        if any_of(self.alpha > 0):
            raise ValueError(f"alpha must be <= 0, got {self.alpha}")

    @property
    def k1(self):
        return self.alpha - np.abs(self.k).sum(axis=-1)

    def full(self) -> np.ndarray:
        """All nine coefficients (k1..k9) with k1 derived, along the last axis."""
        return np.concatenate([self.k1[..., None], self.k], axis=-1)


@dataclass(frozen=True)
class AdjacencyStepConfig:
    coeffs: EquivariantCoeffs
    h: float
    leaky_slope: float = 0.1

    def __post_init__(self):
        if any_of(self.h <= 0):
            raise ValueError("step size must be positive")
        if not 0 < self.leaky_slope <= 1:
            raise ValueError("activation slope must lie in (0, 1]")
        hmax = max_step_adjacency(self.coeffs)
        if any_of(self.h > hmax * (1 + 1e-12)):
            raise ValueError(f"step {self.h} exceeds the nonexpansive bound {hmax}")


def _sums(a: np.ndarray, assume_symmetric: bool = False) -> tuple:
    """Diagonal, row sums, column sums, total and trace over the last two axes.

    Row sums are taken over a row-major copy of `a` (no copy when it is
    row-major already) and column sums over a row-major copy of its
    transpose, so an exactly symmetric matrix, in any memory layout, gets
    bit-identical row and column sums and M maps it to an exactly symmetric
    image. `assume_symmetric` says the caller knows every matrix is exactly
    symmetric; the row sums then serve as the column sums, without the copy.
    """
    d = np.diagonal(a, axis1=-2, axis2=-1)
    row = np.ascontiguousarray(a).sum(axis=-1)
    col = row if assume_symmetric else np.ascontiguousarray(transposed(a)).sum(axis=-1)
    return d, row, col, a.sum(axis=(-2, -1)), d.sum(axis=-1)


def _broadcast_coeffs(coeffs: EquivariantCoeffs) -> tuple:
    """k1..k9 shaped for where M uses them: k1 against whole matrices
    (..., 1, 1), k2-k4 and k9 against rows (..., 1), k5-k8 against totals and
    traces (...); the leading axes are empty for one coefficient set."""
    k, row = coeffs.k, coeffs.k[..., None]
    return (coeffs.k1[..., None, None], row[..., 0, :], row[..., 1, :], row[..., 2, :],
            k[..., 3], k[..., 4], k[..., 5], k[..., 6], row[..., 7, :])


def equivariant_linear(a: np.ndarray, coeffs: EquivariantCoeffs,
                       assume_symmetric: bool = False) -> np.ndarray:
    """Evaluate M(A) from its row/column sums, diagonal, total and trace.

    `a` may be a stack of shape (..., n, n); M acts on each matrix, with one
    coefficient set for all of them or, for stacked coefficients, one each.
    `assume_symmetric` promises that every matrix is exactly symmetric (see
    `_sums`); the result is the same to the bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = _broadcast_coeffs(coeffs)
    d, row, col, tot, tr = _sums(a, assume_symmetric)
    out = (k3 * row + k9 * d)[..., :, None] / (2 * n) + (k3 * col + k9 * d)[..., None, :] / (2 * n)
    out += ((k5 * tot + k7 * tr) / n**2)[..., None, None]
    out += k1 * a
    diag = np.arange(n)
    out[..., diag, diag] += k2 * d + k4 * row + ((k6 * tot + k8 * tr) / n)[..., None]
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


def coeff_gradients(a: np.ndarray, m_bar: np.ndarray, assume_symmetric: bool = False) -> np.ndarray:
    """Gradient of <m_bar, M(A)> with respect to the nine raw coefficients.

    `assume_symmetric` promises that `a` (not `m_bar`) is exactly symmetric.
    """
    n = a.shape[0]
    d, row, col, tot, tr = _sums(a, assume_symmetric)
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
    """Dense n^2 x n^2 matrix T with vec(M(A)) = T vec(A), for raw coefficients k1..k9.

    Each basis operator is filled in from its vec-index pattern; its entries
    are small integers, so T does not depend on how the patterns are built.
    """
    if n > T_SIZE_GUARD:
        raise ValueError(f"n={n} exceeds the dense T guard (n <= {T_SIZE_GUARD})")
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = np.asarray(k_full, dtype=float)
    m = n * n
    idx = np.arange(m).reshape((n, n), order="F")  # idx[i, j]: position of A[i, j] in vec(A)
    d = np.diagonal(idx)

    def basis(*fills):
        b = np.zeros((m, m))
        for rows, cols in fills:
            b[rows, cols] += 1.0
        return b

    t = k1 * np.eye(m)
    if k2:  # diag(diag(A))
        t += k2 * basis((d, d))
    if k3:  # A 1 1^T + 1 1^T A: row i's sum and column j's sum land on (i, j)
        t += k3 / (2 * n) * basis((idx[:, :, None], idx[:, None, :]),
                                  (idx[:, :, None], idx.T[None, :, :]))
    if k4:  # diag(A 1)
        t += k4 * basis((d[:, None], idx))
    if k5:  # (1^T A 1) 1 1^T
        t += k5 / n**2 * np.ones((m, m))
    if k6:  # (1^T A 1) I
        t += k6 / n * basis((d[:, None], np.arange(m)[None, :]))
    if k7:  # tr(A) 1 1^T
        t += k7 / n**2 * basis((np.arange(m)[:, None], d[None, :]))
    if k8:  # tr(A) I
        t += k8 / n * basis((d[:, None], d[None, :]))
    if k9:  # diag(A) 1^T + 1 diag(A)^T: A[i, i] and A[j, j] land on (i, j)
        t += k9 / (2 * n) * basis((idx, d[:, None]), (idx, d[None, :]))
    return t


def build_T(coeffs: EquivariantCoeffs, n: int) -> np.ndarray:
    """Dense vectorization matrix of M for the derived-k1 coefficient set."""
    return build_T_raw(coeffs.full(), n)


def operator_l1_norm(t: np.ndarray) -> float:
    """Matrix l1 norm: maximum absolute column sum."""
    t = np.asarray(t, dtype=float)
    return float(np.abs(t).sum(axis=0).max())


def max_step_adjacency(coeffs: EquivariantCoeffs) -> float:
    """Largest h for which the Euler step is provably nonexpansive in vectorized l1.

    inf where all coefficients and alpha are zero (the step is then the
    identity); one bound per set for stacked coefficients.
    """
    denom = 2 * np.abs(coeffs.k).sum(axis=-1) - coeffs.alpha
    with np.errstate(divide="ignore"):
        return 2.0 / denom


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


def adjacency_step(a: np.ndarray, cfg: AdjacencyStepConfig,
                   assume_symmetric: bool = False) -> np.ndarray:
    """One explicit Euler step A + h*sigma(M(A)), at a step the config has
    checked against the nonexpansive bound.

    `a` may be a stack of shape (..., n, n); each matrix takes its own step,
    with stacked coefficients and an array `h` giving one per matrix.
    `assume_symmetric` as in `equivariant_linear`; an exactly symmetric `a`
    steps to an exactly symmetric state, so it holds for every state of a
    trajectory that starts from one.
    """
    # a + h*sigma(M(A)) formed in the activation's own buffer: the same bits
    # (+ and * commute) without temporaries for h*sigma and for the sum
    step = leaky_relu(equivariant_linear(a, cfg.coeffs, assume_symmetric), cfg.leaky_slope)
    step *= per_matrix(cfg.h)
    step += a
    return step


def adjacency_step_vjp(a: np.ndarray, cfg: AdjacencyStepConfig, a_bar: np.ndarray) -> tuple:
    """Pull a cotangent `a_bar` on A + h*sigma(M(A)) back through the step.

    Returns (the cotangent on A, the gradient of the free coefficients
    k2..k9). `a` must be exactly symmetric, as every state of a trajectory
    from a symmetric A_0 is. The derived k1 = alpha - sum |k_i| feeds each
    k_i's gradient through -sign(k_i); the subgradient of |k_i| at zero is
    taken as 0 (np.sign breaks the tie to 0).
    """
    pre = equivariant_linear(a, cfg.coeffs, assume_symmetric=True)
    m_bar = cfg.h * leaky_relu_prime(pre, cfg.leaky_slope) * a_bar
    del pre
    raw_k = coeff_gradients(a, m_bar, assume_symmetric=True)
    a_bar = a_bar + equivariant_linear_adjoint(m_bar, cfg.coeffs)
    return a_bar, raw_k[1:] - raw_k[0] * np.sign(cfg.coeffs.k)


def jacobian_l1_probe_unchecked(a: np.ndarray, coeffs: EquivariantCoeffs, h: float,
                                leaky_slope: float = 0.1) -> float:
    """Finite-difference l1 operator norm of the Euler step's Jacobian at `a`.

    Central differences with step FD_STEP on every vec(A) coordinate, taken
    through `adjacency_step`, so h must pass its guard (the name is the one
    `perfbench/tracing.py` binds). The point must be smooth: probes where
    some pre-activation entry of M(A) has magnitude below KINK_TOL are
    rejected.
    """
    cfg = AdjacencyStepConfig(coeffs=coeffs, h=h, leaky_slope=leaky_slope)
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    m = n * n
    pre = equivariant_linear(a, coeffs)
    if np.any(coeffs.full() != 0.0) and np.any(np.abs(pre) < KINK_TOL):
        raise ValueError("non-smooth point: pre-activation magnitude below tolerance")
    # Rows 0..m-1 of `shifted` are vec(A) + FD_STEP e_j, rows m..2m-1 are
    # vec(A) - FD_STEP e_j. Every matrix of the stack keeps the column-major
    # layout `unvec` gives it, and `cols` is C-ordered, so the sums inside M
    # and inside the norm round as they would one column at a time.
    shifted = np.tile(vec(a), (2 * m, 1))
    j = np.arange(m)
    shifted[j, j] += FD_STEP
    shifted[m + j, j] -= FD_STEP
    stepped = adjacency_step(shifted.reshape(2 * m, n, n).transpose(0, 2, 1), cfg)
    diff = (stepped[:m] - stepped[m:]) / (2 * FD_STEP)
    cols = np.ascontiguousarray(diff.transpose(0, 2, 1).reshape(m, m).T)
    return operator_l1_norm(cols)
