"""Node-feature dynamics on an undirected graph, driven by the graph gradient.

The edge-indexed gradient of node features is (G(A)F)_ijk = A_ij (F_ik - F_jk);
its adjoint aggregates edge quantities back onto nodes. One Euler layer moves
the features along

    F <- F + h * X(F, A),   X(F, A) = -G(A)^T sigma(G(A) F) Ktilde,

with the trained channel mixer K symmetrized, Ktilde = (K + K^T)/2, at every
evaluation. The field acts on every node alike, so the layer is
permutation-equivariant and independent of the node count n.

The adjacency is exactly symmetric by contract: `Graph` rejects any other,
`network.evolve` checks the A_0 it is handed, and the adjacency step keeps an
exactly symmetric matrix exactly symmetric. On such an A the LeakyReLU cancels
pairwise, sigma(x) - sigma(-x) = (1 + slope) x, so the field is exactly the
weighted-Laplacian map

    X(F, A) = -(1 + slope) L(A o A) F Ktilde,   L(B) = diag(B 1) - B,

and that is the form every function here computes, without (n, n, c) edge
tensors. `graph_gradient` and its adjoint remain as the operators the
property suite checks for adjointness.

Writing B = I_c (x) G(A), the vectorized field is -(Ktilde (x) I_n) B^T sigma(B f),
the preconditioned gradient of the convex energy  E(F) = sum gamma(G(A) F)
with gamma' = sigma, which the same cancellation turns into
(1 + slope)/2 * sum F o L(A o A) F. That structure yields the step-size bound
used here: the field's linearization has l2 norm at most
||Ktilde||_2 * ||G(A)||_2^2, and for positive definite Ktilde both descent of E
and nonexpansiveness in Frobenius norm hold for h below

    h_safe = 1 / (lam_max(Ktilde)^2 / lam_min(Ktilde) * ||G(A)||_2^2 + eps).

The step is the symmetric linear map F -> F - h (1 + slope) L(A o A) F Ktilde,
whose eigenvalues 1 - h (1 + slope) lam_i mu_j (lam_i of L(A o A), mu_j of
Ktilde) lie in [1 - (1 + slope)/2, 1] below h_safe. Nothing keeps a trained
Ktilde positive definite: an indefinite one gets a stability clamp only.

||G(A)||_2^2 is lam_max(L(2 A o A)). Below 256 nodes it comes from a dense
`eigvalsh` of that matrix; from 256 nodes on, from matrix-free Lanczos whose
top Ritz value is padded by its residual, so the estimate errs towards a
smaller step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stacks import any_of, freeze, per_matrix, scalar_or_stack, transposed

H_SAFE_EPS = 1e-12


@dataclass(frozen=True)
class LayerParams:
    """Per-layer feature-dynamics parameters: the step size h, the c x c
    channel mixer K and the activation slope.

    A stack of layers has K of shape (..., c, c) and h of shape (...); the
    feature functions then act on stacks of states with one layer per state.
    """

    h: float
    K: np.ndarray
    leaky_slope: float = 0.1

    # Not a field: the node mixer is always the identity. Kept as an attribute
    # only because perfbench's `layer_dicts` reads `feature.W`.
    W = None

    def __post_init__(self):
        if any_of(self.h < 0):
            raise ValueError("step size must be nonnegative")
        if not 0 < self.leaky_slope <= 1:
            raise ValueError("activation slope must lie in (0, 1]")
        k = freeze(self, "K")
        if k.ndim < 2 or k.shape[-1] != k.shape[-2]:
            raise ValueError("K must be square")


# Every function below that takes adjacency and features also takes stacks
# (..., n, n) and (..., n, c), with one layer, or a stacked LayerParams, for
# all of them; each matrix of a stack gets the bits a call on it alone gives.

def graph_gradient(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(G(A)F)_ijk = A_ij (F_ik - F_jk): an (n, n, c) edge tensor, zero wherever A_ij = 0."""
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if f.ndim != a.ndim or f.shape[-2] != a.shape[-1]:
        raise ValueError(f"features must have {a.shape[-1]} rows, got {f.shape}")
    return a[..., :, :, None] * (f[..., :, None, :] - f[..., None, :, :])


def graph_gradient_adjoint(a: np.ndarray, o: np.ndarray) -> np.ndarray:
    """(G(A)^T O)_ik = sum_j (A_ij O_ijk - A_ji O_jik) for an (n, n, c) edge tensor O."""
    a = np.asarray(a, dtype=float)
    o = np.asarray(o, dtype=float)
    if o.ndim < 3 or o.shape[-3] != a.shape[-1] or o.shape[-2] != a.shape[-1]:
        raise ValueError(f"edge tensor shape {o.shape} does not match adjacency {a.shape}")
    return np.einsum("...ij,...ijk->...ik", a, o) - np.einsum("...ji,...jik->...ik", a, o)


def symmetrized(k: np.ndarray) -> np.ndarray:
    """Ktilde = (K + K^T)/2."""
    return 0.5 * (k + transposed(k))


def _laplacian_apply(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(B) x = diag(B 1) x - B x."""
    return b.sum(axis=-1)[..., :, None] * x - b @ x


def feature_field(f: np.ndarray, a: np.ndarray, params: LayerParams) -> np.ndarray:
    """X(F, A) = -G(A)^T sigma(G(A) F) Ktilde = -(1 + slope) L(A o A) F Ktilde."""
    v = (1.0 + params.leaky_slope) * _laplacian_apply(a * a, f)
    return -(v @ symmetrized(params.K))


def feature_field_vjp(f: np.ndarray, a: np.ndarray, params: LayerParams,
                      x_bar: np.ndarray) -> tuple:
    """Reverse of `feature_field`.

    Pulls a cotangent `x_bar` on X(F, A) back to (f_bar, a_bar, K_bar), the
    last the gradient of K. a_bar matches the edge form
    along symmetric directions, the only ones an adjacency trajectory started
    from a symmetric A takes.
    """
    scale = 1.0 + params.leaky_slope
    b = a * a
    v = scale * _laplacian_apply(b, f)
    p_bar = -(x_bar @ symmetrized(params.K))
    u_bar = scale * p_bar
    f_bar = _laplacian_apply(b, u_bar)
    b_bar = (u_bar * f).sum(axis=1)[:, None] - u_bar @ f.T
    k_tilde_bar = -v.T @ x_bar
    return f_bar, 2.0 * a * b_bar, 0.5 * (k_tilde_bar + k_tilde_bar.T)


def feature_step(f: np.ndarray, a: np.ndarray, params: LayerParams) -> np.ndarray:
    """One explicit Euler step F + h X(F, A)."""
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    if f.shape[-2] != a.shape[-1]:
        raise ValueError(f"features ({f.shape}) and adjacency ({a.shape}) disagree on n")
    return f + per_matrix(params.h) * feature_field(f, a, params)


def energy(a: np.ndarray, f: np.ndarray, leaky_slope: float = 0.1) -> float:
    """Convex layer energy sum gamma(G(A) F), gamma' = sigma and gamma(0) = 0.

    It is (1 + slope)/2 * sum F o L(A o A) F: the pairwise cancellation that
    gives the field's Laplacian form. A float for one state, one energy per
    state for stacks.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape[-2] != a.shape[-1]:
        raise ValueError("shape mismatch between adjacency and features")
    e = (f * _laplacian_apply(a * a, f)).sum(axis=(-2, -1))
    return scalar_or_stack(0.5 * (1.0 + leaky_slope) * e)


def gradient_operator_sq_norm(a: np.ndarray) -> float:
    """||G(A)||_2^2 = lam_max(L(2 A o A)).

    For a single channel, (G(A)v)_ij = A_ij (v_i - v_j), so (G(A))^T G(A) is the
    graph Laplacian L(B) with B = A o A + (A o A)^T, which is 2 (A o A) on a
    symmetric A. Below `_LANCZOS_MIN_N` nodes the Laplacian is formed and
    `eigvalsh` gives lam_max exactly; from there on `_lanczos_lam_max`
    computes it from products x -> d o x - B x, d = B 1, without forming L.
    A non-finite A raises np.linalg.LinAlgError on both paths. A stack of
    adjacency matrices takes the dense path and gives one value per matrix.
    """
    a = np.asarray(a, dtype=float)
    wts = np.multiply(a, a, order="C")
    wts *= 2.0
    deg = wts.sum(axis=-1)
    if not np.isfinite(deg).all():
        raise np.linalg.LinAlgError("gradient operator has non-finite entries")
    n = a.shape[-1]
    if a.ndim == 2 and n >= _LANCZOS_MIN_N:
        return _lanczos_lam_max(lambda x: deg * x - wts @ x, n)
    lap = 0.0 - wts  # np.diag(deg) - wts to the bit, with +0 off the diagonal
    lap.reshape(lap.shape[:-2] + (n * n,))[..., ::n + 1] += deg
    lam = np.linalg.eigvalsh(lap).max(axis=-1)
    return float(max(lam, 0.0)) if lam.ndim == 0 else np.maximum(lam, 0.0)


# Measured crossover on SBM adjacencies, one BLAS thread: `eigvalsh` against
# Lanczos takes 0.7 against 3.5 ms at n=100, 4.8 against 4.7 ms at n=256 and
# 158 against 45 ms at n=1000.
_LANCZOS_MIN_N = 256
_LANCZOS_RTOL = 1e-12
_LANCZOS_CHECK_EVERY = 4


def _lanczos_lam_max(op, n: int) -> float:
    """Upper estimate of the largest eigenvalue of a symmetric PSD operator.

    Lanczos with full reorthogonalization from a fixed Gaussian start vector
    (its own generator, seed 0; almost surely not the constant vector, which
    spans the Laplacian's null space). It stops once the top Ritz pair
    (theta, y) of the tridiagonal T_k has residual ||op(Q y) - theta Q y|| =
    beta_k |e_k^T y| <= 1e-12 theta, on breakdown (beta_k = 0: the Krylov
    space is invariant) or when the Krylov space spans R^n. Some eigenvalue
    lies within that residual of theta, and theta never exceeds lam_max, so
    theta + residual is returned: it bounds lam_max from above whenever theta
    has converged to the top of the spectrum, which a random start vector
    ensures with probability one.
    """
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((n, n))  # rows are touched only as the Krylov space grows
    alphas, betas = [], []
    for k in range(n):
        basis[k] = q
        v = op(q)
        alphas.append(float(q @ v))
        vk = basis[:k + 1]
        v -= vk.T @ (vk @ v)
        v -= vk.T @ (vk @ v)
        beta = float(np.linalg.norm(v))
        last = beta == 0.0 or k + 1 == n
        # the k x k eigh costs more than a matvec at moderate n, so the
        # residual is tested every few steps only
        if last or k % _LANCZOS_CHECK_EVERY == _LANCZOS_CHECK_EVERY - 1:
            evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta = float(evals[-1])
            resid = beta * abs(float(evecs[-1, -1]))
            if last or resid <= _LANCZOS_RTOL * theta:
                break
        betas.append(beta)
        q = v / beta
    return max(theta + resid, 0.0)


def max_feature_step(a: np.ndarray, params: LayerParams, l1_radius: float = 0.0) -> float:
    """Step bound h_safe = 1/(lam_est + eps) for the layer's linearized field.

    For positive definite Ktilde the estimate folds in the conditioning
    lam_max^2/lam_min so that h <= h_safe guarantees energy descent and
    Frobenius nonexpansiveness. Indefinite Ktilde falls back to the plain
    operator-norm estimate, a stability clamp only.

    A positive `l1_radius` makes the bound hold uniformly over every adjacency
    matrix within that vectorized-l1 distance of `a` (the gradient operator is
    linear in A with ||G(dA)||_2 <= 2 ||vec(dA)||_1).

    For a stack of adjacency matrices and a stacked `params` (and optionally
    one radius per matrix), one bound per matrix. Squares are taken with
    `np.float_power`, the libm `pow` a float's `** 2` calls; an array's `** 2`
    rounds as x * x, which differs in the last bit on about one value in a
    thousand.
    """
    s2 = gradient_operator_sq_norm(a)
    if any_of(l1_radius > 0.0):
        s2 = np.where(l1_radius > 0.0, np.float_power(np.sqrt(s2) + 2.0 * l1_radius, 2), s2)
    eigs = np.linalg.eigvalsh(symmetrized(params.K))
    lo, hi = eigs.min(axis=-1), eigs.max(axis=-1)
    # lam_max^2 / lam_min where Ktilde is positive definite, the plain
    # operator norm elsewhere; an estimate that overflows gives h = 0
    with np.errstate(over="ignore"):
        ratio = np.divide(np.float_power(hi, 2), lo, where=lo > 0,
                          out=np.asarray(np.abs(eigs).max(axis=-1)))
        lam_est = ratio * s2
    h = 1.0 / (lam_est + H_SAFE_EPS)
    return scalar_or_stack(h)
