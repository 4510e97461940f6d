"""Node-feature dynamics on an undirected graph, driven by the graph gradient.

The edge-indexed gradient of node features is (G(A)F)_ijk = A_ij (F_ik - F_jk);
its adjoint aggregates edge quantities back onto nodes. One Euler layer moves
the features along

    F <- F + h * X(F, A),   X(F, A) = -W^T G(A)^T sigma(G(A) (W F)) Ktilde,

with Ktilde = (K + K^T)/2 symmetrized at every evaluation. Two parameterizations
are supported: training the node-side mixing W (with K a positive multiple of
the identity, the configuration with a Frobenius contraction guarantee) or
training the channel-mixing K with W fixed to the identity.

The adjacency is exactly symmetric by contract: `Graph` rejects any other,
`network.evolve` checks the A_0 it is handed, and the adjacency step keeps an
exactly symmetric matrix exactly symmetric. On such an A the LeakyReLU cancels
pairwise, sigma(x) - sigma(-x) = (1 + slope) x, so the field is exactly the
weighted-Laplacian map

    X(F, A) = -(1 + slope) W^T L(A o A) W F Ktilde,   L(B) = diag(B 1) - B,

and that is the form every function here computes, without (n, n, c) edge
tensors. `graph_gradient` and its adjoint remain as the operators the
property suite checks for adjointness.

Writing B = I_c (x) G(A)W, the vectorized field is -(Ktilde (x) I_n) B^T sigma(B f),
the preconditioned gradient of the convex energy  E(F) = sum gamma(G(A) W F)
with gamma' = sigma, which the same cancellation turns into
(1 + slope)/2 * sum g o L(A o A) g with g = W F. That structure yields the
step-size bound used here: the field's linearization has l2 norm at most
||Ktilde||_2 * ||G(A)W||_2^2, and for positive definite Ktilde descent of E
(and, for K = lambda*I, nonexpansiveness in Frobenius norm) holds for h below

    h_safe = 1 / (lam_max(Ktilde)^2 / lam_min(Ktilde) * ||G(A)W||_2^2 + eps).

||G(A)W||_2^2 is lam_max(W^T L(2 A o A) W). Below 256 nodes it comes from a
dense `eigvalsh` of that matrix; from 256 nodes on, from matrix-free Lanczos
whose top Ritz value is padded by its residual, so the estimate errs towards a
smaller step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stacks import any_of, per_matrix, scalar_or_stack, transposed

H_SAFE_EPS = 1e-12


class Parameterization(str, Enum):
    LEARN_W = "learn_w"  # node-side W in R^{n x n} trained, K = lambda * I fixed
    LEARN_K = "learn_k"  # W = I, channel-mixing K in R^{c x c} trained


@dataclass(frozen=True)
class LayerParams:
    """Per-layer feature-dynamics parameters. W=None / K=None mean identity.

    A stack of layers has W of shape (..., n, n), K of shape (..., c, c) and
    h of shape (...); the feature functions then act on stacks of states with
    one layer per state.
    """

    h: float
    parameterization: Parameterization = Parameterization.LEARN_K
    W: np.ndarray = None
    K: np.ndarray = None
    leaky_slope: float = 0.1

    def __post_init__(self):
        if any_of(self.h < 0):
            raise ValueError("step size must be nonnegative")
        if not 0 < self.leaky_slope <= 1:
            raise ValueError("activation slope must lie in (0, 1]")
        if self.parameterization == Parameterization.LEARN_K and self.W is not None:
            raise ValueError("learn_k parameterization keeps W at the identity")
        if self.parameterization == Parameterization.LEARN_W and self.K is not None:
            k = np.asarray(self.K, dtype=float)
            if (k.ndim < 2 or k.shape[-1] != k.shape[-2]
                    or not np.array_equal(k, k[..., :1, :1] * np.eye(k.shape[-1]))
                    or any_of(k[..., 0, 0] <= 0)):
                raise ValueError("learn_w parameterization requires K = lambda * I with lambda > 0")
        for name in ("W", "K"):
            v = getattr(self, name)
            if v is not None:
                arr = np.array(v, dtype=float)
                if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
                    raise ValueError(f"{name} must be square")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


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


def symmetrized(k: np.ndarray, c: int) -> np.ndarray:
    """Ktilde = (K + K^T)/2, with K=None meaning the c x c identity."""
    if k is None:
        return np.eye(c)
    return 0.5 * (k + transposed(k))


def _laplacian_apply(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(B) x = diag(B 1) x - B x."""
    return b.sum(axis=-1)[..., :, None] * x - b @ x


def feature_field(f: np.ndarray, a: np.ndarray, params: LayerParams) -> np.ndarray:
    """X(F, A) = -W^T G(A)^T sigma(G(A) W F) Ktilde = -(1 + slope) W^T L(A o A) W F Ktilde."""
    w = params.W
    g = f if w is None else w @ f
    v = (1.0 + params.leaky_slope) * _laplacian_apply(a * a, g)
    if w is not None:
        v = transposed(w) @ v
    if params.K is not None:
        v = v @ symmetrized(params.K, f.shape[-1])
    return -v


def feature_field_vjp(f: np.ndarray, a: np.ndarray, params: LayerParams,
                      x_bar: np.ndarray) -> tuple:
    """Reverse of `feature_field`.

    Pulls a cotangent `x_bar` on X(F, A) back to (f_bar, a_bar, grads), with
    grads holding the trained tensor's gradient under "W" (learn_w) or "K"
    (learn_k). a_bar matches the edge form along symmetric directions, the
    only ones an adjacency trajectory started from a symmetric A takes.
    """
    w = params.W
    scale = 1.0 + params.leaky_slope
    b = a * a
    g = f if w is None else w @ f
    v = scale * _laplacian_apply(b, g)
    p_bar = -x_bar if params.K is None else -(x_bar @ symmetrized(params.K, f.shape[1]))
    v_bar = p_bar if w is None else w @ p_bar
    u_bar = scale * v_bar
    g_bar = _laplacian_apply(b, u_bar)
    b_bar = (u_bar * g).sum(axis=1)[:, None] - u_bar @ g.T
    if params.parameterization == Parameterization.LEARN_W:
        grads = {"W": v @ p_bar.T + g_bar @ f.T}
    else:
        p = v if w is None else w.T @ v
        k_tilde_bar = -p.T @ x_bar
        grads = {"K": 0.5 * (k_tilde_bar + k_tilde_bar.T)}
    f_bar = g_bar if w is None else w.T @ g_bar
    return f_bar, 2.0 * a * b_bar, grads


def feature_step(f: np.ndarray, a: np.ndarray, params: LayerParams) -> np.ndarray:
    """One explicit Euler step F + h X(F, A)."""
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    if f.shape[-2] != a.shape[-1]:
        raise ValueError(f"features ({f.shape}) and adjacency ({a.shape}) disagree on n")
    return f + per_matrix(params.h) * feature_field(f, a, params)


def energy(a: np.ndarray, f: np.ndarray, w: np.ndarray = None, leaky_slope: float = 0.1) -> float:
    """Convex layer energy sum gamma(G(A) W F), gamma' = sigma and gamma(0) = 0.

    With g = W F it is (1 + slope)/2 * sum g o L(A o A) g: the pairwise
    cancellation that gives the field's Laplacian form. A float for one
    state, one energy per state for stacks.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    g = f if w is None else np.asarray(w, dtype=float) @ f
    if g.shape[-2] != a.shape[-1]:
        raise ValueError("shape mismatch between adjacency and (projected) features")
    e = (g * _laplacian_apply(a * a, g)).sum(axis=(-2, -1))
    return scalar_or_stack(0.5 * (1.0 + leaky_slope) * e)


def gradient_operator_sq_norm(a: np.ndarray, w: np.ndarray = None) -> float:
    """||G(A) W||_2^2 = lam_max(W^T L(2 A o A) W).

    For a single channel, (G(A)v)_ij = A_ij (v_i - v_j), so (G(A))^T G(A) is the
    graph Laplacian L(B) with B = A o A + (A o A)^T, which is 2 (A o A) on a
    symmetric A. Below `_LANCZOS_MIN_N` nodes the Laplacian is formed and
    `eigvalsh` gives lam_max exactly; from there on `_lanczos_lam_max`
    computes it from products x -> W^T (d o (W x) - B (W x)), d = B 1,
    without forming L or W^T L W. Non-finite A or W raises
    np.linalg.LinAlgError on both paths. A stack of adjacency matrices (with
    W None, one W, or one W each) takes the dense path and gives one value
    per matrix.
    """
    a = np.asarray(a, dtype=float)
    wts = np.multiply(a, a, order="C")
    wts *= 2.0
    deg = wts.sum(axis=-1)
    if not np.isfinite(deg).all() or (w is not None and not np.isfinite(w).all()):
        raise np.linalg.LinAlgError("gradient operator has non-finite entries")
    n = a.shape[-1]
    if a.ndim == 2 and n >= _LANCZOS_MIN_N:
        def lap_apply(x):
            return deg * x - wts @ x
        op = lap_apply if w is None else (lambda x: w.T @ lap_apply(w @ x))
        return _lanczos_lam_max(op, n)
    lap = 0.0 - wts  # np.diag(deg) - wts to the bit, with +0 off the diagonal
    lap.reshape(lap.shape[:-2] + (n * n,))[..., ::n + 1] += deg
    if w is not None:
        lap = transposed(w) @ lap @ w
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
    lam_max^2/lam_min so that h <= h_safe guarantees energy descent (and, when
    K = lambda*I, Frobenius nonexpansiveness). Indefinite Ktilde falls back to
    the plain operator-norm estimate, a stability clamp only.

    A positive `l1_radius` makes the bound hold uniformly over every adjacency
    matrix within that vectorized-l1 distance of `a` (the gradient operator is
    linear in A with ||G(dA)||_2 <= 2 ||vec(dA)||_1).

    For a stack of adjacency matrices and a stacked `params` (and optionally
    one radius per matrix), one bound per matrix. Squares are taken with
    `np.float_power`, the libm `pow` a float's `** 2` calls; an array's `** 2`
    rounds as x * x, which differs in the last bit on about one value in a
    thousand.
    """
    s2 = gradient_operator_sq_norm(a, params.W)
    if any_of(l1_radius > 0.0):
        w2 = 1.0 if params.W is None else np.linalg.norm(params.W, 2, axis=(-2, -1))
        s2 = np.where(l1_radius > 0.0, np.float_power(np.sqrt(s2) + 2.0 * l1_radius * w2, 2), s2)
    if params.K is None:
        lam_est = s2
    else:
        eigs = np.linalg.eigvalsh(symmetrized(params.K, params.K.shape[-1]))
        lo, hi = eigs.min(axis=-1), eigs.max(axis=-1)
        # lam_max^2 / lam_min where Ktilde is positive definite, the plain
        # operator norm elsewhere; an estimate that overflows gives h = 0
        with np.errstate(over="ignore"):
            ratio = np.divide(np.float_power(hi, 2), lo, where=lo > 0,
                              out=np.asarray(np.abs(eigs).max(axis=-1)))
            lam_est = ratio * s2
    h = 1.0 / (lam_est + H_SAFE_EPS)
    return scalar_or_stack(h)
