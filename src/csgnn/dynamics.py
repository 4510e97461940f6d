"""Node-feature dynamics on an undirected graph, driven by the graph gradient.

The edge-indexed gradient of node features is (G(A)F)_ijk = A_ij (F_ik - F_jk);
its adjoint aggregates edge quantities back onto nodes. One Euler layer moves
the features along

    F <- F + h * X(F, A),   X(F, A) = -G(A)^T sigma(G(A) F) Ktilde,

with the trained channel mixer K symmetrized, Ktilde = (K + K^T)/2, at every
evaluation. The field acts on every node alike, so the layer is
permutation-equivariant and independent of the node count n.

The adjacency is exactly symmetric by contract: a `Graph`'s is by
construction, `network.evolve` checks the A_0 it is handed, and the adjacency
step keeps an exactly symmetric matrix exactly symmetric. On such an A the
LeakyReLU cancels pairwise, sigma(x) - sigma(-x) = (1 + slope) x, so the field
is exactly the weighted-Laplacian map

    X(F, A) = -(1 + slope) L(A o A) F Ktilde,   L(B) = diag(B 1) - B,

and that is the form every function here computes, without (n, n, c) edge
tensors.

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
`eigvalsh` of that matrix; from 256 nodes on, from Gershgorin's closed form
4 max_i sum_{j != i} A_ij^2, padded for rounding. That is a proven upper
bound, at most twice lam_max, so the step it gives is safe and at least half
the exact one.
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
                      x_bar: np.ndarray, need_a_bar: bool = True) -> tuple:
    """Reverse of `feature_field`.

    Pulls a cotangent `x_bar` on X(F, A) back to (f_bar, a_bar, K_bar), the
    last the gradient of K. a_bar matches the edge form
    along symmetric directions, the only ones an adjacency trajectory started
    from a symmetric A takes. With `need_a_bar` false, a_bar, the one n x n
    output, is not formed and None stands in its place.
    """
    scale = 1.0 + params.leaky_slope
    b = a * a
    v = scale * _laplacian_apply(b, f)
    p_bar = -(x_bar @ symmetrized(params.K))
    u_bar = scale * p_bar
    f_bar = _laplacian_apply(b, u_bar)
    del b
    k_tilde_bar = -v.T @ x_bar
    k_bar = 0.5 * (k_tilde_bar + k_tilde_bar.T)
    if not need_a_bar:
        return f_bar, None, k_bar
    # 2 a o b_bar, b_bar = (u_bar o F) 1 1^T - u_bar F^T, in u_bar F^T's buffer;
    # doubling is exact, so (2 b_bar) a rounds as (2 a) b_bar
    a_bar = u_bar @ f.T
    np.subtract((u_bar * f).sum(axis=1)[:, None], a_bar, out=a_bar)
    a_bar *= 2.0
    a_bar *= a
    return f_bar, a_bar, k_bar


def feature_step(f: np.ndarray, a: np.ndarray, params: LayerParams) -> np.ndarray:
    """One explicit Euler step F + h X(F, A)."""
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    if f.shape[-2] != a.shape[-1]:
        raise ValueError(f"features ({f.shape}) and adjacency ({a.shape}) disagree on n")
    return f + per_matrix(params.h) * feature_field(f, a, params)


def gradient_operator_sq_norm(a: np.ndarray) -> float:
    """||G(A)||_2^2 = lam_max(L(2 A o A)), or from `_CLOSED_FORM_MIN_N` nodes
    on a proven upper bound on it.

    For a single channel, (G(A)v)_ij = A_ij (v_i - v_j), so (G(A))^T G(A) is the
    graph Laplacian L(B) with B = A o A + (A o A)^T, which is 2 (A o A) on a
    symmetric A. Below `_CLOSED_FORM_MIN_N` nodes the Laplacian is formed and
    `eigvalsh` gives lam_max exactly. From there on Gershgorin's 4 max_i d_i,
    d_i = sum_{j != i} A_ij^2, bounds it with no n x n temporary, at most
    twice: lam_max >= max_i L_ii = 2 max_i d_i. d_i is the row's sum of
    squares s_i less A_ii^2, padded by n eps s_i for the rounding of a sum of
    n nonnegative terms. A non-finite A raises np.linalg.LinAlgError on both
    paths. A stack of adjacency matrices takes the dense path and gives one
    value per matrix.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if a.ndim == 2 and n >= _CLOSED_FORM_MIN_N:
        sq = np.einsum("ij,ij->i", a, a)
        if not np.isfinite(sq).all():
            raise np.linalg.LinAlgError("gradient operator has non-finite entries")
        return 4.0 * float((sq - np.diagonal(a) ** 2 + n * np.finfo(float).eps * sq).max())
    wts = np.multiply(a, a, order="C")
    wts *= 2.0
    deg = wts.sum(axis=-1)
    if not np.isfinite(deg).all():
        raise np.linalg.LinAlgError("gradient operator has non-finite entries")
    lap = 0.0 - wts  # np.diag(deg) - wts to the bit, with +0 off the diagonal
    lap.reshape(lap.shape[:-2] + (n * n,))[..., ::n + 1] += deg
    lam = np.linalg.eigvalsh(lap).max(axis=-1)
    return float(max(lam, 0.0)) if lam.ndim == 0 else np.maximum(lam, 0.0)


# below it the exact `eigvalsh` is cheap, and perfbench's check (n=7) and
# every `verify` suite (n < 9) rely on exact values
_CLOSED_FORM_MIN_N = 256


def max_feature_step(a: np.ndarray, params: LayerParams, l1_radius: float = 0.0) -> float:
    """Step bound h_safe for the layer on adjacency `a`: `feature_step_bound`
    of the graph term ||G(A)||_2^2. Stacks give one bound per matrix."""
    return feature_step_bound(gradient_operator_sq_norm(a), params, l1_radius)


def feature_step_bound(s2, params: LayerParams, l1_radius: float = 0.0) -> float:
    """Step bound h_safe = 1/(lam_est + eps) for the layer's linearized field,
    from the graph term s2 = ||G(A)||_2^2 of `gradient_operator_sq_norm`.

    For positive definite Ktilde the estimate folds in the conditioning
    lam_max^2/lam_min so that h <= h_safe guarantees energy descent and
    Frobenius nonexpansiveness. Indefinite Ktilde falls back to the plain
    operator-norm estimate, a stability clamp only.

    A positive `l1_radius` makes the bound hold uniformly over every adjacency
    matrix within that vectorized-l1 distance of A (the gradient operator is
    linear in A with ||G(dA)||_2 <= 2 ||vec(dA)||_1).

    For one s2 per matrix of a stack and a stacked `params` (and optionally
    one radius per matrix), one bound per matrix. Squares are taken with
    `np.float_power`, the libm `pow` a float's `** 2` calls; an array's `** 2`
    rounds as x * x, which differs in the last bit on about one value in a
    thousand.
    """
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
