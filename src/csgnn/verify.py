"""Property-suite runner backing the `verify` CLI command.

`run_all(seed, trials_scale)` runs every suite on one generator seeded with
`seed` and returns one `CheckResult` per suite, in report order. Each result
carries a worst-case slack and is either asserted (PASS or FAIL, which sets
the exit code) or informational (REPORT). A NaN value makes the worst slack
NaN, and an asserted suite with a NaN worst fails.

Suites whose draws do not depend on computed results evaluate their trials as
stacks of same-shaped trials (see "stacked evaluation" below); the Jacobian
probe suites and `gradient_finite_difference` draw again on rejected points,
so they draw their trials one at a time. Within a trial they stack too: the
probe steps all its perturbed matrices at once, and the gradient check runs
an instance's central differences as one stacked forward per tensor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, equivariant, graph, network, training
from .dynamics import LayerParams
from .equivariant import AdjacencyStepConfig, EquivariantCoeffs
from .graph import PerturbationBudget
from .network import CoupledLayer, NetworkParams
from .stacks import transposed

PASS = "PASS"
FAIL = "FAIL"
REPORT = "REPORT"


@dataclass
class CheckResult:
    check_id: str
    status: str
    trials: int
    worst: float
    note: str = ""
    # per-trial values, in trial order; not reported
    values: np.ndarray = field(default=None, repr=False, compare=False)


# the activation slope of every drawn coupled layer and margin-regime draw: the product default
SLOPE = 0.1


def _scaled(n: int, scale: float) -> int:
    return max(10, int(round(n * scale)))


def _coeff_draw(rng) -> tuple:
    """The free coefficients and the margin alpha <= 0 of a random set."""
    return rng.standard_normal(8), -abs(rng.standard_normal())


def _random_coeffs(rng) -> EquivariantCoeffs:
    k, alpha = _coeff_draw(rng)
    return EquivariantCoeffs(k=k, alpha=alpha)


def _margin_coeffs(rng) -> EquivariantCoeffs:
    """Coefficients inside the slope-uniform nonexpansiveness regime at SLOPE."""
    alpha = -abs(rng.standard_normal()) - 0.5
    cap = SLOPE * (-alpha) / (1.0 - SLOPE)
    k = rng.standard_normal(8)
    k *= (0.2 + 0.7 * rng.random()) * min(cap, 10.0) / np.abs(k).sum()
    return EquivariantCoeffs(k=k, alpha=alpha)


def _sym_binary(rng, n: int) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    return (upper | upper.T).astype(float)


# --- stacked evaluation ----------------------------------------------------------
#
# Most suites draw their trials in the order a loop over trials would and
# evaluate each stack of up to `_STACK` same-shaped trials in one call per
# product function: the product functions give each matrix of a stack the
# bits a call on it alone gives, so every per-trial value, and the report, is
# that of the loop.
#
# With whole-suite stacks, repeated benchmark rounds (verify, then certify
# at n=1000) fragmented the heap until, after 4-14 rounds, certify's n x n
# arrays no longer fit its free space and the peak RSS rose by ~8 MB; with
# stacks of at most 32 trials it stayed level over 35 rounds.
_STACK = 32


def _groups(trials: int, draw):
    """(trial indices, stacked fields) per stack of same-shaped trials.

    `draw()` gives one trial as (shape key, *fields); each field is copied
    into its group's stack as it is drawn. A stack is handed out once it
    holds `_STACK` trials, the rest after the last draw.
    """
    groups = {}  # shape key -> (trial indices, one stack per field)
    for i in range(trials):
        key, *fields = draw()
        if key not in groups:
            groups[key] = [], [np.empty((_STACK,) + np.shape(x), np.asarray(x).dtype) for x in fields]
        idx, stacks = groups[key]
        for s, x in zip(stacks, fields):
            s[len(idx)] = x
        idx.append(i)
        if len(idx) == _STACK:
            yield groups.pop(key)
    for idx, stacks in groups.values():
        yield idx, [s[:len(idx)] for s in stacks]


def _verdict(check_id: str, values, start: float, tol: float, note: str = "") -> CheckResult:
    """A suite's result from its per-trial values: the worst is the running
    max a loop over them takes from `start`, NaN if any value is NaN (which
    Python's `max` skips), and the suite passes while the worst is <= `tol`."""
    values = np.asarray(values, dtype=float)
    worst = np.nan if np.isnan(values).any() else max([start] + values.tolist())
    return CheckResult(check_id, PASS if worst <= tol else FAIL, len(values), worst, note, values)


def _stacked_check(check_id: str, trials: int, draw, evaluate, start: float, tol: float,
                   note: str = "") -> CheckResult:
    """`_verdict` on the per-trial values that `evaluate` gives for each stack
    of same-shaped trials."""
    values = np.empty(trials)
    for idx, fields in _groups(trials, draw):
        values[idx] = evaluate(*fields)
    return _verdict(check_id, values, start, tol, note)


def _rows_relabelled(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P X per matrix: row i is row perm[i]."""
    return np.take_along_axis(x, perm[..., :, None], axis=-2)


def _relabelled(a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P A P^T per matrix: entry (i, j) is A[perm[i], perm[j]]."""
    return np.take_along_axis(_rows_relabelled(a, perm), perm[..., None, :], axis=-1)


def _relative_gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """max|lhs - rhs| / max(1, max|rhs|) per matrix."""
    return np.abs(lhs - rhs).max(axis=(-2, -1)) / np.maximum(1.0, np.abs(rhs).max(axis=(-2, -1)))


def _frobenius_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix, to the bit: both take a BLAS dot of the
    flattened matrix with itself."""
    flat = x.reshape(x.shape[:-2] + (1, -1))
    return np.sqrt(flat @ transposed(flat))[..., 0, 0]


# --- individual suites ---------------------------------------------------------

def check_metric_l0_l1_binary(rng, trials: int) -> CheckResult:
    values = []
    for _ in range(trials):
        n = int(rng.integers(1, 11))
        a = (rng.random((n, n)) < 0.5).astype(float)
        b = (rng.random((n, n)) < 0.5).astype(float)
        values.append(abs(graph.l0_distance(a, b) - graph.l1_vec_distance(a, b)))
    return _verdict("metric_l0_l1_binary_agreement", values, 0.0, 0.0)


def check_metric_l1_lower_bound(rng, trials: int) -> CheckResult:
    values = []
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        b = np.where(rng.random((n, n)) < 0.3, a, rng.standard_normal((n, n)))
        diff = np.abs(a - b)
        changed = diff[diff > 0]
        bound = changed.size * changed.min() if changed.size else 0.0
        values.append(bound - graph.l1_vec_distance(a, b))
    return _verdict("metric_l1_lower_bound", values, -np.inf, 1e-12)


def check_permutation_composition(rng, trials: int) -> CheckResult:
    """The relabelling the equivariance suites trust: relabelling by p, then
    by q, is relabelling by p[q], for `_relabelled` on a symmetric adjacency
    and `_rows_relabelled` on features and labels, and `_relabelled(a, p)` is
    P A P^T for the permutation matrix P = I[p]."""
    values = []
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        features, labels = rng.standard_normal((n, 2)), rng.integers(0, 3, n)[:, None]
        p, q = rng.permutation(n), rng.permutation(n)
        pm = np.eye(n)[p]
        gaps = [np.abs(relabel(relabel(x, p), q) - relabel(x, p[q])).max()
                for relabel, x in ((_relabelled, a + a.T), (_rows_relabelled, features),
                                   (_rows_relabelled, labels))]
        values.append(max(gaps + [np.abs(_relabelled(a, p) - pm @ a @ pm.T).max()]))
    return _verdict("graph_permutation_composition", values, 0.0, 0.0)


def _at_max_step(k: np.ndarray, alpha: np.ndarray) -> AdjacencyStepConfig:
    coeffs = EquivariantCoeffs(k=k, alpha=alpha)
    return AdjacencyStepConfig(coeffs=coeffs, h=equivariant.max_step_adjacency(coeffs))


def check_adjacency_l1_contraction(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(3, 9))
        return (n, *_coeff_draw(rng), rng.standard_normal((n, n)), rng.standard_normal((n, n)))

    def evaluate(k, alpha, a, b):
        cfg = _at_max_step(k, alpha)
        d_out = graph.l1_vec_distance(equivariant.adjacency_step(a, cfg),
                                      equivariant.adjacency_step(b, cfg))
        return d_out - graph.l1_vec_distance(a, b)

    return _stacked_check("adjacency_l1_contraction", trials, draw, evaluate, -np.inf, 1e-9)


def check_adjacency_equivariance(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 9))
        return (n, *_coeff_draw(rng), rng.standard_normal((n, n)), rng.permutation(n))

    def evaluate(k, alpha, a, perm):
        cfg = _at_max_step(k, alpha)
        lhs = equivariant.adjacency_step(_relabelled(a, perm), cfg)
        return _relative_gap(lhs, _relabelled(equivariant.adjacency_step(a, cfg), perm))

    return _stacked_check("adjacency_equivariance", trials, draw, evaluate, 0.0, 1e-10)


def check_adjacency_symmetry(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 9))
        return (n, *_coeff_draw(rng), rng.standard_normal((n, n)))

    def evaluate(k, alpha, a):
        out = equivariant.adjacency_step(a + transposed(a), _at_max_step(k, alpha))
        return np.abs(out - transposed(out)).max(axis=(-2, -1))

    return _stacked_check("adjacency_symmetry_preservation", trials, draw, evaluate, 0.0, 1e-12)


def check_equivariant_linearity(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 8))
        return (n, *_coeff_draw(rng), rng.standard_normal((n, n)),
                rng.standard_normal((n, n)), rng.standard_normal(2))

    def evaluate(k, alpha, a, b, st):
        coeffs = EquivariantCoeffs(k=k, alpha=alpha)
        s, t = st[:, 0, None, None], st[:, 1, None, None]
        lhs = equivariant.equivariant_linear(s * a + t * b, coeffs)
        rhs = (s * equivariant.equivariant_linear(a, coeffs)
               + t * equivariant.equivariant_linear(b, coeffs))
        return _relative_gap(lhs, rhs)

    return _stacked_check("equivariant_map_linearity", trials, draw, evaluate, 0.0, 1e-10)


def check_tmatrix_consistency(rng, trials: int) -> CheckResult:
    values = []
    for n in (2, 3, 4, 5):
        for _ in range(max(1, trials // 4)):
            coeffs = _random_coeffs(rng)
            t = equivariant.build_T(coeffs, n)
            a = rng.standard_normal((n, n))
            values.append(float(np.abs(equivariant.vec(equivariant.equivariant_linear(a, coeffs))
                                       - t @ equivariant.vec(a)).max()))
    return _verdict("tmatrix_vectorization_consistency", values, 0.0, 1e-10)


def check_tmatrix_norm_bound(rng, trials: int) -> CheckResult:
    values = []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        coeffs = _random_coeffs(rng)
        t = equivariant.build_T(coeffs, n)
        s = t - coeffs.k1 * np.eye(n * n)
        values.append(equivariant.operator_l1_norm(s) - float(np.abs(coeffs.k).sum()))
    return _verdict("tmatrix_l1_norm_bound", values, -np.inf, 1e-12)


def _probe_values(rng, trials: int, sampler) -> list:
    """Probe values at up to `trials` smooth points, within 50 * `trials` draws."""
    values = []
    attempts = 0
    while len(values) < trials and attempts < 50 * trials:
        attempts += 1
        coeffs = sampler()
        n = int(rng.integers(3, 7))
        a = rng.standard_normal((n, n))
        h = equivariant.max_step_adjacency(coeffs)
        try:
            values.append(equivariant.jacobian_l1_probe_unchecked(a, coeffs, h))
        except ValueError:
            continue
    return values


def check_jacobian_probe_margin_regime(rng, trials: int) -> CheckResult:
    values = _probe_values(rng, trials, lambda: _margin_coeffs(rng))
    result = _verdict("adjacency_jacobian_probe_margin_regime", values, 0.0, 1.0 + 1e-6,
                      "coefficients restricted to slope * (-alpha) >= (1-slope) * sum|k|")
    if len(values) < trials:  # ran out of smooth points
        result.status = FAIL
    return result


def check_jacobian_probe_unconstrained(rng, trials: int) -> CheckResult:
    values = _probe_values(rng, trials, lambda: _random_coeffs(rng))
    note = (f"{sum(v > 1.0 + 1e-6 for v in values)}/{len(values)} smooth points exceed "
            "1+1e-6: the l1 step bound is not pointwise sufficient once the activation "
            "derivative varies (see slope_uniform_margin); informational only")
    result = _verdict("adjacency_jacobian_probe_unconstrained", values, 0.0, 1.0 + 1e-6, note)
    result.status = REPORT
    return result


def check_feature_adjointness(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, 6))
        return ((n, c), rng.standard_normal((n, n)), rng.standard_normal((n, c)),
                rng.standard_normal((n, n, c)))

    def evaluate(a, f, o):
        a = a + transposed(a)
        lhs = (dynamics.graph_gradient(a, f) * o).sum(axis=(-3, -2, -1))
        rhs = (f * dynamics.graph_gradient_adjoint(a, o)).sum(axis=(-2, -1))
        return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))

    return _stacked_check("feature_gradient_adjointness", trials, draw, evaluate, 0.0, 1e-10)


def _positive_definite(b: np.ndarray) -> np.ndarray:
    """B B^T + 0.05 I for each drawn B."""
    return b @ transposed(b) + 0.05 * np.eye(b.shape[-1])


def _at_max_feature_step(a: np.ndarray, k: np.ndarray) -> LayerParams:
    return LayerParams(h=dynamics.max_feature_step(a, LayerParams(h=1.0, K=k)), K=k)


def check_feature_contraction(rng, trials: int) -> CheckResult:
    # On a symmetric A the step is the symmetric linear map
    # F -> F - h (1 + slope) L(A o A) F Ktilde, Frobenius-nonexpansive below
    # the step bound for every positive definite Ktilde.
    def draw():
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 5))
        return ((n, c), rng.standard_normal((c, c)), rng.standard_normal((n, n)),
                rng.standard_normal((n, c)), rng.standard_normal((n, c)))

    def evaluate(b, a, f, df):
        a = a + transposed(a)
        params = _at_max_feature_step(a, _positive_definite(b))
        moved = dynamics.feature_step(f + df, a, params)
        return _frobenius_norm(moved - dynamics.feature_step(f, a, params)) - _frobenius_norm(df)

    return _stacked_check("feature_frobenius_contraction", trials, draw, evaluate, -np.inf, 1e-9)


def check_energy_monotonicity(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 5))
        return ((n, c), rng.standard_normal((c, c)), rng.standard_normal((n, n)),
                rng.standard_normal((n, c)))

    def evaluate(b, a, f):
        a = a + transposed(a)
        params = _at_max_feature_step(a, _positive_definite(b))
        e0 = dynamics.energy(a, f, params.leaky_slope)
        return dynamics.energy(a, dynamics.feature_step(f, a, params), params.leaky_slope) - e0

    return _stacked_check("feature_energy_monotonicity", trials, draw, evaluate, -np.inf, 1e-9)


def check_constant_row_fixed_point(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 4))
        return ((n, c), _sym_binary(rng, n), rng.standard_normal((1, c)),
                rng.standard_normal((c, c)))

    def evaluate(a, row, k):
        f = np.repeat(row, a.shape[-1], axis=-2)
        out = dynamics.feature_step(f, a, LayerParams(h=0.7, K=k))
        return np.abs(out - f).max(axis=(-2, -1))

    return _stacked_check("feature_constant_row_fixed_point", trials, draw, evaluate, 0.0, 1e-12)


def check_feature_step_equivariance(rng, trials: int) -> CheckResult:
    def draw():
        n = int(rng.integers(2, 8))
        c = int(rng.integers(1, 4))
        return ((n, c), rng.standard_normal((c, c)), rng.standard_normal((n, n)),
                rng.standard_normal((n, c)), rng.permutation(n))

    def evaluate(k, a, f, perm):
        a = a + transposed(a)
        params = LayerParams(h=0.3, K=k)
        lhs = dynamics.feature_step(_rows_relabelled(f, perm), _relabelled(a, perm), params)
        return _relative_gap(lhs, _rows_relabelled(dynamics.feature_step(f, a, params), perm))

    return _stacked_check("feature_step_equivariance", trials, draw, evaluate, 0.0, 1e-10)


def _contractive_draw(rng) -> tuple:
    """The draws of one random coupled configuration: its shape key, clean
    embedded state, budgeted perturbation with its budget, and per layer the
    feature scale lam (K = lam I) and margin-regime coefficients."""
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

    lams, coeffs = [], []
    for _ in range(depth):
        lams.append(0.3 + 1.7 * rng.random())
        coeffs.append(_margin_coeffs(rng))
    return ((n, c, depth), f0, a0, df, da, eps_adj, float(np.linalg.norm(df)),
            float(np.abs(da).sum()), lams, [cf.k for cf in coeffs], [cf.alpha for cf in coeffs])


def _contractive_layers(f0, a0, eps_adj, lams, ks, alphas) -> list:
    """Stacked coupled layers of same-shaped contractive draws, each inside both
    provable regimes along its own clean trajectory (the feature step bounded
    over the eps_adj ball around the clean adjacency state)."""
    layers = []
    a_clean = a0
    eye = np.eye(f0.shape[-1])
    for l in range(lams.shape[-1]):
        coeffs = EquivariantCoeffs(k=ks[:, l], alpha=alphas[:, l])
        k = lams[:, l, None, None] * eye
        base = LayerParams(h=1.0, K=k, leaky_slope=SLOPE)
        h_adj = equivariant.max_step_adjacency(coeffs)
        h = 0.9 * np.minimum(h_adj, dynamics.max_feature_step(a_clean, base, l1_radius=eps_adj))
        feature = dataclasses.replace(base, h=h)
        adjacency = AdjacencyStepConfig(coeffs=coeffs, h=np.minimum(h, h_adj), leaky_slope=SLOPE)
        layers.append(CoupledLayer(feature=feature, adjacency=adjacency))
        a_clean = equivariant.adjacency_step(a_clean, adjacency)
    return layers


def check_expansivity_bound(rng, trials: int) -> CheckResult:
    def evaluate(f0, a0, df, da, eps_adj, budget_feat, budget_adj, *layer_draws):
        layers = _contractive_layers(f0, a0, eps_adj, *layer_draws)
        fs, as_ = network.evolve(f0, a0, layers)
        fs_p, as_p = network.evolve(f0 + df, a0 + da, layers)
        # the coupled map's output is (F_L, A_L); evolve stops at A_{L-1}
        a_out = equivariant.adjacency_step(as_[-1], layers[-1].adjacency)
        a_out_p = equivariant.adjacency_step(as_p[-1], layers[-1].adjacency)
        measured = network.weighted_distance(1.0, 1.0, (fs[-1], a_out), (fs_p[-1], a_out_p))
        budget = PerturbationBudget(eps_feat=budget_feat, eps_adj=budget_adj)
        # the bound `certify` prints, over the clean trajectory evolved above
        return measured - network.trajectory_bound(fs, as_, layers, budget)[0]

    return _stacked_check("coupled_expansivity_bound", trials, lambda: _contractive_draw(rng),
                          evaluate, -np.inf, 1e-7)


def check_coupled_weighted_contraction(rng, trials: int) -> CheckResult:
    """Appendix-style weighted-distance decrease across one full layer, as an
    empirical report: searches the weight grid for the smallest pair making the
    distance shrink on at least 95% of trials. Its values are the per-trial
    (before, after) distances at the reported pair."""
    cases = []
    for idx, (f0, a0, df, da, eps_adj, _, _, *layer_draws) in _groups(
            trials, lambda: _contractive_draw(rng)):
        # only the first layer runs; it depends on the first layer's draws alone
        layer = _contractive_layers(f0, a0, eps_adj, *(x[:, :1] for x in layer_draws))[0]
        s0p = (f0 + 0.1 * df, a0 + 0.1 * da)
        s1 = (dynamics.feature_step(f0, a0, layer.feature), equivariant.adjacency_step(a0, layer.adjacency))
        s1p = (dynamics.feature_step(*s0p, layer.feature), equivariant.adjacency_step(s0p[1], layer.adjacency))
        cases.append((idx, (f0, a0), s0p, s1, s1p))
    grid = [10.0 ** j for j in range(-3, 4)]
    best, best_rate, distances = None, 0.0, None
    for m1 in grid:
        for m2 in grid:
            # per trial, the distance before and after the layer
            dist = np.empty((trials, 2))
            for idx, s0, s0p, s1, s1p in cases:
                dist[idx, 0] = network.weighted_distance(m1, m2, s0, s0p)
                dist[idx, 1] = network.weighted_distance(m1, m2, s1, s1p)
            rate = int(np.count_nonzero(dist[:, 1] <= dist[:, 0] + 1e-12)) / trials
            if rate > best_rate:
                best_rate, best, distances = rate, (m1, m2), dist
            if rate >= 0.95:
                note = f"m1={m1:g}, m2={m2:g} shrink the distance on {rate:.1%} of layers"
                return CheckResult("coupled_weighted_contraction", REPORT, trials,
                                   1.0 - rate, note, dist)
    note = (f"no grid pair reached 95%; best m1={best[0]:g}, m2={best[1]:g} "
            f"at {best_rate:.1%}")
    return CheckResult("coupled_weighted_contraction", REPORT, trials, 1.0 - best_rate, note,
                       distances)


def check_gradient_finite_difference(rng, trials: int) -> CheckResult:
    from .gradcheck import max_gradient_rel_error
    values = [max_gradient_rel_error(rng) for _ in range(trials)]
    return _verdict("gradient_finite_difference", values, 0.0, 1e-5)


# --- the runner ------------------------------------------------------------------

def run_all(seed: int, trials_scale: float) -> list:
    """Run every suite; returns their results in report order."""
    rng = np.random.default_rng(seed)
    return [
        check_metric_l0_l1_binary(rng, _scaled(1000, trials_scale)),
        check_metric_l1_lower_bound(rng, _scaled(500, trials_scale)),
        check_permutation_composition(rng, _scaled(200, trials_scale)),
        check_adjacency_l1_contraction(rng, _scaled(1000, trials_scale)),
        check_adjacency_equivariance(rng, _scaled(1000, trials_scale)),
        check_adjacency_symmetry(rng, _scaled(1000, trials_scale)),
        check_equivariant_linearity(rng, _scaled(300, trials_scale)),
        check_tmatrix_consistency(rng, _scaled(200, trials_scale)),
        check_tmatrix_norm_bound(rng, _scaled(200, trials_scale)),
        check_jacobian_probe_margin_regime(rng, _scaled(100, trials_scale)),
        check_jacobian_probe_unconstrained(rng, _scaled(100, trials_scale)),
        check_feature_adjointness(rng, _scaled(500, trials_scale)),
        check_feature_contraction(rng, _scaled(1000, trials_scale)),
        check_energy_monotonicity(rng, _scaled(1000, trials_scale)),
        check_constant_row_fixed_point(rng, _scaled(200, trials_scale)),
        check_feature_step_equivariance(rng, _scaled(500, trials_scale)),
        check_expansivity_bound(rng, _scaled(200, trials_scale)),
        check_coupled_weighted_contraction(rng, _scaled(100, trials_scale)),
        check_gradient_finite_difference(rng, max(2, int(round(5 * trials_scale)))),
    ]


def render_report(results: list) -> str:
    lines = ["check                                        status  trials      worst-slack"]
    for r in results:
        lines.append(f"{r.check_id:<44} {r.status:<7} {r.trials:<11} {r.worst:.3e}")
        if r.note:
            lines.append(f"    {r.note}")
    n_fail = sum(1 for r in results if r.status == FAIL)
    n_pass = sum(1 for r in results if r.status == PASS)
    n_rep = sum(1 for r in results if r.status == REPORT)
    lines.append(f"summary: {n_pass} passed, {n_fail} failed, {n_rep} informational")
    return "\n".join(lines) + "\n"


def all_passed(results: list) -> bool:
    return all(r.status != FAIL for r in results)
