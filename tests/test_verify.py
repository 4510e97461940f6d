import numpy as np
import pytest

from csgnn import gradcheck, network, verify
from csgnn.verify import (FAIL, PASS, REPORT, all_passed, check_expansivity_bound,
                          check_gradient_finite_difference, check_permutation_composition,
                          render_report, run_all)


def test_quick_run_all_passes_asserted_suites():
    results = run_all(seed=0, trials_scale=0.02)
    assert all_passed(results)
    by_id = {r.check_id: r for r in results}
    assert by_id["adjacency_l1_contraction"].status == PASS
    assert by_id["adjacency_jacobian_probe_unconstrained"].status == REPORT


def test_fault_injection_fails_contraction_suite(contraction_step_scale):
    contraction_step_scale(25.0)
    results = run_all(seed=0, trials_scale=0.02)
    by_id = {r.check_id: r for r in results}
    assert by_id["adjacency_l1_contraction"].status == FAIL
    assert not all_passed(results)


def test_nan_fault_scale_fails_contraction_suite_with_nan_worst(contraction_step_scale):
    # Python's max skips NaN: this suite used to PASS with worst -inf
    contraction_step_scale(float("nan"))
    results = run_all(seed=0, trials_scale=0.02)
    by_id = {r.check_id: r for r in results}
    assert by_id["adjacency_l1_contraction"].status == FAIL
    assert np.isnan(by_id["adjacency_l1_contraction"].worst)
    assert not all_passed(results)


def test_nan_gradient_fails_gradient_suite(monkeypatch):
    exact = gradcheck.analytic_gradients

    def nan_encoder_gradient(*args):
        grads = exact(*args)
        return {**grads, "encoder": np.full_like(grads["encoder"], np.nan)}

    monkeypatch.setattr(gradcheck, "analytic_gradients", nan_encoder_gradient)
    result = check_gradient_finite_difference(np.random.default_rng(0), 2)
    assert result.status == FAIL
    assert np.isnan(result.worst)


def test_an_unsound_certificate_fails_the_expansivity_suite(monkeypatch):
    # the suite checks the bound `certify` prints: drop its eps_adj term and it fails
    sound = network.trajectory_bound

    def without_adjacency_term(fs, as_, layers, budget):
        return budget.eps_feat, sound(fs, as_, layers, budget)[1]

    monkeypatch.setattr(network, "trajectory_bound", without_adjacency_term)
    result = check_expansivity_bound(np.random.default_rng(0), 200)
    assert result.status == FAIL
    assert result.worst > 0


def test_an_identity_relabelling_fails_the_permutation_suite(monkeypatch):
    # the equivariance suites relabel with `_relabelled`; one that returned
    # its input would pass them, and this suite must catch it
    assert check_permutation_composition(np.random.default_rng(0), 20).status == PASS
    monkeypatch.setattr(verify, "_relabelled", lambda a, perm: a)
    result = check_permutation_composition(np.random.default_rng(0), 20)
    assert result.status == FAIL
    assert result.worst > 0


def test_report_is_deterministic_given_seed():
    a = run_all(seed=4, trials_scale=0.02)
    b = run_all(seed=4, trials_scale=0.02)
    assert render_report(a) == render_report(b)


# The pinned report of `csgnn verify --seed 0 --set trials_scale=0.1`. Faster
# forms of the dense reference paths (T, the Jacobian probe) must reproduce
# it to the last printed digit. In all three reports the rows from
# feature_frobenius_contraction on are those of the per-trial loops that draw
# a channel mixer K instead of a node mixer W (see below); the rows before it
# did not move.
GOLDEN_SEED0_SCALE01 = """\
check                                        status  trials      worst-slack
metric_l0_l1_binary_agreement                PASS    100         0.000e+00
metric_l1_lower_bound                        PASS    50          0.000e+00
graph_permutation_composition                PASS    20          0.000e+00
adjacency_l1_contraction                     PASS    100         -2.420e+00
adjacency_equivariance                       PASS    100         3.301e-16
adjacency_symmetry_preservation              PASS    100         0.000e+00
equivariant_map_linearity                    PASS    30          3.097e-16
tmatrix_vectorization_consistency            PASS    20          7.105e-15
tmatrix_l1_norm_bound                        PASS    20          -1.320e-01
adjacency_jacobian_probe_margin_regime       PASS    10          9.601e-01
    coefficients restricted to slope * (-alpha) >= (1-slope) * sum|k|
adjacency_jacobian_probe_unconstrained       REPORT  10          1.354e+00
    10/10 smooth points exceed 1+1e-6: the l1 step bound is not pointwise sufficient once the activation derivative varies (see slope_uniform_margin); informational only
feature_gradient_adjointness                 PASS    50          7.994e-15
feature_frobenius_contraction                PASS    100         -4.840e-05
feature_energy_monotonicity                  PASS    100         -1.175e-04
feature_constant_row_fixed_point             PASS    20          0.000e+00
feature_step_equivariance                    PASS    50          1.397e-15
coupled_expansivity_bound                    PASS    20          -2.248e-01
coupled_weighted_contraction                 REPORT  10          0.000e+00
    m1=0.001, m2=0.01 shrink the distance on 100.0% of layers
gradient_finite_difference                   PASS    2           3.885e-08
summary: 17 passed, 0 failed, 2 informational
"""


def test_report_matches_golden_text():
    results = run_all(seed=0, trials_scale=0.1)
    assert render_report(results) == GOLDEN_SEED0_SCALE01


# The reports of `csgnn verify --seed 0` (default trials) and `csgnn verify
# --seed 1 --set trials_scale=0.1` as the per-trial loops produced them,
# before the suites evaluated same-shaped trials as stacks. The four feature
# rows (gradient adjointness, Frobenius contraction, energy monotonicity,
# step equivariance) are those of the loops with symmetrized adjacency
# draws, and the Frobenius-contraction and coupled suites draw K = B B^T +
# 0.05 I and K = lam I where they drew a node mixer W, as
# `tests/test_verify_suites.py` keeps them.
GOLDEN_SEED0_DEFAULT = """\
check                                        status  trials      worst-slack
metric_l0_l1_binary_agreement                PASS    1000        0.000e+00
metric_l1_lower_bound                        PASS    500         0.000e+00
graph_permutation_composition                PASS    200         0.000e+00
adjacency_l1_contraction                     PASS    1000        -1.667e+00
adjacency_equivariance                       PASS    1000        4.423e-16
adjacency_symmetry_preservation              PASS    1000        0.000e+00
equivariant_map_linearity                    PASS    300         3.866e-16
tmatrix_vectorization_consistency            PASS    200         7.105e-15
tmatrix_l1_norm_bound                        PASS    200         2.665e-15
adjacency_jacobian_probe_margin_regime       PASS    100         9.821e-01
    coefficients restricted to slope * (-alpha) >= (1-slope) * sum|k|
adjacency_jacobian_probe_unconstrained       REPORT  100         1.455e+00
    96/100 smooth points exceed 1+1e-6: the l1 step bound is not pointwise sufficient once the activation derivative varies (see slope_uniform_margin); informational only
feature_gradient_adjointness                 PASS    500         1.421e-14
feature_frobenius_contraction                PASS    1000        -9.463e-05
feature_energy_monotonicity                  PASS    1000        -1.513e-05
feature_constant_row_fixed_point             PASS    200         1.332e-15
feature_step_equivariance                    PASS    500         1.411e-15
coupled_expansivity_bound                    PASS    200         -1.927e-01
coupled_weighted_contraction                 REPORT  100         1.000e-02
    m1=0.001, m2=0.001 shrink the distance on 99.0% of layers
gradient_finite_difference                   PASS    5           1.558e-07
summary: 17 passed, 0 failed, 2 informational
"""

GOLDEN_SEED1_SCALE01 = """\
check                                        status  trials      worst-slack
metric_l0_l1_binary_agreement                PASS    100         0.000e+00
metric_l1_lower_bound                        PASS    50          0.000e+00
graph_permutation_composition                PASS    20          0.000e+00
adjacency_l1_contraction                     PASS    100         -2.747e+00
adjacency_equivariance                       PASS    100         2.576e-16
adjacency_symmetry_preservation              PASS    100         0.000e+00
equivariant_map_linearity                    PASS    30          4.060e-16
tmatrix_vectorization_consistency            PASS    20          3.553e-15
tmatrix_l1_norm_bound                        PASS    20          -5.399e-01
adjacency_jacobian_probe_margin_regime       PASS    10          9.579e-01
    coefficients restricted to slope * (-alpha) >= (1-slope) * sum|k|
adjacency_jacobian_probe_unconstrained       REPORT  10          1.279e+00
    10/10 smooth points exceed 1+1e-6: the l1 step bound is not pointwise sufficient once the activation derivative varies (see slope_uniform_margin); informational only
feature_gradient_adjointness                 PASS    50          8.559e-15
feature_frobenius_contraction                PASS    100         -1.207e-04
feature_energy_monotonicity                  PASS    100         -4.680e-06
feature_constant_row_fixed_point             PASS    20          0.000e+00
feature_step_equivariance                    PASS    50          1.507e-15
coupled_expansivity_bound                    PASS    20          -5.273e-01
coupled_weighted_contraction                 REPORT  10          0.000e+00
    m1=0.001, m2=0.01 shrink the distance on 100.0% of layers
gradient_finite_difference                   PASS    2           4.740e-09
summary: 17 passed, 0 failed, 2 informational
"""


@pytest.mark.parametrize("seed,scale,golden", [(0, 1.0, GOLDEN_SEED0_DEFAULT),
                                               (1, 0.1, GOLDEN_SEED1_SCALE01)])
def test_report_matches_loop_golden_text(seed, scale, golden):
    results = run_all(seed=seed, trials_scale=scale)
    assert render_report(results) == golden


def test_unconstrained_probe_documents_violations():
    # the step bound alone does not control the l1 operator norm once the
    # activation derivative varies entrywise; the informational suite must
    # surface that honestly rather than hide it
    results = run_all(seed=0, trials_scale=0.3)
    by_id = {r.check_id: r for r in results}
    rep = by_id["adjacency_jacobian_probe_unconstrained"]
    assert rep.status == REPORT
    assert rep.worst > 1.0 + 1e-6
    assert by_id["adjacency_jacobian_probe_margin_regime"].status == PASS
