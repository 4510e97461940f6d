import numpy as np

from csgnn.verify import (FAIL, PASS, REPORT, all_passed, render_report, run_all)


def test_quick_run_all_passes_asserted_suites():
    results, _ = run_all(seed=0, trials_scale=0.02)
    assert all_passed(results)
    by_id = {r.check_id: r for r in results}
    assert by_id["adjacency_l1_contraction"].status == PASS
    assert by_id["adjacency_jacobian_probe_unconstrained"].status == REPORT


def test_fault_injection_fails_contraction_suite():
    results, _ = run_all(seed=0, overrides={"fault_adjacency_step_scale": 25.0,
                                            "trials_scale": 0.02})
    by_id = {r.check_id: r for r in results}
    assert by_id["adjacency_l1_contraction"].status == FAIL
    assert not all_passed(results)


def test_report_is_deterministic_given_seed():
    a, _ = run_all(seed=4, trials_scale=0.02)
    b, _ = run_all(seed=4, trials_scale=0.02)
    assert render_report(a) == render_report(b)


# The pinned report of `csgnn verify --seed 0 --set trials_scale=0.1`. Faster
# forms of the dense reference paths (T, the Jacobian probe) must reproduce
# it to the last printed digit.
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
feature_gradient_adjointness                 PASS    50          1.998e-15
feature_frobenius_contraction                PASS    100         -4.009e-03
feature_energy_monotonicity                  PASS    100         -2.055e-04
feature_constant_row_fixed_point             PASS    20          0.000e+00
feature_step_equivariance                    PASS    50          3.673e-16
coupled_expansivity_bound                    PASS    20          -5.101e-01
coupled_weighted_contraction                 REPORT  10          0.000e+00
    m1=0.001, m2=0.001 shrink the distance on 100.0% of layers
gradient_finite_difference                   PASS    2           2.331e-08
summary: 17 passed, 0 failed, 2 informational
"""


def test_report_matches_golden_text():
    results, _ = run_all(seed=0, trials_scale=0.1)
    assert render_report(results) == GOLDEN_SEED0_SCALE01


def test_unconstrained_probe_documents_violations():
    # the step bound alone does not control the l1 operator norm once the
    # activation derivative varies entrywise; the informational suite must
    # surface that honestly rather than hide it
    results, _ = run_all(seed=0, trials_scale=0.3)
    by_id = {r.check_id: r for r in results}
    rep = by_id["adjacency_jacobian_probe_unconstrained"]
    assert rep.status == REPORT
    assert rep.worst > 1.0 + 1e-6
    assert by_id["adjacency_jacobian_probe_margin_regime"].status == PASS
