import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from o2olab.metrics import (
    COMPARABLE,
    INCONCLUSIVE,
    INFERIOR,
    SUPERIOR,
    WIN_DATA,
    WIN_POLICY,
    WIN_TIE,
    ConfusionMatrix,
    EvalPoint,
    SampleStats,
    compare_classes,
    decompose,
    iqm,
    offline_baseline,
    plasticity,
    stability,
    student_t_cdf,
    student_t_ppf,
    tost_classify,
    welch_two_sided,
)

from metrics_helpers import confusion_from_pairs, identity_residual, validate_curve

finite_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def curve_from_means(means, step_gap=1000):
    return [EvalPoint(i * step_gap, float(m), [float(m)]) for i, m in enumerate(means)]


# --- stability / plasticity / decomposition ---


def test_stability_spot_values():
    assert stability([0.5, 0.6, 0.7], 0.4) == 0.0
    assert stability([0.5, 0.3, 0.7], 0.5) == pytest.approx(-0.2)
    assert stability([0.5], 0.5) == 0.0


def test_plasticity_spot_values():
    assert plasticity([0.7, 0.7, 0.7]) == 0.0
    assert plasticity([0.5, 0.3, 0.7]) == pytest.approx(0.4)


def test_plasticity_permutation_invariant():
    vals = [0.1, 0.9, 0.4, 0.2]
    assert plasticity(vals) == plasticity(list(reversed(vals)))


@given(st.lists(finite_floats, min_size=1), finite_floats, finite_floats)
def test_stability_shift_invariance(values, baseline, c):
    lhs = stability([v + c for v in values], baseline + c)
    assert lhs == pytest.approx(stability(values, baseline), abs=1e-9)


@given(st.lists(finite_floats, min_size=1), finite_floats, st.floats(0, 10))
def test_stability_monotone_in_baseline(values, baseline, bump):
    assert stability(values, baseline + bump) <= stability(values, baseline)


def test_empty_values_rejected():
    with pytest.raises(ValueError):
        stability([], 0.0)
    with pytest.raises(ValueError):
        plasticity([])


def test_offline_baseline():
    assert offline_baseline(0.3, 0.6) == 0.6
    assert offline_baseline(0.6, 0.6) == 0.6
    assert offline_baseline(0.451, 0.271) == 0.451


def test_decompose_spot_case():
    curve = curve_from_means([0.4, 0.2, 0.8])
    d = decompose(curve, j_data=0.5)
    assert d.prior == pytest.approx(0.5)
    assert d.stability == pytest.approx(-0.3)
    assert d.plasticity == pytest.approx(0.6)
    assert d.final == pytest.approx(0.8)
    assert identity_residual(d) < 1e-12


def test_decompose_monotone_curve_zero_stability():
    curve = curve_from_means([0.5, 0.6, 0.9])
    d = decompose(curve, j_data=0.4)
    assert d.stability == 0.0
    assert d.plasticity == pytest.approx(0.4)


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=30),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=300)
def test_decompose_identity_random_curves(means, j_data):
    d = decompose(curve_from_means(means), j_data)
    assert identity_residual(d) < 1e-12
    assert d.stability <= 0.0
    assert d.plasticity >= 0.0


# --- student t ---


def test_t_cdf_symmetry_point():
    assert student_t_cdf(0.0, 5) == 0.5


def test_t_cdf_cauchy_closed_form():
    assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)
    assert student_t_cdf(1.0, 1) == pytest.approx(0.5 + math.atan(1.0) / math.pi)


def test_t_cdf_table_value():
    assert student_t_cdf(2.042, 30) == pytest.approx(0.975, abs=1e-3)


@given(st.floats(-50, 50, allow_nan=False), st.floats(0.5, 200))
def test_t_cdf_matches_scipy(t, dof):
    assert student_t_cdf(t, dof) == pytest.approx(sps.t.cdf(t, dof), abs=1e-10)


@pytest.mark.parametrize("dof", [1, 2, 4, 9, 30, 200])
@pytest.mark.parametrize("p", [0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 0.999])
def test_t_ppf_matches_scipy(p, dof):
    assert student_t_ppf(p, dof) == pytest.approx(sps.t.ppf(p, dof), rel=1e-10, abs=1e-12)


@given(st.floats(0.001, 0.999), st.floats(0.5, 100))
def test_t_ppf_inverts_cdf(p, dof):
    assert student_t_cdf(student_t_ppf(p, dof), dof) == pytest.approx(p, abs=1e-12)


def test_t_ppf_rejects_p_outside_unit_interval():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            student_t_ppf(p, 5)


@given(st.floats(-30, 30), st.floats(0.5, 100))
def test_t_cdf_mirror_identity(t, dof):
    assert student_t_cdf(t, dof) + student_t_cdf(-t, dof) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-20, 20), st.floats(0.01, 10), st.floats(0.5, 100))
def test_t_cdf_monotone(t, gap, dof):
    assert student_t_cdf(t + gap, dof) >= student_t_cdf(t, dof)


def test_t_cdf_infinite_t():
    assert student_t_cdf(math.inf, 3) == 1.0
    assert student_t_cdf(-math.inf, 3) == 0.0


# --- welch ---


def test_welch_identical_stats():
    a = SampleStats(10.0, 1.0, 10)
    out = welch_two_sided(a, SampleStats(10.0, 1.0, 10))
    assert out["t"] == 0.0
    assert out["p"] == pytest.approx(1.0)


def test_welch_shifted_mean_significant():
    out = welch_two_sided(SampleStats(12.0, 1.0, 10), SampleStats(10.0, 1.0, 10))
    assert out["p"] < 0.01


def test_welch_antisymmetric():
    a, b = SampleStats(1.2, 0.4, 8), SampleStats(0.9, 0.7, 12)
    ab = welch_two_sided(a, b)
    ba = welch_two_sided(b, a)
    assert ab["t"] == pytest.approx(-ba["t"])
    assert ab["p"] == pytest.approx(ba["p"])


def test_welch_degenerate_variances():
    assert welch_two_sided(SampleStats(1.0, 0.0, 5), SampleStats(2.0, 0.0, 5))["p"] == 0.0
    assert welch_two_sided(SampleStats(1.0, 0.0, 5), SampleStats(1.0, 0.0, 5))["p"] == 1.0


def test_welch_small_n_rejected():
    with pytest.raises(ValueError):
        welch_two_sided(SampleStats(1.0, 0.1, 1), SampleStats(1.0, 0.1, 5))


def test_welch_matches_scipy_on_synthetic_cases():
    rng = np.random.default_rng(0)
    for _ in range(50):
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 400))
        a = SampleStats(rng.normal(), abs(rng.normal()) + 1e-3, na)
        b = SampleStats(rng.normal(), abs(rng.normal()) + 1e-3, nb)
        mine = welch_two_sided(a, b)
        ref = sps.ttest_ind_from_stats(
            a.mean, a.std, a.n, b.mean, b.std, b.n, equal_var=False
        )
        assert mine["t"] == pytest.approx(ref.statistic, abs=1e-9)
        assert mine["p"] == pytest.approx(ref.pvalue, abs=1e-3)


# --- TOST regime classification ---


def reference_tost(a: SampleStats, b: SampleStats, delta, alpha):
    """Independent scipy-based implementation of the classification rule."""
    p_lower = sps.ttest_ind_from_stats(
        a.mean, a.std, a.n, b.mean - delta, b.std, b.n,
        equal_var=False, alternative="greater",
    ).pvalue
    p_upper = sps.ttest_ind_from_stats(
        a.mean, a.std, a.n, b.mean + delta, b.std, b.n,
        equal_var=False, alternative="less",
    ).pvalue
    rl, ru = p_lower < alpha, p_upper < alpha
    if rl and ru:
        return COMPARABLE
    if rl or ru:
        return SUPERIOR if a.mean > b.mean else INFERIOR
    return INCONCLUSIVE


def test_tost_table_sign_checks():
    # halfcheetah-medium-replay style: strong policy vs weaker data
    label = tost_classify(SampleStats(0.451, 0.002, 10), SampleStats(0.271, 0.135, 202))
    assert label.label == SUPERIOR
    # pen-binary style: weak policy vs saturated expert data
    label = tost_classify(SampleStats(0.657, 0.059, 10), SampleStats(1.000, 0.000, 846))
    assert label.label == INFERIOR


def test_tost_equivalent_large_samples():
    label = tost_classify(SampleStats(0.50, 0.001, 100), SampleStats(0.501, 0.001, 100))
    assert label.label == COMPARABLE


def test_tost_inconclusive_when_noisy():
    label = tost_classify(SampleStats(0.5, 0.5, 3), SampleStats(0.52, 0.5, 3))
    assert label.label == INCONCLUSIVE


def test_tost_matches_reference_on_synthetic_cases():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(50):
        a = SampleStats(rng.uniform(0, 1), rng.uniform(0.001, 0.3), int(rng.integers(2, 30)))
        b = SampleStats(rng.uniform(0, 1), rng.uniform(0.001, 0.3), int(rng.integers(2, 500)))
        mine = tost_classify(a, b, delta=0.05, alpha=0.05)
        ref_label = reference_tost(a, b, 0.05, 0.05)
        assert mine.label == ref_label
        ref_pl = sps.ttest_ind_from_stats(
            a.mean, a.std, a.n, b.mean - 0.05, b.std, b.n,
            equal_var=False, alternative="greater",
        ).pvalue
        assert mine.p_lower == pytest.approx(ref_pl, abs=1e-3)
        agree += 1
    assert agree == 50


@given(
    st.floats(-1, 1), st.floats(0.001, 0.5), st.integers(2, 50),
    st.floats(-1, 1), st.floats(0.001, 0.5), st.integers(2, 50),
)
@settings(max_examples=200)
def test_tost_swap_symmetry(ma, sa, na, mb, sb, nb):
    a, b = SampleStats(ma, sa, na), SampleStats(mb, sb, nb)
    fwd = tost_classify(a, b)
    rev = tost_classify(b, a)
    swap = {SUPERIOR: INFERIOR, INFERIOR: SUPERIOR,
            COMPARABLE: COMPARABLE, INCONCLUSIVE: INCONCLUSIVE}
    assert rev.label == swap[fwd.label]


@given(
    st.floats(-1, 1), st.floats(0.01, 0.5), st.integers(2, 50),
    st.floats(-1, 1), st.floats(0.01, 0.5), st.integers(2, 50),
)
@settings(max_examples=200)
def test_tost_zero_margin_never_comparable(ma, sa, na, mb, sb, nb):
    label = tost_classify(SampleStats(ma, sa, na), SampleStats(mb, sb, nb), delta=0.0)
    assert label.label != COMPARABLE


def test_tost_degenerate_margin_comparison():
    # both variances zero: classify purely on the mean gap vs the margin
    assert tost_classify(SampleStats(0.50, 0.0, 5), SampleStats(0.52, 0.0, 5)).label == COMPARABLE
    assert tost_classify(SampleStats(0.9, 0.0, 5), SampleStats(0.2, 0.0, 5)).label == SUPERIOR
    assert tost_classify(SampleStats(0.2, 0.0, 5), SampleStats(0.9, 0.0, 5)).label == INFERIOR


# --- iqm ---


def test_iqm_spot_values():
    assert iqm([1, 2, 3, 4]) == 2.5
    assert iqm([7.0] * 9) == 7.0
    assert iqm([0, 0, 0, 0, 0, 0, 0, 100]) == 0.0


def test_iqm_needs_four():
    with pytest.raises(ValueError):
        iqm([1, 2, 3])


@given(st.lists(finite_floats, min_size=4, max_size=40))
def test_iqm_permutation_invariant_and_bounded(values):
    direct = iqm(values)
    assert direct == iqm(list(reversed(values)))
    s = sorted(values)
    trim = len(s) // 4
    middle = s[trim : len(s) - trim]
    assert middle[0] - 1e-9 <= direct <= middle[-1] + 1e-9


# --- class comparison ---


def _variants(values_by_variant):
    return {
        name: [[v] * 2 for v in seeds] for name, seeds in values_by_variant.items()
    }


def test_compare_identical_classes_tie():
    seeds = [0.5, 0.5, 0.5, 0.5]
    out = compare_classes(_variants({"warmup": seeds}), _variants({"replay": seeds}))
    assert out.winner == WIN_TIE


def test_compare_clear_policy_win():
    rng = np.random.default_rng(0)
    p = [0.9 + 0.01 * rng.standard_normal() for _ in range(10)]
    d = [0.3 + 0.01 * rng.standard_normal() for _ in range(10)]
    out = compare_classes(_variants({"warmup": p}), _variants({"replay": d}))
    assert out.winner == WIN_POLICY
    assert out.p < 1e-6


def test_compare_clear_data_win():
    p = [0.2, 0.21, 0.19, 0.2]
    d = [0.8, 0.82, 0.81, 0.79]
    out = compare_classes(_variants({"warmup": p}), _variants({"replay": d}))
    assert out.winner == WIN_DATA
    assert out.data_iqm > out.policy_iqm


def test_compare_selection_by_iqm():
    a = [0.8, 0.8, 0.8, 0.8]
    b = [0.6, 0.6, 0.6, 0.6]
    out = compare_classes(
        _variants({"warmup": a, "o2o_reg": b}),
        _variants({"replay": b}),
    )
    assert out.policy_variant == "warmup"


def test_compare_single_seed_rejected():
    with pytest.raises(ValueError):
        compare_classes({"warmup": [[0.5]]}, {"replay": [[0.5], [0.6]]})


# --- confusion matrix ---


def test_confusion_matrix_table_counts():
    m = ConfusionMatrix.from_counts([[24, 2, 1], [6, 2, 3], [2, 4, 19]])
    assert m.total == 63
    assert m.correct == 45
    assert m.accuracy == pytest.approx(45 / 63)
    assert m.opposite == 3
    assert m.opposite_rate == pytest.approx(3 / 63)
    assert "45/63" in m.summary_line()
    assert "71%" in m.summary_line()
    assert "5%" in m.summary_line()


def test_confusion_matrix_all_correct():
    pairs = [(SUPERIOR, WIN_POLICY), (COMPARABLE, WIN_TIE), (INFERIOR, WIN_DATA)]
    m = confusion_from_pairs(pairs * 3)
    assert m.accuracy == 1.0
    assert m.opposite_rate == 0.0


def test_confusion_matrix_single_opposite():
    m = confusion_from_pairs([(SUPERIOR, WIN_DATA)])
    assert m.accuracy == 0.0
    assert m.opposite_rate == 1.0


def test_confusion_matrix_of_nothing_has_no_rates():
    m = ConfusionMatrix()
    assert (m.total, m.accuracy, m.opposite_rate) == (0, None, None)
    assert m.to_dict()["accuracy"] is None
    assert m.summary_line().startswith("no setting counted")


def test_confusion_matrix_rejects_inconclusive():
    with pytest.raises(ValueError):
        confusion_from_pairs([(INCONCLUSIVE, WIN_TIE)])


def test_confusion_matrix_bad_shape():
    with pytest.raises(ValueError):
        ConfusionMatrix.from_counts([[1, 2], [3, 4]])


# --- eval curve validation ---


def test_eval_curve_validation():
    good = [EvalPoint(0, 0.5, [0.4, 0.6]), EvalPoint(10, 0.7, [0.7])]
    validate_curve(good)
    bad_order = [EvalPoint(10, 0.5, [0.5]), EvalPoint(10, 0.7, [0.7])]
    with pytest.raises(ValueError):
        validate_curve(bad_order)
    bad_mean = [EvalPoint(0, 0.9, [0.4, 0.6])]
    with pytest.raises(ValueError):
        validate_curve(bad_mean)
