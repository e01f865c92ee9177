import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kronval import (
    KroneckerParams,
    ParameterError,
    classify_regime,
    critical_fraction,
    degree_moments,
    expected_degree_count,
    hamming_profile_prediction,
    hamming_window,
    psi,
)
from kronval.cli import main
from kronval.predict import _bisect
from conftest import PARAM_GRID, brute_degree_moments


class TestDegreeMoments:
    def test_single_digit(self):
        p = KroneckerParams(0.6, 0.3, 0.2, 1)
        assert degree_moments(p, 1).mean == pytest.approx(0.9)
        assert degree_moments(p, 0).mean == pytest.approx(0.5)

    def test_weight_two_example(self):
        p = KroneckerParams(0.6, 0.4, 0.2, 3)
        m = degree_moments(p, 2)
        assert m.mean == pytest.approx(1.0**2 * 0.6, rel=1e-12)
        brute_mean, brute_sq = brute_degree_moments(p, 2)
        assert m.mean == pytest.approx(brute_mean, abs=1e-12)
        assert m.sum_sq_probs == pytest.approx(brute_sq, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta,gamma", PARAM_GRID[:4])
    def test_brute_force_agreement(self, alpha, beta, gamma):
        p = KroneckerParams(alpha, beta, gamma, 8)
        for w in range(9):
            m = degree_moments(p, w)
            brute_mean, brute_sq = brute_degree_moments(p, w)
            assert m.mean == pytest.approx(brute_mean, abs=1e-10)
            assert m.sum_sq_probs == pytest.approx(brute_sq, abs=1e-10)

    def test_variance_below_mean(self):
        for alpha, beta, gamma in PARAM_GRID:
            p = KroneckerParams(alpha, beta, gamma, 9)
            for w in (0, 4, 9):
                m = degree_moments(p, w)
                assert 0 < m.variance < m.mean
                assert m.variance == pytest.approx(m.mean - m.sum_sq_probs)

    def test_weight_range_checked(self):
        p = KroneckerParams(0.5, 0.4, 0.3, 4)
        with pytest.raises(ParameterError):
            degree_moments(p, 5)
        with pytest.raises(ParameterError):
            degree_moments(p, -1)

    def test_representable_values_use_direct_powers(self):
        for alpha, beta, gamma in PARAM_GRID:
            p = KroneckerParams(alpha, beta, gamma, 9)
            for w in range(10):
                m = degree_moments(p, w)
                assert m.mean == (alpha + beta) ** w * (beta + gamma) ** (9 - w)
                assert m.sum_sq_probs == (alpha**2 + beta**2) ** w * (beta**2 + gamma**2) ** (9 - w)

    def test_overflowing_power_goes_through_logs(self):
        # 1.4^2200 is beyond the float range, 1.4^2200 * 0.55^300 ~ e^561 is not
        p = KroneckerParams(0.9, 0.5, 0.05, 2500)
        with pytest.raises(OverflowError):
            1.4**2200
        log_mean = 2200 * math.log(1.4) + 300 * math.log(0.55)
        assert degree_moments(p, 2200).mean == pytest.approx(math.exp(log_mean), rel=1e-12)

    def test_unrepresentable_moment_is_parameter_error(self):
        with pytest.raises(ParameterError, match="largest float"):
            degree_moments(KroneckerParams(0.9, 0.9, 0.9, 2000), 0)


class TestExpectedDegreeCount:
    def test_double_boundary_is_poisson_one(self):
        # alpha+beta = beta+gamma = 1 makes every weight's rate exactly 1
        p = KroneckerParams(0.6, 0.4, 0.6, 12)
        for d in range(6):
            expected = 2**12 / (math.e * math.factorial(d))
            assert expected_degree_count(p, d) == pytest.approx(expected, rel=1e-12)

    def test_degree_zero_formula(self):
        p = KroneckerParams(0.7, 0.3, 0.3, 10)
        direct = sum(
            math.comb(10, w) * math.exp(-((1.0) ** w) * (0.6) ** (10 - w))
            for w in range(11)
        )
        assert expected_degree_count(p, 0) == pytest.approx(direct, rel=1e-12)

    def test_per_vertex_grouping_oracle(self):
        # summing the Poisson term vertex by vertex must equal the
        # binomial-weighted form
        p = KroneckerParams(0.7, 0.3, 0.3, 10)
        d = 2
        total = 0.0
        for v in range(1 << 10):
            w = bin(v).count("1")
            lam = (p.alpha + p.beta) ** w * (p.beta + p.gamma) ** (10 - w)
            total += lam**d * math.exp(-lam) / math.factorial(d)
        assert expected_degree_count(p, d) == pytest.approx(total, rel=1e-12)

    def test_masses_sum_to_vertex_count(self):
        p = KroneckerParams(0.7, 0.3, 0.3, 10)
        total = sum(expected_degree_count(p, d) for d in range(60))
        assert total == pytest.approx(2**10, abs=1e-6)

    @pytest.mark.parametrize(
        "entries,n",
        [((0.75, 0.4, 0.3), 12), ((0.75, 0.4, 0.3), 300), ((0.55, 0.5, 0.5), 5000)]
        + [((0.5, 0.5, 0.5), 2000)],  # every count beyond the float range
    )
    def test_chunked_counts_equal_one_degree_passes(self, entries, n):
        # the (degree, weight) pass must give each degree the double that a
        # pass for that degree alone gives, or refuse the same degrees:
        # reports pin these bytes
        from kronval.predict import _log_binomials, _mean_degrees

        p = KroneckerParams(*entries, n)
        log_lam, lam = _mean_degrees(p)
        for d in range(40):
            with np.errstate(over="ignore"):
                terms = _log_binomials(n) + d * log_lam - lam - math.lgamma(d + 1)
                single = float(np.exp(terms).sum())
            if math.isinf(single):
                with pytest.raises(ParameterError, match="float range"):
                    expected_degree_count(p, d)
            else:
                assert expected_degree_count(p, d) == single

    def test_log_binomial_rows_are_bounded(self):
        # one row of n + 1 doubles per n predicted; a long sweep of n keeps
        # only the latest 8
        from kronval.predict import _log_binomials

        _log_binomials.cache_clear()
        for n in range(10, 410, 20):
            expected_degree_count(KroneckerParams(0.7, 0.3, 0.3, n), 2)
        assert _log_binomials.cache_info().currsize <= 8

    def test_stable_for_large_n_and_d(self):
        p = KroneckerParams(0.9, 0.8, 0.9, 200)
        value = expected_degree_count(p, 3)
        assert 0.0 <= value < 2**200 and not math.isnan(value)


class TestClassifyRegime:
    def test_case1_example(self):
        p = KroneckerParams(0.7, 0.3, 0.3, 8)
        for d in (0, 1, 5):
            v = classify_regime(p, d)
            assert v.case_id == 1 and not v.vanishing
            assert v.theta_base == pytest.approx(1 + 0.6**d)
            assert not v.power_law_possible

    def test_case5_example(self):
        v = classify_regime(KroneckerParams(0.8, 0.7, 0.8, 8), 2)
        assert v.case_id == 5 and v.vanishing

    def test_case6_example(self):
        v = classify_regime(KroneckerParams(0.5, 0.5, 0.5, 8), 3)
        assert v.case_id == 6 and not v.vanishing
        assert v.power_law_possible
        assert "Poisson(1)" in v.describe() and "not a power law" in v.describe()

    def test_case2(self):
        v = classify_regime(KroneckerParams(0.9, 0.4, 0.6, 8), 2)
        assert v.case_id == 2 and v.vanishing

    def test_case4(self):
        v = classify_regime(KroneckerParams(0.4, 0.3, 0.35, 8), 2)
        assert v.case_id == 4 and not v.vanishing
        assert v.theta_base == pytest.approx(0.7**2 + 0.65**2)

    def test_case3_dichotomy_flips_with_degree(self):
        p = KroneckerParams(0.9, 0.25, 0.3, 8)
        low = classify_regime(p, 0)
        assert low.case_id == 3 and low.subcase == "i" and not low.vanishing
        high = classify_regime(p, 20)
        assert high.case_id == 3 and high.subcase == "iii" and high.vanishing
        assert low.c2 == pytest.approx(high.c2)
        # c2 solves hi^c * lo^(1-c) = 1
        assert 1.15**low.c2 * 0.55 ** (1 - low.c2) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), beta=st.floats(0.01, 0.99), gamma=st.floats(0.01, 0.99))
    def test_closed_form_c2_is_the_root(self, alpha, beta, gamma):
        verdict = classify_regime(KroneckerParams(alpha, beta, gamma, 8), 1)
        assume(verdict.case_id == 3)
        hi, lo = max(alpha + beta, beta + gamma), min(alpha + beta, beta + gamma)
        assert hi**verdict.c2 * lo ** (1 - verdict.c2) == pytest.approx(1.0, abs=1e-12)
        linear = lambda c: c * math.log(hi) + (1.0 - c) * math.log(lo)
        assert abs(verdict.c2 - brentq(linear, 0.0, 1.0, xtol=1e-15)) <= 1e-12

    def test_total_and_symmetric_under_entry_swap(self):
        for alpha, beta, gamma in PARAM_GRID:
            p = KroneckerParams(alpha, beta, gamma, 6)
            q = KroneckerParams(gamma, beta, alpha, 6)
            for d in (0, 1, 3):
                a, b = classify_regime(p, d), classify_regime(q, d)
                assert a.case_id == b.case_id
                assert a.vanishing == b.vanishing
                assert (a.theta_base is None) == (b.theta_base is None)
                if a.theta_base is not None:
                    assert a.theta_base == pytest.approx(b.theta_base)

    def test_large_degree_reports_only_representable_bases(self):
        # case 5 never reports its base, so 1.2^5000 is never formed
        v = classify_regime(KroneckerParams(0.7, 0.5, 0.7, 10), 5000)
        assert v.case_id == 5 and v.vanishing and v.theta_base is None
        # case 3 with hi^d beyond the float range: c1 from logs, c1 -> 1 > c2
        v = classify_regime(KroneckerParams(0.9, 0.3, 0.3, 10), 5000)
        assert v.case_id == 3 and v.subcase == "iii" and v.c1 == 1.0
        assert classify_regime(KroneckerParams(0.9, 0.25, 0.3, 8), 20).c1 == 1.15**20 / (
            1.15**20 + 0.55**20
        )
        # case 1 reports its base, which overflows at a large enough d
        with pytest.raises(ParameterError, match="largest float"):
            classify_regime(KroneckerParams(0.7, 0.3 + 5e-13, 0.3, 8), 2 * 10**15)

    # Every field of one verdict per case and subcase, and of the case 4 and
    # case 5 verdicts whose equal row sums are resolved at tolerance (an
    # entry 5e-13 off): (case_id, subcase, vanishing, theta_base,
    # power_law_possible, boundary, c1, c2), every float to the bit.
    @pytest.mark.parametrize(
        "entries,d,fields",
        [
            ((0.7, 0.3, 0.3), 2, (1, None, False, 1.3599999999999999, False, True, None, None)),
            ((0.9, 0.4, 0.6), 2, (2, None, True, None, False, True, None, None)),
            ((0.9, 0.25, 0.3), 1,
             (3, "i", False, 1.7, False, False, 0.676470588235294, 0.8105177025038411)),
            ((0.75, 0.5, 0.3), 0, (3, "ii", False, 2.0, False, True, 0.5, 0.49999999999999994)),
            ((0.9, 0.25, 0.3), 20,
             (3, "iii", True, None, False, False, 0.9999996079903007, 0.8105177025038411)),
            ((0.4, 0.3, 0.35), 2, (4, None, False, 0.9124999999999999, False, False, None, None)),
            ((0.3, 0.4, 0.3), 2, (4, None, False, 0.9799999999999999, False, True, None, None)),
            ((0.3 + 5e-13, 0.4, 0.3), 2,
             (4, None, False, 0.9800000000006999, False, True, None, None)),
            ((0.8, 0.7, 0.9), 2, (5, None, True, None, False, False, None, None)),
            ((0.8, 0.7, 0.8), 2, (5, None, True, None, False, True, None, None)),
            ((0.8, 0.7, 0.8 + 5e-13), 2, (5, None, True, None, False, True, None, None)),
            ((0.5, 0.5, 0.5), 3, (6, None, False, 2.0, True, True, None, None)),
        ],
    )
    def test_every_verdict_field_pinned(self, entries, d, fields):
        v = classify_regime(KroneckerParams(*entries, 8), d)
        assert (
            v.case_id, v.subcase, v.vanishing, v.theta_base,
            v.power_law_possible, v.boundary, v.c1, v.c2,
        ) == fields

    def test_power_law_flag_requires_double_boundary(self):
        assert classify_regime(KroneckerParams(0.7, 0.3, 0.3, 5), 1).power_law_possible is False
        assert classify_regime(KroneckerParams(0.6, 0.4, 0.6, 5), 1).power_law_possible is True

    @pytest.mark.parametrize(
        "alpha,beta,gamma,d",
        [
            (0.7, 0.3, 0.3, 0),
            (0.7, 0.3, 0.3, 2),
            (0.9, 0.4, 0.6, 2),
            (0.9, 0.25, 0.3, 0),
            (0.9, 0.25, 0.3, 2),
            (0.4, 0.3, 0.35, 2),
            (0.8, 0.7, 0.8, 1),
            (0.5, 0.5, 0.5, 0),
            (0.5, 0.5, 0.5, 2),
        ],
    )
    def test_dichotomy_visible_in_count_formula(self, alpha, beta, gamma, d):
        # the verdict must match the large-n behavior of the count formula:
        # a stable positive ratio against base^n, or rapid decay against 2^n
        verdict = classify_regime(KroneckerParams(alpha, beta, gamma, 8), d)
        ratios = []
        for n in (80, 160, 320):
            p = KroneckerParams(alpha, beta, gamma, n)
            count = expected_degree_count(p, d)
            scale = 2.0**n if verdict.vanishing else verdict.theta_base**n
            ratios.append(count / scale)
        if verdict.vanishing:
            assert ratios[-1] < 1e-6
            assert all(
                later <= earlier for earlier, later in zip(ratios, ratios[1:])
            )
        else:
            assert ratios[-1] > 0
            assert ratios[-1] == pytest.approx(ratios[-2], rel=1e-2)
            # the stable constant is 1/d! off the double boundary and
            # 1/(e*d!) on it
            expected_const = (
                1.0 / (math.e * math.factorial(d))
                if verdict.case_id == 6
                else 1.0 / math.factorial(d)
            )
            assert ratios[-1] == pytest.approx(expected_const, rel=1e-3)


class TestPsi:
    def test_peak_value(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 5)
        assert psi(p, 0.7 / 1.1) == pytest.approx(1.1, rel=1e-12)

    def test_limits(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 5)
        assert psi(p, 1e-9) == pytest.approx(0.4, abs=1e-6)
        assert psi(p, 1 - 1e-9) == pytest.approx(0.7, abs=1e-6)

    def test_direct_evaluation(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 5)
        expected = math.exp(0.3 * math.log(0.7 / 0.3) + 0.7 * math.log(0.4 / 0.7))
        assert psi(p, 0.3) == pytest.approx(expected, rel=1e-14)

    def test_domain_checked(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 5)
        for c in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                psi(p, c)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.2, 0.9),
        beta=st.floats(0.2, 0.9),
        t=st.floats(0.05, 0.95),
        step=st.floats(0.001, 0.04),
    )
    def test_monotone_branches(self, alpha, beta, t, step):
        p = KroneckerParams(alpha, beta, alpha, 3)
        peak = beta / (alpha + beta)
        lo, hi = t * peak, min(t * peak + step * peak, peak * 0.999999)
        if hi > lo:
            assert psi(p, lo) < psi(p, hi)  # strictly increasing before the peak
        lo2 = peak + t * (1 - peak)
        hi2 = min(lo2 + step * (1 - peak), 1 - 1e-9)
        if hi2 > lo2:
            assert psi(p, lo2) > psi(p, hi2)  # strictly decreasing after


def test_moments_with_underflowing_sums_of_squares():
    # alpha^2 + beta^2 and beta^2 + gamma^2 round to 0 at these entries
    p = KroneckerParams(5e-324, 5e-324, 0.3, 100)
    assert degree_moments(p, 0).sum_sq_probs == pytest.approx(0.09**100)
    assert degree_moments(p, 1).sum_sq_probs == 0.0
    assert degree_moments(KroneckerParams(0.3, 5e-324, 5e-324, 100), 0).sum_sq_probs == 0.0


class TestCriticalFraction:
    def test_low_alpha_branch(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 14)
        res = critical_fraction(p)
        assert res.side == "below"
        assert 0 < res.c < 0.7 / 1.1
        assert abs(psi(p, res.c) - 0.5) <= 1e-9

    def test_low_beta_branch(self):
        p = KroneckerParams(0.7, 0.4, 0.7, 14)
        res = critical_fraction(p)
        assert res.side == "above"
        assert 0.4 / 1.1 < res.c < 1
        assert abs(psi(p, res.c) - 0.5) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), large=st.floats(0.51, 0.99), low_alpha=st.booleans())
    def test_root_matches_brentq(self, data, large, low_alpha):
        small = data.draw(st.floats(1.0 - large + 1e-6, 0.499))
        a, b = (small, large) if low_alpha else (large, small)
        p = KroneckerParams(a, b, a, 10)
        res = critical_fraction(p)
        peak = b / (a + b)
        bracket = (1e-15, peak) if low_alpha else (peak, 1.0 - 1e-15)
        root = brentq(lambda c: psi(p, c) - 0.5, *bracket, xtol=1e-15)
        assert res.side == ("below" if low_alpha else "above")
        assert abs(res.c - root) <= 1e-12

    def test_no_root_when_both_entries_large(self):
        res = critical_fraction(KroneckerParams(0.6, 0.6, 0.6, 10))
        assert res.c is None and res.side is None and not res.exists

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            critical_fraction(KroneckerParams(0.4, 0.7, 0.5, 10))  # alpha != gamma
        with pytest.raises(ParameterError):
            critical_fraction(KroneckerParams(0.4, 0.5, 0.4, 10))  # alpha+beta <= 1


class TestBisect:
    def test_root_to_the_last_float(self):
        assert _bisect(lambda x: x - 0.3, 0.0, 1.0) == 0.3
        assert _bisect(lambda x: 0.3 - x, 0.0, 1.0) == 0.3

    def test_zero_at_an_end(self):
        assert _bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert _bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_refused(self):
        with pytest.raises(ParameterError):
            _bisect(lambda x: x + 1.0, 0.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.95), beta=st.floats(0.05, 0.95), u=st.floats(0.05, 0.95),
        below=st.booleans(),
    )
    def test_psi_levels_match_brentq(self, alpha, beta, u, below):
        # psi runs from alpha (c -> 0) up to alpha + beta at the peak and
        # down to beta (c -> 1); each level between is hit once per branch.
        p = KroneckerParams(alpha, beta, alpha, 3)
        peak = beta / (alpha + beta)
        bracket = (1e-15, peak) if below else (peak, 1.0 - 1e-15)
        end = alpha if below else beta
        level = end + u * (alpha + beta - end)
        fn = lambda c: psi(p, c) - level
        assert abs(_bisect(fn, *bracket) - brentq(fn, *bracket, xtol=1e-15)) <= 1e-12


class TestHammingProfile:
    def test_loop_term(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 9)
        assert hamming_profile_prediction(p, 0) == pytest.approx(0.7**9, rel=1e-12)

    def test_sums_to_total_degree(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 12)
        total = sum(hamming_profile_prediction(p, k) for k in range(13))
        assert total == pytest.approx(1.2**12, rel=1e-10)

    def test_binomial_coefficient_arithmetic(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 14)
        k = round(0.5 * 14 / 1.2)
        exact = math.comb(14, k) * 0.7 ** (14 - k) * 0.5**k
        assert hamming_profile_prediction(p, k) == pytest.approx(exact, rel=1e-12)

    def test_gates(self):
        with pytest.raises(ParameterError):
            hamming_profile_prediction(KroneckerParams(0.7, 0.5, 0.6, 8), 2)
        with pytest.raises(ParameterError):
            hamming_profile_prediction(KroneckerParams(0.7, 0.5, 0.7, 8), 9)

    def test_overflow_is_parameter_error(self):
        p = KroneckerParams(0.6, 0.5, 0.6, 100_000)
        # k = 25134 is the last term below the float limit, e^709.38
        k = 25134
        log_value = (
            math.lgamma(100_001) - math.lgamma(k + 1) - math.lgamma(100_001 - k)
            + (100_000 - k) * math.log(0.6) + k * math.log(0.5)
        )
        assert hamming_profile_prediction(p, k) == math.exp(log_value) > 1e307
        with pytest.raises(ParameterError, match="largest float"):
            hamming_profile_prediction(p, k + 1)

    def test_window_shape(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 14)
        lo, hi = hamming_window(p)
        center = 0.5 * 14 / 1.2
        assert lo < center < hi
        assert hi - center == pytest.approx(
            math.sqrt(2 * 0.5 / 1.2) * math.log(14) * math.sqrt(14)
        )


EXTREMES = ["nan", "inf", "-inf", "0", "-1", "5e-324", repr(1 - 1e-16), "1e308", str(10**20)]
# ordinary entries too, so that some drawn parameter sets are valid
ENTRIES = st.sampled_from([*EXTREMES, "0.3", "0.7"])


@settings(max_examples=150, deadline=None)
@given(
    what=st.sampled_from(["moments", "degree-counts", "regime", "hamming-profile"]),
    alpha=ENTRIES,
    beta=ENTRIES,
    gamma=ENTRIES,
    n=st.one_of(st.integers(-1, 5000), st.sampled_from(EXTREMES)),
    d=st.one_of(st.integers(-1, 64), st.sampled_from([*EXTREMES, str(2**63), str(10**400)])),
    d_max=st.one_of(st.integers(-1, 64), st.sampled_from(EXTREMES)),
)
# case 3 (alpha + beta > 1 > beta + gamma), where the regime's c1 scales by d
@example(what="regime", alpha="0.9", beta="0.5", gamma="0.3", n=10, d=str(10**400), d_max="8")
def test_predict_exit_code_property(what, alpha, beta, gamma, n, d, d_max):
    # predict builds no graph, so even n = 5000 allocates nothing large
    argv = [
        "predict", "--what", what, "--alpha", alpha, "--beta", beta, "--gamma", gamma,
        "--n", str(n), "--d", str(d), "--d-max", str(d_max),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
    assert rc in (0, 1, 2)
