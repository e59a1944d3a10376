"""Endpoint-case bound thresholds.

The quadratic fixed points used as targets are solved symbolically in the
comments and recomputed here from their closed-form roots.
"""

import json
import math
import random
import warnings

import mpmath
import pytest

from reference import decreasing_beta_convex, increasing_beta_convex
from sugeno_bounds.bounds import (
    CaseTag,
    _rise_start,
    classify_case,
    endpoint_bound,
    envelope_distribution,
    hadamard_bound,
    kirmaci_bound,
    verify_hadamard,
)
from sugeno_bounds.cli import emit_report
from sugeno_bounds.convexity import EndpointData, SMParams, endpoint_data
from sugeno_bounds.exceptions import DomainError, UnsupportedCaseError
from sugeno_bounds.expr import parse
from sugeno_bounds.measure import Interval


def test_classify_cases():
    p = SMParams(1.0, 1.0)
    assert classify_case(EndpointData(1, 8, 1, 2), p) is CaseTag.INCREASING
    assert classify_case(EndpointData(1, 0.25, 1, 0.25), p) is CaseTag.DECREASING
    assert classify_case(EndpointData(2, 2, 3, 3), p) is CaseTag.DEGENERATE
    assert classify_case(EndpointData(1, 8, 1, 0.25), p) is CaseTag.MIXED
    assert classify_case(EndpointData(2, 2, 1, 8), p) is CaseTag.MIXED


def test_classify_respects_m():
    # f(b) compared against m*f(a), not f(a)
    p = SMParams(1.0, 0.5)
    assert classify_case(EndpointData(2, 1, 2, 1), p) is CaseTag.DEGENERATE
    assert classify_case(EndpointData(2, 1.5, 2, 1.5), p) is CaseTag.INCREASING


def test_classify_tie_tolerance():
    # a factor's difference within CASE_TIE_TOL = 1e-9 times the larger of its
    # two compared values is a tie; clearly past that it is not
    p = SMParams(1.0, 1.0)
    e = EndpointData(1.0, 1.0 + 5e-10, 2.0, 2.0 - 5e-10)
    assert classify_case(e, p) is CaseTag.DEGENERATE
    e = EndpointData(1.0, 1.0 + 2e-9, 2.0, 2.0 - 5e-9)
    assert classify_case(e, p) is CaseTag.MIXED
    e = EndpointData(1.0, 1.0 + 2e-9, 2.0, 2.0 + 5e-9)
    assert classify_case(e, p) is CaseTag.INCREASING
    e = EndpointData(1.0, 1.0 + 2e-9, 2.0, 2.0 + 1e-9)  # g ties at its scale 2
    assert classify_case(e, p) is CaseTag.MIXED
    # at scale 1e6 the tie reaches about 1e-3
    e = EndpointData(1e6, 1e6 + 5e-4, 1e6, 1e6 + 5e-4)
    assert classify_case(e, p) is CaseTag.DEGENERATE
    e = EndpointData(1e6, 1e6 + 5e-3, 1e6, 1e6 + 5e-3)
    assert classify_case(e, p) is CaseTag.INCREASING


def test_case_split_is_invariant_under_positive_scaling():
    # c*f and c*g rise exactly when f and g do: each factor's difference is
    # weighed against its own endpoint values, so no c is too small to rise
    for c in (1.0, 1e-8, 1e-9, 1e-10):
        f = parse(f"{c!r}*x")
        res = hadamard_bound(f, f, Interval(1.0, 2.0), SMParams(1.0, 1.0))
        assert res.case is CaseTag.INCREASING, (c, res)


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 10: the bound's threshold solve stops at an absolute "
                          "1e-12 width, so a threshold near 2e-8 keeps about five digits")
def test_sub_tolerance_bound_thresholds_keep_their_digits():
    # f = g = c*x on [1,2] at s = m = 1 is the increasing case with factor
    # length 2 - beta/c, so beta solves (2 - beta/c)^2 = beta; at c = 1e-8 the
    # solve returns 1.99979695e-8 for the root 1.99985858e-8 (3.1e-5 relative)
    with mpmath.workdps(50):
        c = mpmath.mpf(1e-8)
        truth = mpmath.findroot(lambda beta: (2 - beta / c) ** 2 - beta, (c, 2 * c),
                                solver="anderson")
    res = hadamard_bound(parse("1e-8*x"), parse("1e-8*x"), Interval(1.0, 2.0), SMParams(1.0, 1.0))
    assert res.case is CaseTag.INCREASING
    assert abs(res.beta - truth) <= 1e-9 * truth, (res.beta, truth)


def test_kirmaci_value():
    # fa=ga=0, fb=gb=1/2, s=1/3: M=(1/4), N=0, (1/4)/(7/3) = 3/28
    got = kirmaci_bound(EndpointData(0.0, 0.5, 0.0, 0.5), 1.0 / 3.0)
    assert got == pytest.approx(3.0 / 28.0, rel=1e-15)


def test_kirmaci_swap_symmetry_is_exact():
    e = EndpointData(0.137, 2.71, 1.414, 0.333)
    swapped = EndpointData(e.ga, e.gb, e.fa, e.fb)
    for s in (0.21, 0.5, 1.0):
        assert kirmaci_bound(e, s) == kirmaci_bound(swapped, s)


def test_kirmaci_rejects_nonpositive_s():
    with pytest.raises(DomainError):
        kirmaci_bound(EndpointData(0, 1, 0, 1), 0.0)
    with pytest.raises(DomainError):
        kirmaci_bound(EndpointData(0, 1, 0, 1), -1.0)
    # any positive s is acceptable, including s > 1: 2/4 + 2/12 = 2/3
    assert kirmaci_bound(EndpointData(1, 1, 1, 1), 2.0) == pytest.approx(2.0 / 3.0)


def test_kirmaci_degenerate_inputs():
    assert kirmaci_bound(EndpointData(0, 0, 0, 0), 0.5) == 0.0
    # fa=ga=0, fb=gb=1, s=1: M=1, N=0, so 1/3
    assert kirmaci_bound(EndpointData(0, 1, 0, 1), 1.0) == pytest.approx(1.0 / 3.0)


def test_increasing_case_quadratic_root():
    # f: 1 -> 8, g: 1 -> 2 on [1,4], s=m=1.
    # 9(8-b)(2-b)/7 = b gives 9b^2 - 97b + 144 = 0, small root (97-65)/18 = 16/9
    e = EndpointData(1.0, 8.0, 1.0, 2.0)
    res = endpoint_bound(e, Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert res.beta == pytest.approx(16.0 / 9.0, abs=1e-9)
    assert res.bound == pytest.approx(16.0 / 9.0, abs=1e-9)
    assert res.case is CaseTag.INCREASING
    assert res.residual <= 1e-9


def test_decreasing_case_quadratic_root():
    # f and g both 1 -> 1/4 on [1,2], s=m=1.
    # ((1-b)/0.75)^2 = b gives 16b^2 - 41b + 16 = 0, root (41-sqrt(657))/32
    e = EndpointData(1.0, 0.25, 1.0, 0.25)
    res = endpoint_bound(e, Interval(1.0, 2.0), SMParams(1.0, 1.0))
    want = (41.0 - math.sqrt(657.0)) / 32.0
    assert res.beta == pytest.approx(want, abs=1e-9)
    assert res.case is CaseTag.DECREASING


def test_increasing_case_unit_endpoints():
    # f and g both 0 -> 1 on [0,1]: (1-b)^2 = b, root (3-sqrt(5))/2
    e = EndpointData(0.0, 1.0, 0.0, 1.0)
    res = endpoint_bound(e, Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert res.beta == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9)


def test_decreasing_case_exact_tie_root():
    # f and g both 2 -> 1 on [0,1]: F(b) = (2-b)^2 on [1,2], fixed point exactly 1
    e = EndpointData(2.0, 1.0, 2.0, 1.0)
    res = endpoint_bound(e, Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert res.beta == pytest.approx(1.0, abs=1e-9)
    assert res.bound == pytest.approx(1.0, abs=1e-9)


def test_wrong_case_raises():
    # only the increasing and decreasing cases have an envelope distribution;
    # the degenerate bound is closed-form and the mixed case has none
    box, p = Interval(1.0, 4.0), SMParams(1.0, 1.0)
    with pytest.raises(UnsupportedCaseError):
        envelope_distribution(EndpointData(2.0, 2.0, 3.0, 3.0), box, p)
    with pytest.raises(UnsupportedCaseError):
        envelope_distribution(EndpointData(1.0, 8.0, 1.0, 0.25), box, p)
    with pytest.raises(UnsupportedCaseError):
        endpoint_bound(EndpointData(1.0, 8.0, 1.0, 0.25), box, p)


def test_degenerate_closed_form():
    e = EndpointData(2.0, 2.0, 3.0, 3.0)
    res = endpoint_bound(e, Interval(0.0, 10.0), SMParams(1.0, 1.0))
    assert res.beta == 6.0
    assert res.bound == 6.0
    assert res.residual == 0.0
    # same numbers, smaller interval: bound saturates at the length
    res2 = endpoint_bound(e, Interval(0.0, 2.0), SMParams(1.0, 1.0))
    assert res2.beta == 6.0
    assert res2.bound == 2.0


def test_degenerate_scales_with_s_and_m():
    e = EndpointData(2.0, 1.0, 3.0, 1.5)
    p = SMParams(0.5, 0.5)
    res = endpoint_bound(e, Interval(0.0, 100.0), p)
    assert res.beta == (0.5 * 0.5) * 2.0 ** (2.0 - 2.0 * 0.5) * (2.0 * 3.0)


def test_degenerate_unit_and_zero_and_capped():
    one = endpoint_bound(EndpointData(1.0, 1.0, 1.0, 1.0),
                         Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert one.beta == 1.0 and one.bound == 1.0
    # fa=2, ga=3, s=1/2: 2^(2-1) * 6 = 12, capped by the length 2
    wide = endpoint_bound(EndpointData(2.0, 2.0, 3.0, 3.0),
                          Interval(0.0, 2.0), SMParams(0.5, 1.0))
    assert wide.beta == pytest.approx(12.0, rel=1e-15)
    assert wide.bound == 2.0
    zero = endpoint_bound(EndpointData(0.0, 0.0, 0.0, 0.0),
                          Interval(0.0, 1.0), SMParams(0.7, 0.9))
    assert zero.beta == 0.0 and zero.bound == 0.0


def test_convex_specialization_matches_general_exactly():
    box = Interval(1.0, 4.0)
    p = SMParams(1.0, 1.0)
    inc = EndpointData(1.0, 8.0, 1.0, 2.0)
    general = endpoint_bound(inc, box, p)
    special = increasing_beta_convex(inc, box)
    assert general.beta == special.beta  # same ops in the same order

    dec = EndpointData(5.0, 1.0, 3.0, 0.5)
    general = endpoint_bound(dec, box, p)
    special = decreasing_beta_convex(dec, box)
    assert general.beta == special.beta


def test_convex_specialization_case_guards():
    box = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        increasing_beta_convex(EndpointData(2.0, 1.0, 2.0, 1.0), box)
    with pytest.raises(ValueError):
        decreasing_beta_convex(EndpointData(1.0, 2.0, 1.0, 2.0), box)


def test_distribution_value_at_left_edge():
    # below both envelope offsets the distribution is the full square w*w
    e = EndpointData(1.0, 8.0, 1.0, 2.0)
    box = Interval(1.0, 4.0)
    F = envelope_distribution(e, box, SMParams(1.0, 1.0))
    assert F(1.0) == 9.0
    assert F(0.0) == 9.0
    assert F(2.0) == 0.0  # g's factor hits zero at its top value


def test_residual_certificate_both_sides():
    e = EndpointData(1.0, 8.0, 1.0, 2.0)
    box = Interval(1.0, 4.0)
    res = endpoint_bound(e, box, SMParams(1.0, 1.0))
    F = envelope_distribution(e, box, SMParams(1.0, 1.0))
    assert res.residual == abs(F(res.beta) - res.beta)
    eps = 1e-9
    assert F(res.beta - eps) >= res.beta - eps
    assert F(res.beta + eps) < res.beta + eps


def test_beta_exceeds_base_length_when_m_below_one():
    # w = b - m*a = 1.1 exceeds b - a = 1, so below both offsets the
    # distribution sits at w^2 = 1.21, beyond the base length
    e = EndpointData(2.0, 20.0, 2.0, 2.2)
    box = Interval(1.0, 2.0)
    p = SMParams(1.0, 0.9)
    res = endpoint_bound(e, box, p)
    assert res.beta == pytest.approx(1.1 * 1.1, abs=1e-9)
    assert res.bound == pytest.approx(1.0, abs=1e-9)  # min(beta, b-a) still caps


def test_decreasing_literal_shift_negative_lengths():
    # m < 1 with a > 0: above the envelope top the factor length is the
    # negative shift m*a - a, so the product is spuriously positive
    e = EndpointData(4.0, 1.0, 4.0, 1.0)
    box = Interval(1.0, 2.0)
    p = SMParams(1.0, 0.5)
    F = envelope_distribution(e, box, p)
    assert F(3.0) == pytest.approx(0.25)  # (-0.5) * (-0.5)
    # below the envelope bottom it is the full base length
    assert F(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("f_text, beta", [("0.01/x^2", 0.24999999999994316)])
def test_rise_past_the_later_zero_crossing_warns(f_text, beta):
    # at m = 0.5 on [1, 2] both factor lengths cross 0 at z = 0.0042 and then
    # turn negative, so F rises again, to F(2.25) = 0.25 >= z at the solve's
    # upper end 2.25; eight probe points missed the rise.  The threshold is unchanged.
    f = parse(f_text)
    with pytest.warns(RuntimeWarning, match="non-increasing"):
        res = hadamard_bound(f, f, Interval(1.0, 2.0), SMParams(1.0, 0.5))
    assert res.beta == beta


@pytest.mark.parametrize("f_text, beta", [("1/x^2", 0.32207986561201096),
                                          ("2-x", 0.18858048469610367)])
def test_rise_below_the_diagonal_does_not_warn(f_text, beta):
    # both factor lengths cross 0 at z = 0.417 (0.333 for 2-x), and past z F
    # rises only to F(2.25) = 0.25 < z: no threshold past z has F(beta) >= beta,
    # so the solve's beta is the supremum
    f, box, p = parse(f_text), Interval(1.0, 2.0), SMParams(1.0, 0.5)
    e = endpoint_data(f, f, box)
    assert envelope_distribution(e, box, p)(2.25) < _rise_start(e, box, p) < 2.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hadamard_bound(f, f, box, p).beta == beta


@pytest.mark.parametrize("fa, fb, warns", [(0.5, 0.24, True), (0.52, 0.24, False)])
def test_rise_warning_turns_on_where_the_rise_reaches_the_later_crossing(fa, fb, warns):
    # f = g on [1, 2] at s = 1, m = 0.5: past the envelope top F is shift^2 = 0.25,
    # so F(2.25) = 0.25, and the later zero crossing is z = (f(a) + f(b))/3, here
    # 0.2467 (the rise reaches z: warn) or 0.2533 (it stays below: no warning)
    e, box, p = EndpointData(fa, fb, fa, fb), Interval(1.0, 2.0), SMParams(1.0, 0.5)
    z = _rise_start(e, box, p)
    assert z == pytest.approx((fa + fb) / 3, rel=1e-12)
    assert envelope_distribution(e, box, p)(2.25) == pytest.approx(0.25, rel=1e-12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        endpoint_bound(e, box, p)
    assert any("non-increasing" in str(w.message) for w in caught) is warns


def test_rise_below_zero_does_not_warn():
    # g's length turns negative at 0.417 and f's only at 3.67, past the upper end
    # 2.25: F rises from -0.5 toward 0 there, below every threshold, so the answer
    # stands (the eight-point probe warned here)
    e, box, p = EndpointData(10.0, 1.0, 1.0, 0.25), Interval(1.0, 2.0), SMParams(1.0, 0.5)
    F = envelope_distribution(e, box, p)
    assert F(1.0) < F(2.25) < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert endpoint_bound(e, box, p).beta == pytest.approx(0.35714285714, abs=1e-9)


def test_no_rise_warning_at_m_one_or_in_the_increasing_case():
    # an increasing-case length w*(1 - Q**(1/s)) is never negative, and neither
    # is a decreasing-case one when m*a - a is 0 (m = 1, or a = 0)
    rng = random.Random(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            a = rng.choice([0.0, rng.uniform(0.0, 3.0)])
            base, s = Interval(a, a + rng.uniform(0.1, 3.0)), rng.uniform(0.05, 1.0)
            fa, ga = rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)
            m = rng.uniform(0.05, 1.0)
            rise = EndpointData(fa, m * fa * rng.uniform(1.01, 4.0), ga, m * ga * rng.uniform(1.01, 4.0))
            assert endpoint_bound(rise, base, SMParams(s, m)).case is CaseTag.INCREASING
            m = m if a == 0.0 else 1.0
            fall = EndpointData(fa, m * fa * rng.uniform(0.0, 0.99), ga, m * ga * rng.uniform(0.0, 0.99))
            assert endpoint_bound(fall, base, SMParams(s, m)).case is CaseTag.DECREASING


def test_dispatch_increasing():
    res = hadamard_bound(parse("x^2"), parse("2*x"), Interval(1.0, 4.0),
                         SMParams(1.0, 1.0))
    assert res.case is CaseTag.INCREASING


def test_dispatch_power_pair_reaches_quadratic_root():
    # x^(3/2) and x^(1/2) on [1,4] have endpoints 1->8 and 1->2
    res = hadamard_bound(parse("x^(3/2)"), parse("x^(1/2)"), Interval(1.0, 4.0),
                         SMParams(1.0, 1.0))
    assert res.case is CaseTag.INCREASING
    assert res.beta == pytest.approx(16.0 / 9.0, abs=1e-9)


def test_dispatch_degenerate():
    res = hadamard_bound(parse("2"), parse("3"), Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert res.case is CaseTag.DEGENERATE
    assert res.beta == 6.0
    assert res.bound == 1.0


def test_dispatch_mixed_raises_with_both_deltas():
    with pytest.raises(UnsupportedCaseError) as exc:
        hadamard_bound(parse("x"), parse("1/(x+1)"), Interval(0.0, 1.0), SMParams(1.0, 1.0))
    msg = str(exc.value)
    assert "f(b)-m*f(a)" in msg and "g(b)-m*g(a)" in msg


def test_verify_reciprocal_quartic():
    report = verify_hadamard(parse("1/x^2"), parse("1/x^2"), Interval(1.0, 2.0),
                             SMParams(1.0, 1.0))
    assert report.holds
    assert report.kirmaci == pytest.approx(7.0 / 16.0, rel=1e-15)
    want_beta = (41.0 - math.sqrt(657.0)) / 32.0
    assert report.hadamard.beta == pytest.approx(want_beta, abs=1e-9)
    assert report.margin == pytest.approx(want_beta - report.integral.value, rel=1e-12)
    assert report.margin > 0.15


def test_verify_power_pair_bound_genuinely_fails():
    # the product x^(3/2) * x^(1/2) = x^2 integrates to about 2.44 on [1,4],
    # above the 16/9 threshold: the report must say so, not hide it
    report = verify_hadamard(parse("x^(3/2)"), parse("x^(1/2)"), Interval(1.0, 4.0),
                             SMParams(1.0, 1.0))
    assert report.integral.value == pytest.approx((9.0 - math.sqrt(17.0)) / 2.0, abs=1e-6)
    assert report.hadamard.bound == pytest.approx(16.0 / 9.0, abs=1e-9)
    assert not report.holds
    assert report.margin < 0.0


def test_verify_linear_pair_counterexample_closed_form():
    # f = g = 2x is linear, so (1,1)-convex, yet the paper's bound fails for
    # it.  S(4x^2) on [0,1] solves 4x^2 = 1 - x at the level-set boundary x:
    # (9 - sqrt(17))/8.  Each factor length is 1 - beta/2, so F(beta) = beta
    # gives beta = 4 - 2*sqrt(3), below the integral.
    report = verify_hadamard(parse("2*x"), parse("2*x"), Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert report.integral.grid_points is None
    assert report.integral.value == pytest.approx((9.0 - math.sqrt(17.0)) / 8.0, abs=1e-11)
    assert report.hadamard.beta == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-9)
    assert not report.holds
    assert report.margin < 0.0


def test_verify_json_field_names_and_order():
    report = verify_hadamard(parse("x^2"), parse("2*x"), Interval(1.0, 4.0),
                             SMParams(1.0, 1.0))
    d = json.loads(emit_report(report, "json"))
    assert list(d.keys()) == ["integral", "beta", "bound", "kirmaci", "case",
                              "holds", "margin", "residual"]
    assert d["case"] == "increasing"
    assert (d["integral"], d["beta"], d["margin"]) == \
        (report.integral.value, report.hadamard.beta, report.margin)
