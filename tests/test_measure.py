"""Intervals, distortion measures, and the reference fuzzy measure axiom checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import IntervalUnion, union_measure, verify_fuzzy_measure_axioms
from sugeno_bounds.exceptions import DomainError, InvalidDistortionError
from sugeno_bounds.expr import evaluate, parse
from sugeno_bounds.measure import Interval, distortion, lebesgue


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(-1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, float("inf"))
    box = Interval(1.0, 4.0)
    assert box.length == 3.0


def test_union_validation_and_length():
    u = IntervalUnion((Interval(0.0, 1.0), Interval(2.0, 3.5)))
    assert u.total_length == 2.5
    with pytest.raises(ValueError):
        IntervalUnion((Interval(0.0, 2.0), Interval(1.0, 3.0)))  # overlap
    with pytest.raises(ValueError):
        IntervalUnion((Interval(2.0, 3.0), Interval(0.0, 1.0)))  # out of order


def test_lebesgue_measure_of():
    phi = lebesgue()
    assert phi is lebesgue()  # one shared identity expression
    assert evaluate(phi, Interval(1.0, 4.0).length) == 3.0
    assert evaluate(phi, Interval(0.3, 1.0).length) == pytest.approx(0.7, abs=1e-15)
    u = IntervalUnion((Interval(0.0, 1.0), Interval(2.0, 3.0)))
    assert union_measure(phi, u) == 2.0


def test_empty_union_measures_zero():
    empty = IntervalUnion(())
    assert empty.total_length == 0.0
    assert union_measure(lebesgue(), empty) == 0.0
    assert union_measure(distortion(parse("x^2"), Interval(0.0, 2.0)), empty) == 0.0


def test_distortion_measure_of():
    base = Interval(0.0, 1.0)
    square = parse("x^2")
    phi = distortion(square, base)
    assert phi is square  # a validated distortion is its own map
    assert evaluate(phi, Interval(0.0, 0.5).length) == 0.25
    phi2 = distortion(parse("sqrt(x)"), base)
    assert evaluate(phi2, Interval(0.0, 0.25).length) == 0.5
    # square distortion on a wider base: phi(1) = 1
    phi3 = distortion(parse("x^2"), Interval(0.0, 2.0))
    assert evaluate(phi3, Interval(0.0, 1.0).length) == 1.0


def test_distortion_rejects_nonzero_at_origin():
    with pytest.raises(InvalidDistortionError):
        distortion(parse("x-1/10"), Interval(0.0, 1.0))


def test_distortion_rejects_decreasing():
    with pytest.raises(InvalidDistortionError):
        distortion(parse("x*(1-x)"), Interval(0.0, 2.0))


def test_distortion_rejects_unevaluable():
    with pytest.raises(InvalidDistortionError):
        distortion(parse("1/(x-1/2)"), Interval(0.0, 1.0))


@pytest.mark.parametrize("phi_text", [None, "x^2", "sqrt(x)"])
def test_axioms_hold(phi_text):
    base = Interval(0.0, 2.0)
    phi = lebesgue() if phi_text is None else distortion(parse(phi_text), base)
    report = verify_fuzzy_measure_axioms(phi, base, n_samples=200, seed=7)
    assert report.all_pass, report
    assert report.empty_set_is_zero
    assert report.monotone
    assert report.continuous_from_below
    assert report.continuous_from_above
    assert report.pairs_checked >= 200


@pytest.mark.parametrize("phi_text", [None, "sqrt(x)"])
def test_axioms_hold_unit_interval(phi_text):
    base = Interval(0.0, 1.0)
    phi = lebesgue() if phi_text is None else distortion(parse(phi_text), base)
    assert verify_fuzzy_measure_axioms(phi, base, n_samples=100, seed=1).all_pass


def test_axiom_checker_is_deterministic():
    base = Interval(1.0, 4.0)
    phi = lebesgue()
    r1 = verify_fuzzy_measure_axioms(phi, base, n_samples=50, seed=3)
    r2 = verify_fuzzy_measure_axioms(phi, base, n_samples=50, seed=3)
    assert r1 == r2


def test_axiom_checker_sample_validation():
    with pytest.raises(ValueError):
        verify_fuzzy_measure_axioms(lebesgue(), Interval(0.0, 1.0), n_samples=1)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(min_value=0.0, max_value=3.0),
       w=st.floats(min_value=0.5, max_value=4.0),
       inner=st.floats(min_value=0.05, max_value=0.45))
def test_nested_intervals_monotone_under_distortion(a, w, inner):
    base = Interval(a, a + w)
    phi = distortion(parse("x^2"), base)
    small = Interval(a + inner * w, a + (1.0 - inner) * w)
    assert evaluate(phi, small.length) <= evaluate(phi, base.length) + 1e-12
