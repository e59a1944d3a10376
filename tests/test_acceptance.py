"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE Ck: PASS/FAIL (...)`` line (repeated
in the terminal summary) and then asserts it.  Reference values are computed
here from closed forms, never read back from the code under test.
"""

import contextlib
import functools
import io
import json
import math
import random
import time

import numpy as np
import pytest

from conftest import record_acceptance
from reference import (
    check_proposition_properties,
    constant,
    decreasing_beta_convex,
    distribution_profile,
    increasing_beta_convex,
    power_sum_gap,
    sugeno_integral_oracle,
    verify_fuzzy_measure_axioms,
)
from sugeno_bounds.bounds import endpoint_bound, verify_hadamard
from sugeno_bounds.cli import reproduce, run
from sugeno_bounds.convexity import EndpointData, SMParams, check_sm_convex, envelope
from sugeno_bounds.expr import parse, product
from sugeno_bounds.measure import Interval, distortion, lebesgue
from sugeno_bounds.sugeno import sugeno_integral


def _finish(cid, ok, detail, elapsed, limit):
    status = "PASS" if ok and (limit is None or elapsed <= limit) else "FAIL"
    line = f"ACCEPTANCE {cid}: {status} ({detail}; {elapsed:.2f}s)"
    record_acceptance(line)
    print(line)
    assert ok, line
    if limit is not None:
        assert elapsed <= limit, line


def criterion(cid, limit=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:
                _finish(cid, False, f"raised {type(exc).__name__}: {exc}",
                        time.perf_counter() - t0, limit)
                return
            _finish(cid, ok, detail, time.perf_counter() - t0, limit)
        return wrapper
    return deco


def _cli_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, json.loads(buf.getvalue())


@criterion("C1", limit=1.0)
def test_criterion1_quintic_case_via_cli():
    # integral of x^5/4 on [0,1] solves a + (4a)^(1/5) = 1; the endpoint
    # comparison value is 3/28, and the integral genuinely exceeds it
    code, integ = _cli_json("integrate", "--f", "x^5/4", "--interval", "0,1",
                            "--format", "json")
    import mpmath

    want = float(mpmath.findroot(lambda t: t + (4 * t) ** (mpmath.mpf(1) / 5) - 1, 0.13))
    checks = [code == 0, abs(integ["value"] - want) <= 1e-6]

    s_third = repr(1.0 / 3.0)
    code2, rep = _cli_json("verify", "--f", "x^(5/2)/2", "--g", "x^(5/2)/2",
                           "--interval", "0,1", "--s", s_third, "--m", "1",
                           "--format", "json")
    checks += [
        code2 == 0,
        abs(rep["integral"] - want) <= 1e-6,
        abs(rep["kirmaci"] - 3.0 / 28.0) <= 1e-9,
        rep["integral"] > rep["kirmaci"],
    ]
    return all(checks), (f"integral {integ['value']:.6f} vs root {want:.6f}, "
                         f"kirmaci {rep['kirmaci']:.6f}, integral exceeds it")


@criterion("C2", limit=1.0)
def test_criterion2_square_case_and_flagged_threshold():
    base = Interval(1.0, 4.0)
    integ = sugeno_integral(parse("x^2"), base)
    want_integral = (9.0 - math.sqrt(17.0)) / 2.0
    checks = [abs(integ.value - want_integral) <= 1e-6,
              abs(integ.value - 2.4384) <= 5e-4]

    # product-of-lengths equation 9(8-b)(2-b)/7 = b: root (97-65)/18 = 16/9
    e = EndpointData(1.0, 8.0, 1.0, 2.0)
    res = endpoint_bound(e, base, SMParams(1.0, 1.0))
    want_beta = (97.0 - math.sqrt(97.0 * 97.0 - 4.0 * 9.0 * 144.0)) / 18.0
    checks += [res.residual <= 1e-9, abs(res.beta - want_beta) <= 1e-6]

    rows = reproduce("3.8")
    checks.append(rows[1].verdict == "PaperInternalInconsistency")

    # sup-min of the actual envelope product (1+7t)(1+t), t=(x-1)/3:
    # 3(1-t) = (1+7t)(1+t) gives 7t^2 + 11t - 2 = 0
    env_f = envelope(1.0, 8.0, base, SMParams(1.0, 1.0))
    env_g = envelope(1.0, 2.0, base, SMParams(1.0, 1.0))
    brute = sugeno_integral_oracle(product(env_f, env_g), base,
                                   n_alpha=20001, grid=20001)
    t_star = (-11.0 + math.sqrt(177.0)) / 14.0
    want_brute = 3.0 * (1.0 - t_star)
    checks.append(abs(brute - want_brute) <= 1e-3)
    return all(checks), (f"integral {integ.value:.6f}, threshold {res.beta:.6f} "
                         f"(=16/9), published value flagged, envelope-product "
                         f"sup-min {brute:.6f} vs {want_brute:.6f}")


@criterion("C3", limit=1.0)
def test_criterion3_reciprocal_quartic_case():
    report = verify_hadamard(parse("1/x^2"), parse("1/x^2"), Interval(1.0, 2.0),
                             SMParams(1.0, 1.0))
    want_beta = (41.0 - math.sqrt(657.0)) / 32.0
    checks = [
        abs(report.integral.value - 0.3247) <= 5e-4,
        abs(report.hadamard.beta - want_beta) <= 1e-6,
        report.holds,
        report.margin > 0.0,
    ]
    return all(checks), (f"integral {report.integral.value:.6f} <= threshold "
                         f"{report.hadamard.beta:.6f}, margin {report.margin:.4f}")


def _random_integrand(rng, a, b):
    family = rng.randrange(4)
    c0 = rng.uniform(0.0, 2.0)
    if family == 0:
        c1, p = rng.uniform(0.1, 3.0), rng.uniform(0.3, 4.0)
        return f"({c0!r})+({c1!r})*x^({p!r})"
    if family == 1:
        c1, d, p = rng.uniform(0.5, 4.0), rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0)
        return f"({c0!r})+({c1!r})/(x+({d!r}))^({p!r})"
    if family == 2:
        h, w = rng.uniform(0.3, 3.0), rng.uniform(0.5, 20.0)
        c = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
        return f"({c0!r})+({h!r})*exp(-({w!r})*(x-({c!r}))^2)"
    c1, k = rng.uniform(0.2, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.2)
    return f"({c0!r})+({c1!r})*exp(({k!r})*x)"


@criterion("C4", limit=30.0)
def test_criterion4_fixed_point_vs_brute_force():
    rng = random.Random(20240817)
    grid = 20001
    worst = 0.0
    failures = 0
    for _ in range(200):
        a = rng.uniform(0.0, 8.0)
        b = a + rng.uniform(0.5, min(9.0, 10.0 - a))
        f = parse(_random_integrand(rng, a, b))
        base = Interval(a, b)
        v1 = sugeno_integral(f, base, grid=grid).value
        v2 = sugeno_integral_oracle(f, base, n_alpha=grid, grid=grid)
        tol = max(1e-3, 2.0 * (b - a) / grid)
        diff = abs(v1 - v2)
        worst = max(worst, diff)
        if diff > tol:
            failures += 1
    return failures == 0, f"200 random integrands, worst |fixed point - sup-min| {worst:.2e}"


@criterion("C5", limit=20.0)
def test_criterion5_integral_properties():
    rng = random.Random(911)
    bad = 0
    worst_const = 0.0
    for _ in range(100):
        a = rng.uniform(0.0, 4.0)
        b = a + rng.uniform(0.5, 4.0)
        base = Interval(a, b)
        f_text = _random_integrand(rng, a, b)
        addon_kind = rng.randrange(3)
        if addon_kind == 0:
            addon = f"({rng.uniform(0.0, 2.0)!r})"
        elif addon_kind == 1:
            addon = f"({rng.uniform(0.1, 1.5)!r})*x^({rng.uniform(0.5, 2.0)!r})"
        else:
            c = rng.uniform(a, b)
            addon = f"({rng.uniform(0.1, 1.0)!r})*exp(-({rng.uniform(1.0, 8.0)!r})*(x-({c!r}))^2)"
        f = parse(f_text)
        g = parse(f"{f_text}+{addon}")
        k = rng.uniform(0.0, 1.2 * max(1.0, b - a))
        report = check_proposition_properties(f, g, k, base, lebesgue())
        if not report.all_pass:
            bad += 1
            continue
        # threshold certificate for every computed integral
        for fn, v in ((f, report.integral_f), (g, report.integral_g),
                      (constant(k), report.integral_k)):
            eps = 1e-9
            if v > eps:
                ((_, measure),) = distribution_profile(fn, base, alphas=(v - eps,), grid=10001)
                if not measure >= v - eps:
                    bad += 1
    for _ in range(20):
        a = rng.uniform(0.0, 4.0)
        b = a + rng.uniform(0.5, 4.0)
        c = rng.uniform(0.0, 1.5 * (b - a))
        v = sugeno_integral(constant(c), Interval(a, b)).value
        worst_const = max(worst_const, abs(v - min(c, b - a)))
    ok = bad == 0 and worst_const <= 1e-9
    return ok, (f"100 property reports clean, certificates hold, "
                f"20 constants worst error {worst_const:.2e}")


@criterion("C6", limit=1.0)
def test_criterion6_power_sum_gap_grid():
    worst = math.inf
    for s in np.arange(1, 101) / 100.0:
        for x in np.linspace(0.0, 1.0, 1001):
            worst = min(worst, power_sum_gap(float(x), float(s)))
    return worst >= -1e-12, f"min gap over 1001x100 grid {worst:.2e}"


@criterion("C7", limit=10.0)
def test_criterion7_convex_specialization_agreement():
    rng = random.Random(4242)
    box_of = lambda: (lambda a, w: Interval(a, a + w))(rng.uniform(0.0, 5.0),
                                                       rng.uniform(0.5, 5.0))
    p = SMParams(1.0, 1.0)
    worst = 0.0
    for _ in range(50):
        box = box_of()
        fa, ga = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        e = EndpointData(fa, fa + rng.uniform(0.1, 6.0), ga, ga + rng.uniform(0.1, 6.0))
        d = abs(endpoint_bound(e, box, p).beta
                - increasing_beta_convex(e, box).beta)
        worst = max(worst, d)
    for _ in range(50):
        box = box_of()
        fb, gb = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        e = EndpointData(fb + rng.uniform(0.1, 6.0), fb, gb + rng.uniform(0.1, 6.0), gb)
        d = abs(endpoint_bound(e, box, p).beta
                - decreasing_beta_convex(e, box).beta)
        worst = max(worst, d)
    exact = 0
    for _ in range(20):
        box = box_of()
        v, u = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        e = EndpointData(v, v, u, u)
        beta = endpoint_bound(e, box, p).beta
        if beta == (1.0 * 1.0) * 2.0 ** (2.0 - 2.0 * 1.0) * (v * u):
            exact += 1
    return worst <= 1e-12 and exact == 20, (
        f"50+50 thresholds, max |general - specialized| {worst:.1e}; "
        f"20/20 flat cases bit-exact")


@criterion("C8", limit=5.0)
def test_criterion8_measure_axioms():
    base = Interval(0.0, 2.0)
    phis = [lebesgue(),
            distortion(parse("x^2"), base),
            distortion(parse("sqrt(x)"), base)]
    results = [verify_fuzzy_measure_axioms(phi, base, n_samples=1000, seed=11)
               for phi in phis]
    ok = all(r.all_pass for r in results)
    return ok, ("lebesgue, x^2 and sqrt distortions all satisfy the axioms "
                f"({results[0].pairs_checked} pairs each)")


@criterion("C9", limit=10.0)
def test_criterion9_convexity_checker():
    third = SMParams(1.0 / 3.0, 1.0)
    plain = SMParams(1.0, 1.0)
    holds = [
        check_sm_convex(parse("x^2/2"), Interval(0.0, 1.0), third).holds_on_grid,
        check_sm_convex(parse("x^3/2"), Interval(0.0, 1.0), third).holds_on_grid,
        check_sm_convex(parse("x^(3/2)"), Interval(1.0, 4.0), plain).holds_on_grid,
        check_sm_convex(parse("1/x^2"), Interval(1.0, 2.0), plain).holds_on_grid,
    ]
    tent = check_sm_convex(parse("1/2-abs(x-1/2)"), Interval(0.0, 1.0), plain)
    tent_ok = (not tent.holds_on_grid) and abs(tent.witness[3] - 0.5) <= 1e-6

    # sqrt is concave, so the correct outcome is a refutation with a witness
    # at least as large as the midpoint violation sqrt(2.5) - 1.5
    root = check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), plain)
    root_gap = math.sqrt(2.5) - 1.5
    root_ok = (not root.holds_on_grid) and root.witness[3] >= root_gap - 1e-9

    ok = all(holds) and tent_ok and root_ok
    return ok, (f"4 memberships hold, tent refuted with gap {tent.witness[3]:.3f}, "
                f"square root refuted with gap {root.witness[3]:.4f}")


@pytest.mark.xfail(strict=True,
                   reason="the square root is concave on [1,4]; this membership "
                          "claim is false and the checker correctly refutes it")
def test_square_root_membership_as_claimed():
    verdict = check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert verdict.holds_on_grid
