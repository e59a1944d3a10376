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
from sugeno_bounds.bounds import endpoint_bound, hadamard_bound, verify_hadamard
from sugeno_bounds.cli import reproduce, run
from sugeno_bounds.convexity import (EndpointData, SMParams, check_sm_convex, endpoint_data,
                                     envelope)
from sugeno_bounds.exceptions import UnsupportedCaseError
from sugeno_bounds.expr import evaluate_array, parse, product
from sugeno_bounds.measure import Interval, distortion, lebesgue
from sugeno_bounds.sugeno import sugeno_integral
from test_sugeno import _components, _load_bench_gen


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
    bad_reports = bad_certificates = 0
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
            bad_reports += 1
            continue
        # threshold certificate for every computed integral
        for fn, v in ((f, report.integral_f), (g, report.integral_g),
                      (constant(k), report.integral_k)):
            eps = 1e-9
            if v > eps:
                ((_, measure),) = distribution_profile(fn, base, alphas=(v - eps,), grid=10001)
                if not measure >= v - eps:
                    bad_certificates += 1
    for _ in range(20):
        a = rng.uniform(0.0, 4.0)
        b = a + rng.uniform(0.5, 4.0)
        c = rng.uniform(0.0, 1.5 * (b - a))
        v = sugeno_integral(constant(c), Interval(a, b)).value
        worst_const = max(worst_const, abs(v - min(c, b - a)))
    ok = bad_reports == bad_certificates == 0 and worst_const <= 1e-9
    return ok, (f"{bad_reports} of 100 property reports failed, {bad_certificates} threshold "
                f"certificates failed, 20 constants worst error {worst_const:.2e}")


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
    members = [
        check_sm_convex(parse("x^2/2"), Interval(0.0, 1.0), third),
        check_sm_convex(parse("x^3/2"), Interval(0.0, 1.0), third),
        check_sm_convex(parse("x^(3/2)"), Interval(1.0, 4.0), plain),
        check_sm_convex(parse("1/x^2"), Interval(1.0, 2.0), plain),
    ]
    holds = [v.holds_on_grid for v in members]
    proven = sum(v.proven for v in members)
    tent = check_sm_convex(parse("1/2-abs(x-1/2)"), Interval(0.0, 1.0), plain)
    tent_ok = (not tent.holds_on_grid) and abs(tent.witness[3] - 0.5) <= 1e-6

    # sqrt is concave, so the correct outcome is a refutation with a witness
    # at least as large as the midpoint violation sqrt(2.5) - 1.5
    root = check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), plain)
    root_gap = math.sqrt(2.5) - 1.5
    root_ok = (not root.holds_on_grid) and root.witness[3] >= root_gap - 1e-9

    ok = all(holds) and tent_ok and root_ok
    return ok, (f"4 memberships hold ({proven} proven from the tree), "
                f"tent refuted with gap {tent.witness[3]:.3f}, "
                f"square root refuted with gap {root.witness[3]:.4f}")


def _exponent(fn):
    """p of a bench/gen.py draw that ends in ``*x^(p)``, read from its text."""
    return float(fn.text.rsplit("^(", 1)[1].rstrip(")"))


def _c10_pairs(gen, rng, n):
    """n pairs (f, g, f*g, base, p), each factor in K2(s, m) by construction and redrawn until
    f*g dips below mu(X), five kinds in turn: at m = 1, where a non-negative convex
    function is in K2(s, 1) for every s in (0, 1] since lambda <= lambda^s, a rising
    pair, a falling pair, a mixed pair and a pair of tents; and at m < 1 a pair of c*x^p
    with p >= 1, which is convex with f(m*x) <= m*f(x)."""

    def rising():
        if rng.random() < 0.5:
            return gen.exponential_fn(rng, 1.0)
        while _exponent(fn := gen.power_fn(rng)) < 1.0:
            pass
        return fn

    def falling():
        return gen.reciprocal_fn(rng) if rng.random() < 0.5 else gen.exponential_fn(rng, -1.0)

    def power():
        while _exponent(fn := gen.convexity_case(rng, 0)[0]) < 1.0:  # c*x^p
            pass
        return fn

    for i in range(n):
        while True:
            if i % 5 == 4:
                _, a, b, s, m = gen.convexity_case(rng, 0)
                f, g = power(), power()
            else:
                (a, b), s, m = gen.random_interval(rng), rng.uniform(0.25, 1.0), 1.0
                tent = functools.partial(gen.tent_fn, rng, a, b)
                first, second = [(rising, rising), (falling, falling), (rising, falling),
                                 (tent, tent)][i % 5]
                f, g = first(), second()
            fg = gen.Fn(f"({f.text})*({g.text})", lambda x, f=f, g=g: f.np_fn(x) * g.np_fn(x))
            if gen.dips_below(fg, a, b, b - a):
                yield f, g, fg, Interval(a, b), SMParams(s, m)
                break


@criterion("C10", limit=60.0)
def test_criterion10_endpoint_bound_audit():
    # The paper's bound against S(f*g) (counted, not asserted), and the valid
    # bound that replaces it: (s,m)-convexity and t^s + (1-t)^s <= 2^(1-s)
    # give f <= envelope(f(a), f(b)) on [a, b] (Hudzik & Maligranda 1994), and
    # S is monotone in its integrand (Ralescu & Adams 1980), so
    # S(f*g) <= S(env_f*env_g).  A counted S may be off by the (components + 2)
    # grid steps that bench/check.py's integral_ok allows; in u = t^s the
    # envelope product is a quadratic, so its level sets have at most 2 intervals.
    gen, rng = _load_bench_gen(), random.Random(2018)
    n, paper, unsupported, dominance, valid, counted = 500, 0, 0, 0, 0, 0
    for f_fn, g_fn, fg_fn, base, p in _c10_pairs(gen, rng, n):
        f, g = parse(f_fn.text), parse(g_fn.text)
        fg = sugeno_integral(product(f, g), base)
        try:
            paper += hadamard_bound(f, g, base, p).bound < fg.value
        except UnsupportedCaseError:
            unsupported += 1
        e = endpoint_data(f, g, base)
        env_f, env_g = envelope(e.fa, e.fb, base, p), envelope(e.ga, e.gb, base, p)
        xs = np.linspace(base.a, base.b, 1001)
        for fn, env in ((f, env_f), (g, env_g)):
            values = evaluate_array(fn, xs)
            dominance += bool(np.any(values > evaluate_array(env, xs)
                                     + 1e-12 * np.maximum(1.0, values)))
        env = sugeno_integral(product(env_f, env_g), base)
        biases = [(components + 2) * base.length / (res.grid_points - 1)
                  for res, components in ((fg, _components(fg_fn, base.a, base.b)), (env, 2))
                  if res.grid_points is not None]
        counted += len(biases)
        valid += env.value < fg.value - max(1e-12, sum(biases))
    ok = dominance == 0 and valid == 0
    return ok, (f"{n} pairs: paper bound below the integral on {paper} of {n - unsupported} "
                f"supported, {unsupported} mixed unsupported; envelope dominance failures "
                f"{dominance}, valid-bound failures {valid} "
                f"({counted} of {2 * n} integrals counted)")


@pytest.mark.xfail(strict=True,
                   reason="the square root is concave on [1,4]; this membership "
                          "claim is false and the checker correctly refutes it")
def test_square_root_membership_as_claimed():
    verdict = check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert verdict.holds_on_grid
