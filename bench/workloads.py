"""The three benchmark workloads as pools of operations.

Each workload is a closed loop with one caller: the runner calls one
operation, waits for it, and calls the next, passing through the whole
pool again and again, each pass in a fresh seeded order.  Every pool has a fixed composition (how many integrals,
verifies, bounds, lattices of each size, ...) so that seeds vary the inputs
but not the mix, and the median falls inside one class of operation.

Operations call the library only through attributes of the package module
(``sb.sugeno_integral`` and so on), looked up at call time, so the tracer's
wrappers see them.  Only the stable public surface is used: ``parse``,
``Interval``, ``SMParams``, ``distortion``, ``sugeno_integral``,
``hadamard_bound``, ``verify_hadamard`` and ``check_sm_convex``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import check
import gen

WORKLOADS = ("integrate_monotone", "integrate_bumpy", "convexity_lattice")

DEFAULT_GRID = 100001
COARSE_GRID = 10001


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    warm: bool = False  # run once during set-up


@dataclass
class Pool:
    ops: list[Op]
    rng: random.Random  # orders the passes; seeded with the inputs

    def next_order(self) -> list[int]:
        """The order of the next pass: fresh each time, so no operation always
        runs after the same one (what the previous operation freed changes
        what the next one pays for memory)."""
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        return order


def _mark_warm(ops: list[Op]) -> None:
    """Warm up the first operation of every kind, so lazy set-up is done before timing."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.warm = True


# ---------------------------------------------------------------------------
# integrate_monotone


def _integral_op(sb, kind, fn, a, b, grid=DEFAULT_GRID, phi=None, want=None):
    f = sb.parse(fn.text)
    base = sb.Interval(a, b)
    if phi is None:
        call = lambda: sb.sugeno_integral(f, base, grid=grid)
        phi_np, label = None, f"integral {fn.text} on [{a!r},{b!r}] grid {grid}"
    else:
        phi_expr = sb.parse(phi[0])
        call = lambda: sb.sugeno_integral(f, base, sb.distortion(phi_expr, base), grid=grid)
        phi_np, label = phi[1], f"integral {fn.text} on [{a!r},{b!r}] phi {phi[0]} grid {grid}"
    if want is None:
        ok = lambda res: check.integral_ok(res, fn, a, b, phi_np)
    else:
        ok = lambda res: check.close(res.value, want) and check.integral_ok(res, fn, a, b, phi_np)
    return Op(kind, label, call, ok)


def _pair_exprs(sb, pair):
    return sb.parse(pair.f.text), sb.parse(pair.g.text), sb.Interval(pair.a, pair.b), \
        sb.SMParams(pair.s, pair.m)


def _bound_op(sb, pair, want=None):
    f, g, base, p = _pair_exprs(sb, pair)
    label = f"bound {pair.f.text} * {pair.g.text} on [{pair.a!r},{pair.b!r}] s={pair.s!r} m={pair.m!r}"
    if want is None:
        ok = lambda res: check.beta_ok(res, pair)
    else:
        ok = lambda res: check.close(res.beta, want) and check.beta_ok(res, pair)
    return Op("bound", label, lambda: sb.hadamard_bound(f, g, base, p), ok)


def _verify_op(sb, pair, want_integral=None, want_kirmaci=None):
    f, g, base, p = _pair_exprs(sb, pair)
    label = f"verify {pair.f.text} * {pair.g.text} on [{pair.a!r},{pair.b!r}] s={pair.s!r} m={pair.m!r}"

    def ok(rep):
        worked = want_integral is None or (
            check.close(rep.integral.value, want_integral) and check.close(rep.kirmaci, want_kirmaci))
        return worked and check.verify_ok(rep, pair)

    return Op("verify", label, lambda: sb.verify_hadamard(f, g, base, p), ok)


def _worked_pair(f_text, f_np, g_text, g_np, a, b, s, m, increasing):
    product = gen.Fn(f"({f_text})*({g_text})", lambda x: f_np(x) * g_np(x))
    return gen.Pair(gen.Fn(f_text, f_np), gen.Fn(g_text, g_np), product, a, b, s, m, increasing)


def _unsaturated(rng, draw, phi):
    """Draw an interval and an integrand until the integral is an interior crossing."""
    phi_np = (lambda t: t) if phi is None else phi[1]
    while True:
        a, b = gen.random_interval(rng)
        fn = draw(a, b)
        if gen.dips_below(fn, a, b, float(phi_np(b - a))):
            return fn, a, b


def integrate_monotone(sb, rng: random.Random) -> Pool:
    """120 integrals (30 under a distortion), 40 verifies, 40 bounds; worked cases included."""
    W = gen.WORKED
    ops = [
        _integral_op(sb, "integral", gen.Fn("x^5/4", lambda x: x**5 / 4), 0.0, 1.0,
                     want=W["x^5/4 on [0,1]"]),
        _integral_op(sb, "integral", gen.Fn("x^2", lambda x: x**2), 1.0, 4.0,
                     want=W["x^2 on [1,4]"]),
        _integral_op(sb, "integral", gen.Fn("1/x^4", lambda x: 1 / x**4), 1.0, 2.0,
                     want=W["1/x^4 on [1,2]"]),
    ]
    for i in range(117):
        phi = gen.DISTORTIONS[i % 3] if i < 30 else None
        fn, a, b = _unsaturated(rng, lambda a, b: gen.monotone_fn(rng, i), phi)
        ops.append(_integral_op(sb, "integral_distortion" if phi else "integral", fn, a, b,
                                phi=phi))

    quintic_half = _worked_pair("x^(5/2)/2", lambda x: x**2.5 / 2, "x^(5/2)/2",
                                lambda x: x**2.5 / 2, 0.0, 1.0, 1.0 / 3.0, 1.0, True)
    ops.append(_verify_op(sb, quintic_half, W["x^5/4 on [0,1]"], W["kirmaci x^(5/2)/2 pair at s=1/3"]))
    for i in range(39):
        ops.append(_verify_op(sb, gen.same_direction_pair(rng, i % 2 == 0, i // 2)))

    ops.append(_bound_op(sb, _worked_pair("x^(3/2)", lambda x: x**1.5, "x^(1/2)", lambda x: x**0.5,
                                          1.0, 4.0, 1.0, 1.0, True),
                         W["beta x^(3/2),x^(1/2) on [1,4]"]))
    ops.append(_bound_op(sb, _worked_pair("1/x^2", lambda x: 1 / x**2, "1/x^2", lambda x: 1 / x**2,
                                          1.0, 2.0, 1.0, 1.0, False),
                         W["beta 1/x^2,1/x^2 on [1,2]"]))
    for i in range(38):
        ops.append(_bound_op(sb, gen.same_direction_pair(rng, i % 2 == 0, i // 2)))
    _mark_warm(ops)
    return Pool(ops, rng)


# ---------------------------------------------------------------------------
# integrate_bumpy


def integrate_bumpy(sb, rng: random.Random) -> Pool:
    """200 non-monotone integrals: 150 at the default grid, 50 at 10001; 50 under a distortion."""
    ops = [
        _integral_op(sb, "integral", gen.Fn("abs(x-0.5)", lambda x: abs(x - 0.5)), 0.0, 1.0),
        _integral_op(sb, "integral", gen.Fn("4*x*(1-x)", lambda x: 4 * x * (1 - x)), 0.0, 1.0),
    ]
    for i in range(198):
        grid = COARSE_GRID if i < 50 else DEFAULT_GRID
        phi = gen.DISTORTIONS[i % 3] if i % 4 == 1 else None
        kind = ("integral_distortion" if phi else "integral") + ("_coarse" if grid == COARSE_GRID else "")
        fn, a, b = _unsaturated(rng, lambda a, b: gen.bumpy_fn(rng, a, b, i), phi)
        ops.append(_integral_op(sb, kind, fn, a, b, grid, phi))
    _mark_warm(ops)
    return Pool(ops, rng)


# ---------------------------------------------------------------------------
# convexity_lattice

_SQRT_GAP = math.sqrt(2.5) - 1.5  # midpoint violation of sqrt on [1, 4]

C9 = (
    # (text, numpy twin, a, b, s, m, known verdict)
    ("x^2/2", lambda x: x**2 / 2, 0.0, 1.0, 1.0 / 3.0, 1.0, True),
    ("x^3/2", lambda x: x**3 / 2, 0.0, 1.0, 1.0 / 3.0, 1.0, True),
    ("x^(3/2)", lambda x: x**1.5, 1.0, 4.0, 1.0, 1.0, True),
    ("1/x^2", lambda x: 1 / x**2, 1.0, 2.0, 1.0, 1.0, True),
    ("1/2-abs(x-1/2)", lambda x: 0.5 - abs(x - 0.5), 0.0, 1.0, 1.0, 1.0,
     lambda gap: abs(gap - 0.5) <= 1e-6),
    ("x^(1/2)", lambda x: x**0.5, 1.0, 4.0, 1.0, 1.0, lambda gap: gap >= _SQRT_GAP - 1e-9),
)

LATTICES = ((41, 14), (101, 14), (161, 12))  # (points per axis, operations)


def _convexity_op(sb, fn, a, b, s, m, grid, known=None):
    f, base, p = sb.parse(fn.text), sb.Interval(a, b), sb.SMParams(s, m)
    label = f"convexity {fn.text} on [{a!r},{b!r}] s={s!r} m={m!r} lattice {grid}"
    return Op(f"lattice{grid}", label, lambda: sb.check_sm_convex(f, base, p, grid),
              lambda v: check.convexity_ok(v, fn, a, b, s, m, grid, known))


def convexity_lattice(sb, rng: random.Random) -> Pool:
    """40 lattices: 14 at 41, 14 at 101, 12 at 161; the C9 set at 41 and 101."""
    ops = []
    for grid, count in LATTICES:
        members = C9 if grid < 161 else ()
        for text, np_fn, a, b, s, m, known in members:
            ops.append(_convexity_op(sb, gen.Fn(text, np_fn), a, b, s, m, grid, known))
        for i in range(count - len(members)):
            ops.append(_convexity_op(sb, *gen.convexity_case(rng, i), grid))
    _mark_warm(ops)
    return Pool(ops, rng)


def build(name: str, sb, seed: int) -> Pool:
    rng = random.Random(f"{name}:{seed}")
    return {"integrate_monotone": integrate_monotone, "integrate_bumpy": integrate_bumpy,
            "convexity_lattice": convexity_lattice}[name](sb, rng)
