"""The smooth generating curve and its cover.

The curve through the origin has speed g(t) = b0 + b1 cos t + b2 cos 2t and
tangent direction (cos t, -sin t) for t in [-a, a].  Three conditions pin
the coefficients for a given half-angle a: unit arc length, tangency of the
curve to the unit segments at its endpoints, and zero curvature radius at
the endpoints.  The cover area has a closed form assembled from the
integral of the unwrapped string length squared, the apex triangle, and
the cap between curve and chord; every formula here runs unchanged on
floats or Decimals via the precision backends.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import NamedTuple

from . import numerics
from .highprec import (NATIVE, DecimalBackend, Dual, DualBackend,
                       truncate_digits)
from .involute import GeneratingChain

SMOOTH_BRACKET = (0.8, 1.4)
SLOPE_GUARD = 10       # digits beyond the requested ones for the secant on A'(a)
MAX_SLOPE_STEPS = 40   # secant steps from the float optimum
FIRST_STEP = Decimal("1e-10")  # about the float optimum's error, ~4e-11


class SingularParameterError(ValueError):
    pass


class SpeedPositivityError(ValueError):
    pass


class SmoothCoefficients:
    """Half-angle a, speed coefficients (b0, b1, b2), b = h(a), and trig,
    the backend's multiples(a, 6) that solving took."""

    __slots__ = ("a", "b0", "b1", "b2", "b", "trig")

    def __init__(self, a, b0, b1, b2, b, trig):
        self.a = a
        self.b0 = b0
        self.b1 = b1
        self.b2 = b2
        self.b = b
        self.trig = trig


def solve_coefficients(a, backend=NATIVE) -> SmoothCoefficients:
    """Coefficients enforcing unit length, endpoint tangency, zero curvature.

    Evaluates the closed forms in dependency order (b2, then b1, then b0)
    and b = h(a).  The constraints hold for any a in (0, pi/2), but the
    result describes an actual curve only where the speed g stays positive
    strictly inside [-a, a] (a window around the optimal a); call
    check_speed_positivity to enforce that.  The result keeps
    backend.multiples(a, 6), which smooth_area_parts reads.
    """
    with backend.context():
        a = backend.num(a)
        S, C = trig = backend.multiples(a, 6)
        s, c, s2, c2 = S[1], C[1], S[2], C[2]
        den = (12 * a * a * c2 - 2 * a * s2 * (7 - c2)
               + (1 - c2) * (11 - 5 * c2))
        if abs(float(den)) < 1e-14:
            raise SingularParameterError(
                f"coefficient denominator vanishes near a={a}")
        b2 = (15 * s2 - 6 * a * (2 * c2 + 3)) / den
        b1 = (1 - b2 * (s2 - 2 * a * c2)) / (2 * (s - a * c))
        b0 = -b1 * c - b2 * c2
        b = b0 * a + b1 * s + b2 * s2 / 2
        return SmoothCoefficients(a=a, b0=b0, b1=b1, b2=b2, b=b, trig=trig)


def check_speed_positivity(co: SmoothCoefficients):
    """Raise unless g > 0 strictly inside (-a, a).

    In c = cos t, g = 2 b2 c^2 + b1 c + (b0 - b2), and the constraints put
    one root at c = cos a.  So g > 0 on (-a, a) exactly when g(0) > 0 and
    the other root, (b0 - b2) / (2 b2 cos a), is not in (cos a, 1).  The
    test is written so that a NaN coefficient fails it.
    """
    a = float(co.a)
    b0, b1, b2 = float(co.b0), float(co.b1), float(co.b2)
    if not b0 + b1 + b2 > 0:
        raise SpeedPositivityError(f"curve speed not positive at t=0 for a={a!r}")
    if b2 != 0:
        root = (b0 - b2) / (2 * b2 * math.cos(a))
        if math.cos(a) < root < 1:
            raise SpeedPositivityError(
                f"curve speed vanishes at t={math.acos(root)!r} for a={a!r}")


def _domain_check(co: SmoothCoefficients, t):
    # written so that a NaN t or a fails
    if not abs(float(t)) <= float(co.a) * (1 + 1e-12) + 1e-15:
        raise ValueError(f"parameter t={t!r} outside [-a, a], a={co.a!r}")


def curve_speed(co: SmoothCoefficients, t, backend=NATIVE):
    """|c0'(t)| = g(t)."""
    with backend.context():
        t = backend.num(t)
        _, C = backend.multiples(t, 2)
        return co.b0 + co.b1 * C[1] + co.b2 * C[2]


def _curve_xy(co: SmoothCoefficients, t, S, C):
    b0, b1, b2 = co.b0, co.b1, co.b2
    x = (6 * b1 * t + 6 * (2 * b0 + b2) * S[1] + 3 * b1 * S[2]
         + 2 * b2 * S[3]) / 12
    y = (6 * (2 * b0 - b2) * C[1] + 3 * b1 * C[2]
         + 2 * b2 * C[3] - 12 * b0 - 3 * b1 + 4 * b2) / 12
    return (x, y)


def _h(co: SmoothCoefficients, t, S):
    return co.b0 * t + co.b1 * S[1] + co.b2 * S[2] / 2


def curve_point(co: SmoothCoefficients, t, backend=NATIVE):
    """Point on the generating curve; the curve passes through the origin."""
    _domain_check(co, t)
    with backend.context():
        t = backend.num(t)
        return _curve_xy(co, t, *backend.multiples(t, 3))


def unwrapped_length(co: SmoothCoefficients, t, backend=NATIVE):
    """String length unwrapped from the left end up to parameter t: h(t) + b,
    with h(t) = b0 t + b1 sin t + (b2/2) sin 2t the speed's antiderivative."""
    with backend.context():
        t = backend.num(t)
        return _h(co, t, backend.multiples(t, 2)[0]) + co.b


def involute_points(co: SmoothCoefficients, t, backend=NATIVE):
    """(left involute point, right involute point) at parameter t.

    The two points differ by exactly the unit vector (cos t, -sin t): the
    two string pieces they mark always add up to the full unit string.
    """
    _domain_check(co, t)
    with backend.context():
        t = backend.num(t)
        S, C = backend.multiples(t, 3)
        x0, y0 = _curve_xy(co, t, S, C)
        ell = _h(co, t, S) + co.b
        ct, st = C[1], S[1]
        c1 = (x0 - ell * ct, y0 + ell * st)
        c2 = (c1[0] + ct, c1[1] - st)
        return c1, c2


def _ell_squared_odd_96(co: SmoothCoefficients, t, S, C):
    """96 times the odd part in t of ell_squared_antiderivative."""
    b0, b1, b2, b = co.b0, co.b1, co.b2, co.b
    return (32 * b0 ** 2 * t ** 3
            + 12 * (4 * b1 ** 2 + b2 ** 2 + 8 * b ** 2) * t
            + 48 * b1 * (4 * b0 + b2) * S[1]
            + 24 * (b0 * b2 - b1 ** 2) * S[2]
            - 16 * b1 * b2 * S[3]
            - 3 * b2 ** 2 * S[4]
            - 48 * b0 * t * (4 * b1 * C[1] + b2 * C[2]))


def ell_squared_antiderivative(co: SmoothCoefficients, t, backend=NATIVE):
    """Indefinite integral of the squared unwrapped length."""
    with backend.context():
        t = backend.num(t)
        S, C = backend.multiples(t, 4)
        b0, b1, b2, b = co.b0, co.b1, co.b2, co.b
        return (_ell_squared_odd_96(co, t, S, C) + 96 * b0 * b * t ** 2
                - 48 * b * (4 * b1 * C[1] + b2 * C[2])) / 96


def _cap_288(co: SmoothCoefficients, t, S, C):
    """288 times the antiderivative of -2 x0(t) y0'(t), exactly 0 at t = 0;
    S, C = backend.multiples(t, 6)."""
    b0, b1, b2 = co.b0, co.b1, co.b2
    return (12 * (24 * b0 ** 2 - 4 * b2 ** 2 + 3 * b1 ** 2) * t
            + 24 * b1 * (21 * b0 - 2 * b2) * S[1]
            - 12 * (12 * b0 ** 2 - 8 * b0 * b2 - 5 * b2 ** 2
                    - 3 * b1 ** 2) * S[2]
            - 4 * b1 * (18 * b0 - b2) * S[3]
            - 3 * (16 * b0 * b2 + 4 * b2 ** 2 + 3 * b1 ** 2) * S[4]
            - 12 * b1 * b2 * S[5]
            - 4 * b2 ** 2 * S[6]
            - 24 * b1 * t * (6 * (2 * b0 - b2) * C[1]
                             + 3 * b1 * C[2] + 2 * b2 * C[3]))


def smooth_area_parts(co: SmoothCoefficients, backend=NATIVE):
    """(integral of ell^2, apex triangle area, cap area) in closed form,
    from co.trig."""
    with backend.context():
        a = co.a
        S, C = co.trig
        # F(a) - F(-a) for F = ell_squared_antiderivative: its odd part, twice
        int_l2 = _ell_squared_odd_96(co, a, S, C) / 48
        a_uvw = C[1] * S[1]
        a_uv = _cap_288(co, a, S, C) / 288
        return int_l2, a_uvw, a_uv


def smooth_area(co: SmoothCoefficients, backend=NATIVE):
    int_l2, a_uvw, a_uv = smooth_area_parts(co, backend)
    with backend.context():
        return int_l2 - a_uvw + a_uv


def optimize_smooth(tol=1e-12):
    """(a, coefficients, area) on floats at the half-angle a that minimizes
    the area, from numerics.minimize_1d on SMOOTH_BRACKET.

    Raises numerics.ConvergenceError when the minimizer stops short of tol,
    or when the argmin sits within tol of an end of the bracket, where the
    true minimum may lie outside.
    """
    def area(a):  # one NATIVE.multiples call per evaluation
        return smooth_area(solve_coefficients(a))

    lo, hi = SMOOTH_BRACKET
    res = numerics.minimize_1d(area, lo, hi, tol=tol)
    if not res.converged:
        raise numerics.ConvergenceError(
            f"smooth-cut minimizer did not reach tol={tol} on [{lo}, {hi}] "
            f"in {res.iterations} iterations")
    a = res.argmin
    if a - lo <= tol or hi - a <= tol:
        raise numerics.ConvergenceError(
            f"smooth-cut argmin {a} sits at an end of [{lo}, {hi}]")
    co = solve_coefficients(a)
    check_speed_positivity(co)
    return a, co, smooth_area(co)


def _area_slope(a, backend):
    """A'(a), from the area's closed forms at Dual(a, 1)."""
    dual = DualBackend(backend)
    return smooth_area(solve_coefficients(Dual(a, 1), dual), dual).deriv


def decimal_optimum(digits: int):
    """(a, coefficients, area) at the area-minimizing half-angle, as
    Decimals to be truncated to `digits` significant digits.

    A secant on A'(a) = 0 from optimize_smooth's a, at digits + SLOPE_GUARD
    digits, whose slopes the dual backend gives from the same closed forms:
    a root is well conditioned, where a minimum of the flat area would need
    ~2 digits in the objective per digit of the argmin.  The secant stops
    once a step is at most 10^-(digits + 6); it converges superlinearly, so
    the error of its a is then far smaller.  The coefficients and the area
    at that a are evaluated at 2 digits + 12 digits.  Raises whatever
    optimize_smooth raises, and numerics.ConvergenceError when the secant
    hits MAX_SLOPE_STEPS.
    """
    if digits < 4:
        raise ValueError("need at least 4 significant digits")
    tol, work = Decimal(10) ** (-digits - 6), DecimalBackend(digits + SLOPE_GUARD)
    with work.context():
        x, x_prev, f_prev = work.num(optimize_smooth()[0]), None, None
        for _ in range(MAX_SLOPE_STEPS):
            f = _area_slope(x, work)
            if f_prev is None:
                step = FIRST_STEP if f < 0 else -FIRST_STEP
            else:
                step = -f * (x - x_prev) / (f - f_prev)
            if abs(step) <= tol:
                break
            x_prev, f_prev, x = x, f, x + step
        else:
            raise numerics.ConvergenceError(
                f"smooth-cut secant on A' did not reach tol={tol} from the "
                f"argmin on {list(SMOOTH_BRACKET)} in {MAX_SLOPE_STEPS} steps")
        a = x + step  # in work's context, not the default 28 digits
    backend = DecimalBackend(2 * digits + 12)
    co = solve_coefficients(a, backend)
    check_speed_positivity(co)
    return a, co, smooth_area(co, backend)


def discretize_smooth(co: SmoothCoefficients, n: int) -> GeneratingChain:
    """Chain through n+1 curve points at equal unwrapped-length spacing.

    Chord lengths are rescaled so the chain has total length exactly 1;
    coordinates are mirror-averaged so the chain is symmetric to the last
    bit, which the involute construction requires.
    """
    if n < 2:
        raise ValueError("need at least 2 edges")
    check_speed_positivity(co)
    a = float(co.a)
    b0, b1, b2, b = float(co.b0), float(co.b1), float(co.b2), float(co.b)

    def ell(t):
        return b0 * t + b1 * math.sin(t) + b2 * math.sin(2 * t) / 2 + b

    co_f = SmoothCoefficients(a=a, b0=b0, b1=b1, b2=b2, b=b,
                              trig=tuple(list(map(float, m)) for m in co.trig))
    ts = []
    for k in range(n + 1):
        target = k / n
        lo, hi = -a, a
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if ell(mid) < target:
                lo = mid
            else:
                hi = mid
        ts.append(0.5 * (lo + hi))
    pts = [curve_point(co_f, t) for t in ts]
    sym = []
    for k in range(n + 1):
        x1, y1 = pts[k]
        x2, y2 = pts[n - k]
        sym.append(((x1 - x2) / 2, (y1 + y2) / 2))
    total = numerics.ordered_sum(math.dist(p, q) for p, q in zip(sym, sym[1:]))
    return GeneratingChain(tuple((x / total, y / total) for (x, y) in sym))


class AppendixReport(NamedTuple):
    """High-precision pipeline output, truncated like calculator output."""

    digits: int
    a: str
    b0: str
    b1: str
    b2: str
    area: str

    def as_text(self) -> str:
        return (f"digits = {self.digits}\n"
                f"a  = {self.a}\n"
                f"b0 = {self.b0}\n"
                f"b1 = {self.b1}\n"
                f"b2 = {self.b2}\n"
                f"A  = {self.area}\n")


def reproduce_appendix(digits: int = 30) -> AppendixReport:
    """Re-run the whole pipeline at the requested decimal precision.

    decimal_optimum's values, which carry guard digits beyond the request,
    are truncated (not rounded) to `digits` significant digits, so the
    output lines up digit for digit with truncating-calculator output.
    """
    if digits < 20:
        raise ValueError("need at least 20 digits for a faithful reproduction")
    a, co, area = decimal_optimum(digits)
    return AppendixReport(
        digits=digits,
        a=truncate_digits(a, digits),
        b0=truncate_digits(co.b0, digits),
        b1=truncate_digits(co.b1, digits),
        b2=truncate_digits(co.b2, digits),
        area=truncate_digits(area, digits),
    )
