"""Precision-parameterized real arithmetic.

Two interchangeable scalar backends drive every formula in this package:
the native backend works on floats (~15-16 significant digits) and the
decimal backend works on ``decimal.Decimal`` at a configurable number of
significant digits (default 40).  The decimal trig is one kernel,
`sincos_decimal`: it reduces x modulo 2*pi, sums the sine and cosine series
of x / 2^k in one loop and rebuilds sin x and cos x with k doublings (Brent
& Zimmermann, Modern Computer Arithmetic, 4.3), carrying _GUARD + k guard
digits so results are good to 1 ulp at the requested precision.

Closed forms that need sin(jt) and cos(jt) for several j ask the backend for
all of them at once with `multiples(t, k)`.  The decimal backend calls the
kernel once, on t alone, and fills j >= 2 by the multiple-angle recurrences
s_j = 2 cos(t) s_{j-1} - s_{j-2} (same for the cosines), carrying two more
guard digits for the error the recurrence accumulates; the native backend
calls the math module for each j.

`DualBackend(base)` runs the same closed forms in forward-mode automatic
differentiation: its numbers are x + x' eps with eps^2 = 0, so one
evaluation of f at Dual(t, 1) returns f(t) and f'(t) together (Griewank &
Walther, Evaluating Derivatives, 2008).  Nested, as
DualBackend(DualBackend(base)), it gives one second derivative per
evaluation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from decimal import Decimal, localcontext
from functools import lru_cache

DEFAULT_DIGITS = 40
_GUARD = 6  # extra digits carried inside the series loops, besides k


@lru_cache(maxsize=None)
def pi_decimal(digits: int) -> Decimal:
    """pi to `digits` significant digits (Newton-like series on Decimal)."""
    with localcontext() as ctx:
        ctx.prec = digits + _GUARD
        lasts, t, s = Decimal(0), Decimal(3), Decimal(3)
        n, na, d, da = 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def _reduce(x: Decimal, digits: int) -> Decimal:
    """Reduce x into (-pi, pi] for fast Taylor convergence."""
    two_pi = 2 * pi_decimal(digits + _GUARD)
    x = x % two_pi
    if x > two_pi / 2:
        x -= two_pi
    return x


def sincos_decimal(x: Decimal, digits: int) -> tuple[Decimal, Decimal]:
    """(sin x, cos x), each to `digits` significant digits.

    One loop sums both series of y = x / 2^k, k = isqrt(digits) // 2 + 2,
    each term the last times -y^2 over two small integers; k doublings
    s, c <- 2sc, 1 - 2s^2 then give sin x and cos x.  Each doubling
    multiplies the larger absolute error of (s, c) by at most 4 (the
    absolute row sums of its Jacobian [[2c, 2s], [-4s, 0]]) and adds two
    roundings, so the doublings cost under log10(4^k) < k digits; the loop
    carries k digits on top of `_GUARD`.
    """
    k = math.isqrt(digits) // 2 + 2
    with localcontext() as ctx:
        ctx.prec = digits + _GUARD + k
        y = _reduce(Decimal(x), digits) / 2 ** k
        minus_y2 = -y * y
        i, s, c, ts, tc = 0, y, Decimal(1), y, Decimal(1)
        while c + tc != c:  # the sine's terms are smaller, relative to s
            tc = tc * minus_y2 / ((i + 1) * (i + 2))
            ts = ts * minus_y2 / ((i + 2) * (i + 3))
            i += 2
            s += ts
            c += tc
        for _ in range(k):
            s, c = 2 * s * c, 1 - 2 * s * s
    with localcontext() as ctx:
        ctx.prec = digits
        return +s, +c


def sin_decimal(x: Decimal, digits: int) -> Decimal:
    return sincos_decimal(x, digits)[0]


def cos_decimal(x: Decimal, digits: int) -> Decimal:
    return sincos_decimal(x, digits)[1]


def truncate_digits(x, digits: int) -> str:
    """Plain-decimal string of x truncated (not rounded) to significant digits.

    Matches the truncating output convention of arbitrary-precision
    calculators, so reproduced values can be compared digit for digit.
    """
    d = Decimal(x) if not isinstance(x, Decimal) else x
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits + 8
        shift = digits - 1 - d.adjusted()
        scaled = d.scaleb(shift).to_integral_value(rounding="ROUND_DOWN")
        out = scaled.scaleb(-shift)
    return format(out, "f")


class NativeBackend:
    """Float arithmetic: math-module trig, ~15-16 significant digits."""

    @staticmethod
    def num(x):
        return float(x)

    @staticmethod
    def multiples(t, k):
        """([sin(j t)], [cos(j t)]) for j = 0..k."""
        return ([math.sin(j * t) for j in range(k + 1)],
                [math.cos(j * t) for j in range(k + 1)])

    atan2 = staticmethod(math.atan2)

    @staticmethod
    def context():
        return nullcontext()


class DecimalBackend:
    """Decimal arithmetic at a configurable number of significant digits."""

    def __init__(self, digits: int = DEFAULT_DIGITS):
        if digits < 4:
            raise ValueError("need at least 4 significant digits")
        self.digits = digits

    def num(self, x):
        if isinstance(x, float):
            # exact binary-to-decimal conversion, then round to context
            with localcontext() as ctx:
                ctx.prec = self.digits
                return +Decimal(x)
        return Decimal(x)

    def multiples(self, t, k):
        """([sin(j t)], [cos(j t)]) for j = 0..k from one sin/cos pair.

        `sincos_decimal` gives sin t and cos t at `work`, two digits above
        the backend's precision plus `_GUARD`, and the recurrence runs at
        `work`: for j <= 6 its rounding errors and the error of cos t,
        amplified by at most |d U_{j-1}/dc| <= j^3/3 on [-1, 1], stay under
        100 units of that precision's last place, below the final rounding
        to the backend's precision.
        """
        work = self.digits + _GUARD + 2
        sin_t, cos_t = sincos_decimal(t, work)
        sines, cosines = [Decimal(0), sin_t], [Decimal(1), cos_t]
        with localcontext() as ctx:
            ctx.prec = work
            twice_cos = 2 * cosines[1]
            for _ in range(2, k + 1):
                sines.append(twice_cos * sines[-1] - sines[-2])
                cosines.append(twice_cos * cosines[-1] - cosines[-2])
            ctx.prec = self.digits
            return [+s for s in sines[:k + 1]], [+c for c in cosines[:k + 1]]

    @contextmanager
    def context(self):
        with localcontext() as ctx:
            ctx.prec = self.digits
            yield ctx


NATIVE = NativeBackend()


class Dual:
    """x + x' eps with eps^2 = 0; any other operand is a constant."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0):
        self.value = value
        self.deriv = deriv

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.value / other.value
            return Dual(q, (self.deriv - q * other.deriv) / other.value)
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        q = other / self.value
        return Dual(q, -q * self.deriv / self.value)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Dual(self.value ** n, n * self.value ** (n - 1) * self.deriv)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __pos__(self):
        return Dual(+self.value, +self.deriv)  # rounds both to the context

    def __abs__(self):
        return -self if self.value < 0 else +self

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"


class DualBackend:
    """Forward-mode derivatives over `base`: the closed forms run unchanged.

    A formula evaluated at Dual(t, 1) returns Dual(f(t), f'(t)); all
    arithmetic, and the rounding of both parts, is base's.
    """

    def __init__(self, base):
        self.base = base

    def num(self, x):
        return x if isinstance(x, Dual) else self.base.num(x)

    def multiples(self, t, k):
        """base.multiples on t's value, with derivatives j cos(jt) t' and
        -j sin(jt) t'."""
        sines, cosines = self.base.multiples(t.value, k)
        with self.base.context():
            return ([Dual(s, j * c * t.deriv)
                     for j, (s, c) in enumerate(zip(sines, cosines))],
                    [Dual(c, -j * s * t.deriv)
                     for j, (s, c) in enumerate(zip(sines, cosines))])

    def atan2(self, y, x):
        """base.atan2 of the values, derivative (x y' - y x') / (x^2 + y^2)."""
        with self.base.context():
            return Dual(self.base.atan2(y.value, x.value),
                        (x.value * y.deriv - y.value * x.deriv)
                        / (x.value * x.value + y.value * y.value))

    def context(self):
        return self.base.context()
