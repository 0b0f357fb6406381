"""Precision-parameterized real arithmetic.

Two interchangeable scalar backends drive every formula in this package:
the native backend works on floats (~15-16 significant digits) and the
decimal backend works on ``decimal.Decimal`` at a configurable number of
significant digits (default 40).  The decimal trig evaluates Taylor series
after argument reduction modulo 2*pi, carrying a few guard digits so results
are good to 1 ulp at the configured precision.

Closed forms that need sin(jt) and cos(jt) for several j ask the backend for
all of them at once with `multiples(t, k)`.  The decimal backend sums one
sine and one cosine series, on t alone, and fills j >= 2 by the
multiple-angle recurrences s_j = 2 cos(t) s_{j-1} - s_{j-2} (same for the
cosines), carrying two more guard digits for the error the recurrence
accumulates; the native backend calls the math module for each j.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from decimal import Decimal, localcontext
from functools import lru_cache

DEFAULT_DIGITS = 40
_GUARD = 6  # extra digits carried inside the series loops


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


def _taylor(x: Decimal, digits: int, first: int) -> Decimal:
    """Sum of the alternating series x^k / k!, k = first, first + 2, ...

    first = 1 gives sin x and first = 0 gives cos x.
    """
    with localcontext() as ctx:
        ctx.prec = digits + _GUARD
        x = _reduce(Decimal(x), digits)
        num = x if first else Decimal(1)
        i, lasts, s, fact, sign = first, Decimal(0), num, 1, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign = -sign
            s += sign * num / fact
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def sin_decimal(x: Decimal, digits: int) -> Decimal:
    return _taylor(x, digits, 1)


def cos_decimal(x: Decimal, digits: int) -> Decimal:
    return _taylor(x, digits, 0)


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

    digits = None
    name = "native"

    @staticmethod
    def num(x):
        return float(x)

    @staticmethod
    def multiples(t, k):
        """([sin(j t)], [cos(j t)]) for j = 0..k."""
        return ([math.sin(j * t) for j in range(k + 1)],
                [math.cos(j * t) for j in range(k + 1)])

    @staticmethod
    def context():
        return nullcontext()

    def tolerance(self):
        return 1e-12


class DecimalBackend:
    """Decimal arithmetic at a configurable number of significant digits."""

    name = "decimal"

    def __init__(self, digits: int = DEFAULT_DIGITS, guard: int = 0):
        if digits < 4:
            raise ValueError("need at least 4 significant digits")
        self.digits = digits + guard
        self.nominal_digits = digits

    def num(self, x):
        if isinstance(x, float):
            # exact binary-to-decimal conversion, then round to context
            with localcontext() as ctx:
                ctx.prec = self.digits
                return +Decimal(x)
        return Decimal(x)

    def multiples(self, t, k):
        """([sin(j t)], [cos(j t)]) for j = 0..k from one sin/cos pair.

        The recurrence runs two digits above the series' working precision:
        for j <= 6 its rounding errors and the error of cos t, amplified by
        at most |d U_{j-1}/dc| <= j^3/3 on [-1, 1], stay under 100 units of
        that precision's last place, below the final rounding to the
        backend's precision.
        """
        work = self.digits + _GUARD + 2
        sines = [Decimal(0), sin_decimal(t, work)]
        cosines = [Decimal(1), cos_decimal(t, work)]
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

    def tolerance(self):
        # one-in-the-last-two-digits default, per precision configuration
        return Decimal(10) ** (2 - self.nominal_digits)


NATIVE = NativeBackend()
