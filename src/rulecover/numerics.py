"""Derivative-free 1-D minimization and adaptive quadrature on floats.

All routines are pure.  The 1-D minimizer is golden-section search
followed by parabolic refinement, which localizes a smooth minimum well
past the naive sqrt(eps) comparison limit.  The discrete cuts' optima are
found from derivatives instead (constructions.optimize_construction).
"""

from __future__ import annotations

import math
from typing import NamedTuple


def ordered_sum(values):
    """Left-to-right sum from 0, so seeded results agree across Pythons.

    The builtin sum() compensates float rounding since Python 3.12.
    """
    total = 0
    for v in values:
        total += v
    return total


class EvaluationError(ValueError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, x, value=None):
        super().__init__(f"non-finite objective value at x={x!r}: {value!r}")
        self.x = x
        self.value = value


class ConvergenceError(RuntimeError):
    pass


class IntegrationError(RuntimeError):
    """Subdivision limit hit; carries the best estimate and error bound."""

    def __init__(self, estimate, error):
        super().__init__(
            f"quadrature subdivision limit exceeded (estimate={estimate}, "
            f"achieved error ~{error})")
        self.estimate = estimate
        self.error = error


class MinimizeResult(NamedTuple):
    argmin: float
    value: float
    iterations: int
    converged: bool


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except TypeError:
        return False


MAX_ITER_1D = 600    # golden-section plus parabolic steps


def minimize_1d(f, lo, hi, tol=1e-12) -> MinimizeResult:
    """Minimize f on [lo, hi] to a bracket of width <= tol.

    Golden-section search shrinks the bracket to ~1e-6 of the original
    interval; successive parabolic fits on a symmetric triple then halve
    the probe spacing down to tol, tracking the best point seen.  Boundary
    minima are supported (probes are clamped into [lo, hi]).
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0:
        raise ValueError("tol must be positive")

    def ev(x):
        v = f(x)
        if not _is_finite(v):
            raise EvaluationError(x, v)
        return v

    invphi = (math.sqrt(5) - 1) / 2

    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = ev(x1), ev(x2)
    iterations = 0

    coarse = (hi - lo) / 1_000_000
    golden_target = coarse if coarse > tol else tol
    while (b - a) > golden_target and iterations < MAX_ITER_1D:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = ev(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = ev(x2)
        iterations += 1

    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    fa, fb = ev(a), ev(b)
    if fa < best_f:
        best_x, best_f = a, fa
    if fb < best_f:
        best_x, best_f = b, fb

    span = b - a
    while span > tol and iterations < MAX_ITER_1D:
        h = span / 4
        xl = best_x - h
        xr = best_x + h
        if xl < lo:
            xl = lo
        if xr > hi:
            xr = hi
        fl, fr = ev(xl), ev(xr)
        denom = 2 * (fl - 2 * best_f + fr)
        if denom > 0:
            step = (fl - fr) * h / denom
            xv = best_x + step
            if xv < lo:
                xv = lo
            elif xv > hi:
                xv = hi
            fv = ev(xv)
            if fv < best_f:
                best_x, best_f = xv, fv
        if fl < best_f:
            best_x, best_f = xl, fl
        if fr < best_f:
            best_x, best_f = xr, fr
        span = 2 * h
        iterations += 1

    return MinimizeResult(argmin=best_x, value=best_f,
                          iterations=iterations, converged=span <= tol)


def integrate(f, lo, hi, tol=1e-12, max_depth=60) -> float:
    """Adaptive Simpson quadrature with absolute error target tol."""
    lo, hi = float(lo), float(hi)
    if lo == hi:
        return 0.0

    def ev(x):
        v = f(x)
        if not _is_finite(v):
            raise EvaluationError(x, v)
        return float(v)

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) * (fa + 4 * fm + fb) / 6

    def recurse(a, fa, m, fm, b, fb, whole, eps, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = ev(lm), ev(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15 * eps or (b - a) < 1e-14:
            return left + right + delta / 15
        if depth >= max_depth:
            raise IntegrationError(left + right + delta / 15, abs(delta) / 15)
        half = eps / 2
        return (recurse(a, fa, lm, flm, m, fm, left, half, depth + 1)
                + recurse(m, fm, rm, frm, b, fb, right, half, depth + 1))

    m = 0.5 * (lo + hi)
    fa, fm, fb = ev(lo), ev(m), ev(hi)
    whole = simpson(lo, fa, m, fm, hi, fb)
    return recurse(lo, fa, m, fm, hi, fb, whole, float(tol), 0)
