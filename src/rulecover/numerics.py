"""Derivative-free minimization and adaptive quadrature on floats.

All routines are pure.  The 1-D minimizer is golden-section search
followed by parabolic refinement, which localizes a smooth minimum well
past the naive sqrt(eps) comparison limit; the multi-dimensional minimizer
is Nelder-Mead with shrinking restarts.
"""

from __future__ import annotations

import math


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


class MinimizeResult:
    def __init__(self, argmin, value, iterations: int, converged: bool):
        self.argmin = argmin  # scalar for 1-D, tuple for N-D
        self.value = value
        self.iterations = iterations
        self.converged = converged

    def __repr__(self):
        return (f"MinimizeResult(argmin={self.argmin!r}, value={self.value!r}, "
                f"iterations={self.iterations!r}, converged={self.converged!r})")


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except TypeError:
        return False


MAX_ITER_1D = 600    # golden-section plus parabolic steps
MAX_ITER_ND = 4000   # Nelder-Mead steps over all restarts
RESTARTS_ND = 2      # Nelder-Mead restarts after the first run
INITIAL_STEP_ND = 0.05  # first simplex edge, relative to 1 + |x|


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


def minimize_nd(f, start, tol=1e-10) -> MinimizeResult:
    """Nelder-Mead downhill simplex with shrinking restarts (floats only)."""
    x0 = [float(v) for v in start]
    n = len(x0)
    if n < 1:
        raise ValueError("empty start point")

    def ev(x):
        v = f(x)
        if not _is_finite(v):
            raise EvaluationError(tuple(x), v)
        return v

    total_iters = 0
    best_x, best_f = list(x0), ev(x0)
    step = INITIAL_STEP_ND
    converged = False

    for _ in range(RESTARTS_ND + 1):
        sim = [list(best_x)]
        for k in range(n):
            p = list(best_x)
            p[k] += step * (1.0 + abs(p[k]))
            sim.append(p)
        fs = [ev(p) for p in sim]

        while total_iters < MAX_ITER_ND:
            order = sorted(range(n + 1), key=lambda i: fs[i])
            sim = [sim[i] for i in order]
            fs = [fs[i] for i in order]
            diam = max(
                max(abs(sim[i][k] - sim[0][k]) for k in range(n))
                for i in range(1, n + 1))
            if diam <= tol and abs(fs[-1] - fs[0]) <= tol:
                converged = True
                break

            centroid = [ordered_sum(p[k] for p in sim[:n]) / n for k in range(n)]
            xr = [centroid[k] + (centroid[k] - sim[-1][k]) for k in range(n)]
            fr = ev(xr)
            if fr < fs[0]:
                xe = [centroid[k] + 2 * (centroid[k] - sim[-1][k]) for k in range(n)]
                fe = ev(xe)
                sim[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fs[-2]:
                sim[-1], fs[-1] = xr, fr
            else:
                # contraction (outside if the reflection helped at all)
                if fr < fs[-1]:
                    xc = [centroid[k] + 0.5 * (centroid[k] - sim[-1][k]) for k in range(n)]
                else:
                    xc = [centroid[k] - 0.5 * (centroid[k] - sim[-1][k]) for k in range(n)]
                fc = ev(xc)
                if fc < min(fr, fs[-1]):
                    sim[-1], fs[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        sim[i] = [sim[0][k] + 0.5 * (sim[i][k] - sim[0][k])
                                  for k in range(n)]
                        fs[i] = ev(sim[i])
            total_iters += 1

        if fs[0] < best_f:
            best_x, best_f = list(sim[0]), fs[0]
        step *= 0.05  # restart much closer around the incumbent

    return MinimizeResult(argmin=tuple(best_x), value=best_f,
                          iterations=total_iters, converged=converged)


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
