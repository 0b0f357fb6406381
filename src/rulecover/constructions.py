"""Closed-form covers: the convex baseline and the 2/3/4-edge cuts.

Each k-edge construction fixes its free angles, solves the stated length
constraints in closed form, and has a closed-form area; the assembled
region (via the generic involute construction) must agree with that area
to 1e-10, which the test suite enforces as an oracle.  The closed forms
take sin and cos from `backend.multiples`, so they run unchanged on floats
or on nested duals, which give the area's gradient and Hessian to
`optimize_construction`; their feasibility checks compare float(...).

`CONSTRUCTIONS` holds one `Construction` record per cut, keyed "one" to
"four"; everything that picks a cut by kind, and every reference angle
and area, reads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import involute, numerics
from .highprec import NATIVE, Dual, DualBackend


class InfeasibleParamsError(ValueError):
    pass


class TwoEdgeParams(NamedTuple):
    a: float
    c: float
    x0: float


class ThreeEdgeParams(NamedTuple):
    a: float
    b: float
    x0: float
    x1: float
    x2: float


class FourEdgeParams(NamedTuple):
    a: float
    b: float
    c: float
    x0: float
    x1: float
    x2: float
    x3: float


def r2_cover() -> involute.CoverBundle:
    """Convex baseline: equilateral uvw fattened by two unit 60-degree arcs,
    the involute cover of the one-edge chain uv."""
    return CONSTRUCTIONS["one"].build()[1]


R2_AREA = math.pi / 3 - math.sqrt(3.0) / 4.0


def _sin_cos(t, backend):
    S, C = backend.multiples(t, 1)
    return S[1], C[1]


# --------------------------------------------------------------------------
# two-edge cut

def solve_two_edge(a, backend=NATIVE) -> TwoEdgeParams:
    """Solve 2cos(a + c) = cos c for c on (0, pi/2 - a) in closed form."""
    if not 0.0 < float(a) < math.pi / 2:
        raise InfeasibleParamsError(
            f"angle a={float(a)!r} outside (0, pi/2)")
    sin_a, cos_a = _sin_cos(a, backend)
    # expanding cos(a + c) gives tan c = (2cos a - 1) / (2sin a), whose
    # root lies in (0, pi/2 - a) iff cos a > 1/2
    rise = 2 * cos_a - 1
    if float(rise) <= 0:
        raise InfeasibleParamsError(
            f"no root for a={float(a)!r}: 2cos(a+c)=cos c needs a < pi/3")
    c = backend.atan2(rise, 2 * sin_a)
    return TwoEdgeParams(a=a, c=c, x0=_sin_cos(c, backend)[1])


def two_edge_area(a, backend=NATIVE):
    p = solve_two_edge(a, backend)
    # sin(2(a + c)) is sin(2a + 2c) bit for bit: doubling is exact
    return (p.a + p.c / 2 - 0.5 * backend.multiples(p.a + p.c, 2)[0][2]
            + 0.125 * backend.multiples(p.c, 2)[0][2])


# --------------------------------------------------------------------------
# three-edge cut

def solve_three_edge(a, b, backend=NATIVE) -> ThreeEdgeParams:
    if float(a) < 0 or float(b) <= 0 or float(a + b) >= math.pi / 2:
        raise InfeasibleParamsError(
            f"angles (a={float(a)!r}, b={float(b)!r}) outside the "
            f"feasible wedge")
    x0 = 2 * _sin_cos(a + b, backend)[1]
    x1 = (1 - x0) / (2 * (1 - _sin_cos(b, backend)[1]))
    x2 = 1 - 2 * x1
    if (not 0 < float(x1) < 0.5 or not 0 < float(x2) < 1
            or not 0 < float(x0) < 1):
        raise InfeasibleParamsError(
            f"derived lengths infeasible: x0={float(x0)!r} x1={float(x1)!r} "
            f"x2={float(x2)!r}")
    return ThreeEdgeParams(a=a, b=b, x0=x0, x1=x1, x2=x2)


def three_edge_area(a, b, backend=NATIVE):
    p = solve_three_edge(a, b, backend)
    return (b * (p.x1 ** 2 + (1 - p.x1) ** 2) + a
            - p.x0 / 2 * _sin_cos(a + b, backend)[0]
            + (p.x0 + p.x2) / 2 * p.x1 * _sin_cos(b, backend)[0])


# --------------------------------------------------------------------------
# four-edge cut

def solve_four_edge(a, b, c, backend=NATIVE) -> FourEdgeParams:
    if (float(a) <= 0 or float(b) <= 0 or float(c) <= 0
            or float(a + b + c) >= math.pi / 2):
        raise InfeasibleParamsError(
            f"angles (a={float(a)!r}, b={float(b)!r}, c={float(c)!r}) "
            f"outside the feasible wedge")
    x0 = 2 * _sin_cos(a + b + c, backend)[1]
    cos_c = _sin_cos(c, backend)[1]
    denom = 2 * cos_c - 2 * _sin_cos(b + c, backend)[1]
    if abs(float(denom)) < 1e-15:
        raise InfeasibleParamsError("degenerate trapezoid angles")
    x1 = (cos_c - x0) / denom
    x2 = (1 - 2 * x1) * cos_c
    x3 = 0.5 - x1
    if (not 0 < float(x1) < 0.5 or float(x3) <= 0 or not 0 < float(x2) < 1
            or not 0 < float(x0) < 1):
        raise InfeasibleParamsError(
            f"derived lengths infeasible: x0={float(x0)!r} x1={float(x1)!r} "
            f"x2={float(x2)!r} x3={float(x3)!r}")
    return FourEdgeParams(a=a, b=b, c=c, x0=x0, x1=x1, x2=x2, x3=x3)


def four_edge_area(a, b, c, backend=NATIVE):
    p = solve_four_edge(a, b, c, backend)
    return (b * (p.x1 ** 2 + (1 - p.x1) ** 2) + c / 2 + a
            - p.x0 / 2 * _sin_cos(a + b + c, backend)[0]
            + (p.x0 + p.x2) / 2 * p.x1 * _sin_cos(b + c, backend)[0]
            + p.x2 / 2 * p.x3 * _sin_cos(c, backend)[0])


# --------------------------------------------------------------------------
# optimization

NEWTON_STEPS = 20   # Newton steps before ConvergenceError
NEWTON_TOL = 1e-12  # the last step's largest component, in radians
_DUAL2 = DualBackend(DualBackend(NATIVE))


def area_derivatives(area, angles):
    """(gradient, Hessian) of `area` at `angles` from its closed form.

    One evaluation per pair i <= j on nested duals: seeding angle i in the
    inner derivative and angle j in the outer one gives A_j and A_ij.
    """
    n = len(angles)
    grad, hess = [0.0] * n, [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = area(*(Dual(Dual(x, float(k == i)), Dual(float(k == j), 0.0))
                       for k, x in enumerate(angles)), backend=_DUAL2)
            grad[j] = v.deriv.value
            hess[i][j] = hess[j][i] = v.deriv.deriv
    return grad, hess


def _cholesky_solve(h, g):
    """d with h d = g, from h = L L^T; None unless h is positive definite."""
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = h[i][j] - numerics.ordered_sum(
                low[i][k] * low[j][k] for k in range(j))
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0:
                low[i][i] = math.sqrt(s)
            else:
                return None
    d = list(g)  # L y = g forward, then L^T d = y backward, in place
    for i in range(n):
        d[i] = (d[i] - numerics.ordered_sum(
            low[i][k] * d[k] for k in range(i))) / low[i][i]
    for i in reversed(range(n)):
        d[i] = (d[i] - numerics.ordered_sum(
            low[k][i] * d[k] for k in range(i + 1, n))) / low[i][i]
    return d


def optimize_construction(kind: str):
    """Minimize the closed-form area; returns (params, area, CoverBundle).

    Newton's method on the area's gradient from the table's `start`, with
    the gradient and Hessian from `area_derivatives`.  It stops after a
    step of at most NEWTON_TOL.  Raises numerics.ConvergenceError when a
    Hessian is not positive definite or NEWTON_STEPS run out, and
    InfeasibleParamsError when a step leaves the feasible wedge; there is
    no penalty, line search or fallback.
    """
    cut = construction(kind)
    if not cut.ref_angles:
        raise ValueError(f"the {kind}-edge cut has no angle to optimize")
    angles = cut.start
    for _ in range(NEWTON_STEPS):
        grad, hess = area_derivatives(cut.area, angles)
        step = _cholesky_solve(hess, grad)
        if step is None:
            raise numerics.ConvergenceError(
                f"{kind}-edge area has a Hessian that is not positive "
                f"definite at angles {angles}")
        angles = tuple(x - d for x, d in zip(angles, step))
        if max(abs(d) for d in step) <= NEWTON_TOL:
            params, bundle = cut.build(angles)
            return params, cut.area(*angles), bundle
    raise numerics.ConvergenceError(
        f"{kind}-edge Newton steps stayed above {NEWTON_TOL} after "
        f"{NEWTON_STEPS} steps, at angles {angles}")


# --------------------------------------------------------------------------
# the table

class Construction(NamedTuple):
    """One discrete cut: solver, closed-form area, half chain, reference values.

    `solve` and `area` take the free angles and a backend (floats by
    default); `half` maps the solved params to the half chain (fracs,
    turns) that involute.half_chain_layout lays out, as it lays out
    every search move and `halfchain` document.  `ref_angles` and
    `ref_area` are the paper's values, frozen as literals so that checks
    against them test the formulas.  `start` is a feasible point, where Newton's method
    in `optimize_construction` starts.
    """

    edges: int
    solve: Callable
    area: Callable
    half: Callable
    ref_angles: tuple
    ref_area: float
    start: tuple = ()

    def chain(self, params=None) -> involute.GeneratingChain:
        """The chain of solved `params`, of the reference angles by default."""
        if params is None:
            params = self.solve(*self.ref_angles)
        return involute.GeneratingChain.from_half_params(
            self.edges, *self.half(params))

    def build(self, angles=None):
        """(params, CoverBundle) at `angles`, the reference angles by default."""
        angles = self.ref_angles if angles is None else tuple(angles)
        if len(angles) != len(self.ref_angles):
            raise ValueError(
                f"the {self.edges}-edge cut takes {len(self.ref_angles)} "
                f"angle(s), got {len(angles)}")
        params = self.solve(*angles)
        return params, involute.involute_cover(self.chain(params))


CONSTRUCTIONS = {
    "one": Construction(
        edges=1, solve=lambda: None, area=lambda: R2_AREA,
        half=lambda _: ((), ()), ref_angles=(), ref_area=R2_AREA),
    "two": Construction(
        edges=2, solve=solve_two_edge, area=two_edge_area,
        half=lambda p: ((0.5,), (2 * p.c,)),
        ref_angles=(math.acos(0.75),),  # the optimum: cos a = 3/4
        ref_area=0.5726988958836958, start=(0.5,)),
    "three": Construction(
        edges=3, solve=solve_three_edge, area=three_edge_area,
        half=lambda p: ((p.x1,), (p.b,)), ref_angles=(0.575939, 0.519805),
        ref_area=0.5635302302808625, start=(0.55, 0.55)),
    "four": Construction(
        edges=4, solve=solve_four_edge, area=four_edge_area,
        half=lambda p: ((p.x1, p.x3), (p.b, 2 * p.c)),
        ref_angles=(0.488669, 0.423144, 0.189158),
        ref_area=0.5600945401134869, start=(0.5, 0.4, 0.2)),
}


def construction(kind: str) -> Construction:
    """The table entry for `kind`; ValueError for an unknown kind."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction kind {kind!r}")
    return CONSTRUCTIONS[kind]
