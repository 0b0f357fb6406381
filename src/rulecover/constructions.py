"""Closed-form covers: the convex baseline and the 2/3/4-edge cuts.

Each k-edge construction fixes its free angles, solves the stated length
constraints in closed form, and has a closed-form area; the assembled
region (via the generic involute construction) must agree with that area
to 1e-10, which the test suite enforces as an oracle.

`CONSTRUCTIONS` holds one `Construction` record per cut, keyed "one" to
"four"; everything that picks a cut by kind, and every reference angle
and area, reads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import involute, numerics
from .geometry import Region

FEASIBLE_MARGIN = 1e-4
ANGLE_BOX_HI = 1.2


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


def r2_cover() -> Region:
    """Convex baseline: equilateral uvw fattened by two unit 60-degree arcs,
    the involute cover of the one-edge chain uv."""
    return CONSTRUCTIONS["one"].build()[1].region


R2_AREA = math.pi / 3 - math.sqrt(3.0) / 4.0


# --------------------------------------------------------------------------
# two-edge cut

def solve_two_edge(a: float) -> TwoEdgeParams:
    """Solve 2cos(a + c) = cos c for c on (0, pi/2 - a) in closed form."""
    if not 0.0 < a < math.pi / 2:
        raise InfeasibleParamsError(f"angle a={a!r} outside (0, pi/2)")
    # expanding cos(a + c) gives tan c = (2cos a - 1) / (2sin a), whose
    # root lies in (0, pi/2 - a) iff cos a > 1/2
    rise = 2 * math.cos(a) - 1
    if rise <= 0:
        raise InfeasibleParamsError(
            f"no root for a={a!r}: 2cos(a+c)=cos c needs a < pi/3")
    c = math.atan2(rise, 2 * math.sin(a))
    return TwoEdgeParams(a=a, c=c, x0=math.cos(c))


def two_edge_area(p: TwoEdgeParams) -> float:
    return (p.a + p.c / 2 - 0.5 * math.sin(2 * p.a + 2 * p.c)
            + 0.125 * math.sin(2 * p.c))


def _two_edge_chain(p: TwoEdgeParams):
    d = 0.5 * math.sin(p.c)
    return involute.GeneratingChain((
        (-p.x0 / 2, -d), (0.0, 0.0), (p.x0 / 2, -d)))


# --------------------------------------------------------------------------
# three-edge cut

def solve_three_edge(a: float, b: float) -> ThreeEdgeParams:
    if a < 0 or b <= 0 or a + b >= math.pi / 2:
        raise InfeasibleParamsError(
            f"angles (a={a!r}, b={b!r}) outside the feasible wedge")
    x0 = 2 * math.cos(a + b)
    x1 = (1 - x0) / (2 * (1 - math.cos(b)))
    x2 = 1 - 2 * x1
    if not (0 < x1 < 0.5) or not (0 < x2 < 1) or not (0 < x0 < 1):
        raise InfeasibleParamsError(
            f"derived lengths infeasible: x0={x0!r} x1={x1!r} x2={x2!r}")
    return ThreeEdgeParams(a=a, b=b, x0=x0, x1=x1, x2=x2)


def three_edge_area(a: float, b: float) -> float:
    p = solve_three_edge(a, b)
    return (b * (p.x1 ** 2 + (1 - p.x1) ** 2) + a
            - p.x0 / 2 * math.sin(a + b)
            + (p.x0 + p.x2) / 2 * p.x1 * math.sin(b))


def _three_edge_chain(p: ThreeEdgeParams):
    dy = p.x1 * math.sin(p.b)
    return involute.GeneratingChain((
        (-p.x0 / 2, -dy), (-p.x2 / 2, 0.0), (p.x2 / 2, 0.0), (p.x0 / 2, -dy)))


# --------------------------------------------------------------------------
# four-edge cut

def solve_four_edge(a: float, b: float, c: float) -> FourEdgeParams:
    if a <= 0 or b <= 0 or c <= 0 or a + b + c >= math.pi / 2:
        raise InfeasibleParamsError(
            f"angles (a={a!r}, b={b!r}, c={c!r}) outside the feasible wedge")
    x0 = 2 * math.cos(a + b + c)
    denom = 2 * math.cos(c) - 2 * math.cos(b + c)
    if abs(denom) < 1e-15:
        raise InfeasibleParamsError("degenerate trapezoid angles")
    x1 = (math.cos(c) - x0) / denom
    x2 = (1 - 2 * x1) * math.cos(c)
    x3 = 0.5 - x1
    if not (0 < x1 < 0.5) or x3 <= 0 or not (0 < x2 < 1) or not (0 < x0 < 1):
        raise InfeasibleParamsError(
            f"derived lengths infeasible: x0={x0!r} x1={x1!r} "
            f"x2={x2!r} x3={x3!r}")
    return FourEdgeParams(a=a, b=b, c=c, x0=x0, x1=x1, x2=x2, x3=x3)


def four_edge_area(a: float, b: float, c: float) -> float:
    p = solve_four_edge(a, b, c)
    return (b * (p.x1 ** 2 + (1 - p.x1) ** 2) + c / 2 + a
            - p.x0 / 2 * math.sin(a + b + c)
            + (p.x0 + p.x2) / 2 * p.x1 * math.sin(b + c)
            + p.x2 / 2 * p.x3 * math.sin(c))


def _four_edge_chain(p: FourEdgeParams):
    yp = p.x3 * math.sin(p.c)
    yu = yp + p.x1 * math.sin(p.b + p.c)
    return involute.GeneratingChain((
        (-p.x0 / 2, -yu), (-p.x2 / 2, -yp), (0.0, 0.0),
        (p.x2 / 2, -yp), (p.x0 / 2, -yu)))


# --------------------------------------------------------------------------
# optimization

def _penalized(area_fn, angles):
    """Graded penalty steering infeasible iterates back into the wedge."""
    lo, hi = FEASIBLE_MARGIN, ANGLE_BOX_HI
    violation = 0.0
    for x in angles:
        if x < lo:
            violation += lo - x
        if x > hi:
            violation += x - hi
    s = numerics.ordered_sum(angles)
    if s > math.pi / 2 - FEASIBLE_MARGIN:
        violation += s - (math.pi / 2 - FEASIBLE_MARGIN)
    if violation > 0:
        return 0.7 + violation
    try:
        return area_fn(*angles)
    except InfeasibleParamsError:
        # inside the wedge but with infeasible derived lengths: grade by
        # how badly the base constraint 2cos(sum) < 1 is missed
        return 0.7 + max(0.0, 2 * math.cos(s) - 1.0) + 1e-3


def optimize_construction(kind: str):
    """Minimize the closed-form area; returns (params, area, CoverBundle).

    One angle: golden section on the bracket `start`; several: Nelder-Mead
    from `start` under the wedge penalty.
    """
    cut = construction(kind)
    if not cut.ref_angles:
        raise ValueError(f"the {kind}-edge cut has no angle to optimize")
    if len(cut.ref_angles) == 1:
        res = numerics.minimize_1d(cut.area, *cut.start, tol=1e-12)
        angles = (res.argmin,)
    else:
        res = numerics.minimize_nd(lambda v: _penalized(cut.area, v),
                                   cut.start, tol=1e-12)
        angles = tuple(res.argmin)
    if not res.converged:
        raise numerics.ConvergenceError(
            f"{kind}-edge optimizer did not converge: {res}")
    params, bundle = cut.build(angles)
    return params, res.value, bundle


# --------------------------------------------------------------------------
# the table

class Construction(NamedTuple):
    """One discrete cut: solver, closed-form area, chain, reference values.

    `solve` and `area` take the free angles, `chain` the solved params.
    `ref_angles` and `ref_area` are the paper's values, frozen as literals
    so that checks against them test the formulas.  `start` is the
    optimizer's bracket for one angle, its start point for several.
    """

    edges: int
    solve: Callable
    area: Callable
    chain: Callable
    ref_angles: tuple
    ref_area: float
    start: tuple = ()

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
        chain=lambda _: involute.GeneratingChain(((-0.5, 0.0), (0.5, 0.0))),
        ref_angles=(), ref_area=R2_AREA),
    "two": Construction(
        edges=2, solve=solve_two_edge,
        area=lambda a: two_edge_area(solve_two_edge(a)),
        chain=_two_edge_chain,
        ref_angles=(math.acos(0.75),),  # the optimum: cos a = 3/4
        ref_area=0.5726988958836958,
        start=(FEASIBLE_MARGIN, math.pi / 3 - FEASIBLE_MARGIN)),
    "three": Construction(
        edges=3, solve=solve_three_edge, area=three_edge_area,
        chain=_three_edge_chain, ref_angles=(0.575939, 0.519805),
        ref_area=0.5635302302808625, start=(0.5, 0.5)),
    "four": Construction(
        edges=4, solve=solve_four_edge, area=four_edge_area,
        chain=_four_edge_chain, ref_angles=(0.488669, 0.423144, 0.189158),
        ref_area=0.5600945401134869, start=(0.5, 0.4, 0.2)),
}


def construction(kind: str) -> Construction:
    """The table entry for `kind`; ValueError for an unknown kind."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction kind {kind!r}")
    return CONSTRUCTIONS[kind]
