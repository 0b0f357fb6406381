"""Covers from generating chains by unwrapping a unit string.

A generating chain is a mirror-symmetric concave polygonal chain of total
length 1 sitting at the bottom of the cover, endpoints u (left) and v
(right).  Unwrapping a taut unit string clockwise about v sweeps the left
boundary from u up to the apex w on the y axis; the mirror image sweeps
the right boundary.  Each interior chain vertex p_j contributes one arc per
side, radius s_j on the left and 1 - s_j on the right (s_j = chain length
from u), each sweeping that vertex's turn angle; a final unit-radius pivot
about the far endpoint closes the boundary at w.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from . import constructions, numerics
from .geometry import (
    Arc,
    ArcPath,
    Seg,
    TWO_PI,
    arc_area,
    check_ccw,
    check_closed,
)

LENGTH_TOL = 1e-12
SYMMETRY_TOL = 1e-9
TURN_TOL = 1e-9
CHORD_TOL = 1e-9  # a line this close to both u and v runs along the chord
SETTLE_TOL = 1e-13  # per edge, on _layout_settles' sum; derived there
WALK_GAP = 1e-9  # string end off its pivot circle, unit string, apex distance
PIVOT_TOL = 1e-12  # a final pivot below -PIVOT_TOL raises, above swings an arc
SKIP_TURN = 1e-14  # a turn at or below it swings no arc


class InadmissibleChainError(ValueError):
    """Chain violates an admissibility invariant; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        msg = "; ".join(str(d) for d in self.diagnostics) or "inadmissible chain"
        super().__init__(msg)


class ChainDiagnostic(NamedTuple):
    kind: str
    magnitude: float
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail} (magnitude {self.magnitude:.3e})"


def chain_facts(vertices):
    """(edge lengths, cumulative lengths s_0..s_n from u, turn angles, chain
    term, edge directions) of a vertex tuple in one walk over its edges; a
    turn angle is positive where the chain bends away from the region above
    it (incoming minus outgoing direction), the chain term sums the edges'
    seg_area and an edge's direction is its atan2 angle."""
    lengths, dirs, term = [], [], 0.0
    dist, atan2 = math.dist, math.atan2
    p0 = vertices[0]
    x0, y0 = p0
    for p1 in vertices[1:]:
        x1, y1 = p1
        lengths.append(dist(p0, p1))
        dirs.append(atan2(y1 - y0, x1 - x0))
        term += 0.5 * (x0 * y1 - x1 * y0)
        p0, x0, y0 = p1, x1, y1
    return (tuple(lengths), tuple(accumulate(lengths, initial=0.0)),
            tuple(map(operator.sub, dirs, dirs[1:])), term, tuple(dirs))


def half_chain_layout(n: int, fracs, turns):
    """(vertices, (fracs, turns, cosines, sines)) of the symmetric n-edge
    chain of these half fractions and turns (GeneratingChain.half_params),
    laid out; an odd chain's half fractions end in half its middle edge."""
    if n < 1:
        raise ValueError(f"a chain needs at least 1 edge, got {n}")
    m = n // 2
    fracs = list(map(float, fracs))
    turns = list(map(float, turns))
    if len(fracs) != m or len(turns) != m:
        raise ValueError(f"need {m} fractions and {m} turns for {n} edges")
    for f in fracs:
        if not 0.0 < f < math.inf:
            raise ValueError("edge fractions must be finite and positive")
    # deltas[i]: direction of half edge i below the horizontal, the sum of
    # the turns from vertex i + 1 to the axis (inf or nan if a turn is, or
    # if the sum overflows)
    odd = n % 2
    if odd:
        mid = 1.0 - 2.0 * numerics.ordered_sum(fracs)
        if mid <= 0:
            raise ValueError("half fractions leave no middle edge")
        deltas = list(accumulate(reversed(turns), initial=0.0))[:0:-1]
    else:
        total_half = numerics.ordered_sum(fracs)
        fracs = [f * 0.5 / total_half for f in fracs]
        deltas = list(accumulate(reversed(turns[:-1]), initial=turns[-1] / 2))[::-1]
    for d in deltas:
        if not math.isfinite(d):
            raise ValueError(f"turns must be finite, got {d!r} as a turn sum")
    cos, sin = list(map(math.cos, deltas)), list(map(math.sin, deltas))
    if odd:
        fracs, cos, sin = fracs + [mid / 2], cos + [1.0], sin + [0.0]
    xs = list(accumulate(map(operator.mul, fracs, cos), initial=0.0))
    ys = list(accumulate(map(operator.mul, fracs, sin), initial=0.0))
    ytop = max(ys)  # the mirror half has the same heights
    # the middle vertex, or the middle edge's midpoint, onto the y axis
    half = [(x - xs[-1], y - ytop) for x, y in zip(xs[:m + 1], ys)]
    return (tuple(half + [(-x, y) for x, y in reversed(half[:m + odd])]),
            (fracs, turns, cos, sin))


class GeneratingChain:
    """Vertex chain u = p0 ... pn = v with its chain_facts as fields
    edge_lengths, cum_lengths, turn_angles, chain_term and edge_dirs.
    Construction performs no validation; see validate_chain.
    """

    __slots__ = ("vertices", "edge_lengths", "cum_lengths", "turn_angles",
                 "chain_term", "edge_dirs")

    def __init__(self, vertices: tuple):
        verts = tuple((float(x), float(y)) for (x, y) in vertices)
        if len(verts) < 2:
            raise ValueError("chain needs at least 2 vertices")
        self.vertices = verts
        (self.edge_lengths, self.cum_lengths, self.turn_angles,
         self.chain_term, self.edge_dirs) = chain_facts(verts)

    @property
    def u(self):
        return self.vertices[0]

    @property
    def v(self):
        return self.vertices[-1]

    @property
    def n_edges(self) -> int:
        return len(self.edge_lengths)

    # -- half-chain parameterization (length fractions + turn angles) ------

    def half_params(self):
        """(fracs, turns) describing the chain from u to the symmetry axis.

        Even edge count: m = n/2 edge lengths and m turns, the last being
        the full turn at the middle vertex.  Odd: m = n//2 edge lengths and
        m turns; the horizontal middle edge length is implied by total 1.
        """
        m = self.n_edges // 2
        return self.edge_lengths[:m], self.turn_angles[:m]

    @staticmethod
    def from_half_params(n: int, fracs, turns) -> "GeneratingChain":
        """Build the symmetric chain for given half-edge fractions and turns."""
        return GeneratingChain(half_chain_layout(n, fracs, turns)[0])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        fracs, turns = self.half_params()
        return {
            "edges": self.n_edges,
            "vertices": [[x, y] for (x, y) in self.vertices],
            "halfchain": [{"len": f, "turn": t} for f, t in zip(fracs, turns)],
        }

    @staticmethod
    def from_json(d: dict) -> "GeneratingChain":
        """The chain of a to_json document, from its vertices or else its
        half chain; a malformed field raises ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"chain must be a JSON object, got {d!r}")
        if "vertices" in d:
            verts = _json_list(d["vertices"], "vertices")
            return GeneratingChain(tuple(_json_numbers(p, f"vertices[{k}]")
                                         for k, p in enumerate(verts)))
        half = _json_list(d.get("halfchain"), "halfchain")
        pairs = []
        for k, h in enumerate(half):
            if not (isinstance(h, dict) and "len" in h and "turn" in h):
                raise ValueError(f"chain field halfchain[{k}] needs len and "
                                 f"turn, got {h!r}")
            pairs.append(_json_numbers([h["len"], h["turn"]], f"halfchain[{k}]"))
        n = d.get("edges", 2 * len(half))
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"chain field edges must be an integer, got {n!r}")
        return GeneratingChain.from_half_params(
            n, [f for f, _ in pairs], [t for _, t in pairs])


def _json_list(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"chain field {name} must be a list, got {value!r}")
    return value


def _json_numbers(value, name: str) -> tuple:
    """A JSON pair of numbers as floats, else ValueError naming the field."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value)):
        raise ValueError(f"chain field {name} must be two numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def validate_chain(chain: GeneratingChain):
    """All admissibility violations (empty list means admissible); a
    non-finite coordinate makes a non-finite length, which fails."""
    verts, out = chain.vertices, []
    L = chain.cum_lengths[-1]
    if not abs(L - 1.0) <= LENGTH_TOL:
        out.append(ChainDiagnostic("length", abs(L - 1.0),
                                   f"total length {L!r} != 1"))
    # the largest gap between vertex k and the mirror of vertex n - k (pairs
    # k and n - k agree, so half are visited); a nan gap is passed over
    worst = 0.0
    for (x0, y0), (x1, y1) in zip(verts[:(len(verts) + 1) // 2], reversed(verts)):
        dev = abs(x0 + x1)
        dy = abs(y0 - y1)
        if dy > dev:  # max(dev, dy), which keeps a nan dev
            dev = dy
        if dev > worst:
            worst = dev
    if worst > SYMMETRY_TOL:
        out.append(ChainDiagnostic("symmetry", worst,
                                   "not mirror-symmetric about the y axis"))
    for j, theta in enumerate(chain.turn_angles, start=1):
        if theta < -TURN_TOL:
            out.append(ChainDiagnostic(
                "concavity", -theta,
                f"negative turn angle {theta!r} at interior vertex {j}"))
    ux, uy = verts[0]
    vx, vy = verts[-1]
    if not (ux < 0.0 < vx):
        out.append(ChainDiagnostic("endpoints", abs(ux) + abs(vx),
                                   "endpoints must straddle the y axis"))
    if abs(uy - vy) > SYMMETRY_TOL:
        out.append(ChainDiagnostic("endpoints", abs(uy - vy),
                                   "endpoint heights differ"))
    if vx > 1.0:
        out.append(ChainDiagnostic("endpoints", vx - 1.0,
                                   "half base exceeds the unit string"))
    x0 = ux
    for i, (x1, _) in enumerate(verts[1:]):
        if x1 <= x0:
            out.append(ChainDiagnostic(
                "ordering", x0 - x1, f"x coordinates not increasing at edge {i}"))
            break
        x0 = x1
    return out


class Pocket:
    """The convex pocket P of a cover: its chain closed by the chord uv.

    The upper run v -> w -> u has only counterclockwise arcs with G1 joints
    and a convex corner at the apex (_unwrap checks the positive sweeps and
    the final pivot's sign), so with the chord uv it bounds a convex cap
    H.  The chain turns one way only, so with the same chord it bounds a
    convex set P inside H, and the cover is H minus the interior of P.
    For p and q on the upper run the line pq meets H only in the segment
    pq, which therefore stays in the cover iff the line does not cut the
    interior of P: a sign test of P's vertices against the line.  P lies
    in y <= top, its highest vertex, so a segment with both ends at or
    above top meets P in boundary points at most: admits() takes it
    without the sign test (its depth is 0.0 to the bit on every candidate
    of the reference, smooth and perturbed covers the tests sample).

    Holds the chain's vertex coordinates and its edge direction angles.
    The bisection in depth() needs x to increase strictly along the chain
    and no turn angle below -TURN_TOL.  validate_chain checks both for every
    involute_cover build, and uniform scaling (verify.shrink_cover) keeps
    them, so the pocket checks nothing itself.
    """

    def __init__(self, chain: GeneratingChain):
        self.xs = tuple(x for x, _ in chain.vertices)
        self.ys = tuple(y for _, y in chain.vertices)
        xs, ys = self.xs, self.ys
        self.top = max(ys)
        n = len(xs) - 1
        # non-increasing edge angles, negated so that bisect sees them ascending
        self.keys = tuple(-d for d in chain.edge_dirs)
        cx, cy = xs[n] - xs[0], ys[n] - ys[0]
        chord = math.hypot(cx, cy)
        # the largest distance of the chain from the chord
        self.sag = max((abs(cx * (ys[j] - ys[0]) - cy * (xs[j] - xs[0])) / chord
                        for j in range(1, n)), default=0.0)

    def admits(self, p, q, eps) -> bool:
        """depth(p, q) <= eps, skipping depth() when p and q clear the top."""
        top = self.top
        return (p[1] >= top and q[1] >= top) or self.depth(p, q) <= eps

    def depth(self, p, q) -> float:
        """How far the line through p and q (p != q) cuts into P.

        With d the unit direction of pq, s_j = cross(d, c_j - p) rises
        along the chain while its edges point above d and falls after, so
        its largest value sits at the vertex k where the edge angles pass
        d's angle (found by bisection) and its smallest at u or v.  The
        depth is the lesser of the two sides' largest distances.  A line
        within CHORD_TOL of both u and v runs along the chord, which lies
        outside the cover wherever the chain leaves it: its depth is the
        sag of the chain.
        """
        px, py = p
        dx, dy = q[0] - px, q[1] - py
        norm = math.hypot(dx, dy)
        dx, dy = dx / norm, dy / norm
        if dx < 0.0 or (dx == 0.0 and dy < 0.0):
            dx, dy = -dx, -dy  # angle into (-pi/2, pi/2]; flips every s_j
        k = bisect_left(self.keys, -math.atan2(dy, dx))
        xs, ys = self.xs, self.ys
        n = len(xs) - 1
        s0 = dx * (ys[0] - py) - dy * (xs[0] - px)
        sn = dx * (ys[n] - py) - dy * (xs[n] - px)
        if abs(s0) <= CHORD_TOL and abs(sn) <= CHORD_TOL:
            return self.sag
        hi, lo = max(s0, sn, 0.0), min(s0, sn, 0.0)
        for j in range(max(k - 1, 0), min(k + 2, n + 1)):
            s = dx * (ys[j] - py) - dy * (xs[j] - px)
            if s > hi:
                hi = s
            elif s < lo:
                lo = s
        return min(hi, -lo)


class CoverBundle:
    """A cover: chain below, two involute arc runs meeting at the apex.

    The boundary, a closed counterclockwise path, holds the chain's
    segments u -> v, then the Arc pieces _unwrap's walk built: the right
    run traced v -> w, then its mirror image (_mirror_run), the left run
    traced w -> u, with as many arcs.  area is the positive area it
    encloses.  Nothing reassigns a field, so the cached views stay valid.
    """

    def __init__(self, chain: GeneratingChain, boundary: ArcPath, area: float):
        self.chain = chain
        self.boundary = boundary
        self.area = area

    @cached_property
    def upper_path(self) -> ArcPath:
        """Boundary pieces above the chain, traced v -> w -> u.

        Built once per bundle, so the piece table compiled on it is kept
        across verify and fold calls.
        """
        return ArcPath(self.boundary.pieces[self.chain.n_edges:])

    @cached_property
    def n_right_upper(self) -> int:
        return (len(self.boundary.pieces) - self.chain.n_edges) // 2

    @property
    def right_arcs(self) -> tuple:
        return self.upper_path.pieces[:self.n_right_upper]

    @property
    def left_arcs(self) -> tuple:
        return self.upper_path.pieces[self.n_right_upper:]

    @cached_property
    def pocket(self) -> Pocket:
        """The chain's Pocket, built on first use by verify or fold."""
        return Pocket(self.chain)


def _unwrap(chain: GeneratingChain):
    """(area, right run, left run) of a chain its caller has validated, in
    one walk that checks the unwrap radii, the Arc guards, a final pivot
    not below -PIVOT_TOL and the apex w = (0, v_y + sqrt(1 - v_x^2)) at
    unit distance from u and v.  To the chain term it adds arc_path_area's
    terms of the right run, then of its mirror image, the left run (not
    yet checked positive).  The runs are the cover's own Arc pieces: the
    right run traced v -> w, one Arc per turn above SKIP_TURN and per final
    pivot above PIVOT_TOL, the left run _mirror_run(right), traced w -> u.
    """
    verts, cum, turns = chain.vertices, chain.cum_lengths, chain.turn_angles
    area = chain.chain_term
    ux, uy = verts[0]
    vx, vy = verts[-1]
    w = (0.0, vy + math.sqrt(max(0.0, 1.0 - vx * vx)))

    # right involute, traced from v: pivot interior vertices from the v side
    # with the still-wrapped radius 1 - s_k, then swing about u to the apex
    right = []
    ex, ey = vx, vy
    hypot, atan2 = math.hypot, math.atan2
    for k in range(len(verts) - 2, 0, -1):
        cx, cy = verts[k]
        r = 1.0 - cum[k]
        dx, dy = ex - cx, ey - cy
        gap = abs(hypot(dx, dy) - r)
        if gap > WALK_GAP:
            raise InadmissibleChainError([ChainDiagnostic(
                "unwrap", gap, f"string end not at pivot radius at vertex {k}")])
        theta = turns[k - 1]
        if theta > SKIP_TURN:
            t0 = atan2(dy, dx)
            arc = Arc(cx, cy, r, t0, t0 + theta)
            right.append(arc)
            area += arc_area(cx, cy, r, t0, arc.t1)
            ex, ey = arc.end
    gap = abs(hypot(ex - ux, ey - uy) - 1.0)
    if gap > WALK_GAP:
        raise InadmissibleChainError([ChainDiagnostic(
            "unwrap", gap, "fully unwrapped string is not unit length")])
    t0 = atan2(ey - uy, ex - ux)
    t1 = atan2(w[1] - uy, w[0] - ux)
    if t1 - t0 < -PIVOT_TOL:
        raise InadmissibleChainError([ChainDiagnostic(
            "closure", t0 - t1, "final pivot angle negative")])
    if t1 - t0 > PIVOT_TOL:  # the string end already at w swings no arc
        right.append(Arc(ux, uy, 1.0, t0, t1))
        area += arc_area(ux, uy, 1.0, t0, t1)

    for p in (verts[0], verts[-1]):
        gap = abs(math.dist(p, w) - 1.0)
        if gap > WALK_GAP:
            raise InadmissibleChainError([ChainDiagnostic(
                "closure", gap, "apex not at unit distance from chain endpoints")])
    left = _mirror_run(right)
    for arc in left:
        area += arc_area(arc.cx, arc.cy, arc.r, arc.t0, arc.t1)
    return area, right, left


def _layout_settles(verts, layout, bound):
    """True only if the exact path (validate_chain and _unwrap on
    GeneratingChain(verts)) raises nothing and gives an area >= bound > 0,
    from half_chain_layout.  Negation is exact and an even chain's vertex m
    is at x = 0.0, so the symmetry, end-height and |v - w| = |u - w| checks
    pass; x increasing gives u_x < 0 < v_x <= s_n / 2.  Rounding moves an
    edge by H <= 5u (u = 2^-53): its length by H (s_k by 8u n), its
    direction by 1.01 H / f, so the walk's turn is >= 0 where the input's is
    >= slack, and elsewhere is re-taken.  Pivot k (radius r = 1 - s_k, edge
    unit vectors e) and its mirror add r^2 theta + r (c_k x (e_(k-1) - e_k))
    (ROADMAP item 12) from the layout's s, theta and e; the final pivot adds
    its pair.  The walk's offset K = r sin g off edge k - 1 keeps across an
    arc and falls by r theta at a skipped turn (<= SKIP_TURN); with Q_k =
    r_k + c_k . e_k = r_(k+1) + c_(k+1) . e_k its first-order terms sum by
    parts to 0, leaving 2.6 g^2 (g bounds the offsets and skipped turns'
    sum; gaps <= g^2 / 8) and 50u a pivot (18u of K, |Q| <= 1.71).
    Direction errors sum so to f beta Q <= 1.73 H an edge, the radii's to
    2.71 pi 8u n, rounding to 40u a vertex: < 170u n + 2.6 g^2 <
    SETTLE_TOL n + 3 g^2.  The final pivot is the walk's to 2 g."""
    fracs, turns, cos, sin = layout
    n, xs, f = len(verts) - 1, [x for x, _ in verts], min(fracs)
    (ux, uy), (vx, vy) = verts[0], verts[-1]
    cum = list(accumulate(fracs, initial=0.0))
    lag, slack, neg = 2.0 * cum[-1] - 1.0, 1.2e-15 / f + 1.2e-15, 0.0
    if not (all(map(operator.lt, xs, xs[1:])) and f >= 1e-11 * n  # radii > 0
            and abs(lag) + 9e-16 * n <= LENGTH_TOL):  # lag: s_n - 1 to 8u n
        return False
    for k in (k for k, t in enumerate(turns, start=1) if t < slack):
        for (xa, ya), (xb, yb), (xc, yc) in {verts[k - 1:k + 2],
                                             verts[n - k - 1:n - k + 2]}:
            t = math.atan2(yb - ya, xb - xa) - math.atan2(yc - yb, xc - xb)
            if t < -TURN_TOL:
                return False
            neg -= min(t, 0.0)
    g = neg + SKIP_TURN * n + 2e-15 / f
    w = (0.0, vy + math.sqrt(max(0.0, 1.0 - vx * vx)))
    d = math.dist(verts[0], w)
    pivot = math.atan2(w[1] - uy, -ux) - math.atan2(sin[0], cos[0])
    if not (g <= 1e-5 and pivot - 2.0 * g > PIVOT_TOL
            and abs(d - 1.0) <= WALK_GAP):
        return False
    if not n % 2:  # vertex m is its own mirror: half its turn, the mirror edge
        turns, cos, sin = turns[:-1] + [turns[-1] / 2], cos + cos[-1:], sin + [-sin[-1]]
    area = pivot + ux * ((w[1] - uy) / d - sin[0]) + uy * (ux / d + cos[0])
    x0, y0 = verts[0]
    for (x, y), s, t, ca, sa, cb, sb in zip(verts[1:], cum[1:], turns, cos,
                                            sin, cos[1:], sin[1:]):
        r, q = 1.0 - s, s - lag  # the radii at vertex k and at its mirror
        area += (x0 * y - x * y0 + (r * r + q * q) * t
                 + (r - q) * (x * (sa - sb) - y * (ca - cb)))
        x0, y0 = x, y
    area += x0 * y0  # the middle edge's term, 0.0 if vertex m is on the axis
    return area - SETTLE_TOL * n - 3.0 * g * g >= bound > 0.0


def _mirror_run(right):
    """The left run's Arcs: the right run's mirror image about the y axis
    (angle t -> pi - t), traced w -> u."""
    return [Arc(-a.cx, a.cy, a.r, math.pi - a.t1, math.pi - a.t0)
            for a in reversed(right)]


def _not_simple(detail):
    return InadmissibleChainError([ChainDiagnostic("simple", math.nan, detail)])


def certify_cap(chain: GeneratingChain, right, left):
    """Raise InadmissibleChainError unless _unwrap's runs, the cover's Arc
    pieces, bound a convex cap; O(n).  See involute_cover for the argument.

    Walks the cap curve (the chord u -> v, the right run, the left run) by
    each piece's outward normal angle: every arc sweeps forward, the arcs
    of a run meet G1 to within TURN_TOL, the corners at v, w and u turn by
    an angle in (0, pi), and the curve turns by 2 pi to within TURN_TOL.
    Each turn is reduced mod 2 pi exactly (math.remainder), so the total
    is a multiple of 2 pi up to rounding: a curve that winds twice reads
    4 pi.  The pocket's convexity and symmetry are validate_chain's, which
    involute_cover runs first.
    """
    (ux, uy), (vx, vy) = chain.u, chain.v
    # the chord's outward normal; an arc's normal turns from t0 to t1
    chord = math.atan2(vy - uy, vx - ux) - math.pi / 2
    normal, total, apex = chord, 0.0, len(right)
    for i, arc in enumerate(right + left):
        t0, t1 = arc.t0, arc.t1
        turn = math.remainder(t0 - normal, TWO_PI)
        if i == 0 or i == apex:
            if not 0.0 < turn < math.pi:
                corner = "v" if i == 0 else "the apex"
                raise _not_simple(f"corner at {corner} turns by {turn!r}")
        elif abs(turn) > TURN_TOL:
            raise _not_simple(f"arcs {i - 1} and {i} meet at an angle {turn!r}")
        if not t1 > t0:
            raise _not_simple(f"arc {i} turns backward")
        total += turn + (t1 - t0)
        normal = t1
    turn = math.remainder(chord - normal, TWO_PI)
    if not 0.0 < turn < math.pi:
        raise _not_simple(f"corner at u turns by {turn!r}")
    total += turn
    if abs(total - TWO_PI) > TURN_TOL:
        raise _not_simple(f"cap curve turns by {total!r}, not 2 pi")


def involute_cover(chain: GeneratingChain) -> CoverBundle:
    """Unwrap a unit string from both chain ends and close the region.

    The chain must pass validate_chain, then _unwrap's checks, and the
    boundary must be closed (is_closed, else OpenPathError) and pass
    certify_cap (else InadmissibleChainError, kind "simple").  That makes
    it simple:
    - the cap curve never turns backward and turns by 2 pi in total, so
      it is convex and simple and bounds a convex cap H; the upper run
      lies strictly on one side of the chord uv;
    - validate_chain leaves a chain with increasing x that turns clockwise
      only, so with the chord it bounds a convex pocket P on the same side;
    - each right-run point lies on a supporting line of P, beyond its
      contact vertex by the string's free length (_unwrap pins each
      radius to within WALK_GAP), so the run never enters the interior of P;
      nor does the left run, the mirror image, since validate_chain leaves
      P symmetric;
    - so P lies in H (a path inside P from the chord out of H would cross
      the upper run), and the region is H minus the interior of P.
    """
    diags = validate_chain(chain)
    if diags:
        raise InadmissibleChainError(diags)
    area, right, left = _unwrap(chain)
    path = _boundary(chain, right, left)
    check_closed(path)
    certify_cap(chain, right, left)
    return CoverBundle(chain=chain, boundary=path, area=check_ccw(area))


def _boundary(chain: GeneratingChain, right, left) -> ArcPath:
    """The chain's segments, then _unwrap's right and left runs as they are."""
    verts = chain.vertices
    return ArcPath([Seg(*a, *b) for a, b in zip(verts, verts[1:])] + right + left)


def half_chain_area(n: int, fracs, turns, bound=math.inf):
    """The area involute_cover(GeneratingChain.from_half_params(n, fracs,
    turns)) records, bit for bit: the same layout, chain, validate_chain
    and _unwrap walk, with no boundary path and no cap certificate; inf,
    from the layout alone, if _layout_settles shows it >= a bound > 0."""
    verts, layout = half_chain_layout(n, fracs, turns)
    if 0.0 < bound < math.inf and _layout_settles(verts, layout, bound):
        return math.inf
    chain = GeneratingChain(verts)
    diags = validate_chain(chain)
    if diags:
        raise InadmissibleChainError(diags)
    return check_ccw(_unwrap(chain)[0])


def chain_from_params(kind: str, params=None) -> GeneratingChain:
    """Vertex chain of a closed-form construction at its solved params, of
    its reference angles by default (see constructions.Construction)."""
    return constructions.construction(kind).chain(params)
