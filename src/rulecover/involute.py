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
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from . import constructions, numerics
from .geometry import (
    Arc,
    ArcPath,
    Region,
    Seg,
    SelfIntersectingPathError,
    arc_area,
    check_arc,
    check_ccw,
    seg_area,
)

LENGTH_TOL = 1e-12
SYMMETRY_TOL = 1e-9
TURN_TOL = 1e-9
CHORD_TOL = 1e-9  # a line this close to both u and v runs along the chord


class InadmissibleChainError(ValueError):
    """Chain violates an admissibility invariant; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        msg = "; ".join(str(d) for d in self.diagnostics) or "inadmissible chain"
        super().__init__(msg)


@dataclass(frozen=True)
class ChainDiagnostic:
    kind: str
    magnitude: float
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail} (magnitude {self.magnitude:.3e})"


@dataclass
class GeneratingChain:
    """Vertex chain u = p0 ... pn = v with derived lengths and turn angles.

    Derived fields: edge_lengths, cum_lengths (s_0..s_n from u), and
    turn_angles at interior vertices, positive when the chain bends away
    from the region above it (incoming direction minus outgoing direction).
    Construction performs no validation; see validate_chain.
    """

    vertices: tuple
    edge_lengths: tuple = field(init=False)
    cum_lengths: tuple = field(init=False)
    turn_angles: tuple = field(init=False)

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for (x, y) in self.vertices)
        if len(verts) < 2:
            raise ValueError("chain needs at least 2 vertices")
        self.vertices = verts
        lengths = []
        cum = [0.0]
        for i in range(len(verts) - 1):
            L = math.dist(verts[i], verts[i + 1])
            lengths.append(L)
            cum.append(cum[-1] + L)
        self.edge_lengths = tuple(lengths)
        self.cum_lengths = tuple(cum)
        dirs = [math.atan2(verts[i + 1][1] - verts[i][1],
                           verts[i + 1][0] - verts[i][0])
                for i in range(len(verts) - 1)]
        self.turn_angles = tuple(dirs[i] - dirs[i + 1] for i in range(len(dirs) - 1))

    @property
    def u(self):
        return self.vertices[0]

    @property
    def v(self):
        return self.vertices[-1]

    @property
    def n_edges(self) -> int:
        return len(self.edge_lengths)

    @property
    def total_length(self) -> float:
        return self.cum_lengths[-1]

    def mirrored(self) -> "GeneratingChain":
        return GeneratingChain(tuple((-x, y) for (x, y) in reversed(self.vertices)))

    # -- half-chain parameterization (length fractions + turn angles) ------

    def half_params(self):
        """(fracs, turns) describing the chain from u to the symmetry axis.

        Even edge count: m = n/2 edge lengths and m turns, the last being
        the full turn at the middle vertex.  Odd: m = n//2 edge lengths and
        m turns; the horizontal middle edge length is implied by total 1.
        """
        n = self.n_edges
        m = n // 2
        fracs = tuple(self.edge_lengths[:m])
        turns = tuple(self.turn_angles[:m])
        return fracs, turns

    @staticmethod
    def from_half_params(n: int, fracs, turns) -> "GeneratingChain":
        """Build the symmetric chain for given half-edge fractions and turns."""
        m = n // 2
        fracs = [float(f) for f in fracs]
        turns = [float(t) for t in turns]
        if n == 1:
            return GeneratingChain(((-0.5, 0.0), (0.5, 0.0)))
        if len(fracs) != m or len(turns) != m:
            raise ValueError(f"need {m} fractions and {m} turns for {n} edges")
        if min(fracs) <= 0:
            raise ValueError("edge fractions must be positive")
        if n % 2 == 0:
            total_half = numerics.ordered_sum(fracs)
            fracs = [f * 0.5 / total_half for f in fracs]
            deltas = [0.0] * m
            deltas[m - 1] = turns[m - 1] / 2
            for i in range(m - 2, -1, -1):
                deltas[i] = deltas[i + 1] + turns[i]
        else:
            mid = 1.0 - 2.0 * numerics.ordered_sum(fracs)
            if mid <= 0:
                raise ValueError("half fractions leave no middle edge")
            deltas = [0.0] * m
            for i in range(m - 1, -1, -1):
                deltas[i] = (deltas[i + 1] if i + 1 < m else 0.0) + turns[i]
        pts = [(0.0, 0.0)]
        for L, d in zip(fracs, deltas):
            x, y = pts[-1]
            pts.append((x + L * math.cos(d), y + L * math.sin(d)))
        if n % 2 == 0:
            shift = -pts[-1][0]  # middle vertex onto the y axis
            pts = [(x + shift, y) for (x, y) in pts]
            full = pts + [(-x, y) for (x, y) in reversed(pts[:-1])]
        else:
            shift = -(pts[-1][0] + mid / 2)  # middle edge centered on the axis
            pts = [(x + shift, y) for (x, y) in pts]
            full = pts + [(-x, y) for (x, y) in reversed(pts)]
        ytop = max(y for (_, y) in full)
        return GeneratingChain(tuple((x, y - ytop) for (x, y) in full))

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
        if "vertices" in d:
            return GeneratingChain(tuple((p[0], p[1]) for p in d["vertices"]))
        half = d["halfchain"]
        fracs = [h["len"] for h in half]
        turns = [h["turn"] for h in half]
        n = d.get("edges", 2 * len(half))
        return GeneratingChain.from_half_params(n, fracs, turns)


def validate_chain(chain: GeneratingChain):
    """All admissibility violations (empty list means admissible)."""
    out = []
    L = chain.total_length
    if abs(L - 1.0) > LENGTH_TOL:
        out.append(ChainDiagnostic("length", abs(L - 1.0),
                                   f"total length {L!r} != 1"))
    verts = chain.vertices
    n = len(verts) - 1
    worst = 0.0
    for k in range(len(verts)):
        mx, my = verts[n - k]
        dev = max(abs(verts[k][0] + mx), abs(verts[k][1] - my))
        worst = max(worst, dev)
    if worst > SYMMETRY_TOL:
        out.append(ChainDiagnostic("symmetry", worst,
                                   "not mirror-symmetric about the y axis"))
    for j, theta in enumerate(chain.turn_angles, start=1):
        if theta < -TURN_TOL:
            out.append(ChainDiagnostic(
                "concavity", -theta,
                f"negative turn angle {theta!r} at interior vertex {j}"))
    ux, uy = chain.u
    vx, vy = chain.v
    if not (ux < 0.0 < vx):
        out.append(ChainDiagnostic("endpoints", abs(ux) + abs(vx),
                                   "endpoints must straddle the y axis"))
    if abs(uy - vy) > SYMMETRY_TOL:
        out.append(ChainDiagnostic("endpoints", abs(uy - vy),
                                   "endpoint heights differ"))
    if vx > 1.0:
        out.append(ChainDiagnostic("endpoints", vx - 1.0,
                                   "half base exceeds the unit string"))
    for i in range(n):
        if verts[i + 1][0] <= verts[i][0]:
            out.append(ChainDiagnostic(
                "ordering", verts[i][0] - verts[i + 1][0],
                f"x coordinates not increasing at edge {i}"))
            break
    return out


class Pocket:
    """The convex pocket P of a cover: its chain closed by the chord uv.

    The upper run v -> w -> u has only counterclockwise arcs with G1 joints
    and a convex corner at the apex (_unwrap checks the positive sweeps and
    the positive final pivot), so with the chord uv it bounds a convex cap
    H.  The chain turns one way only, so with the same chord it bounds a
    convex set P inside H, and the cover is H minus the interior of P.
    For p and q on the upper run the line pq meets H only in the segment
    pq, which therefore stays in the cover iff the line does not cut the
    interior of P: a sign test of P's vertices against the line.

    Holds the chain's vertex coordinates and its edge direction angles.
    Building one raises InadmissibleChainError (a ValueError) when an edge
    runs against x or a turn is negative by more than TURN_TOL, since the
    bisection in depth() relies on both.
    """

    def __init__(self, vertices):
        self.xs = tuple(x for x, _ in vertices)
        self.ys = tuple(y for _, y in vertices)
        xs, ys = self.xs, self.ys
        n = len(xs) - 1
        angles = [math.atan2(ys[j + 1] - ys[j], xs[j + 1] - xs[j])
                  for j in range(n)]
        for j, a in enumerate(angles):
            if abs(a) > math.pi / 2 + TURN_TOL:
                raise InadmissibleChainError([ChainDiagnostic(
                    "ordering", abs(a) - math.pi / 2,
                    f"edge {j} runs against x")])
        for j in range(1, n):
            if angles[j] - angles[j - 1] > TURN_TOL:
                raise InadmissibleChainError([ChainDiagnostic(
                    "concavity", angles[j] - angles[j - 1],
                    f"negative turn angle at interior vertex {j}")])
        # non-increasing angles, negated so that bisect sees them ascending
        self.keys = tuple(-a for a in angles)
        cx, cy = xs[n] - xs[0], ys[n] - ys[0]
        chord = math.hypot(cx, cy)
        # the largest distance of the chain from the chord
        self.sag = max((abs(cx * (ys[j] - ys[0]) - cy * (xs[j] - xs[0])) / chord
                        for j in range(1, n)), default=0.0)

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


@dataclass
class CoverBundle:
    """A cover: chain below, two involute arc runs meeting at the apex."""

    chain: GeneratingChain
    region: Region
    apex: tuple
    left_arcs: tuple    # traced w -> u, as on the boundary
    right_arcs: tuple   # traced v -> w, as on the boundary
    area: float
    final_pivot: float

    @cached_property
    def upper_path(self) -> ArcPath:
        """Boundary pieces above the chain, traced v -> w -> u.

        Built once per bundle, so the piece table compiled on it is kept
        across verify and fold calls; nothing reassigns `region`.
        """
        return ArcPath(self.region.boundary.pieces[self.chain.n_edges:])

    @cached_property
    def pocket(self) -> Pocket:
        """The chain's Pocket, built on first use by verify or fold."""
        return Pocket(self.chain.vertices)

    @property
    def n_right_upper(self) -> int:
        return len(self.right_arcs)


def _unwrap(chain: GeneratingChain, validate: bool = True):
    """Admissibility checks and both involute runs, as plain numbers.

    Runs every check of an unaudited build: validate_chain, the unwrap
    radii, the Arc radius/sweep guards, a positive final pivot and the apex
    distance.  Returns (apex, right, left, final pivot), where right and
    left are lists of arc records (cx, cy, r, t0, t1) in boundary order:
    right traced v -> w, left (its mirror image) traced w -> u.
    """
    if validate:
        diags = validate_chain(chain)
        if diags:
            raise InadmissibleChainError(diags)

    verts = chain.vertices
    cum = chain.cum_lengths
    turns = chain.turn_angles
    n = chain.n_edges
    ux, uy = verts[0]
    vx, vy = verts[-1]
    w = (0.0, vy + math.sqrt(max(0.0, 1.0 - vx * vx)))

    # right involute, traced from v: pivot interior vertices from the v side
    # with the still-wrapped radius 1 - s_k, then swing about u to the apex
    right = []
    end = (vx, vy)
    for k in range(n - 1, 0, -1):
        cx, cy = verts[k]
        r = 1.0 - cum[k]
        ang0 = math.atan2(end[1] - cy, end[0] - cx)
        if abs(math.dist(end, verts[k]) - r) > 1e-9:
            raise InadmissibleChainError([ChainDiagnostic(
                "unwrap", abs(math.dist(end, verts[k]) - r),
                f"string end not at pivot radius at vertex {k}")])
        theta = turns[k - 1]
        if theta > 1e-14:
            ang1 = ang0 + theta
            check_arc(r, ang0, ang1)
            right.append((cx, cy, r, ang0, ang1))
            end = (cx + r * math.cos(ang1), cy + r * math.sin(ang1))
    if abs(math.dist(end, (ux, uy)) - 1.0) > 1e-9:
        raise InadmissibleChainError([ChainDiagnostic(
            "unwrap", abs(math.dist(end, (ux, uy)) - 1.0),
            "fully unwrapped string is not unit length")])
    ang0 = math.atan2(end[1] - uy, end[0] - ux)
    ang_w = math.atan2(w[1] - uy, w[0] - ux)
    final_pivot = ang_w - ang0
    if final_pivot <= 1e-12:
        raise InadmissibleChainError([ChainDiagnostic(
            "closure", -final_pivot, "final pivot angle not positive")])
    check_arc(1.0, ang0, ang_w)
    right.append((ux, uy, 1.0, ang0, ang_w))

    for p in (chain.u, chain.v):
        if abs(math.dist(p, w) - 1.0) > 1e-9:
            raise InadmissibleChainError([ChainDiagnostic(
                "closure", abs(math.dist(p, w) - 1.0),
                "apex not at unit distance from chain endpoints")])
    # the mirror image about the y axis (angle t -> pi - t), traced w -> u
    left = [(-cx, cy, r, math.pi - t1, math.pi - t0)
            for cx, cy, r, t0, t1 in reversed(right)]
    return w, right, left, final_pivot


def involute_cover(chain: GeneratingChain, validate: bool = True,
                   check_boundary: bool = True) -> CoverBundle:
    """Unwrap a unit string from both chain ends and close the region.

    check_boundary=False skips the closed/simple boundary audit (the
    construction guarantees closure; cover_area gives that build's area
    without building it).
    """
    w, right, left, final_pivot = _unwrap(chain, validate)
    verts = chain.vertices
    n = chain.n_edges
    pieces = [Seg(*verts[i], *verts[i + 1]) for i in range(n)]
    pieces.extend(Arc(*a) for a in right)
    pieces.extend(Arc(*a) for a in left)
    try:
        region = Region.from_path(ArcPath(pieces), check=check_boundary)
    except SelfIntersectingPathError as exc:
        raise InadmissibleChainError([ChainDiagnostic(
            "simple", math.nan, f"involute boundary self-intersects: {exc}")])

    pieces, k = region.boundary.pieces, len(right)
    return CoverBundle(chain=chain, region=region, apex=w,
                       left_arcs=pieces[n + k:], right_arcs=pieces[n:n + k],
                       area=region.area, final_pivot=final_pivot)


def cover_area(chain: GeneratingChain) -> float:
    """Area of involute_cover(chain, check_boundary=False), bit for bit.

    Runs the same admissibility checks and builds no pieces: the Green's-
    theorem terms of _unwrap's records are summed in the boundary's order
    (chain segments, the right run v -> w, then the left run w -> u) with
    the formulas arc_path_area uses, so the float sum is the same.
    """
    _, right, left, _ = _unwrap(chain)
    verts = chain.vertices
    total = 0.0
    for i in range(chain.n_edges):
        total += seg_area(*verts[i], *verts[i + 1])
    for a in right:
        total += arc_area(*a)
    for a in left:
        total += arc_area(*a)
    return check_ccw(total)


def chain_from_params(kind: str, params=None) -> GeneratingChain:
    """Explicit vertex chain of a closed-form construction (see constructions)."""
    return constructions.construction(kind).chain(params)
