"""Exact circular-arc path geometry.

Boundaries are ordered paths of two piece kinds: straight segments and
circular arcs.  Points are plain ``(x, y)`` float tuples; a region is its
boundary path (a cover's path and area are an involute.CoverBundle).
Areas come from the exact per-piece antiderivatives of (1/2)∮(x dy -
y dx).  The distance and circle scans take paths of counterclockwise arcs
only, as a cover's upper run is (see involute.certify_cap); intersections
with circles are quadratic solves, one pass for many radii.  There is no
general point-in-region test: a cover is a convex cap minus a convex
pocket, and verify decides containment from that shape.

Tolerances (unit-scale geometry): path stitching 1e-9, point dedup 1e-9.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter, le

from .numerics import ordered_sum

STITCH_TOL = 1e-9
DEDUP_TOL = 1e-9
TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    pass


class OpenPathError(GeometryError):
    pass


class Seg:
    """Directed straight piece from (x0, y0) to (x1, y1)."""

    __slots__ = ("x0", "y0", "x1", "y1")

    def __init__(self, x0: float, y0: float, x1: float, y1: float):
        self.x0 = x0
        self.y0 = y0
        self.x1 = x1
        self.y1 = y1

    @property
    def start(self):
        return (self.x0, self.y0)

    @property
    def end(self):
        return (self.x1, self.y1)

    def length(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def point_at(self, s: float):
        return (self.x0 + s * (self.x1 - self.x0),
                self.y0 + s * (self.y1 - self.y0))

    def to_json(self) -> dict:
        return {"kind": "seg", "x0": self.x0, "y0": self.y0,
                "x1": self.x1, "y1": self.y1}


class Arc:
    """Circular arc traced from angle t0 to t1 about (cx, cy).

    Counterclockwise iff t1 > t0; |t1 - t0| <= 2*pi.  radius = 0 is a
    degenerate marker only and never appears on boundary paths.
    """

    __slots__ = ("cx", "cy", "r", "t0", "t1")

    def __init__(self, cx: float, cy: float, r: float, t0: float, t1: float):
        check_arc(r, t0, t1)
        self.cx = cx
        self.cy = cy
        self.r = r
        self.t0 = t0
        self.t1 = t1

    @property
    def sweep(self) -> float:
        return self.t1 - self.t0

    @property
    def ccw(self) -> bool:
        return self.t1 >= self.t0

    @property
    def start(self):
        return (self.cx + self.r * math.cos(self.t0),
                self.cy + self.r * math.sin(self.t0))

    @property
    def end(self):
        return (self.cx + self.r * math.cos(self.t1),
                self.cy + self.r * math.sin(self.t1))

    def length(self) -> float:
        return self.r * abs(self.sweep)

    def point_at(self, s: float):
        t = self.t0 + s * (self.t1 - self.t0)
        return (self.cx + self.r * math.cos(t),
                self.cy + self.r * math.sin(t))

    def to_json(self) -> dict:
        return {"kind": "arc", "cx": self.cx, "cy": self.cy, "r": self.r,
                "a0": self.t0, "a1": self.t1, "ccw": self.ccw}


def check_arc(r, t0, t1):
    """Raise GeometryError unless (r, t0, t1) is an admissible Arc."""
    if r < 0:
        raise GeometryError(f"negative radius {r}")
    if abs(t1 - t0) > TWO_PI + 1e-9:
        raise GeometryError("arc sweep exceeds full turn")


class ArcPath:
    """Ordered run of Seg/Arc pieces; consecutive endpoints must stitch."""

    __slots__ = ("pieces", "_compiled")

    def __init__(self, pieces):
        self.pieces = tuple(pieces)
        self._compiled = None

    def __repr__(self):
        return f"ArcPath({len(self.pieces)} pieces)"

    def __len__(self):
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    def stitch_gap(self) -> float:
        """Largest endpoint mismatch between consecutive pieces."""
        worst = 0.0
        ps = self.pieces
        for i in range(len(ps) - 1):
            worst = max(worst, math.dist(ps[i].end, ps[i + 1].start))
        return worst

    def closure_gap(self) -> float:
        return math.dist(self.pieces[-1].end, self.pieces[0].start)

    def is_closed(self) -> bool:
        return (len(self.pieces) > 0 and self.stitch_gap() <= STITCH_TOL
                and self.closure_gap() <= STITCH_TOL)

    def length(self) -> float:
        return ordered_sum(p.length() for p in self.pieces)

    def vertices(self):
        return [p.start for p in self.pieces] + [self.pieces[-1].end]

    def indexed_samples(self, n: int):
        """(piece index, point) for each point of `sample(n)`."""
        total = self.length()
        for idx, p in enumerate(self.pieces):
            k = max(1, round(n * p.length() / total)) if total > 0 else 1
            for j in range(k):
                yield idx, p.point_at(j / k)
        yield len(self.pieces) - 1, self.pieces[-1].end

    def sample(self, n: int):
        """~n points spread by arc length, always keeping piece endpoints."""
        return [q for _, q in self.indexed_samples(n)]

    def polygonize(self, max_arc_step: float = TWO_PI / 64):
        """Chords approximating the path: list of (x0, y0, x1, y1, piece_idx)."""
        chords = []
        for idx, p in enumerate(self.pieces):
            if isinstance(p, Seg):
                chords.append((p.x0, p.y0, p.x1, p.y1, idx))
            else:
                k = max(2, math.ceil(abs(p.sweep) / max_arc_step))
                prev = p.start
                for j in range(1, k + 1):
                    cur = p.point_at(j / k)
                    chords.append((prev[0], prev[1], cur[0], cur[1], idx))
                    prev = cur
        return chords

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}


# --------------------------------------------------------------------------
# area

def seg_area(x0, y0, x1, y1) -> float:
    """Green's-theorem term (1/2)∫(x dy - y dx) of the segment (x0, y0)-(x1, y1)."""
    return 0.5 * (x0 * y1 - x1 * y0)


def arc_area(cx, cy, r, t0, t1) -> float:
    """Green's-theorem term of the arc from angle t0 to t1 about (cx, cy)."""
    # (1/2)∫(x dy - y dx) over x = cx + r cos t, y = cy + r sin t
    cos0, sin0, cos1, sin1 = math.cos(t0), math.sin(t0), math.cos(t1), math.sin(t1)
    return 0.5 * (r * r * (t1 - t0) + r * (cx * (sin1 - sin0) + cy * (cos0 - cos1)))


def check_closed(path: ArcPath):
    """Raise OpenPathError unless the path's pieces stitch into a loop."""
    if not path.is_closed():
        raise OpenPathError(
            f"path not closed (stitch gap {path.stitch_gap():.2e}, "
            f"closure gap {path.closure_gap():.2e})")


def arc_path_area(path: ArcPath) -> float:
    """Signed area of a closed path; counterclockwise is positive.  Unchecked
    for simplicity: certify_cap certifies every cover, and scaling keeps it."""
    check_closed(path)
    total = 0.0
    for p in path.pieces:
        if isinstance(p, Seg):
            total += seg_area(p.x0, p.y0, p.x1, p.y1)
        else:
            total += arc_area(p.cx, p.cy, p.r, p.t0, p.t1)
    return total


def check_ccw(area: float) -> float:
    """`area` if positive, else GeometryError: a boundary runs counterclockwise."""
    if not area > 0:
        raise GeometryError(
            f"boundary must be counterclockwise (signed area {area:.3e})")
    return area


# --------------------------------------------------------------------------
# simplicity (checked on a chord approximation, endpoint-sharing pairs skipped)

def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _chords_cross(c1, c2) -> bool:
    ax, ay, bx, by = c1[0], c1[1], c1[2], c1[3]
    cx, cy, dx, dy = c2[0], c2[1], c2[2], c2[3]
    scale = (abs(bx - ax) + abs(by - ay)) * (abs(dx - cx) + abs(dy - cy))
    eps = 1e-13 * max(scale, 1e-13)
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and \
       ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)):
        return True
    return False


def _share_endpoint(c1, c2, tol: float) -> bool:
    for (x, y) in ((c1[0], c1[1]), (c1[2], c1[3])):
        for (u, v) in ((c2[0], c2[1]), (c2[2], c2[3])):
            if abs(x - u) <= tol and abs(y - v) <= tol:
                return True
    return False


def path_self_intersects(path: ArcPath) -> bool:
    """Chord crossing test at polygonization resolution, by sort and sweep.

    The chords are taken in order of their least x, each compared with the
    earlier chords of other pieces whose x range reaches it: two chords
    that properly cross share a point, so their x ranges overlap.  One
    piece's chords never properly cross each other: a segment is a single
    chord, and an arc's chords form a convex inscribed polyline.
    """
    active = []
    for c in sorted(path.polygonize(), key=lambda c: min(c[0], c[2])):
        lo = min(c[0], c[2])
        active = [a for a in active if max(a[0], a[2]) >= lo]
        for a in active:
            if (a[4] != c[4] and not _share_endpoint(a, c, 1e-8)
                    and _chords_cross(a, c)):
                return True
        active.append(c)
    return False


# --------------------------------------------------------------------------
# compiled piece tables for the hot paths
#
# The table is a list of blocks (gx, gy, grad, rows): up to BLOCK_SIZE
# consecutive rows (bcx, bcy, brad, idx, piece) in path order, where idx is
# the piece's index on the path and piece is the counterclockwise arc's
#   (cx, cy, r, t0, sweep, sx, sy, endx, endy)
# Every point a scan may count on a piece lies in the row's circle
# (bcx, bcy, brad), and every row circle padded by BOUND_PAD lies in its
# block's circle (gx, gy, grad), so the scans skip a block or a row whose
# circle misses the query before any per-piece math.  An arc of
# sweep <= pi gets the circle on its chord as diameter (its farthest
# points from the chord midpoint are its endpoints), a longer arc its own
# circle; both padded by BOUND_PAD, which covers the 1e-9 arc-length
# endpoint slack the scans accept plus rounding.  The circle scan adds its
# own tolerance, DEDUP_TOL.
#
# The table is the module's one spatial index; only the two scans below,
# boundary_distance and circle_path_hits, use it.  Compiling it refuses a
# segment or a clockwise arc: no scanned path holds one.

BLOCK_SIZE = 16
BOUND_PAD = 1e-8


def _row(idx, p):
    if not (isinstance(p, Arc) and p.sweep >= 0):
        raise GeometryError(
            f"piece {idx} is not a counterclockwise arc: {p.to_json()}")
    sx, sy = p.start
    endx, endy = p.end
    if p.sweep <= math.pi:
        bcx, bcy = 0.5 * (sx + endx), 0.5 * (sy + endy)
        brad = 0.5 * math.hypot(endx - sx, endy - sy) + BOUND_PAD
    else:
        bcx, bcy, brad = p.cx, p.cy, p.r + BOUND_PAD
    return (bcx, bcy, brad, idx,
            (p.cx, p.cy, p.r, p.t0, p.sweep, sx, sy, endx, endy))


def _block(rows):
    # centre of the box around the padded row circles; not the smallest circle
    pads = [(x, y, r + BOUND_PAD) for (x, y, r, _, _) in rows]
    gx = 0.5 * (min(x - r for x, _, r in pads) + max(x + r for x, _, r in pads))
    gy = 0.5 * (min(y - r for _, y, r in pads) + max(y + r for _, y, r in pads))
    grad = max(math.hypot(x - gx, y - gy) + r for x, y, r in pads)
    return (gx, gy, grad, tuple(rows))


def _compiled(path: ArcPath):
    table = path._compiled
    if table is None:
        rows = [_row(idx, p) for idx, p in enumerate(path.pieces)]
        table = [_block(rows[k:k + BLOCK_SIZE])
                 for k in range(0, len(rows), BLOCK_SIZE)]
        path._compiled = table
    return table


def _arc_fraction(t0, sweep, phi, slack):
    """Fraction in [0, 1] along the counterclockwise arc (t0, sweep >= 0)
    at angle phi, or None.

    None when phi lies more than slack outside the arc.  Angles within slack
    before the start give 0 (first, near a full turn), past the end 1; a
    negative slack shrinks the far end only.  sweep <= 1e-15 answers 0.
    """
    rel = (phi - t0) % TWO_PI
    if not (rel <= sweep + slack or rel >= TWO_PI - slack):
        return None
    if rel > sweep:
        rel = rel - TWO_PI if rel >= TWO_PI - slack else sweep
    if sweep <= 1e-15:
        return 0.0
    s = rel / sweep
    # min(max(s, 0.0), 1.0) as conditionals: the same float, -0.0 and nan too
    return 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)


# --------------------------------------------------------------------------
# distances

def boundary_distance(path: ArcPath, point) -> float:
    """Distance from point to a path of counterclockwise arcs."""
    px, py = point
    best = math.inf
    for (gx, gy, grad, rows) in _compiled(path):
        if math.hypot(px - gx, py - gy) - grad >= best:
            continue
        for (bcx, bcy, brad, _, piece) in rows:
            if math.hypot(px - bcx, py - bcy) - brad >= best:
                continue
            (cx, cy, r, t0, sweep, sx, sy, endx, endy) = piece
            dc = math.hypot(px - cx, py - cy)
            if abs(dc - r) >= best:
                continue
            if dc > 1e-15 and _arc_fraction(
                    t0, sweep, math.atan2(py - cy, px - cx), 0.0) is not None:
                d = abs(dc - r)
            else:
                d = min(math.hypot(px - sx, py - sy),
                        math.hypot(px - endx, py - endy))
            if d < best:
                best = d
    return best


# --------------------------------------------------------------------------
# circle intersections

def circle_path_intersections(center, r, path: ArcPath):
    """All (piece_index, piece_param, point) hits, deduped, in path order."""
    return circle_path_hits(center, (r,), path)[0]


def circle_path_hits(center, radii, path: ArcPath):
    """[circle_path_intersections(center, r, path) for r in radii], in one pass.

    `radii`: non-empty and ascending (repeats allowed), else ValueError;
    `path`: counterclockwise arcs only, else GeometryError.
    A block or row is kept for r unless its circle lies beyond r + DEDUP_TOL
    or short of r - DEDUP_TOL; both bounds ascend with r, so bisecting them
    finds exactly the radii to solve it for.  What depends on the centre
    alone, or on the centre and one piece (an arc's unit direction from the
    centre), is hoisted, expressions unchanged: every hit is the same float.
    """
    end = len(radii)
    if not end or end > 1 and not all(map(le, radii, radii[1:])):
        raise ValueError(f"radii must be non-empty and ascending, got {radii!r}")
    qx, qy = center
    if end > 1:
        beyond = [r + DEDUP_TOL for r in radii]
        short = [r - DEDUP_TOL for r in radii]
    raws = [[] for _ in radii]
    hypot, sqrt, atan2, cos, sin = (math.hypot, math.sqrt, math.atan2,
                                    math.cos, math.sin)
    for (gx, gy, grad, rows) in _compiled(path):
        # prune blocks, then pieces, whose bounding circle misses every annulus
        dbc = hypot(qx - gx, qy - gy)
        if dbc - grad > radii[-1] + DEDUP_TOL or dbc + grad < radii[0] - DEDUP_TOL:
            continue
        glo, ghi = 0, end
        if end > 1:
            glo = bisect_left(beyond, dbc - grad)
            ghi = bisect_right(short, dbc + grad, glo)
            if glo == ghi:
                continue
        far, near = radii[ghi - 1] + DEDUP_TOL, radii[glo] - DEDUP_TOL
        for (bcx, bcy, brad, idx, piece) in rows:
            dbc = hypot(qx - bcx, qy - bcy)
            if dbc - brad > far or dbc + brad < near:
                continue
            lo, hi = glo, ghi
            if hi - lo > 1:
                lo = bisect_left(beyond, dbc - brad, lo, hi)
                hi = bisect_right(short, dbc + brad, lo, hi)
                if lo == hi:
                    continue
            (cx, cy, ar, t0, sweep, sx, sy, endx, endy) = piece
            dxc, dyc = cx - qx, cy - qy
            d = hypot(dxc, dyc)
            dd, ar2, d2 = d * d, ar * ar, 2 * d
            dlo, dhi = d - ar, d + ar
            if d > 1e-15:
                ux, uy = dxc / d, dyc / d
            slack = 1e-9 / (ar if ar > 1e-9 else 1e-9)
            for k in range(lo, hi):
                r = radii[k]
                if dlo > r + DEDUP_TOL or dhi < r - DEDUP_TOL:
                    continue
                if d <= DEDUP_TOL:
                    if abs(r - ar) <= DEDUP_TOL:
                        # coincident circles: arc endpoints stand in for the continuum
                        raws[k].append((idx, 0.0, (sx, sy)))
                        raws[k].append((idx, 1.0, (endx, endy)))
                        continue
                    if d <= 1e-15:
                        continue
                rr = r * r
                x = (dd + rr - ar2) / d2
                h2 = rr - x * x
                if h2 < -1e-15:
                    continue
                h = sqrt(h2) if h2 > 0 else 0.0
                bx, by = qx + x * ux, qy + x * uy
                hux, huy = h * ux, h * uy
                cands = (((bx - huy, by + hux), (bx + huy, by - hux)) if h > 1e-12
                         else ((bx - huy, by + hux),))
                for (hx, hy) in cands:
                    phi = atan2(hy - cy, hx - cx)
                    s = _arc_fraction(t0, sweep, phi, slack)
                    if s is None:
                        continue
                    raws[k].append((idx, s, (cx + ar * cos(phi), cy + ar * sin(phi))))
    for raw in raws:
        if len(raw) == 2:
            # the sort and dedup below for two hits: one comparison, one dist
            a, b = raw
            if b[0] < a[0] or b[0] == a[0] and b[1] < a[1]:
                raw.reverse()
                a, b = b, a
            if not math.dist(b[2], a[2]) > DEDUP_TOL:
                raw.pop()
        elif len(raw) > 2:
            raw.sort(key=itemgetter(0, 1))  # (piece index, param)
            out = raw[:1]
            for item in raw[1:]:
                if all(math.dist(item[2], o[2]) > DEDUP_TOL for o in out):
                    out.append(item)
            raw[:] = out
    return raws


# --------------------------------------------------------------------------
# diameter (boundary samples -> convex hull -> rotating calipers)

def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts, pts
    upper, lower = [], []
    # _orient(a, b, p) inlined: 4,096 samples make this loop hot
    for p in pts:
        px, py = p
        while len(upper) > 1:
            (ax, ay), (bx, by) = upper[-2], upper[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0:
                upper.pop()
            else:
                break
        while len(lower) > 1:
            (ax, ay), (bx, by) = lower[-2], lower[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0:
                lower.pop()
            else:
                break
        upper.append(p)
        lower.append(p)
    return upper, lower


def _antipodal_pairs(points):
    upper, lower = _convex_hull(points)
    i, j = 0, len(lower) - 1
    while i < len(upper) - 1 or j > 0:
        yield upper[i], lower[j]
        if i == len(upper) - 1:
            j -= 1
        elif j == 0:
            i += 1
        elif ((upper[i + 1][1] - upper[i][1]) * (lower[j][0] - lower[j - 1][0])
              > (lower[j][1] - lower[j - 1][1]) * (upper[i + 1][0] - upper[i][0])):
            i += 1
        else:
            j -= 1
    yield upper[-1], lower[0]


def region_diameter(path: ArcPath, n: int = 4096) -> float:
    """Max pairwise distance over ~n samples of a region's boundary path
    plus its vertices.

    Only the arcs' samples go to the hull, with every vertex.  A segment's
    interior samples lie between its ends, which are vertices, so they are
    not hull vertices and the hull is that of all the samples.  On a cover
    the segments are the chain, which lies below the chord uv (or on it,
    exactly, when flat), so rounding cannot lift a sample onto the hull;
    leaving them out saves about 30% of the points.
    """
    if n < 64:
        raise ValueError("need at least 64 samples")
    is_arc = [isinstance(p, Arc) for p in path.pieces]
    pts = [q for idx, q in path.indexed_samples(n) if is_arc[idx]]
    pts.extend(path.vertices())
    best = 0.0
    for a, b in _antipodal_pairs(pts):
        d = math.dist(a, b)
        if d > best:
            best = d
    return best


# --------------------------------------------------------------------------
# transforms shared by covers and mutants

def scale_piece(piece, factor: float):
    """The piece scaled by `factor` about the origin."""
    if isinstance(piece, Seg):
        return Seg(factor * piece.x0, factor * piece.y0,
                   factor * piece.x1, factor * piece.y1)
    return Arc(factor * piece.cx, factor * piece.cy, factor * piece.r,
               piece.t0, piece.t1)
