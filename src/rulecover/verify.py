"""Numerical verification of the cover property and the folding strategy.

A cover is exercised, never proved: sample points p on the two upper arcs
and lengths l in (0, 1], and demand some other upper-arc point q with
|pq| = l whose segment stays inside the region, all lengths of one p
from one pass over the upper arcs.  The online folding strategy places
each next joint greedily at such a q.  Failures are data, not errors;
they feed the report.

Containment needs no general point-in-region test.  Every cover is a
convex cap H (the upper arcs closed by the chord uv) minus the interior of
the convex pocket P (the chain closed by the same chord), see
involute.Pocket.  The argument needs p and q on the upper arcs, so on the
boundary of H: then the segment pq stays in the region iff the line pq
does not cut into P; a segment along the chord itself counts as leaving it,
unless the chain is flat.  The tolerance eps bounds that cut: a candidate is
admissible when Pocket.depth(p, q) <= eps, so boundary contact (the
corner points the constructions use) counts as inside.  Pocket.admits
skips the depth test when p and q both lie at or above the pocket's
highest vertex: P lies below that height and the segment above it, so
they share boundary points at most, the depth is 0.0 and the verdict is
the same for every eps >= 0.  check_fold tests each fold segment with
segment_inside: its joints must lie on the upper arcs, and the line must
cut at most eps into P by a scan over every chain vertex, which shares no
code with Pocket.depth's bisection, so a fold is checked independently of
how fold_rule found it.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .geometry import (
    ArcPath,
    arc_path_area,
    boundary_distance,
    check_ccw,
    circle_path_hits,
    circle_path_intersections,
    region_diameter,
    scale_piece,
)
from .involute import CHORD_TOL, CoverBundle, GeneratingChain

DEFAULT_EPS = 1e-9
SAME_POINT = 1e-12  # a candidate q this close to p is the trivial q = p
ON_ARCS = 1e-9  # a joint this close to the upper arcs lies on them


class FoldFailureError(RuntimeError):
    """No admissible next joint; carries the segment index and point."""

    def __init__(self, index: int, point, length: float):
        super().__init__(
            f"no admissible joint for segment {index} of length {length!r} "
            f"from point {point!r}")
        self.index = index
        self.point = point
        self.length = length


class Rule:
    """A carpenter's rule: the sequence of its segment lengths."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: tuple):
        ls = tuple(float(x) for x in lengths)
        if not ls:
            raise ValueError("rule needs at least one segment")
        if any(not 0.0 < x <= 1.0 for x in ls):
            raise ValueError("every segment length must be in (0, 1]")
        self.lengths = ls


class Fold(NamedTuple):
    """Joint positions realizing a rule inside a cover (one more than segments)."""

    joints: tuple


class VerificationReport(NamedTuple):
    points: int
    lengths: int
    failures: list
    diameter: float
    eps: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "points": self.points,
            "lengths": self.lengths,
            "failures": [{"p": [p[0], p[1]], "l": l} for (p, l) in self.failures],
            "diameter": self.diameter,
            "eps": self.eps,
            "passed": self.passed,
        }


def random_rule(n: int, seed: int) -> Rule:
    """n segment lengths drawn uniformly from (0, 1]."""
    rng = random.Random(seed)
    return Rule(tuple(1.0 - rng.random() for _ in range(n)))


def _candidates(cover: CoverBundle, p, side, length: float):
    """(q, side of q) for upper-arc points q at distance `length` from p:
    opposite side first, then path order.  A q's side is its piece's (0
    right, 1 left)."""
    n_right = cover.n_right_upper
    right, left = [], []
    # a loop: hits are 1-3, too few for comprehensions
    for (idx, _, q) in circle_path_intersections(p, length, cover.upper_path):
        if idx < n_right:
            right.append((q, 0))
        else:
            left.append((q, 1))
    return left + right if side == 0 else right + left


def verify_reachability(cover: CoverBundle, n_points: int = 256,
                        n_lengths: int = 256,
                        eps: float = DEFAULT_EPS) -> VerificationReport:
    """Sampled test of the boundary reachability property.

    For every sampled p on the upper arcs and every length l = i/n_lengths
    (so l = 1 is always exercised), search the exact circle intersections
    with the upper arcs (one pass for all lengths of p), in path order,
    for a q whose segment pq cuts at most eps into the cover's pocket.
    Only whether such a q exists enters the report, so the order in which
    the candidates are tried cannot change it; fold_rule alone depends on
    its opposite-side-first order.  eps must be finite and non-negative: a
    nan would admit no candidate, an infinite eps would switch off the
    containment test and the diameter bound.
    """
    if n_points < 16 or n_lengths < 16:
        raise ValueError("need at least 16 point and 16 length samples")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps!r}")
    pocket = cover.pocket
    upper = cover.upper_path
    samples = upper.sample(n_points)
    lengths = [i / n_lengths for i in range(1, n_lengths + 1)]
    failures = []
    for p in samples:
        for length, hits in zip(lengths, circle_path_hits(p, lengths, upper)):
            found = False
            for (_, _, q) in hits:
                if math.dist(p, q) <= SAME_POINT:
                    continue  # the trivial point q = p does not count
                if pocket.admits(p, q, eps):
                    found = True
                    break
            if not found:
                failures.append((p, length))
    diameter = region_diameter(cover.boundary)
    passed = not failures and diameter <= 1.0 + eps
    return VerificationReport(points=len(samples), lengths=n_lengths,
                              failures=failures, diameter=diameter,
                              eps=eps, passed=passed)


def fold_rule(cover: CoverBundle, rule: Rule, seed=None) -> Fold:
    """Greedy online folding: every joint lands on the upper arcs.

    The first joint sits at u.  With seed None each step takes the first
    admissible candidate (opposite arc preferred, then path order); with an
    integer seed the step picks uniformly among all admissible candidates,
    deterministically for that seed.
    """
    rng = random.Random(seed) if seed is not None else None
    pocket = cover.pocket
    joints = [cover.chain.u]
    side = 1  # u terminates the left involute
    for index, length in enumerate(rule.lengths):
        p = joints[-1]
        admissible = []
        for q, q_side in _candidates(cover, p, side, length):
            dist = math.dist(p, q)
            if dist <= SAME_POINT or abs(dist - length) > 1e-9:
                continue
            if pocket.admits(p, q, DEFAULT_EPS):
                if rng is None:
                    admissible = [(q, q_side)]
                    break
                admissible.append((q, q_side))
        if not admissible:
            raise FoldFailureError(index, p, length)
        q, side = (admissible[0] if rng is None
                   else admissible[rng.randrange(len(admissible))])
        joints.append(q)
    return Fold(joints=tuple(joints))


def segment_inside(cover: CoverBundle, p, q, eps: float = DEFAULT_EPS) -> bool:
    """True iff p and q lie on the upper arcs and the line pq cuts at most
    eps into the cover's pocket.

    The cut is Pocket.depth's, read from every chain vertex rather than
    from a bisection: the lesser of the largest distances on either side
    of the line, or the chain's sag when the line runs within CHORD_TOL of
    both u and v.  Both are the same for either direction of the line, so
    unlike depth() this needs no turning of pq into (-pi/2, pi/2].  A
    segment of length 0 is the point p.
    """
    upper = cover.upper_path
    if (boundary_distance(upper, p) > ON_ARCS
            or boundary_distance(upper, q) > ON_ARCS):
        return False
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return True
    dx, dy = dx / norm, dy / norm
    s = [dx * (y - py) - dy * (x - px) for x, y in cover.chain.vertices]
    if abs(s[0]) <= CHORD_TOL and abs(s[-1]) <= CHORD_TOL:
        return cover.pocket.sag <= eps
    return min(max(max(s), 0.0), -min(min(s), 0.0)) <= eps


def check_fold(cover: CoverBundle, rule: Rule, fold: Fold):
    """Assert the Fold invariants independently of how it was produced."""
    if len(fold.joints) != len(rule.lengths) + 1:
        raise AssertionError("joint count does not match rule")
    for i, length in enumerate(rule.lengths):
        d = math.dist(fold.joints[i], fold.joints[i + 1])
        if abs(d - length) > 1e-9:
            raise AssertionError(
                f"segment {i} has length {d!r}, expected {length!r}")
        if not segment_inside(cover, fold.joints[i], fold.joints[i + 1]):
            raise AssertionError(f"segment {i} leaves the cover")
    return True


def shrink_cover(cover: CoverBundle, factor: float = 0.95) -> CoverBundle:
    """Adversarial control: the cover scaled by `factor` about the origin.

    The result is not a valid cover (its chain is not as long as the unit
    string), which is the point: the verifier must reject it.  Scaling keeps
    the chain's x order and turn angles, which its pocket relies on.
    """
    path = ArcPath([scale_piece(p, factor) for p in cover.boundary.pieces])
    verts = tuple((factor * x, factor * y) for (x, y) in cover.chain.vertices)
    return CoverBundle(chain=GeneratingChain(verts), boundary=path,
                       area=check_ccw(arc_path_area(path)))
