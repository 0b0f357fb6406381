import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulecover import geometry, involute, smooth
from rulecover.geometry import (
    Arc,
    ArcPath,
    BLOCK_SIZE,
    GeometryError,
    OpenPathError,
    Seg,
    TWO_PI,
    arc_path_area,
    boundary_distance,
    check_ccw,
    circle_path_hits,
    circle_path_intersections,
    path_self_intersects,
    region_diameter,
    scale_piece,
)
from rulecover.involute import (
    GeneratingChain,
    InadmissibleChainError,
    involute_cover,
)
from rulecover.search import ChainParams, perturb
from rulecover.verify import shrink_cover

R2_AREA = math.pi / 3 - math.sqrt(3) / 4
W = (0.0, math.sqrt(3) / 2)


def r2_path():
    return ArcPath([
        Seg(-0.5, 0.0, 0.5, 0.0),
        Arc(-0.5, 0.0, 1.0, 0.0, math.pi / 3),
        Arc(0.5, 0.0, 1.0, 2 * math.pi / 3, math.pi),
    ])


def r2_upper_path():
    """r2's upper run, v -> w -> u: the two arcs, without the base edge."""
    return ArcPath(r2_path().pieces[1:])


def unit_circle_path():
    return ArcPath([Arc(0, 0, 1.0, k * math.pi / 2, (k + 1) * math.pi / 2)
                    for k in range(4)])


def square_path():
    return ArcPath([Seg(0, 0, 1, 0), Seg(1, 0, 1, 1),
                    Seg(1, 1, 0, 1), Seg(0, 1, 0, 0)])


def bowtie_path():
    return ArcPath([Seg(0, 0, 1, 1), Seg(1, 1, 1, 0),
                    Seg(1, 0, 0, 1), Seg(0, 1, 0, 0)])


def circle_points(center, r, path):
    return [pt for (_, _, pt) in circle_path_intersections(center, r, path)]


def shoelace(chords):
    return 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0, x1, y1, _) in chords)


class TestArea:
    def test_unit_circle(self):
        assert abs(arc_path_area(unit_circle_path()) - math.pi) <= 1e-12

    def test_unit_square(self):
        assert abs(arc_path_area(square_path()) - 1.0) <= 1e-15

    def test_r2(self):
        assert abs(arc_path_area(r2_path()) - R2_AREA) <= 1e-12

    def test_open_path_rejected(self):
        path = ArcPath([Seg(0, 0, 1, 0), Seg(1, 0, 1, 1)])
        with pytest.raises(OpenPathError):
            arc_path_area(path)

    def test_self_intersecting_rejected(self):
        assert path_self_intersects(bowtie_path())

    def test_clockwise_region_rejected(self):
        cw = ArcPath([Seg(0, 0, 0, 1), Seg(0, 1, 1, 1),
                      Seg(1, 1, 1, 0), Seg(1, 0, 0, 0)])
        with pytest.raises(ValueError):
            check_ccw(arc_path_area(cw))

    def test_polygonization_oracle(self):
        # closed-form area equals a dense chord approximation
        for path in (r2_path(), unit_circle_path()):
            dense = path.polygonize(max_arc_step=2 * math.pi / 300000)
            assert abs(arc_path_area(path) - shoelace(dense)) <= 1e-7


class TestCircleIntersections:
    def test_apex_circle_hits_base_corners(self):
        pts = circle_points(W, 1.0, r2_upper_path())
        assert len(pts) == 2
        for p in pts:
            assert abs(abs(p[0]) - 0.5) <= 1e-9 and abs(p[1]) <= 1e-9

    def test_coincident_arc_reports_endpoints(self):
        # the circle about the left corner coincides with the right arc
        pts = circle_points((-0.5, 0.0), 1.0, r2_upper_path())
        assert any(math.dist(p, (0.5, 0.0)) <= 1e-9 for p in pts)
        assert any(math.dist(p, W) <= 1e-9 for p in pts)

    def test_points_lie_on_circle_and_path(self, two_bundle):
        path = two_bundle.upper_path
        for r in (0.25, 0.5, 0.9, 1.0):
            for p in circle_points((-0.2, 0.1), r, path):
                assert abs(math.dist(p, (-0.2, 0.1)) - r) <= 1e-9
                assert boundary_distance(path, p) <= 1e-9

    def test_count_against_dense_sampling(self, two_bundle):
        # brute-force oracle: sign changes of |x - center| - r along the path,
        # skipping samples that land exactly on the circle
        path = two_bundle.upper_path
        center, r = (0.0, 0.2), 0.5
        pts = circle_points(center, r, path)
        signs = []
        for q in path.sample(200000):
            d = math.dist(q, center) - r
            if abs(d) > 1e-12:
                signs.append(d > 0)
        crossings = sum(signs[i] != signs[i + 1] for i in range(len(signs) - 1))
        assert len(pts) >= 2
        assert len(pts) == crossings

    def test_deterministic_order(self):
        path = r2_upper_path()
        a = circle_path_intersections((0.0, 0.2), 0.7, path)
        b = circle_path_intersections((0.0, 0.2), 0.7, path)
        assert a == b
        assert [h[0] for h in a] == sorted(h[0] for h in a)

    def test_miss_returns_empty(self):
        assert circle_points((5.0, 5.0), 0.5, r2_upper_path()) == []

    @pytest.mark.parametrize("path", [r2_upper_path(), unit_circle_path()],
                             ids=["r2", "unit-circle"])
    def test_hits_are_the_one_radius_scans(self, path):
        # one pass answers each radius as its own scan does, misses,
        # tangencies and coincident circles included
        radii = (0.0, 0.25, 0.5, 0.5, 0.7, 1.0, 1.5, 3.0)
        for center in ((0.0, 0.0), (0.0, 0.2), (0.5, 0.5), (-0.5, 0.0), W):
            assert (circle_path_hits(center, radii, path)
                    == [circle_path_intersections(center, r, path)
                        for r in radii])

    def test_hits_repeated_radii(self):
        hits = circle_path_hits((0.0, 0.2), [0.5, 0.5, 0.5], r2_upper_path())
        assert hits[0] and hits[0] == hits[1] == hits[2]

    @pytest.mark.parametrize("radii", [(), [], (0.5, 0.25), (0.1, 0.3, 0.2),
                                       (0.5, math.nan)])
    def test_hits_need_ascending_radii(self, radii):
        # bisecting unordered radii would drop hits silently
        with pytest.raises(ValueError, match="ascending"):
            circle_path_hits((0.0, 0.2), radii, r2_upper_path())


class TestDiameter:
    def test_r2(self):
        assert abs(region_diameter(r2_path(), 4096) - 1.0) <= 1e-9

    def test_unit_disk(self):
        assert abs(region_diameter(unit_circle_path(), 4096) - 2.0) <= 1e-6

    def test_monotone_under_doubling(self):
        path = r2_path()
        prev = 0.0
        for n in (64, 128, 256, 512):
            d = region_diameter(path, n)
            assert d >= prev - 1e-15
            prev = d

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            region_diameter(r2_path(), 8)


class TestTransforms:
    def test_scaled_area(self):
        path = r2_path()
        scaled = ArcPath([scale_piece(p, 0.5) for p in path.pieces])
        assert abs(arc_path_area(scaled) - 0.25 * R2_AREA) <= 1e-12


# --------------------------------------------------------------------------
# differential test: the block-indexed scans against the pre-index scans
#
# The oracle is the frozen copy of the library the benchmark compares with
# (conftest's oracle_package).  Every region and path is rebuilt in the
# oracle from its JSON pieces.


@pytest.fixture(scope="module")
def oracle(oracle_package):
    return oracle_package.geometry


def perturbed_bundles(base, seed, count=2, moves=6, step=0.02):
    """Covers of seeded chains of `perturb` moves away from `base`."""
    rng = random.Random(seed)
    bundles = []
    while len(bundles) < count:
        params = ChainParams.from_chain(base.chain)
        for _ in range(moves):
            params = perturb(params, step, rng)
        try:
            bundles.append(involute_cover(params.to_chain()))
        except InadmissibleChainError:
            continue
    return bundles


@pytest.fixture(scope="module")
def differential_covers(r2_bundle, two_bundle, three_bundle, four_bundle,
                        smooth_optimum, apex_cut_bundle):
    _, co, _ = smooth_optimum
    smooth32 = involute_cover(smooth.discretize_smooth(co, 32))
    smooth128 = involute_cover(smooth.discretize_smooth(co, 128))
    covers = {"r2": r2_bundle, "two": two_bundle, "three": three_bundle,
              "four": four_bundle, "smooth32": smooth32,
              "smooth128": smooth128,
              "r2-shrunk": shrink_cover(r2_bundle, 0.95),
              "smooth32-shrunk": shrink_cover(smooth32, 0.95),
              "apex-cut": apex_cut_bundle}
    for seed in (1, 2, 3):
        for k, bundle in enumerate(perturbed_bundles(smooth32, seed)):
            covers[f"perturb{seed}.{k}"] = bundle
    return covers


DIFFERENTIAL_COVERS = (["r2", "two", "three", "four", "smooth32", "smooth128",
                        "r2-shrunk", "smooth32-shrunk", "apex-cut"]
                       + [f"perturb{seed}.{k}" for seed in (1, 2, 3)
                          for k in range(2)])


@pytest.mark.parametrize("name", DIFFERENTIAL_COVERS)
def test_indexed_scans_match_oracle(name, differential_covers, oracle):
    bundle = differential_covers[name]
    boundary, upper = bundle.boundary, bundle.upper_path
    o_region = oracle.Region.from_json(boundary.to_json(), check=False)
    o_upper = oracle.ArcPath.from_json(upper.to_json())
    rng = random.Random(name)
    xs, ys = zip(*boundary.sample(64))

    def random_point():
        return (rng.uniform(min(xs) - 0.1, max(xs) + 0.1),
                rng.uniform(min(ys) - 0.1, max(ys) + 0.1))

    # verifier-shaped queries: circles about upper-arc samples
    starts = upper.sample(24) + upper.vertices()
    for p in rng.sample(starts, 24):
        # one pass per sample, as verify_reachability asks: 1.0, a repeat,
        # and a single radius among random ascending batches
        batches = [sorted([rng.uniform(0.0, 1.0) for _ in range(6)]
                          + [0.5, 0.5, 1.0]), [rng.uniform(0.0, 1.0)], [1.0]]
        for radii in batches:
            assert (circle_path_hits(p, radii, upper)
                    == [oracle.circle_path_intersections(p, r, o_upper)
                        for r in radii])
        for length in [rng.uniform(0.0, 1.0) for _ in range(3)] + [0.5, 1.0]:
            assert (circle_path_intersections(p, length, upper)
                    == oracle.circle_path_intersections(p, length, o_upper))

    # distances to the upper arcs, as segment_inside asks them: from random
    # points, from points on the arcs, and from points just off them
    upper_points = upper.sample(48) + upper.vertices()
    points = [random_point() for _ in range(100)] + upper_points
    for (x, y) in upper_points:
        points.append((x + rng.uniform(-1e-8, 1e-8), y + rng.uniform(-1e-8, 1e-8)))
    for pt in points:
        assert (boundary_distance(upper, pt)
                == oracle.boundary_distance(o_upper, pt))

    assert (path_self_intersects(boundary)
            == oracle.path_self_intersects(o_region.boundary))


# Self-intersecting paths for the audit, each crossing between pieces that
# sit in different blocks of the piece table.

def figure_eight_path(n=40):
    """Lemniscate x = sin t, y = sin t cos t as n chords, crossing at 0."""
    ts = [2 * math.pi * (k + 0.5) / n for k in range(n + 1)]
    pts = [(math.sin(t), math.sin(t) * math.cos(t)) for t in ts]
    return ArcPath([Seg(*pts[k], *pts[k + 1]) for k in range(n)])


def knot_path():
    """20 chords along the x axis with a knot: piece 17 crosses piece 15."""
    pts = ([(float(k), 0.0) for k in range(16)]
           + [(16.0, 1.0), (15.0, 1.0), (16.0, 0.0), (17.0, 0.0), (18.0, 0.0)])
    return ArcPath([Seg(*pts[k], *pts[k + 1]) for k in range(len(pts) - 1)])


def crossing_arcs_path():
    """Closed path whose first arc (piece 0) crosses piece 20: the right half
    of the unit circle and the left half of the unit circle about (1.5, 0)
    meet at (0.75, +-0.66)."""
    def run(a, b, steps=9):
        pts = [(a[0] + k * (b[0] - a[0]) / steps, a[1] + k * (b[1] - a[1]) / steps)
               for k in range(steps + 1)]
        return [Seg(*pts[k], *pts[k + 1]) for k in range(steps)]
    return ArcPath([Arc(0.0, 0.0, 1.0, -math.pi / 2, math.pi / 2),
                    *run((0.0, 1.0), (0.0, 2.0)), *run((0.0, 2.0), (1.5, 2.0)),
                    Seg(1.5, 2.0, 1.5, 1.0),
                    Arc(1.5, 0.0, 1.0, math.pi / 2, 3 * math.pi / 2),
                    Seg(1.5, -1.0, 1.5, -2.0), Seg(1.5, -2.0, 0.0, -2.0),
                    Seg(0.0, -2.0, 0.0, -1.0)])


def hairpin_chain(seed, edges=20):
    """Unit chain from u on the right to v on the left: it climbs in gentle
    clockwise turns, then hairpins back by more than pi at its last
    interior vertex, so the arc unwrapped there swings through the
    mirrored involute."""
    rng = random.Random(seed)
    heads = [rng.uniform(0.3, 1.2)]
    for _ in range(edges - 2):
        heads.append(heads[-1] - rng.uniform(0.0, 0.25 / edges))
    heads.append(heads[-1] - rng.uniform(math.pi + 0.05,
                                         heads[-1] + math.pi - 0.05))
    pts = [(0.0, 0.0)]
    for h in heads[:-1]:
        step = rng.uniform(0.5, 1.0)
        pts.append((pts[-1][0] + step * math.cos(h),
                    pts[-1][1] + step * math.sin(h)))
    step = -pts[-1][1] / math.sin(heads[-1])  # back down to y = 0
    pts.append((pts[-1][0] + step * math.cos(heads[-1]), 0.0))
    total = sum(math.dist(pts[k], pts[k + 1]) for k in range(edges))
    half = 0.5 * pts[-1][0]
    return GeneratingChain(tuple(((x - half) / total, y / total)
                                 for x, y in pts))


def unaudited_boundary(chain):
    """The boundary involute_cover would assemble for `chain`, built
    without validate_chain and without the cap certificate."""
    _, right, left = involute._unwrap(chain)
    return involute._boundary(chain, right, left)


def crossing_piece_pairs(path, oracle):
    """(i, j) for every properly crossing chord pair, by brute force."""
    chords = path.polygonize()
    return {(a[4], b[4]) for k, a in enumerate(chords) for b in chords[k + 1:]
            if not oracle._share_endpoint(a, b, 1e-8)
            and oracle._chords_cross(a, b)}


CROSSING_PATHS = {
    "figure-eight": figure_eight_path,
    "knot": knot_path,
    "crossing-arcs": crossing_arcs_path,
    **{f"hairpin{seed}": (lambda seed=seed: unaudited_boundary(
        hairpin_chain(seed))) for seed in (0, 1, 2)},
}


@pytest.mark.parametrize("name", CROSSING_PATHS)
def test_self_intersection_matches_oracle(name, oracle):
    path = CROSSING_PATHS[name]()
    pairs = crossing_piece_pairs(path, oracle)
    assert any(i // BLOCK_SIZE != j // BLOCK_SIZE for i, j in pairs), pairs
    assert path_self_intersects(path)
    assert oracle.path_self_intersects(oracle.ArcPath.from_json(path.to_json()))


def cross_path():
    """A vertical chord (an x range of zero width) across a horizontal one."""
    return ArcPath([Seg(0, 0, 2, 0), Seg(2, 0, 1, -1), Seg(1, -1, 1, 1)])


def touching_path():
    """Two triangles whose chords meet only at shared endpoints, (1, 1)."""
    pts = [(0, 0), (1, 1), (2, 0), (2, 2), (1, 1), (0, 2), (0, 0)]
    return ArcPath([Seg(*pts[k], *pts[k + 1]) for k in range(len(pts) - 1)])


@pytest.mark.parametrize("make, crosses", [
    (cross_path, True), (touching_path, False), (bowtie_path, True)],
    ids=["vertical-across-horizontal", "shared-endpoints", "bowtie"])
def test_sweep_matches_pair_loop(make, crosses, oracle):
    # the sweep compares only chords whose x ranges overlap; the brute
    # force pair loop compares them all
    path = make()
    assert bool(crossing_piece_pairs(path, oracle)) == crosses
    assert path_self_intersects(path) == crosses


@given(cx=st.floats(-2, 2), cy=st.floats(-2, 2), r=st.floats(0.1, 3),
       t0=st.floats(-6, 6), sweep=st.floats(-6, 6).filter(lambda s: abs(s) > 1e-3))
@settings(max_examples=200, deadline=None)
def test_arc_parameterization_property(cx, cy, r, t0, sweep):
    arc = Arc(cx, cy, r, t0, t0 + sweep)
    assert math.dist(arc.point_at(0.0), arc.start) <= 1e-12
    assert math.dist(arc.point_at(1.0), arc.end) <= 1e-12
    mid_angle = math.atan2(arc.point_at(0.5)[1] - cy, arc.point_at(0.5)[0] - cx)
    # the same arc traced counterclockwise holds its midpoint
    ccw_t0 = min(t0, t0 + sweep)
    assert geometry._arc_fraction(ccw_t0, abs(sweep), mid_angle, 1e-12) is not None
    assert abs(arc.length() - r * abs(sweep)) <= 1e-12


def _inline_arc_fraction(t0, sweep, phi, slack):
    """Reference hit fraction on a counterclockwise arc, for a phi already
    tested inside the arc.

    A copy of the block circle_path_intersections ran inline before
    _arc_fraction took its place, for the sweeps >= 0 it still takes.
    """
    if abs(sweep) > 1e-15:
        rel = (phi - t0) % TWO_PI
        if rel > sweep:
            rel = rel - TWO_PI if rel >= TWO_PI - slack else sweep
        return min(max(rel / sweep, 0.0), 1.0)
    return 0.0


# counterclockwise sweeps, signed zeros included
_SWEEPS = st.one_of(
    st.floats(0, TWO_PI),
    st.floats(0, 1e-15),
    st.sampled_from([0.0, -0.0]),
    st.floats(0, 1e-9).map(lambda d: TWO_PI - d))
# angles anywhere, or within a few slacks or a few ulps of either end
_OFFSETS = st.one_of(st.floats(-4, 4), st.floats(-5e-9, 5e-9),
                     st.integers(-4, 4).map(lambda k: k * 2.0 ** -52))


@given(t0=st.floats(-4, 4), sweep=_SWEEPS, end=st.sampled_from([0, 1, None]),
       offset=_OFFSETS, reduce=st.booleans(), r=st.floats(0.01, 3),
       slack_sign=st.sampled_from([0, 1, -1]))
@settings(max_examples=2000, deadline=None)
def test_arc_fraction_matches_oracle(oracle, t0, sweep, end, offset, reduce,
                                     r, slack_sign):
    phi = offset if end is None else t0 + end * sweep + offset
    if reduce:  # as atan2 returns it
        phi = math.atan2(math.sin(phi), math.cos(phi))
    slack = slack_sign * 1e-9 / r
    s = geometry._arc_fraction(t0, sweep, phi, slack)
    assert (s is not None) == oracle._arc_angle_in(t0, sweep, phi, slack)
    if s is not None:
        ref = _inline_arc_fraction(t0, sweep, phi, slack)
        # bit for bit, down to the sign of a zero
        assert (s, math.copysign(1.0, s)) == (ref, math.copysign(1.0, ref))


def test_arc_fraction_matches_inline_on_a_seeded_sweep(oracle):
    # the edge cases of the arc-angle test, drawn from a fixed seed:
    # counterclockwise sweeps at or under 1e-15 and signed zeros, slack 0
    # and 1e-9, phi within 1e-9 (or a few ulps) of either end, and phi
    # shifted across 2 pi
    rng = random.Random(2026)
    sweeps = [0.0, -0.0, 1e-15, 1e-16]
    seen = {"none": 0, "zero": 0, "one": 0, "inside": 0}
    for trial in range(20000):
        kind = trial % 4
        if trial < 3 * len(sweeps):
            sweep = sweeps[trial % len(sweeps)]
        elif kind == 0:
            sweep = rng.uniform(0.0, 1e-15)
        elif kind == 1:
            sweep = TWO_PI - rng.uniform(0.0, 1e-9)
        else:
            sweep = rng.uniform(0.0, TWO_PI)
        t0 = rng.uniform(-4.0, 4.0)
        end = rng.choice((0.0, 1.0))
        phi = t0 + end * sweep + rng.choice((
            0.0, rng.uniform(-1e-9, 1e-9), rng.randint(-4, 4) * 2.0 ** -52,
            rng.uniform(-4.0, 4.0)))
        phi += rng.choice((0.0, TWO_PI, -TWO_PI))
        if rng.random() < 0.5:  # as atan2 returns it
            phi = math.atan2(math.sin(phi), math.cos(phi))
        slack = rng.choice((0.0, 1e-9, -1e-9))
        s = geometry._arc_fraction(t0, sweep, phi, slack)
        assert (s is not None) == oracle._arc_angle_in(t0, sweep, phi, slack)
        if s is None:
            seen["none"] += 1
            continue
        ref = _inline_arc_fraction(t0, sweep, phi, slack)
        # bit for bit, down to the sign of a zero
        assert (s, math.copysign(1.0, s)) == (ref, math.copysign(1.0, ref))
        seen["zero" if s == 0.0 else "one" if s == 1.0 else "inside"] += 1
    assert min(seen.values()) >= 500, seen


# --------------------------------------------------------------------------
# differential test: the circle-hit kernel and the diameter against the
# oracle, on the shapes verify and fold query

HIT_EDGES = [4 + 60 * i // 19 for i in range(20)]  # 4 .. 64
HIT_COVERS = (["r2", "two", "three", "four", "smooth48", "apex-cut"]
              + [f"{c}x{f}" for c in ("r2", "two") for f in (0.95, 1.2)]
              + [f"smooth{n}" for n in (32, 128, 512)]
              + [f"perturb{n}" for n in HIT_EDGES])


@pytest.fixture(scope="module")
def hit_covers(r2_bundle, two_bundle, three_bundle, four_bundle,
               smooth48_bundle, smooth_optimum, apex_cut_bundle):
    _, co, _ = smooth_optimum
    covers = {"r2": r2_bundle, "two": two_bundle, "three": three_bundle,
              "four": four_bundle, "smooth48": smooth48_bundle,
              "apex-cut": apex_cut_bundle}
    for f in (0.95, 1.2):
        covers[f"r2x{f}"] = shrink_cover(r2_bundle, f)
        covers[f"twox{f}"] = shrink_cover(two_bundle, f)
    for n in (32, 128, 512):
        covers[f"smooth{n}"] = involute_cover(smooth.discretize_smooth(co, n))
    for n in HIT_EDGES:
        base = involute_cover(smooth.discretize_smooth(co, n))
        covers[f"perturb{n}"] = perturbed_bundles(base, seed=n, count=1)[0]
    return covers


def assert_hits_match_oracle(oracle, path, o_path, p, radii):
    """circle_path_hits with all radii, and with each radius alone, equals
    the oracle's one-radius scans of o_path, path rebuilt in the oracle."""
    want = [oracle.circle_path_intersections(p, r, o_path) for r in radii]
    assert circle_path_hits(p, radii, path) == want
    for r, hits in zip(radii, want):
        assert circle_path_hits(p, (r,), path) == [hits]


@pytest.mark.parametrize("name", HIT_COVERS)
def test_circle_hits_match_oracle(name, hit_covers, oracle):
    upper = hit_covers[name].upper_path
    o_upper = oracle.ArcPath.from_json(upper.to_json())
    samples = upper.sample(16)
    rng = random.Random(name)
    # verify's rows of 16 lengths on the samples next to u and v and on
    # random ones, then random ascending batches with repeats
    lengths = [i / 16 for i in range(1, 17)]
    points = samples[:3] + samples[-3:] + rng.sample(samples, 8)
    for p in points:
        assert_hits_match_oracle(oracle, upper, o_upper, p, lengths)
        radii = sorted([rng.uniform(0.0, 1.2) for _ in range(5)] + [0.5, 0.5])
        assert_hits_match_oracle(oracle, upper, o_upper, p, radii)
    # the l = 1 row, where the tangent hits are, from every sample
    for p in samples:
        assert (circle_path_intersections(p, 1.0, upper)
                == oracle.circle_path_intersections(p, 1.0, o_upper))


@pytest.mark.parametrize("make", [r2_path, unit_circle_path])
def test_circle_hits_match_oracle_on_arc_paths(make, oracle):
    # the path's arcs: r2's upper run, or the whole unit circle
    path = ArcPath([p for p in make().pieces if isinstance(p, Arc)])
    o_path = oracle.ArcPath.from_json(path.to_json())
    rng = random.Random(make.__name__)
    centres = [(rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.2))
               for _ in range(40)]
    centres += [p for _, p in path.indexed_samples(32)]
    for p in centres:
        radii = sorted([rng.uniform(0.0, 2.0) for _ in range(6)] + [1.0, 1.0])
        assert_hits_match_oracle(oracle, path, o_path, p, radii)
    # coincident circles: a centre at or within DEDUP_TOL of an arc's
    # centre, at the arc's radius and just either side of it
    radii = [0.25, 1.0 - 5e-10, 1.0, 1.0, 1.0 + 5e-10, 1.5]
    for (cx, cy) in {(a.cx, a.cy) for a in path.pieces if isinstance(a, Arc)}:
        for p in ((cx, cy), (cx + 4e-10, cy - 3e-10)):
            hits = circle_path_hits(p, radii, path)
            assert any(s in (0.0, 1.0) for row in hits for (_, s, _) in row)
            assert_hits_match_oracle(oracle, path, o_path, p, radii)


@pytest.mark.parametrize("piece", [
    Seg(-0.5, 0.0, 0.5, 0.0), Arc(0.5, 0.0, 1.0, math.pi, 2 * math.pi / 3)],
    ids=["segment", "clockwise-arc"])
@pytest.mark.parametrize("scan", [
    lambda path: circle_path_hits((0.0, 0.2), (0.5, 1.0), path),
    lambda path: circle_path_intersections((0.0, 0.2), 0.5, path),
    lambda path: boundary_distance(path, (0.0, 0.2))],
    ids=["hits", "intersections", "distance"])
def test_scans_refuse_segments_and_clockwise_arcs(scan, piece):
    # the scans take counterclockwise arcs only, as a cover's upper run is;
    # the piece table names the first piece it cannot take, on every query
    path = ArcPath([*r2_upper_path().pieces, piece])
    for _ in range(2):
        with pytest.raises(GeometryError,
                           match="piece 2 is not a counterclockwise arc"):
            scan(path)


def segment_polygon(seed, m):
    """Convex m-gon of segments only, vertices at random angles."""
    rng = random.Random(seed)
    angles = sorted(rng.uniform(0.0, TWO_PI) for _ in range(m))
    rad, cx, cy = rng.uniform(0.3, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
    pts = [(cx + rad * math.cos(a), cy + rad * math.sin(a)) for a in angles]
    return ArcPath([Seg(*pts[k], *pts[(k + 1) % m]) for k in range(m)])


def test_diameter_matches_oracle(hit_covers, oracle):
    # bit for bit, though the hull gets no segment interiors: on covers
    # (whose segments are the chain) and on all-segment polygons
    paths = {name: bundle.boundary for name, bundle in hit_covers.items()}
    paths.update({f"polygon{m}": segment_polygon(m, m) for m in range(3, 13)})
    paths["square"] = square_path()
    paths["disk"] = unit_circle_path()
    for name, path in paths.items():
        o_region = oracle.Region.from_json(path.to_json(), check=False)
        for n in (64, 4096):
            assert (region_diameter(path, n)
                    == oracle.region_diameter(o_region, n)), (name, n)


@given(x0=st.floats(-2, 2), y0=st.floats(-2, 2),
       x1=st.floats(-2, 2), y1=st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_seg_midpoint_property(x0, y0, x1, y1):
    seg = Seg(x0, y0, x1, y1)
    mx, my = seg.point_at(0.5)
    assert abs(mx - 0.5 * (x0 + x1)) <= 1e-12
    assert abs(my - 0.5 * (y0 + y1)) <= 1e-12


@pytest.mark.parametrize("area", [0.0, -0.0, -1e-3, math.nan])
def test_check_ccw_rejects_non_positive_area(area):
    with pytest.raises(geometry.GeometryError, match="counterclockwise"):
        geometry.check_ccw(area)


def test_check_ccw_passes_positive_area():
    assert geometry.check_ccw(0.25) == 0.25


def test_piece_records_keep_their_fields_and_checks():
    # Seg and Arc take their fields by position or keyword, in this order;
    # Arc runs check_arc on construction
    seg = Seg(x0=1.0, y0=2.0, x1=3.0, y1=4.0)
    assert (seg.x0, seg.y0, seg.x1, seg.y1) == (1.0, 2.0, 3.0, 4.0)
    assert seg.to_json() == Seg(1.0, 2.0, 3.0, 4.0).to_json()
    arc = Arc(cx=0.5, cy=-1.0, r=2.0, t0=0.25, t1=1.0)
    assert (arc.cx, arc.cy, arc.r, arc.t0, arc.t1) == (0.5, -1.0, 2.0, 0.25, 1.0)
    with pytest.raises(geometry.GeometryError, match=r"^negative radius -0\.5$"):
        Arc(0.0, 0.0, -0.5, 0.0, 1.0)
    with pytest.raises(geometry.GeometryError, match="exceeds full turn"):
        Arc(0.0, 0.0, 1.0, 0.0, -(TWO_PI + 1e-8))
    assert Arc(0.0, 0.0, 0.0, 0.0, TWO_PI).length() == 0.0  # the marker
