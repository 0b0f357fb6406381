import json
import math
import random
from pathlib import Path

import pytest

from rulecover import smooth
from rulecover.geometry import Arc, _arc_fraction, region_diameter
from rulecover.involute import (
    CHORD_TOL,
    GeneratingChain,
    InadmissibleChainError,
    involute_cover,
)
from rulecover.search import ChainParams, perturb
from rulecover.verify import (
    DEFAULT_EPS,
    SAME_POINT,
    Fold,
    FoldFailureError,
    Rule,
    _candidates,
    check_fold,
    fold_rule,
    random_rule,
    segment_inside,
    shrink_cover,
    verify_reachability,
)

W = (0.0, math.sqrt(3) / 2)


class TestRule:
    def test_valid(self):
        rule = Rule((0.5, 1.0, 0.25))
        assert rule.lengths == (0.5, 1.0, 0.25)

    def test_lengths_become_a_float_tuple(self):
        rule = Rule(lengths=[1, 0.5])
        assert rule.lengths == (1.0, 0.5)
        assert all(type(x) is float for x in rule.lengths)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^rule needs at least one segment$"):
            Rule(())

    def test_overlong_segment_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^every segment length must be in \(0, 1\]$"):
            Rule((0.5, 1.5))

    def test_zero_segment_rejected(self):
        with pytest.raises(ValueError):
            Rule((0.0,))

    def test_random_rule(self):
        rule = random_rule(50, seed=3)
        assert len(rule.lengths) == 50
        assert all(0 < x <= 1 for x in rule.lengths)
        assert random_rule(50, seed=3).lengths == rule.lengths


class TestReachability:
    def test_r2_passes(self, r2_bundle):
        report = verify_reachability(r2_bundle, n_points=32, n_lengths=32)
        assert report.failures == []
        assert report.passed
        assert abs(report.diameter - 1.0) <= 1e-9

    def test_two_edge_passes(self, two_bundle):
        report = verify_reachability(two_bundle, n_points=32, n_lengths=32)
        assert report.passed

    def test_report_json(self, r2_bundle):
        report = verify_reachability(r2_bundle, n_points=16, n_lengths=16)
        doc = report.to_json()
        assert set(doc) == {"points", "lengths", "failures", "diameter", "eps",
                            "passed"}
        assert doc["passed"] is True
        assert doc["eps"] == report.eps == 1e-9
        assert doc["failures"] == []

    def test_smooth_512_edges_passes(self, smooth_optimum):
        # a finer discretization than the 48-edge acceptance check; --points
        # is a floor (one sample per piece), so this verifies 1025 points
        _, co, _ = smooth_optimum
        bundle = involute_cover(smooth.discretize_smooth(co, 512))
        report = verify_reachability(bundle, n_points=32, n_lengths=32)
        assert report.points == 1025
        assert report.failures == []

    def test_smooth_1024_edges_passes_at_256x256(self, smooth_optimum):
        # the fine discretization at the reference covers' 256 x 256 grid:
        # 2,059 points by 256 lengths, about 6 s
        _, co, _ = smooth_optimum
        bundle = involute_cover(smooth.discretize_smooth(co, 1024))
        report = verify_reachability(bundle, n_points=256, n_lengths=256)
        assert report.points == 2059
        assert report.failures == []
        assert report.diameter <= 1.0 + 1e-9
        assert report.passed

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_loose_eps_keeps_short_lengths(self, r2_bundle, eps):
        # eps is the containment tolerance only: a q at distance 1/16 from
        # p is a real candidate even when eps exceeds 1/16
        report = verify_reachability(r2_bundle, n_points=16, n_lengths=16,
                                     eps=eps)
        assert report.failures == []
        assert report.passed

    def test_minimum_sampling(self, r2_bundle):
        with pytest.raises(ValueError):
            verify_reachability(r2_bundle, n_points=4, n_lengths=16)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
    def test_eps_must_be_finite_and_non_negative(self, r2_bundle, eps):
        # nan would fail every query, inf would switch off containment and
        # the diameter bound
        with pytest.raises(ValueError, match="eps must be finite"):
            verify_reachability(r2_bundle, n_points=16, n_lengths=16, eps=eps)

    def test_apex_pairs_with_base_corners(self, r2_bundle):
        # from the apex with the full unit length, both base corners work
        cands = _candidates(r2_bundle, W, 1, 1.0)
        assert any(math.dist(q, (-0.5, 0.0)) <= 1e-9 for q, _ in cands)
        assert any(math.dist(q, (0.5, 0.0)) <= 1e-9 for q, _ in cands)

    def test_candidate_distances_are_exact(self, three_bundle):
        for p in three_bundle.upper_path.sample(16):
            for length in (0.25, 0.75, 1.0):
                for q, _ in _candidates(three_bundle, p, 0, length):
                    assert abs(math.dist(p, q) - length) <= 1e-9


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_vs128_report_matches_benchmark_pin():
    # the benchmark's verify-smooth call: the pinned 128-edge smooth cut at
    # 32 x 16 gives the report perfbench/reference.json pins, its four
    # known l = 1 failures included, so a change to the hit arithmetic
    # fails here as well as in the benchmark
    inputs = json.loads((PERFBENCH / "inputs.json").read_text())
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    pinned = reference["full"]["verify"]["fixed"]["verify:smooth"]
    bundle = involute_cover(GeneratingChain.from_json(inputs["smooth128"]))
    report = verify_reachability(bundle, 32, 16)
    assert report.points == pinned["points"]
    assert ([[p[0], p[1], length] for p, length in report.failures]
            == pinned["failures"])
    assert report.diameter == pinned["diameter"]


class TestMutants:
    def test_shrunk_cover_fails(self, r2_bundle):
        mutant = shrink_cover(r2_bundle, 0.95)
        assert abs(mutant.area - 0.95 ** 2 * r2_bundle.area) <= 1e-12
        report = verify_reachability(mutant, n_points=16, n_lengths=16)
        assert len(report.failures) >= 1
        assert not report.passed
        # the unit length is unreachable everywhere in a diameter-0.95 set
        assert any(length == 1.0 for (_, length) in report.failures)

    def test_apex_cut_fails(self, apex_cut_bundle):
        # points on the chord that cuts off the apex see no partner at the
        # full unit distance
        report = verify_reachability(apex_cut_bundle, n_points=32, n_lengths=32)
        assert len(report.failures) >= 1


class TestDiameter:
    def test_r2(self, r2_bundle):
        assert abs(region_diameter(r2_bundle.boundary, 4096) - 1.0) <= 1e-9

    def test_reference_covers_within_unit(self, three_bundle, four_bundle,
                                      smooth48_bundle):
        for bundle in (three_bundle, four_bundle):
            assert region_diameter(bundle.boundary, 4096) <= 1.0 + 1e-9
        # dense pairwise check for the smooth cover
        assert region_diameter(smooth48_bundle.boundary, 8192) <= 1.0 + 1e-9

    def test_oversize_cover_fails(self, r2_bundle):
        grown = shrink_cover(r2_bundle, 1.2)
        assert region_diameter(grown.boundary, 256) > 1.0
        report = verify_reachability(grown, n_points=16, n_lengths=16)
        assert report.diameter > 1.0 + report.eps
        assert not report.passed


class TestFold:
    def test_unit_rule_from_corner(self, r2_bundle):
        fold = fold_rule(r2_bundle, Rule((1.0,)))
        assert math.dist(fold.joints[0], (-0.5, 0.0)) <= 1e-12
        q = fold.joints[1]
        assert math.dist(q, (0.5, 0.0)) <= 1e-9 or math.dist(q, W) <= 1e-9

    def test_half_rule_four_segments(self, r2_bundle):
        rule = Rule((0.5,) * 4)
        fold = fold_rule(r2_bundle, rule)
        assert check_fold(r2_bundle, rule, fold)

    def test_random_rule_on_two_edge(self, two_bundle):
        rule = random_rule(40, seed=11)
        fold = fold_rule(two_bundle, rule, seed=11)
        assert check_fold(two_bundle, rule, fold)

    def test_deterministic(self, r2_bundle):
        rule = random_rule(20, seed=2)
        assert fold_rule(r2_bundle, rule).joints == fold_rule(r2_bundle, rule).joints
        f5 = fold_rule(r2_bundle, rule, seed=5)
        assert f5.joints == fold_rule(r2_bundle, rule, seed=5).joints

    def test_fold_failure_on_mutant(self, r2_bundle):
        mutant = shrink_cover(r2_bundle, 0.9)
        with pytest.raises(FoldFailureError) as err:
            fold_rule(mutant, Rule((1.0,)))
        assert err.value.index == 0

    def test_check_fold_rejects_bad_lengths(self, r2_bundle):
        rule = Rule((0.5,))
        bad = Fold(joints=((-0.5, 0.0), (0.2, 0.0)))
        with pytest.raises(AssertionError):
            check_fold(r2_bundle, rule, bad)

    def test_check_fold_rejects_off_arc_joint(self, r2_bundle):
        # the second joint sits on the base chord, not on the upper arcs,
        # although the segment lies in the region
        fold = Fold(joints=((-0.5, 0.0), (0.0, 0.0)))
        with pytest.raises(AssertionError, match="segment 0 leaves the cover"):
            check_fold(r2_bundle, Rule((0.5,)), fold)

    def test_check_fold_rejects_chord_through_pocket(self, two_bundle):
        # u -> v has the right length and both joints on the upper arcs,
        # but it runs along the chord, under the chain
        u, v = two_bundle.chain.u, two_bundle.chain.v
        with pytest.raises(AssertionError, match="segment 0 leaves the cover"):
            check_fold(two_bundle, Rule((math.dist(u, v),)), Fold(joints=(u, v)))


# The pocket test (involute.Pocket.depth) decides containment in verify and
# fold; verify.segment_inside, which check_fold uses, scans every chain
# vertex with the same arithmetic (_scanned_depth below).  The frozen
# oracle's general region test (geometry.segment_inside there) and its
# verifier are references for both.


def _scanned_depth(pocket, p, q):
    """Pocket.depth from every chain vertex, with the same arithmetic."""
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    norm = math.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    if dx < 0.0 or (dx == 0.0 and dy < 0.0):
        dx, dy = -dx, -dy
    s = [dx * (y - py) - dy * (x - px) for x, y in zip(pocket.xs, pocket.ys)]
    if abs(s[0]) <= CHORD_TOL and abs(s[-1]) <= CHORD_TOL:
        return pocket.sag
    return min(max(max(s), 0.0), -min(min(s), 0.0))


def _candidate_segments(bundle, n):
    """(p, q) for every candidate verify_reachability tries at n x n (the
    side only orders _candidates' list)."""
    for p in bundle.upper_path.sample(n):
        for i in range(1, n + 1):
            for q, _ in _candidates(bundle, p, 0, i / n):
                if math.dist(p, q) > SAME_POINT:
                    yield p, q


def _perturbed_bundle(co, edges, seed, moves=6, step=0.02):
    """Cover of a seeded chain of `perturb` moves from the smooth cut."""
    base = ChainParams.from_chain(smooth.discretize_smooth(co, edges))
    rng = random.Random(seed)
    while True:
        params = base
        for _ in range(moves):
            params = perturb(params, step, rng)
        try:
            return involute_cover(params.to_chain())
        except InadmissibleChainError:
            continue


PERTURBED_EDGES = [4 + 60 * i // 19 for i in range(20)]  # 4 .. 64
POCKET_COVERS = (["r2", "two", "three", "four", "smooth48", "smooth128"]
                 + [f"perturb{n}" for n in PERTURBED_EDGES])


@pytest.fixture(scope="module")
def pocket_covers(r2_bundle, two_bundle, three_bundle, four_bundle,
                  smooth48_bundle, smooth_optimum):
    _, co, _ = smooth_optimum
    covers = {"r2": r2_bundle, "two": two_bundle, "three": three_bundle,
              "four": four_bundle, "smooth48": smooth48_bundle,
              "smooth128": involute_cover(smooth.discretize_smooth(co, 128))}
    for n in PERTURBED_EDGES:
        covers[f"perturb{n}"] = _perturbed_bundle(co, n, seed=n)
    return covers


def _oracle_region(oracle, bundle):
    """`bundle`'s region rebuilt in the frozen library from its JSON pieces."""
    return oracle.geometry.Region.from_json(bundle.boundary.to_json(), check=False)


class TestPocket:
    @pytest.mark.parametrize("name", POCKET_COVERS)
    def test_depth_matches_scan_and_segment_inside(self, name, pocket_covers,
                                                   oracle_package):
        bundle = pocket_covers[name]
        pocket = bundle.pocket
        region = _oracle_region(oracle_package, bundle)
        checked = 0
        for p, q in _candidate_segments(bundle, 32):
            depth = pocket.depth(p, q)
            assert depth == _scanned_depth(pocket, p, q), (p, q)
            if depth <= DEFAULT_EPS:
                assert oracle_package.geometry.segment_inside(
                    region, p, q, DEFAULT_EPS), (p, q)
            checked += 1
        assert checked > 32 * 32

    @pytest.mark.parametrize("name", POCKET_COVERS)
    def test_admits_matches_depth(self, name, pocket_covers):
        bundle = pocket_covers[name]
        pocket = bundle.pocket
        high = 0
        for p, q in _candidate_segments(bundle, 32):
            depth = pocket.depth(p, q)
            for eps in (0.0, DEFAULT_EPS):
                assert pocket.admits(p, q, eps) == (depth <= eps), (p, q, eps)
            if p[1] >= pocket.top and q[1] >= pocket.top:
                assert depth == 0.0, (p, q)
                high += 1
        assert high > 0

    def test_built_lazily(self, smooth_optimum):
        _, co, _ = smooth_optimum
        bundle = involute_cover(smooth.discretize_smooth(co, 16))
        assert "pocket" not in vars(bundle)
        assert bundle.pocket is bundle.pocket

    @pytest.mark.parametrize("name", ["two", "three", "four", "smooth48"])
    def test_chord_whisker_rejected(self, name, pocket_covers, oracle_package):
        # u -> v runs along the chord, below the chain and outside the
        # region, although no vertex lies across the line
        bundle = pocket_covers[name]
        pocket, upper = bundle.pocket, bundle.upper_path
        region = _oracle_region(oracle_package, bundle)
        assert pocket.sag > DEFAULT_EPS
        for p, q in ((bundle.chain.u, bundle.chain.v),
                     (upper.pieces[-1].end, upper.pieces[0].start)):
            for a, b in ((p, q), (q, p)):
                assert pocket.depth(a, b) > DEFAULT_EPS
                assert not segment_inside(bundle, a, b)
                assert not oracle_package.geometry.segment_inside(region, a, b)

    def test_r2_base_accepted(self, r2_bundle, oracle_package):
        # the one-edge chain is its own chord: the base is boundary
        u, v = r2_bundle.chain.u, r2_bundle.chain.v
        assert r2_bundle.pocket.sag == 0.0
        assert r2_bundle.pocket.depth(u, v) <= DEFAULT_EPS
        assert r2_bundle.pocket.depth(v, u) <= DEFAULT_EPS
        assert segment_inside(r2_bundle, u, v)
        assert oracle_package.geometry.segment_inside(
            _oracle_region(oracle_package, r2_bundle), u, v)

    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    def test_tangency_witness(self, smooth48_bundle, mirror, oracle_package):
        # p sits at u (or v), l = 1: this witness passes a chain vertex on
        # the wrong side by 2e-9 > eps, which the oracle's general region
        # test misses because it classifies a few probe points per gap.
        # Another candidate is admissible, so the point does not fail.
        p = (mirror * -0.44405796684014687, -0.18893365563233025)
        q = (mirror * 0.11748462471898674, 0.6385141782913872)
        cands = [c for c, _ in _candidates(smooth48_bundle, p, 0, 1.0)]
        assert q in cands
        pocket = smooth48_bundle.pocket
        assert DEFAULT_EPS < pocket.depth(p, q) < 2.5e-9
        assert not segment_inside(smooth48_bundle, p, q)
        assert oracle_package.geometry.segment_inside(
            _oracle_region(oracle_package, smooth48_bundle), p, q, DEFAULT_EPS)
        assert any(pocket.depth(p, c) <= DEFAULT_EPS
                   for c in cands if math.dist(p, c) > SAME_POINT)


def _upper_points_at_height(bundle, y):
    """The points of the upper arcs at height y, left to right."""
    points = []
    for arc in bundle.upper_path:
        assert isinstance(arc, Arc)
        if abs(y - arc.cy) > arc.r:
            continue
        t = math.asin((y - arc.cy) / arc.r)
        for phi in (t, math.pi - t):
            frac = _arc_fraction(arc.t0, arc.sweep, phi, 0.0)
            if frac is not None:
                points.append(arc.point_at(frac))
    return sorted(points)


class TestSegmentInside:
    @pytest.mark.parametrize("name", POCKET_COVERS)
    def test_matches_depth(self, name, pocket_covers):
        # every candidate verify tries lies on the upper arcs, so the
        # check is the pocket's depth test, read from all chain vertices
        bundle = pocket_covers[name]
        pocket = bundle.pocket
        for p, q in _candidate_segments(bundle, 32):
            depth = pocket.depth(p, q)
            for eps in (0.0, DEFAULT_EPS):
                assert segment_inside(bundle, p, q, eps) == (depth <= eps), \
                    (p, q, eps)

    def test_base_edge(self, r2_bundle):
        assert segment_inside(r2_bundle, (-0.5, 0.0), (0.5, 0.0))

    def test_corner_to_apex(self, r2_bundle):
        assert segment_inside(r2_bundle, W, (-0.5, 0.0))
        assert segment_inside(r2_bundle, W, W)

    @pytest.mark.parametrize("p, q", [((0.0, 0.3), (0.0, 2.0)),
                                      ((0.0, 0.3), W), (W, (0.0, 2.0)),
                                      ((-0.3, 0.2), (0.3, 0.4))],
                             ids=["escaping", "inner-to-apex", "apex-outward",
                                  "interior-chord"])
    def test_off_arc_points_rejected(self, r2_bundle, p, q):
        # (0, 0.3) and (0.3, 0.4) lie inside, (0, 2) outside: neither is
        # on the upper arcs, where every joint of a fold sits
        assert not segment_inside(r2_bundle, p, q)
        assert not segment_inside(r2_bundle, q, p)

    def test_joint_within_1e9_of_the_arcs(self, r2_bundle):
        # the apex lifted off the arcs by 5e-10 still counts as on them,
        # lifted by 2e-9 it does not
        for lift, inside in ((5e-10, True), (2e-9, False)):
            apex = (W[0], W[1] + lift)
            assert segment_inside(r2_bundle, apex, (-0.5, 0.0)) is inside
            assert segment_inside(r2_bundle, (0.5, 0.0), apex) is inside

    def test_chord_blocked_by_notch(self, two_bundle):
        # the two-edge cut bulges up between its endpoints, so the straight
        # chord between them leaves the region
        u, v = two_bundle.chain.u, two_bundle.chain.v
        assert not segment_inside(two_bundle, u, v)
        assert not segment_inside(two_bundle, v, u)

    def test_chord_through_notch_vertex(self, two_bundle):
        # passing exactly through the top chain vertex stays contained, and
        # a parallel chord 1e-3 lower cuts into the pocket by 1e-3
        m = two_bundle.chain.vertices[1]
        assert m[1] == two_bundle.pocket.top
        p, q = _upper_points_at_height(two_bundle, m[1])
        assert p[0] < m[0] < q[0]
        assert segment_inside(two_bundle, p, q, eps=0.0)
        low_p, low_q = _upper_points_at_height(two_bundle, m[1] - 1e-3)
        assert not segment_inside(two_bundle, low_p, low_q)
        assert segment_inside(two_bundle, low_p, low_q, eps=1.1e-3)


def _depth_loop_failures(bundle, n, eps):
    """verify_reachability's failures at n x n, from pocket.depth(p, q) <= eps
    on one-length circle queries."""
    pocket = bundle.pocket
    failures = []
    for p in bundle.upper_path.sample(n):
        for i in range(1, n + 1):
            if not any(pocket.depth(p, q) <= eps
                       for q, _ in _candidates(bundle, p, 0, i / n)
                       if math.dist(p, q) > SAME_POINT):
                failures.append((p, i / n))
    return failures


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("name", POCKET_COVERS)
def test_failures_match_depth_loop(name, eps, pocket_covers):
    bundle = pocket_covers[name]
    report = verify_reachability(bundle, 32, 32, eps)
    assert report.failures == _depth_loop_failures(bundle, 32, eps)


def _oracle_bundle(oracle, bundle):
    """`bundle` rebuilt in the frozen library from its JSON pieces."""
    region = _oracle_region(oracle, bundle)
    n, k = bundle.chain.n_edges, bundle.n_right_upper
    pieces = region.boundary.pieces
    return oracle.involute.CoverBundle(
        chain=oracle.involute.GeneratingChain(bundle.chain.vertices),
        region=region, apex=bundle.right_arcs[-1].end,
        left_arcs=pieces[n + k:], right_arcs=pieces[n:n + k], area=bundle.area,
        final_pivot=bundle.right_arcs[-1].sweep)


# (cover, points, lengths) per case, 64 x 64 unless the name says otherwise:
# smooth128 at 32 x 16 is the benchmark's VS128, known failures included,
# and 16 x 256 puts many lengths on each sample's one pass
ORACLE_REPORTS = {"r2": ("r2", 64, 64), "two": ("two", 64, 64),
                  "three": ("three", 64, 64), "four": ("four", 64, 64),
                  "smooth48": ("smooth48", 64, 64),
                  "r2-shrunk": ("r2-shrunk", 64, 64),
                  "apex-cut": ("apex-cut", 64, 64),
                  "smooth128-32x16": ("smooth128", 32, 16),
                  "four-16x256": ("four", 16, 256),
                  "perturb10-16x256": ("perturb10", 16, 256),
                  "perturb22-16x256": ("perturb22", 16, 256),
                  "perturb38-32x16": ("perturb38", 32, 16)}


@pytest.mark.parametrize("name", ORACLE_REPORTS)
def test_failure_sets_match_oracle(name, pocket_covers, apex_cut_bundle,
                                   oracle_package):
    cover, n_points, n_lengths = ORACLE_REPORTS[name]
    if cover == "r2-shrunk":
        bundle = shrink_cover(pocket_covers["r2"], 0.95)
    elif cover == "apex-cut":
        bundle = apex_cut_bundle
    else:
        bundle = pocket_covers[cover]
    report = verify_reachability(bundle, n_points, n_lengths).to_json()
    want = oracle_package.verify.verify_reachability(
        _oracle_bundle(oracle_package, bundle), n_points, n_lengths).to_json()
    assert report.pop("eps") == DEFAULT_EPS  # the frozen report has no eps
    assert report == want
