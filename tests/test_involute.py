import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FOUR_ANGLES, THREE_ANGLES
from test_geometry import hairpin_chain, unaudited_boundary
from rulecover import constructions as cons
from rulecover import geometry, involute, numerics, smooth
from rulecover.geometry import Arc, OpenPathError, arc_path_area, path_self_intersects
from rulecover.involute import (
    GeneratingChain,
    InadmissibleChainError,
    _unwrap,
    certify_cap,
    chain_from_params,
    half_chain_area,
    half_chain_layout,
    involute_cover,
    validate_chain,
)
from rulecover.search import (
    MIN_FRACTION,
    ChainParams,
    _cover_area,
    initial_params,
    perturb,
)
from rulecover.verify import shrink_cover, verify_reachability

A_OPT_TWO = math.acos(0.75)


def scaled_one_edge(scale):
    return GeneratingChain(((-scale / 2, 0.0), (scale / 2, 0.0)))


class TestChainFromParams:
    def test_one_edge(self):
        chain = chain_from_params("one")
        assert chain.vertices == ((-0.5, 0.0), (0.5, 0.0))

    def test_two_edge(self):
        p = cons.solve_two_edge(A_OPT_TWO)
        chain = chain_from_params("two", p)
        assert len(chain.vertices) == 3
        # both edges are exactly half the string
        assert all(abs(L - 0.5) <= 1e-15 for L in chain.edge_lengths)
        # the middle vertex rises sin(c)/2 above the endpoints
        u, m, v = chain.vertices
        assert abs((m[1] - u[1]) - 0.5 * math.sin(p.c)) <= 1e-12
        assert abs(v[0] - u[0] - p.x0) <= 1e-12

    def test_three_edge(self):
        p = cons.solve_three_edge(*THREE_ANGLES)
        chain = chain_from_params("three", p)
        assert len(chain.vertices) == 4
        want = (p.x1, p.x2, p.x1)
        assert all(abs(L - w) <= 1e-12 for L, w in zip(chain.edge_lengths, want))

    def test_four_edge(self):
        p = cons.solve_four_edge(*FOUR_ANGLES)
        chain = chain_from_params("four", p)
        assert len(chain.vertices) == 5
        want = (p.x1, p.x3, p.x3, p.x1)
        assert all(abs(L - w) <= 1e-12 for L, w in zip(chain.edge_lengths, want))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            chain_from_params("zero")

    @pytest.mark.parametrize("kind", ["one", "two", "three", "four"])
    def test_params_default_to_the_reference_angles(self, kind):
        cut = cons.CONSTRUCTIONS[kind]
        params, bundle = cut.build()
        assert chain_from_params(kind).vertices == bundle.chain.vertices
        assert (chain_from_params(kind).vertices
                == chain_from_params(kind, params).vertices)


class TestValidateChain:
    def test_admissible(self):
        assert validate_chain(chain_from_params("one")) == []

    def test_short_chain(self):
        diags = validate_chain(scaled_one_edge(0.9))
        assert any(d.kind == "length" for d in diags)
        with pytest.raises(InadmissibleChainError):
            involute_cover(scaled_one_edge(0.9))

    def test_diagnostic_text_in_error_message(self):
        # the message joins the diagnostics' "kind: detail (magnitude)" text
        with pytest.raises(InadmissibleChainError) as err:
            involute_cover(scaled_one_edge(0.9))
        assert str(err.value) == ("length: total length 0.9 != 1 "
                                  "(magnitude 1.000e-01)")
        diags = [involute.ChainDiagnostic("simple", math.nan, "arc 2 turns"),
                 involute.ChainDiagnostic(kind="unwrap", magnitude=2.5e-7,
                                          detail="string end")]
        assert str(InadmissibleChainError(diags)) == (
            "simple: arc 2 turns (magnitude nan); "
            "unwrap: string end (magnitude 2.500e-07)")
        assert str(InadmissibleChainError([])) == "inadmissible chain"

    def test_negative_turn(self):
        # middle vertex below the endpoints: convex toward the region
        chain = GeneratingChain(((-0.4, 0.0), (0.0, -0.3), (0.4, 0.0)))
        diags = validate_chain(chain)
        assert any(d.kind == "concavity" for d in diags)

    def test_asymmetric(self):
        p = cons.solve_two_edge(A_OPT_TWO)
        verts = list(chain_from_params("two", p).vertices)
        verts[1] = (verts[1][0] + 1e-3, verts[1][1])
        diags = validate_chain(GeneratingChain(tuple(verts)))
        sym = [d for d in diags if d.kind == "symmetry"]
        assert sym and 0.5e-3 <= sym[0].magnitude <= 2e-3

    def test_endpoint_order(self):
        chain = GeneratingChain(((0.2, 0.0), (1.2, 0.0)))
        kinds = {d.kind for d in validate_chain(chain)}
        assert "endpoints" in kinds

    def test_ordering(self):
        # u and v swapped: the chain runs against x
        chain = GeneratingChain(((0.4, 0.0), (0.0, 0.3), (-0.4, 0.0)))
        kinds = {d.kind for d in validate_chain(chain)}
        assert "ordering" in kinds

    @pytest.mark.parametrize("vertices, kind", [
        (((-0.4, 0.0), (0.0, -0.3), (0.4, 0.0)), "concavity"),
        (((-0.4, 0.0), (0.05, 0.3), (0.4, 0.0)), "symmetry"),
        (((0.4, 0.0), (0.0, 0.3), (-0.4, 0.0)), "ordering"),
    ])
    def test_pocket_not_convex_or_not_symmetric(self, vertices, kind):
        # the pocket facts of the cover's shape argument, which certify_cap
        # takes from validate_chain
        with pytest.raises(InadmissibleChainError) as err:
            involute_cover(GeneratingChain(vertices))
        assert kind in {d.kind for d in err.value.diagnostics}


class TestInvoluteCover:
    def test_one_edge_is_r2(self, r2_bundle):
        assert abs(r2_bundle.area - cons.R2_AREA) <= 1e-12
        assert math.dist(r2_bundle.right_arcs[-1].end, (0.0, math.sqrt(3) / 2)) <= 1e-12
        assert abs(r2_bundle.right_arcs[-1].sweep - math.pi / 3) <= 1e-12
        assert abs(r2_bundle.area - cons.r2_cover().area) <= 1e-12

    def test_two_edge_arc_multiset(self, two_bundle):
        p = cons.solve_two_edge(A_OPT_TWO)
        assert abs(two_bundle.area - cons.two_edge_area(A_OPT_TWO)) <= 1e-10
        for arcs in (two_bundle.left_arcs, two_bundle.right_arcs):
            radii = sorted(round(a.r, 9) for a in arcs)
            assert radii == [0.5, 1.0]
            sweeps = sorted(round(abs(a.sweep), 9) for a in arcs)
            assert abs(sweeps[0] - p.a) <= 1e-9
            assert abs(sweeps[1] - 2 * p.c) <= 1e-9

    def test_matches_closed_forms(self, two_bundle, three_bundle, four_bundle):
        assert abs(two_bundle.area
                   - cons.two_edge_area(A_OPT_TWO)) <= 1e-10
        assert abs(three_bundle.area
                   - cons.three_edge_area(*THREE_ANGLES)) <= 1e-10
        assert abs(four_bundle.area
                   - cons.four_edge_area(*FOUR_ANGLES)) <= 1e-10

    def test_final_pivot_equals_large_sector_angle(self, three_bundle, four_bundle):
        # the final pivot is the right run's last arc, about u
        assert abs(three_bundle.right_arcs[-1].sweep - THREE_ANGLES[0]) <= 1e-9
        assert abs(four_bundle.right_arcs[-1].sweep - FOUR_ANGLES[0]) <= 1e-9

    def test_three_edge_cut_at_a_zero(self):
        # Chen and Dumitrescu's 0.583 cover: the string end reaches the apex
        # with the last turn, so the final pivot about u sweeps no arc
        b = numerics.minimize_1d(lambda x: cons.three_edge_area(0.0, x),
                                 1.05, 1.5).argmin
        params, bundle = cons.CONSTRUCTIONS["three"].build((0.0, b))
        assert len(bundle.right_arcs) == len(bundle.left_arcs) == 2
        assert abs(bundle.area - cons.three_edge_area(0.0, b)) <= 1e-10
        assert half_chain_area(3, *cons.CONSTRUCTIONS["three"].half(params)) \
            == bundle.area
        report = verify_reachability(bundle, 64, 64)
        assert report.failures == [] and report.passed

    def test_negative_final_pivot_is_closure(self):
        # the a = 0 chain with its turn 2.4e-12 larger: the final pivot is
        # about -2e-12, beyond the 1e-12 band that sweeps no arc
        p = cons.solve_three_edge(0.0, 1.1581737222120763)
        chain = GeneratingChain.from_half_params(3, (p.x1,), (p.b + 2.4e-12,))
        assert validate_chain(chain) == []
        with pytest.raises(InadmissibleChainError) as err:
            involute_cover(chain)
        [diag] = err.value.diagnostics
        assert diag.kind == "closure" and 1.5e-12 < diag.magnitude < 2.5e-12

    def test_apex_unit_distance(self, four_bundle):
        apex = four_bundle.right_arcs[-1].end
        for p in (four_bundle.chain.u, four_bundle.chain.v):
            assert abs(math.dist(p, apex) - 1.0) <= 1e-9

    def test_sector_sum_identity(self, three_bundle, four_bundle):
        # at every interior vertex, the left and right arc radii sum to 1
        for bundle in (three_bundle, four_bundle):
            for k, vertex in enumerate(bundle.chain.vertices[1:-1], start=1):
                left = [a.r for a in bundle.left_arcs
                        if math.dist((a.cx, a.cy), vertex) <= 1e-9]
                right = [a.r for a in bundle.right_arcs
                         if math.dist((a.cx, a.cy), vertex) <= 1e-9]
                assert len(left) == len(right) == 1
                assert abs(left[0] + right[0] - 1.0) <= 1e-12
                assert abs(left[0] - bundle.chain.cum_lengths[k]) <= 1e-12

    def test_mirror_invariance(self, three_bundle):
        mirrored = involute_cover(GeneratingChain(tuple(
            (-x, y) for (x, y) in reversed(three_bundle.chain.vertices))))
        assert abs(mirrored.area - three_bundle.area) <= 1e-12

    def test_total_boundary_turning(self, two_bundle, four_bundle):
        for bundle in (two_bundle, four_bundle):
            assert abs(_total_turning(bundle.boundary) - 2 * math.pi) <= 1e-6

    def test_upper_path_excludes_chain(self, three_bundle):
        upper = three_bundle.upper_path
        n_edges = three_bundle.chain.n_edges
        assert len(upper.pieces) == len(three_bundle.boundary.pieces) - n_edges
        assert all(isinstance(piece, Arc) for piece in upper.pieces)
        # built once, so its compiled piece table is shared by every query
        assert three_bundle.upper_path is upper


def _tangent(piece, at_start):
    if isinstance(piece, Arc):
        t = piece.t0 if at_start else piece.t1
        sgn = 1.0 if piece.sweep >= 0 else -1.0
        return math.atan2(sgn * math.cos(t), -sgn * math.sin(t))
    dx = piece.x1 - piece.x0
    dy = piece.y1 - piece.y0
    return math.atan2(dy, dx)


def _total_turning(path):
    total = 0.0
    pieces = path.pieces
    for i, piece in enumerate(pieces):
        if isinstance(piece, Arc):
            total += piece.sweep
        nxt = pieces[(i + 1) % len(pieces)]
        gap = _tangent(nxt, True) - _tangent(piece, False)
        total += (gap + math.pi) % (2 * math.pi) - math.pi
    return total


class TestHalfParams:
    @pytest.mark.parametrize("kind,angles", [
        ("one", None), ("two", None), ("three", None), ("four", None)])
    def test_round_trip(self, kind, angles):
        params = {
            "one": lambda: None,
            "two": lambda: cons.solve_two_edge(A_OPT_TWO),
            "three": lambda: cons.solve_three_edge(*THREE_ANGLES),
            "four": lambda: cons.solve_four_edge(*FOUR_ANGLES),
        }[kind]()
        chain = chain_from_params(kind, params)
        fracs, turns = chain.half_params()
        rebuilt = GeneratingChain.from_half_params(chain.n_edges, fracs, turns)
        assert len(rebuilt.vertices) == len(chain.vertices)
        # same shape up to the vertical anchoring convention
        dy = rebuilt.vertices[0][1] - chain.vertices[0][1]
        for a, b in zip(rebuilt.vertices, chain.vertices):
            assert abs(a[0] - b[0]) <= 1e-9
            assert abs(a[1] - b[1] - dy) <= 1e-9

    def test_json_round_trip(self, four_bundle):
        doc = four_bundle.chain.to_json()
        assert doc["edges"] == 4
        back = GeneratingChain.from_json(doc)
        assert back.vertices == four_bundle.chain.vertices
        half_only = {"edges": doc["edges"], "halfchain": doc["halfchain"]}
        approx = GeneratingChain.from_json(half_only)
        assert abs(approx.cum_lengths[-1] - 1.0) <= 1e-12

    def test_bad_half_params(self):
        with pytest.raises(ValueError):
            GeneratingChain.from_half_params(4, (0.1,), (0.2, 0.3))
        with pytest.raises(ValueError):
            GeneratingChain.from_half_params(3, (0.5,), (0.1,))  # no middle left
        for n in (0, -2):  # no edge to index
            with pytest.raises(ValueError, match="at least 1 edge"):
                half_chain_layout(n, [], [])
        with pytest.raises(ValueError, match="need 0 fractions"):
            half_chain_layout(1, (0.2,), (0.1,))  # one edge has no half

    @pytest.mark.parametrize("edges", [4, 5])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_fraction_must_be_finite_and_positive(self, bad, position, edges):
        fracs = [0.2, 0.2]
        fracs[position] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            half_chain_layout(edges, fracs, (0.1, 0.1))


@given(turn=st.floats(0.05, 1.2))
@settings(max_examples=60, deadline=None)
def test_two_edge_family_property(turn):
    # any modest symmetric two-edge chain yields a closed cover whose apex
    # sits at unit distance from both ends
    chain = GeneratingChain.from_half_params(2, (0.5,), (turn,))
    assume(validate_chain(chain) == [])
    try:
        bundle = involute_cover(chain)
    except InadmissibleChainError:
        assume(False)
    assert bundle.area > 0
    assert abs(math.dist(bundle.chain.u, bundle.right_arcs[-1].end) - 1.0) <= 1e-9
    dense = bundle.boundary.polygonize(max_arc_step=2 * math.pi / 8192)
    shoelace = 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0, x1, y1, _) in dense)
    assert abs(bundle.area - shoelace) <= 1e-6


# --------------------------------------------------------------------------
# differential test: the search's scorer, half_chain_area, against the area
# of an unaudited build of the same chain


def _outcome(area_of, chain):
    """(area, None), or (None, (exception class, diagnostic kinds))."""
    try:
        return area_of(chain), None
    except ValueError as exc:
        kinds = frozenset(d.kind for d in getattr(exc, "diagnostics", ()))
        return None, (type(exc), kinds)


def _built_area(chain):
    return involute_cover(chain).area


def _half_chain_area(params):
    """A search move's score."""
    return half_chain_area(params.edges, params.fracs, params.turns)


def _scored_area(chain, monkeypatch):
    """The scorer run on `chain`'s own vertices: its layout is replaced, so
    the facts, checks and walk after it see a chain that no half
    parameters give (a closed form, a non-finite or a negative-radius one)."""
    monkeypatch.setattr(involute, "half_chain_layout",
                        lambda n, fracs, turns: (chain.vertices, None))
    return half_chain_area(chain.n_edges, (), ())


def _check_both_ways(chain, monkeypatch):
    # from the chain's half parameters, as the search scores a move, and
    # from its own vertices through the scorer's walk (bit for bit)
    params = ChainParams.from_chain(chain)
    assert _half_chain_area(params) == _built_area(params.to_chain())
    assert _scored_area(chain, monkeypatch) == _built_area(chain)


@pytest.mark.parametrize("name", ["r2", "two", "three", "four"])
def test_cover_area_matches_reference_builds(name, request, monkeypatch):
    _check_both_ways(request.getfixturevalue(f"{name}_bundle").chain, monkeypatch)


@pytest.mark.parametrize("edges", [32, 128, 512])
def test_cover_area_matches_smooth_builds(edges, smooth_optimum, monkeypatch):
    _check_both_ways(smooth.discretize_smooth(smooth_optimum[1], edges),
                     monkeypatch)


def perturbed_params(edges, step, count=30, moves=6):
    """Half chains `moves` seeded perturb moves away from the search's start."""
    rng = random.Random(1000 * edges + round(100 * step))
    out = []
    for _ in range(count):
        params = initial_params(edges)
        for _ in range(moves):
            params = perturb(params, step, rng)
        out.append(params)
    return out


def perturbed_chains(edges, step, count=30, moves=6):
    """The chains of perturbed_params that have one."""
    chains = []
    for params in perturbed_params(edges, step, count, moves):
        try:
            chains.append(params.to_chain())
        except ValueError:
            continue  # half parameters with no chain: neither path sees them
    return chains


@pytest.mark.parametrize("step", [0.02, 0.3, 1.0])
@pytest.mark.parametrize("edges", [2, 3, 4, 5, 8, 16, 17, 64, 128])
def test_cover_area_matches_perturbed_builds(edges, step):
    # the score against a build of the chain object, and the search's
    # counting wrapper: the same area, or one count per rejection kind
    for params in perturbed_params(edges, step):
        outcome = _outcome(_half_chain_area, params)
        assert outcome == _outcome(lambda p: _built_area(p.to_chain()), params), \
            params
        rejections = Counter()
        assert _cover_area(params, rejections) == outcome[0]
        if outcome[1] is None:
            assert not rejections
        else:
            cls, kinds = outcome[1]
            assert rejections == Counter(
                kinds or {"params" if cls is ValueError else "geometry"})


def test_perturbed_chains_reach_rejections():
    # the large steps exercise the rejection paths compared above; no seeded
    # half chain reaches "unwrap": with increasing x and no negative turn,
    # each radius is the string's free length to rounding (TestBuildChecks)
    kinds = set()
    for edges in (16, 17, 64, 128):
        for step in (0.3, 1.0):
            for params in perturbed_params(edges, step):
                _, error = _outcome(_half_chain_area, params)
                if error is not None:
                    kinds |= error[1]
    assert {"closure", "concavity", "endpoints", "ordering"} <= kinds


# --------------------------------------------------------------------------
# differential test: the bounded scorer, half_chain_area with a bound,
# against the unbounded one on the same seeded perturb chains

BOUNDED_EDGES = [2, 3, 4, 5, 8, 16, 17, 64, 128, 512]


def _bounded(bound):
    return lambda p: half_chain_area(p.edges, p.fracs, p.turns, bound)


def _bounds_around(area, rng):
    """Bounds at the area, one ulp, 1e-15 and 1e-9 to either side of it,
    and at random values near it and far from it."""
    return [area, math.nextafter(area, math.inf), math.nextafter(area, 0.0),
            area + 1e-15, area - 1e-15, area + 1e-9, area - 1e-9,
            rng.uniform(area - 1e-6, area + 1e-6), rng.uniform(0.3, 0.9)]


def _assert_bounded_is_the_walk(params, bounds):
    # None only when the exact area is >= bound, else the same float; the
    # same exception class and kinds whatever the bound, including the
    # bounds <= 0 and inf that turn the settle test off; and a bound 1e-9
    # or more below the area, far outside the sum's tolerance, is settled
    area, error = _outcome(_half_chain_area, params)
    for bound in bounds:
        got, got_error = _outcome(_bounded(bound), params)
        assert got_error == error, (params, bound)
        if got is None and error is None:
            assert area >= bound, (params, bound)
        else:
            assert got == area, (params, bound)
        if error is None and 0.0 < bound <= area - 1e-9:
            assert got is None, (params, bound)


@pytest.mark.parametrize("step", [0.02, 0.3, 1.0])
@pytest.mark.parametrize("edges", BOUNDED_EDGES)
def test_bounded_score_settles_only_areas_at_or_above_the_bound(edges, step):
    rng = random.Random(7 * edges + round(100 * step))
    for params in perturbed_params(edges, step):
        area, _ = _outcome(_half_chain_area, params)
        bounds = [-1.0, 0.0, math.inf, rng.uniform(0.3, 0.9)]
        if area is not None:
            bounds += _bounds_around(area, rng)
        _assert_bounded_is_the_walk(params, bounds)


# a first edge of 5e-17 leaves s_4 one ulp above 1 (see
# test_unwrap_radius_guard_fires_from_half_parameters)
RADIUS_GUARD_PARAMS = ChainParams(5, (5.2477313009977105e-17, 0.21424367676489484),
                                  (0.114045996568159, 0.35874260759089155))
TINY_TURNS = [0.0, 1e-14, -1e-14, 5e-15, -5e-15, 2e-14]


def tiny_turn_params(edges, tiny):
    """The warm start with every third turn set to `tiny`: clamped to 0.0,
    or computed within 1e-14 or so of it, either way.  The walk records no
    arc for a turn at or below 1e-14; the closed sum keeps every turn."""
    base = initial_params(edges)
    turns = [tiny if j % 3 == 0 else t for j, t in enumerate(base.turns)]
    return base._replace(turns=tuple(turns))


def min_fraction_params(edges):
    """The warm start with the first half edge and one near the middle at
    MIN_FRACTION, each next to an edge four times its old length."""
    fracs = list(initial_params(edges).fracs)
    for j in (0, len(fracs) // 2):
        fracs[j], fracs[j + 1] = MIN_FRACTION, 4 * fracs[j + 1]
    return initial_params(edges)._replace(fracs=tuple(fracs))


# input turns at and around the concavity gate, every third one: just past
# it (inadmissible), just inside it, and halfway to it
GATE_TURNS = [-involute.TURN_TOL * (1 + 1e-3), -involute.TURN_TOL * (1 - 1e-3),
              -involute.TURN_TOL / 2]


def _fixed_bounded_cases():
    closure = [p for p in perturbed_params(17, 0.3)
               if _outcome(_half_chain_area, p)[1] == (InadmissibleChainError,
                                                        frozenset({"closure"}))]
    assert len(closure) == 7
    # a fraction of 1e-20 rounds its edge away: a zero-length edge, which
    # fails ordering
    zero_edge = ChainParams(4, (1e-20, 0.3), (0.1, 0.3))
    return {"radius-guard": [RADIUS_GUARD_PARAMS], "17-edge-closure": closure,
            "zero-length-edge": [zero_edge],
            "min-fraction": [min_fraction_params(n) for n in (64, 512)],
            "length-edge": [initial_params(512)],
            **{f"tiny-{tiny!r}": [tiny_turn_params(n, tiny)
                                  for n in (4, 5, 16, 17, 64, 512)]
               for tiny in TINY_TURNS + GATE_TURNS}}


def _length_tols(params, monkeypatch):
    """LENGTH_TOL values within 1e-13 of its two edges on params' chain:
    just under |s_n - 1| (about 2.4e-15 for the 512-edge warm start), where
    the walk's length check fails, and at and just over the least value at
    which the settle test passes, found by bisection.  That one sits above
    the walk's edge by the test's margin on the fraction sum (8u n, 4.6e-13
    at 512 edges) at most.  No half parameters give a chain off length 1 by
    more than a few ulps an edge, so the edges are moved to the chain."""
    walk_edge = abs(involute.chain_facts(half_chain_layout(*params)[0])[1][-1] - 1.0)
    settled = _bounded(_half_chain_area(params) - 1e-9)

    def settles(key):
        monkeypatch.setattr(involute, "LENGTH_TOL", _float_at(key))
        return settled(params) is None

    lo, hi = _float_key(walk_edge), _float_key(1e-12)
    assert 1e-16 < walk_edge and not settles(lo) and settles(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if settles(mid):
            hi = mid
        else:
            lo = mid
    settle_edge = _float_at(hi)
    assert settle_edge - walk_edge < 5e-13
    return ([math.nextafter(walk_edge, 0.0)]
            + [settle_edge + k * 1e-14 for k in range(11)])


@pytest.mark.parametrize("case", ["radius-guard", "17-edge-closure",
                                  "zero-length-edge", "min-fraction", "length-edge",
                                  *(f"tiny-{t!r}" for t in TINY_TURNS + GATE_TURNS)])
def test_bounded_score_on_fixed_cases(case, monkeypatch):
    # bounds below every area: the settle test must not hide the walk's
    # exception, and must settle or hand back the walk's area exactly
    rng = random.Random(case)
    for params in _fixed_bounded_cases()[case]:
        tols = ([involute.LENGTH_TOL] if case != "length-edge"
                else _length_tols(params, monkeypatch))
        for tol in tols:
            monkeypatch.setattr(involute, "LENGTH_TOL", tol)
            area, error = _outcome(_half_chain_area, params)
            bounds = [1e-300, 0.05, 0.3, 0.5]
            if area is not None:
                bounds += _bounds_around(area, rng) + [area - 1e-12, area / 2]
            _assert_bounded_is_the_walk(params, bounds)
            if case == "radius-guard":
                assert error == (geometry.GeometryError, frozenset())
            elif case == "17-edge-closure":
                assert error == (InadmissibleChainError, frozenset({"closure"}))
            elif case == "zero-length-edge":
                assert error == (InadmissibleChainError,
                                 frozenset({"concavity", "ordering"}))
            elif case == "length-edge" and tol < tols[1]:
                assert error == (InadmissibleChainError, frozenset({"length"}))
            elif case == f"tiny-{GATE_TURNS[0]!r}":
                assert error == (InadmissibleChainError, frozenset({"concavity"}))
            else:
                assert error is None, (params, tol)


def _float_key(x):
    """A positive float's place in the order of all positive floats."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float_at(key):
    return struct.unpack("<d", struct.pack("<q", key))[0]


def _closed_sum(params, monkeypatch):
    """The sum _layout_settles compares with the bound.  With SETTLE_TOL at
    0 its margin is 3 g^2 (g = neg + 1e-14 n + 2e-15 / f, with neg the size
    of the walk's negative turns and f the least fraction laid out), so the
    largest bound it settles, found by bisecting the positive floats, is
    the sum minus 3 g^2."""
    monkeypatch.setattr(involute, "SETTLE_TOL", 0.0)
    lo, hi = _float_key(1e-300), _float_key(16.0)
    assert _bounded(1e-300)(params) is None and _bounded(16.0)(params) is not None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bounded(_float_at(mid))(params) is None:
            lo = mid
        else:
            hi = mid
    verts, (fracs, *_) = half_chain_layout(*params)
    neg = -math.fsum(min(t, 0.0) for t in involute.chain_facts(verts)[2])
    g = neg + 1e-14 * params.edges + 2e-15 / min(fracs)
    return _float_at(lo) + 3.0 * g * g


@pytest.mark.parametrize("step", [0.02, 0.3, 1.0])
@pytest.mark.parametrize("edges", BOUNDED_EDGES)
def test_estimate_error_is_far_inside_its_tolerance(edges, step, monkeypatch):
    # the measured error per arc (the final pivot and one per turn, as the
    # sum skips none) is at most a hundredth of the tolerance it allows,
    # also where turns are clamped to 0.0 or within 1e-14 of it
    tol, worst = involute.SETTLE_TOL, 0.0
    cases = perturbed_params(edges, step, count=8)
    if step == 0.02:
        cases += [tiny_turn_params(edges, tiny) for tiny in TINY_TURNS]
    for params in cases:
        area, error = _outcome(_half_chain_area, params)
        if error is not None:
            continue
        arcs = edges  # edges - 1 interior vertices and the final pivot
        worst = max(worst, abs(_closed_sum(params, monkeypatch) - area) / arcs)
    assert worst <= tol / 100


NON_FINITE_CHAINS = {
    "nan-x": ((-0.5, 0.0), (math.nan, 0.1), (0.5, 0.0)),
    "nan-y": ((-0.5, 0.0), (0.0, math.nan), (0.5, 0.0)),
    "inf": ((-0.5, 0.0), (math.inf, 0.1), (0.5, 0.0)),
}


@pytest.mark.parametrize("name", NON_FINITE_CHAINS)
def test_non_finite_chain_is_rejected(name, monkeypatch):
    # nan compares false both ways, so only `not length <= tol` catches it
    chain = GeneratingChain(NON_FINITE_CHAINS[name])
    assert "length" in {d.kind for d in validate_chain(chain)}
    for build in (involute_cover, lambda c: _scored_area(c, monkeypatch)):
        with pytest.raises(InadmissibleChainError) as err:
            build(chain)
        assert "length" in {d.kind for d in err.value.diagnostics}


@pytest.mark.parametrize("build", ["involute_cover", "half_chain_area"])
def test_clockwise_boundary_is_rejected(build, monkeypatch, two_bundle):
    # the walk's area negated: only check_ccw stands between it and a result
    unwrap = involute._unwrap

    def negated(*args):
        area, right, left = unwrap(*args)
        return -area, right, left

    monkeypatch.setattr(involute, "_unwrap", negated)
    params = ChainParams.from_chain(two_bundle.chain)
    with pytest.raises(geometry.GeometryError, match="counterclockwise"):
        if build == "involute_cover":
            involute_cover(two_bundle.chain)
        else:
            _half_chain_area(params)


class TestBuildChecks:
    """Checks of the shared unwrap that validate_chain does not make,
    each reached by the build and by the scorer with validate_chain
    switched off."""

    @pytest.fixture
    def builds(self, monkeypatch):
        monkeypatch.setattr(involute, "validate_chain", lambda chain: [])
        return involute_cover, lambda chain: _scored_area(chain, monkeypatch)

    def test_short_string_unwraps_short(self, builds):
        chain = scaled_one_edge(0.8)
        for build in builds:
            with pytest.raises(InadmissibleChainError) as err:
                build(chain)
            assert [d.kind for d in err.value.diagnostics] == ["unwrap"]
            assert "not unit length" in str(err.value)

    def test_string_end_off_pivot_radius(self, builds):
        # total length about 1.6: the string end, still at v, is not at
        # radius 1 - s_2 from vertex 2
        chain = GeneratingChain(((-0.6, 0.0), (-0.2, -0.45), (0.2, -0.45),
                                 (0.6, 0.0)))
        for build in builds:
            with pytest.raises(InadmissibleChainError) as err:
                build(chain)
            assert [d.kind for d in err.value.diagnostics] == ["unwrap"]
            assert "pivot radius at vertex 2" in str(err.value)

    def test_apex_off_unit_distance(self, builds):
        # a unit chain off the axis: u is 1.18 from the apex above v
        chain = GeneratingChain(((-0.7, 0.0), (0.3, 0.0)))
        for build in builds:
            with pytest.raises(InadmissibleChainError) as err:
                build(chain)
            assert [d.kind for d in err.value.diagnostics] == ["closure"]
            assert "apex not at unit distance" in str(err.value)


def test_unwrap_radius_guard_fires_after_validation(monkeypatch):
    # a symmetric 4-edge arch with end edges 1e-13 long and length
    # 1 + 5e-13, inside LENGTH_TOL: validate_chain passes it, yet the first
    # pivot's radius 1 - s_3 is negative, which only _unwrap's Arc guard sees
    e1, e2 = 1e-13, 0.5 + 1.5e-13
    x1, y1 = e1 * math.cos(1.0), e1 * math.sin(1.0)
    x2, y2 = x1 + e2 * math.cos(0.3), y1 + e2 * math.sin(0.3)
    half = [(-x2, -y2), (x1 - x2, y1 - y2), (0.0, 0.0)]
    chain = GeneratingChain(tuple(half + [(-x, y) for x, y in half[1::-1]]))
    assert validate_chain(chain) == []
    for build in (involute_cover, lambda c: _scored_area(c, monkeypatch)):
        with pytest.raises(geometry.GeometryError,
                           match=r"negative radius -4\.0\d*e-13"):
            build(chain)


def test_unwrap_radius_guard_fires_from_half_parameters():
    # no half parameters give the chain above (the layout scales the half
    # chain to length 1/2), but a first edge of 5e-17 leaves s_4 one ulp
    # above 1 after rounding: the five-edge chain passes validate_chain,
    # and the build and the scorer stop at the same Arc guard
    params = RADIUS_GUARD_PARAMS
    chain = params.to_chain()
    assert validate_chain(chain) == []
    for build in (lambda p: involute_cover(p.to_chain()), _half_chain_area):
        with pytest.raises(geometry.GeometryError,
                           match=r"negative radius -2\.2\d*e-16"):
            build(params)
    rejections = Counter()
    assert _cover_area(params, rejections) is None
    assert rejections == Counter(geometry=1)


# --------------------------------------------------------------------------
# both involute runs: the boundary's own pieces, equal to the frozen oracle's.
# The oracle audits its boundary with the chord-crossing test that the
# shape certificate replaced, so these tests also compare the certificate's
# verdicts with the audit's, and every certified boundary is audited here too.

INPUTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "inputs.json").read_text())


def _closed_form_apex(chain):
    """The apex w = (0, v_y + sqrt(1 - v_x^2)), at unit distance from u and v."""
    vx, vy = chain.v
    return (0.0, vy + math.sqrt(1.0 - vx * vx))


def _assert_runs_are_boundary_pieces(bundle, apex):
    right, left = bundle.right_arcs, bundle.left_arcs
    assert len(right) == len(left)
    # right traced v -> w, left traced w -> u, as on the boundary
    for point, want in ((right[0].start, bundle.chain.v),
                        (right[-1].end, apex),
                        (left[0].start, apex),
                        (left[-1].end, bundle.chain.u)):
        assert math.dist(point, want) <= 1e-12


@pytest.mark.parametrize("name", ["r2", "two", "three", "four"])
def test_runs_are_boundary_pieces(name, request):
    bundle = request.getfixturevalue(f"{name}_bundle")
    wx, wy = _closed_form_apex(bundle.chain)
    _assert_runs_are_boundary_pieces(bundle, (wx, wy))
    _assert_runs_are_boundary_pieces(shrink_cover(bundle), (0.95 * wx, 0.95 * wy))


def _failure(exc):
    return type(exc).__name__, frozenset(
        d.kind for d in getattr(exc, "diagnostics", ()))


def _oracle_boundary(oracle_package, vertices, validate=True):
    """The audited oracle build's boundary and area, or its failure."""
    oracle = oracle_package.involute
    try:
        bundle = oracle.involute_cover(oracle.GeneratingChain(vertices),
                                       validate=validate)
    except ValueError as exc:
        return _failure(exc)
    return "ok", repr((bundle.region.boundary.to_json(), bundle.area))


def _boundary(chain):
    """The certified build's boundary and area, or its failure."""
    try:
        bundle = involute_cover(chain)
    except ValueError as exc:
        return _failure(exc)
    assert not path_self_intersects(bundle.boundary), chain.vertices
    return "ok", repr((bundle.boundary.to_json(), bundle.area))


@pytest.mark.parametrize("name", ["r2", "one", "two", "three", "four"])
def test_boundary_matches_oracle_on_reference_covers(name, request,
                                                     oracle_package):
    chain = chain_from_params("one") if name == "one" \
        else request.getfixturevalue(f"{name}_bundle").chain
    ours = _boundary(chain)
    assert ours[0] == "ok"
    assert ours == _oracle_boundary(oracle_package, chain.vertices)


@pytest.mark.parametrize("name", ["smooth32", "smooth128", "smooth512",
                                  "smooth2048"])
def test_boundary_matches_oracle_on_smooth_covers(name, oracle_package,
                                                  smooth_optimum):
    chain = GeneratingChain.from_json(INPUTS[name]) if name in INPUTS \
        else smooth.discretize_smooth(smooth_optimum[1], 2048)
    ours = _boundary(chain)
    assert ours[0] == "ok"
    assert ours == _oracle_boundary(oracle_package, chain.vertices)


@pytest.mark.parametrize("step", [0.02, 0.3])
@pytest.mark.parametrize("edges", [2, 3, 4, 5, 8, 16, 17, 64])
def test_boundary_matches_oracle_on_perturbed_chains(edges, step,
                                                     oracle_package):
    # the same outcome class, built or rejected by the same kinds
    built = 0
    for chain in perturbed_chains(edges, step):
        ours = _boundary(chain)
        assert ours == _oracle_boundary(oracle_package, chain.vertices), \
            chain.vertices
        built += ours[0] == "ok"
    assert built > 0


def test_area_is_the_boundary_area_bit_for_bit(apex_cut_bundle):
    # a bundle's stored area is its boundary's area, as every maker records
    # it: involute_cover from _unwrap's walk, shrink_cover and the mutant
    # from arc_path_area itself
    bundles = [involute_cover(GeneratingChain.from_json(doc))
               for doc in INPUTS.values()]
    r2 = cons.r2_cover()
    bundles += [r2, shrink_cover(r2, 0.95), apex_cut_bundle]
    for edges in (2, 3, 4, 5, 8, 16, 17, 64):
        for step in (0.02, 0.3):
            for chain in perturbed_chains(edges, step):
                try:
                    bundles.append(involute_cover(chain))
                except ValueError:
                    continue  # rejected: no bundle to compare
    assert len(bundles) == 456
    mismatches = [(b.chain.vertices, b.area) for b in bundles
                  if b.area != arc_path_area(b.boundary)]
    assert mismatches == []


# --------------------------------------------------------------------------
# validate_chain visits half of the mirror pairs: the same diagnostics as the
# frozen oracle's loop over all of them


def asymmetric_chains(seed, count=20):
    """Admissible chains with one vertex moved by up to 1e-3 (or 1e-10)."""
    rng = random.Random(seed)
    chains = []
    for edges in (1, 2, 3, 4, 5, 16, 17):
        base = initial_params(edges).to_chain() if edges > 1 \
            else chain_from_params("one")
        for _ in range(count):
            verts = list(base.vertices)
            k = rng.randrange(len(verts))
            size = rng.choice((1e-3, 1e-10))
            verts[k] = (verts[k][0] + rng.uniform(-size, size),
                        verts[k][1] + rng.uniform(-size, size))
            chains.append(GeneratingChain(tuple(verts)))
    return chains


def test_half_pair_symmetry_matches_full_loop(oracle_package):
    oracle = oracle_package.involute
    kinds = set()
    for chain in asymmetric_chains(7):
        ours = [(d.kind, d.magnitude, d.detail) for d in validate_chain(chain)]
        want = [(d.kind, d.magnitude, d.detail) for d in
                oracle.validate_chain(oracle.GeneratingChain(chain.vertices))]
        assert ours == want, chain.vertices
        kinds |= {kind for kind, _, _ in ours}
    assert "symmetry" in kinds


# --------------------------------------------------------------------------
# the shape certificate of an audited build, on its own


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certificate_rejects_hairpins(seed, oracle_package):
    # u on the right, v on the left, and a hairpin turn of more than pi:
    # the build rejects the chain, and so does the oracle's build without
    # validate_chain; assembled unvalidated, the boundary crosses itself
    chain = hairpin_chain(seed)
    with pytest.raises(InadmissibleChainError) as err:
        involute_cover(chain)
    assert "ordering" in {d.kind for d in err.value.diagnostics}
    assert _oracle_boundary(oracle_package, chain.vertices,
                            validate=False)[0] == "InadmissibleChainError"
    assert path_self_intersects(unaudited_boundary(chain))


def test_audited_build_runs_no_crossing_test(monkeypatch, smooth_optimum):
    def crossing_test(path):
        raise AssertionError("an audited build ran path_self_intersects")

    monkeypatch.setattr(geometry, "path_self_intersects", crossing_test)
    chain = smooth.discretize_smooth(smooth_optimum[1], 512)
    assert involute_cover(chain).area == _scored_area(chain, monkeypatch)


def test_open_boundary_raises(monkeypatch, two_bundle):
    # the left run moved aside by 1e-6: every angle fact still holds, and
    # only the closure check sees that the pieces no longer stitch
    mirror = involute._mirror_run

    def shifted(right):
        return [(cx + 1e-6, cy, r, t0, t1) for cx, cy, r, t0, t1 in mirror(right)]

    monkeypatch.setattr(involute, "_mirror_run", shifted)
    with pytest.raises(OpenPathError):
        involute_cover(two_bundle.chain)


class TestCertifyCap:
    """Each certificate fact on its own: records from the two-edge cover,
    changed so that every other fact still holds."""

    @pytest.fixture
    def records(self, two_bundle):
        chain = two_bundle.chain
        _, right, left = _unwrap(chain)
        assert len(right) == len(left) == 2  # one joint in each run
        return chain, right, left

    @staticmethod
    def moved(record, t0=None, t1=None):
        cx, cy, r, a0, a1 = record
        return (cx, cy, r, a0 if t0 is None else t0, a1 if t1 is None else t1)

    def assert_not_simple(self, chain, right, left, match):
        with pytest.raises(InadmissibleChainError, match=match) as err:
            certify_cap(chain, right, left)
        assert [d.kind for d in err.value.diagnostics] == ["simple"]

    def test_accepts_the_cover(self, records):
        certify_cap(*records)

    def test_broken_joint(self, records):
        chain, right, left = records
        shifted = self.moved(right[1], right[1][3] + 1e-6, right[1][4] + 1e-6)
        self.assert_not_simple(chain, [right[0], shifted], left,
                               "arcs 0 and 1 meet at an angle")

    @pytest.mark.parametrize("corner", ["v", "apex", "u"])
    def test_reflex_corner(self, records, corner):
        # the arc next to the corner sweeps on by what the corner loses, so
        # the total turning stays 2 pi
        chain, right, left = records
        right, left = list(right), list(left)
        if corner == "v":
            right[0] = self.moved(right[0], t0=-math.pi / 2 - 0.1)
        elif corner == "apex":
            left[0] = self.moved(left[0], t0=right[-1][4] - 0.1)
        else:
            left[-1] = self.moved(left[-1], t1=1.5 * math.pi + 0.1)
        self.assert_not_simple(chain, right, left, f"corner at (the )?{corner}")

    def test_winds_twice(self, records):
        chain, right, left = records
        looped = self.moved(right[0], t1=right[0][4] + 2 * math.pi)
        self.assert_not_simple(chain, [looped, right[1]], left,
                               "cap curve turns by")

    def test_backward_sweep(self, records):
        # an arc turning back by 0.1 between two that sweep on by 0.1 more
        chain, right, left = records
        t1 = right[0][4]
        split = [self.moved(right[0], t1=t1 + 0.1),
                 self.moved(right[0], t0=t1 + 0.1, t1=t1)]
        self.assert_not_simple(chain, split + right[1:], left,
                               "arc 1 turns backward")
