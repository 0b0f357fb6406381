import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_ANGLES,
    FOUR_REF_AREA,
    THREE_ANGLES,
    THREE_REF_AREA,
    TWO_OPT_AREA,
)
from rulecover import constructions, numerics
from rulecover.constructions import (
    CONSTRUCTIONS,
    InfeasibleParamsError,
    R2_AREA,
    area_derivatives,
    four_edge_area,
    optimize_construction,
    r2_cover,
    solve_four_edge,
    solve_three_edge,
    solve_two_edge,
    three_edge_area,
    two_edge_area,
)
from rulecover.geometry import arc_path_area

A_OPT_TWO = math.acos(0.75)


def _leading_minors(m):
    """Determinants of the leading 1x1, 2x2 and 3x3 blocks of m."""
    minors = [m[0][0]]
    if len(m) > 1:
        minors.append(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    if len(m) > 2:
        minors.append(
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return minors


class TestR2:
    def test_closed_form_area(self):
        cover = r2_cover()
        assert abs(cover.area - (math.pi / 3 - math.sqrt(3) / 4)) <= 1e-12
        assert abs(arc_path_area(cover.boundary) - R2_AREA) <= 1e-12

    def test_is_the_one_edge_cover(self):
        # bit for bit: the same pieces and the same area
        bundle = CONSTRUCTIONS["one"].build()[1]
        assert r2_cover().boundary.to_json() == bundle.boundary.to_json()
        assert r2_cover().area == bundle.area
        assert r2_cover().chain.vertices == bundle.chain.vertices

    def test_equilateral_frame(self):
        verts = r2_cover().boundary.vertices()
        u, v = verts[0], verts[1]
        assert math.dist(u, (-0.5, 0.0)) <= 1e-15
        assert math.dist(v, (0.5, 0.0)) <= 1e-15
        w = verts[2]
        assert math.dist(w, (0.0, math.sqrt(3) / 2)) <= 1e-12
        # unit chords from each base corner to the apex
        assert abs(math.dist(u, w) - 1.0) <= 1e-12
        assert abs(math.dist(v, w) - 1.0) <= 1e-12


class TestTwoEdge:
    def test_optimal_angle_halves(self):
        p = solve_two_edge(A_OPT_TWO)
        assert abs(p.c - p.a / 2) <= 1e-12

    def test_base_length(self):
        p = solve_two_edge(A_OPT_TWO)
        assert abs(p.x0 - math.sqrt(7 / 8)) <= 1e-10

    def test_constraint_residual(self):
        for a in (0.3, 0.6, A_OPT_TWO, 1.0):
            p = solve_two_edge(a)
            assert abs(2 * math.cos(p.a + p.c) - math.cos(p.c)) <= 1e-12
            assert abs(p.x0 - math.cos(p.c)) <= 1e-15

    def test_degenerate_small_angle(self):
        p = solve_two_edge(1e-6)
        assert p.c > math.pi / 2 - 1e-3
        assert p.x0 < 1e-3

    def test_infeasible_angle(self):
        with pytest.raises(InfeasibleParamsError):
            solve_two_edge(1.2)  # beyond pi/3, no root
        with pytest.raises(InfeasibleParamsError):
            solve_two_edge(-0.1)

    def test_area_formulas_agree(self):
        p = solve_two_edge(A_OPT_TWO)
        general = two_edge_area(A_OPT_TWO)
        reduced = (1.25 * p.a - 0.5 * math.sin(3 * p.a)
                   + 0.125 * math.sin(p.a))
        assert abs(general - reduced) <= 1e-12
        assert f"{general:.10f}"[:6] == "0.5726"

    def test_stationary_at_optimum(self):
        h = 1e-4
        hi = two_edge_area(A_OPT_TWO + h)
        lo = two_edge_area(A_OPT_TWO - h)
        assert abs((hi - lo) / (2 * h)) <= 1e-6

    def test_geometric_area_matches(self):
        _, bundle = CONSTRUCTIONS["two"].build((A_OPT_TWO,))
        assert abs(bundle.area - two_edge_area(A_OPT_TWO)) <= 1e-10


class TestThreeEdge:
    def test_reference_area(self):
        area = three_edge_area(*THREE_ANGLES)
        assert f"{area:.10f}"[:6] == "0.5635"
        assert abs(area - THREE_REF_AREA) <= 1e-15

    def test_length_constraints(self):
        p = solve_three_edge(*THREE_ANGLES)
        assert abs(p.x0 - 2 * math.cos(p.a + p.b)) <= 1e-15
        assert abs(math.cos(p.b) - (p.x0 - p.x2) / 2 / p.x1) <= 1e-12
        assert p.x1 + p.x2 + p.x1 == 1.0  # exact by construction
        assert 0 < p.x1 < 0.5 and 0 < p.x2 < 1

    def test_geometric_area_matches(self):
        p, bundle = CONSTRUCTIONS["three"].build(THREE_ANGLES)
        assert abs(bundle.area - three_edge_area(*THREE_ANGLES)) <= 1e-10

    def test_flat_restriction_reproduces_prior_bound(self):
        res = numerics.minimize_1d(lambda b: three_edge_area(0.0, b),
                                   1.05, 1.5, tol=1e-10)
        assert round(res.value, 3) == 0.583

    def test_infeasible(self):
        with pytest.raises(InfeasibleParamsError):
            solve_three_edge(0.1, 0.2)  # x0 > 1
        with pytest.raises(InfeasibleParamsError):
            solve_three_edge(0.9, 0.8)  # beyond pi/2


class TestFourEdge:
    def test_reference_area(self):
        area = four_edge_area(*FOUR_ANGLES)
        assert f"{area:.10f}"[:6] == "0.5600"
        assert abs(area - FOUR_REF_AREA) <= 1e-15

    def test_length_constraints(self):
        p = solve_four_edge(*FOUR_ANGLES)
        assert abs(p.x0 - 2 * math.cos(p.a + p.b + p.c)) <= 1e-15
        assert abs(math.cos(p.b + p.c) - (p.x0 - p.x2) / 2 / p.x1) <= 1e-12
        assert abs(math.cos(p.c) - p.x2 / 2 / p.x3) <= 1e-12
        assert p.x1 + p.x3 == 0.5  # exact by construction

    def test_geometric_area_matches(self):
        p, bundle = CONSTRUCTIONS["four"].build(FOUR_ANGLES)
        assert abs(bundle.area - four_edge_area(*FOUR_ANGLES)) <= 1e-10

    def test_collapses_to_three_edge(self):
        a, b = THREE_ANGLES
        assert abs(four_edge_area(a, b, 1e-3) - three_edge_area(a, b)) < 1e-4

    def test_infeasible(self):
        with pytest.raises(InfeasibleParamsError):
            solve_four_edge(0.6, 0.6, 0.5)


class TestOptimize:
    def test_two(self):
        params, area, region = optimize_construction("two")
        assert abs(params.a - A_OPT_TWO) <= 1e-8
        assert f"{area:.10f}"[:6] == "0.5726"
        assert abs(region.area - area) <= 1e-10

    def test_three(self):
        params, area, region = optimize_construction("three")
        assert abs(params.a - THREE_ANGLES[0]) <= 1e-4
        assert abs(params.b - THREE_ANGLES[1]) <= 1e-4
        assert f"{area:.10f}"[:6] == "0.5635"

    def test_four(self):
        params, area, region = optimize_construction("four")
        assert abs(params.a - FOUR_ANGLES[0]) <= 1e-3
        assert abs(params.b - FOUR_ANGLES[1]) <= 1e-3
        assert abs(params.c - FOUR_ANGLES[2]) <= 1e-3
        assert f"{area:.10f}"[:6] == "0.5600"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            optimize_construction("five")

    def test_one_has_no_angle(self):
        with pytest.raises(ValueError, match="no angle to optimize"):
            optimize_construction("one")

    def test_two_unconverged_raises(self, monkeypatch):
        # the two-edge cut needs 5 Newton steps from its start
        monkeypatch.setattr(constructions, "NEWTON_STEPS", 2)
        with pytest.raises(numerics.ConvergenceError, match="after 2 steps"):
            optimize_construction("two")

    def test_indefinite_hessian_raises(self, monkeypatch):
        # (0.3, 0.8) is feasible, but the area is not convex there
        cut = CONSTRUCTIONS["three"]
        cut.solve(0.3, 0.8)
        monkeypatch.setitem(CONSTRUCTIONS, "three", cut._replace(start=(0.3, 0.8)))
        with pytest.raises(numerics.ConvergenceError, match="not positive definite"):
            optimize_construction("three")

    def test_step_out_of_the_wedge_raises(self, monkeypatch):
        # from a = 0.1 the first step lands at a = 1.53, past pi/3
        cut = CONSTRUCTIONS["two"]
        monkeypatch.setitem(CONSTRUCTIONS, "two", cut._replace(start=(0.1,)))
        with pytest.raises(InfeasibleParamsError, match="no root for a=1.5"):
            optimize_construction("two")

    def test_two_is_acos_three_quarters(self):
        params, _, _ = optimize_construction("two")
        assert abs(math.cos(params.a) - 0.75) <= 1e-15

    @pytest.mark.parametrize("kind", ["three", "four"])
    def test_stationary_with_positive_definite_hessian(self, kind):
        cut = CONSTRUCTIONS[kind]
        params, area, _ = optimize_construction(kind)
        angles = tuple(params)[:len(cut.ref_angles)]
        grad, hess = area_derivatives(cut.area, angles)
        assert max(abs(g) for g in grad) <= 1e-12
        assert all(minor > 0 for minor in _leading_minors(hess))
        assert area == cut.area(*angles)

    @pytest.mark.parametrize("kind", ["two", "three", "four"])
    def test_every_start_is_feasible(self, kind):
        cut = CONSTRUCTIONS[kind]
        cut.solve(*cut.start)
        assert math.isfinite(cut.area(*cut.start))

    @pytest.mark.parametrize("kind", ["two", "three", "four"])
    @pytest.mark.parametrize("where", ["start", "optimum"])
    def test_derivatives_match_central_differences(self, kind, where):
        cut = CONSTRUCTIONS[kind]
        n = len(cut.ref_angles)
        x = (cut.start if where == "start"
             else tuple(optimize_construction(kind)[0])[:n])
        grad, hess = area_derivatives(cut.area, x)

        def area(*moves):  # the area at x moved by h_k along axis i_k
            y = list(x)
            for i, h in moves:
                y[i] += h
            return cut.area(*y)

        h1, h2 = 1e-6, 1e-4
        for i in range(n):
            slope = (area((i, h1)) - area((i, -h1))) / (2 * h1)
            # the gradient is ~1e-15 at the optimum: compare it absolutely
            assert grad[i] == pytest.approx(slope, rel=1e-6, abs=1e-9)
            for j in range(n):
                curv = (area((i, h2), (j, h2)) - area((i, h2), (j, -h2))
                        - area((i, -h2), (j, h2))
                        + area((i, -h2), (j, -h2))) / (4 * h2 * h2)
                assert hess[i][j] == pytest.approx(curv, rel=1e-6, abs=1e-6)
    def test_area_ordering(self):
        assert TWO_OPT_AREA > THREE_REF_AREA > FOUR_REF_AREA > 0.5553



@pytest.mark.parametrize("kind", ["two", "three", "four"])
@pytest.mark.parametrize("where", ["reference", "optimum"])
def test_chain_has_the_solved_widths_and_lengths(kind, where):
    # the half chain lays out the widths the cut's solver derives: the
    # span |v - u| = x0, the inner vertices' span x2 and every edge length
    cut = CONSTRUCTIONS[kind]
    p = (cut.solve(*cut.ref_angles) if where == "reference"
         else optimize_construction(kind)[0])
    chain = cut.chain(p)
    verts = chain.vertices
    assert abs(math.dist(verts[0], verts[-1]) - p.x0) <= 1e-15
    if kind == "two":
        want = (0.5, 0.5)
    else:
        assert abs(math.dist(verts[1], verts[-2]) - p.x2) <= 1e-15
        want = ((p.x1, p.x2, p.x1) if kind == "three"
                else (p.x1, p.x3, p.x3, p.x1))
    assert len(chain.edge_lengths) == len(want)
    for got, length in zip(chain.edge_lengths, want):
        assert abs(got - length) <= 1e-15

@given(total=st.floats(math.pi / 3 + 0.02, math.pi / 2 - 0.02),
       frac=st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_three_edge_closed_form_matches_geometry(total, frac):
    a, b = total * frac, total * (1 - frac)
    try:
        params, bundle = CONSTRUCTIONS["three"].build((a, b))
    except InfeasibleParamsError:
        assume(False)
    assert abs(bundle.area - three_edge_area(a, b)) <= 1e-10


# Differential tests: the backend-threaded closed forms, on floats, against
# the frozen oracle's, over grids that cross the feasible wedge's edges.

def _grid(m):
    return [-0.05 + 1.65 * i / (m - 1) for i in range(m)] + [math.nan]


def _outcome(f, *args):
    """f(*args) as a tuple of floats, or the name of what it raised (the
    oracle's exception classes are its own)."""
    try:
        r = f(*args)
    except Exception as exc:
        return type(exc).__name__
    if dataclasses.is_dataclass(r):
        return dataclasses.astuple(r)
    return tuple(r) if isinstance(r, tuple) else r


def test_three_edge_closed_forms_match_oracle_bit_for_bit(oracle_package):
    oracle = oracle_package.constructions
    feasible = 0
    for a in _grid(80):
        for b in _grid(80):
            ours = _outcome(solve_three_edge, a, b)
            assert ours == _outcome(oracle.solve_three_edge, a, b), (a, b)
            assert (_outcome(three_edge_area, a, b)
                    == _outcome(oracle.three_edge_area, a, b)), (a, b)
            feasible += ours != "InfeasibleParamsError"
    assert feasible > 300


def test_four_edge_closed_forms_match_oracle_bit_for_bit(oracle_package):
    oracle = oracle_package.constructions
    feasible = 0
    for a in _grid(40):
        for b in _grid(40):
            for c in _grid(40):
                ours = _outcome(solve_four_edge, a, b, c)
                assert ours == _outcome(oracle.solve_four_edge, a, b, c), (a, b, c)
                assert (_outcome(four_edge_area, a, b, c)
                        == _outcome(oracle.four_edge_area, a, b, c)), (a, b, c)
                feasible += ours != "InfeasibleParamsError"
    assert feasible > 500


def test_two_edge_closed_forms_match_oracle(oracle_package):
    # the oracle finds c by bisection, so the two agree to 1e-15, not bit
    # for bit; where no c exists both raise the same error
    oracle = oracle_package.constructions
    feasible = 0
    for a in [-0.1 + 1.8 * i / 1999 for i in range(2000)] + [math.nan]:
        ours = _outcome(solve_two_edge, a)
        theirs = _outcome(oracle.solve_two_edge, a)
        if isinstance(ours, str):
            assert ours == theirs, a
            continue
        assert ours[0] == theirs[0] == a
        assert abs(ours[1] - theirs[1]) <= 1e-15, a
        assert abs(ours[2] - theirs[2]) <= 1e-15, a
        assert abs(two_edge_area(a)
                   - oracle.two_edge_area(oracle.solve_two_edge(a))) <= 1e-15, a
        feasible += 1
    assert feasible > 1000
