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
from rulecover import numerics
from rulecover.constructions import (
    CONSTRUCTIONS,
    InfeasibleParamsError,
    R2_AREA,
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


class TestR2:
    def test_closed_form_area(self):
        region = r2_cover()
        assert abs(region.area - (math.pi / 3 - math.sqrt(3) / 4)) <= 1e-12
        assert abs(arc_path_area(region.boundary) - R2_AREA) <= 1e-12

    def test_is_the_one_edge_cover(self):
        # bit for bit: the same pieces and the same area
        region = CONSTRUCTIONS["one"].build()[1].region
        assert r2_cover().to_json() == region.to_json()
        assert r2_cover().area == region.area

    def test_equilateral_frame(self):
        region = r2_cover()
        verts = region.boundary.vertices()
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
        general = two_edge_area(p)
        reduced = (1.25 * p.a - 0.5 * math.sin(3 * p.a)
                   + 0.125 * math.sin(p.a))
        assert abs(general - reduced) <= 1e-12
        assert f"{general:.10f}"[:6] == "0.5726"

    def test_stationary_at_optimum(self):
        h = 1e-4
        hi = two_edge_area(solve_two_edge(A_OPT_TWO + h))
        lo = two_edge_area(solve_two_edge(A_OPT_TWO - h))
        assert abs((hi - lo) / (2 * h)) <= 1e-6

    def test_geometric_area_matches(self):
        p, bundle = CONSTRUCTIONS["two"].build((A_OPT_TWO,))
        assert abs(bundle.region.area - two_edge_area(p)) <= 1e-10


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
        assert abs(bundle.region.area - three_edge_area(*THREE_ANGLES)) <= 1e-10

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
        assert abs(bundle.region.area - four_edge_area(*FOUR_ANGLES)) <= 1e-10

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
        real = numerics.minimize_1d

        def stalled(*args, **kwargs):
            res = real(*args, **kwargs)
            res.converged = False
            return res

        monkeypatch.setattr(numerics, "minimize_1d", stalled)
        with pytest.raises(numerics.ConvergenceError):
            optimize_construction("two")

    def test_area_ordering(self):
        assert TWO_OPT_AREA > THREE_REF_AREA > FOUR_REF_AREA > 0.5553


@given(total=st.floats(math.pi / 3 + 0.02, math.pi / 2 - 0.02),
       frac=st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_three_edge_closed_form_matches_geometry(total, frac):
    a, b = total * frac, total * (1 - frac)
    try:
        params, bundle = CONSTRUCTIONS["three"].build((a, b))
    except InfeasibleParamsError:
        assume(False)
    assert abs(bundle.region.area - three_edge_area(a, b)) <= 1e-10
