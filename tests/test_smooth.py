import math
import random
from decimal import Decimal

import pytest

from conftest import A_PRINTED, AREA_PREFIX, B0_PRINTED, B1_PRINTED, B2_PRINTED
from rulecover import numerics, smooth
from rulecover.highprec import (NATIVE, DecimalBackend, Dual, DualBackend,
                                truncate_digits)
from rulecover.involute import involute_cover, validate_chain
from rulecover.smooth import (
    SMOOTH_BRACKET,
    SpeedPositivityError,
    check_speed_positivity,
    curve_point,
    curve_speed,
    decimal_optimum,
    discretize_smooth,
    ell_squared_antiderivative,
    involute_points,
    optimize_smooth,
    reproduce_appendix,
    smooth_area,
    smooth_area_parts,
    solve_coefficients,
    unwrapped_length,
)

A_REF = float(Decimal(A_PRINTED))


class TestCoefficients:
    def test_reference_values(self):
        co = solve_coefficients(A_REF)
        assert abs(co.b0 - float(Decimal(B0_PRINTED))) <= 1e-13
        assert abs(co.b1 - float(Decimal(B1_PRINTED))) <= 1e-13
        assert abs(co.b2 - float(Decimal(B2_PRINTED))) <= 1e-13

    def test_constraint_residuals_reference(self):
        co = solve_coefficients(A_REF)
        a = co.a
        # unit length: 2 h(a) = 1
        assert abs(2 * unwrapped_length(co, a) - 2.0) <= 1e-12  # ell(a) = 1
        assert abs(2 * (co.b0 * a + co.b1 * math.sin(a)
                        + co.b2 * math.sin(2 * a) / 2) - 1.0) <= 1e-12
        # zero curvature radius at the ends: g(+-a) = 0
        assert abs(curve_speed(co, a)) <= 1e-12
        assert abs(curve_speed(co, -a)) <= 1e-12
        # tangency: x0(a) = cos a
        assert abs(curve_point(co, a)[0] - math.cos(a)) <= 1e-12

    def test_constraint_residuals_on_grid(self):
        for k in range(100):
            a = 0.9 + 0.4 * k / 99
            co = solve_coefficients(a)
            assert abs(2 * (co.b0 * a + co.b1 * math.sin(a)
                            + co.b2 * math.sin(2 * a) / 2) - 1.0) <= 1e-12
            assert abs(curve_speed(co, a)) <= 1e-12
            assert abs(curve_point(co, a)[0] - math.cos(a)) <= 1e-12

    def test_speed_positivity_window(self):
        check_speed_positivity(solve_coefficients(A_REF))
        with pytest.raises(SpeedPositivityError):
            check_speed_positivity(solve_coefficients(0.95))

    def test_nan_angle_fails_speed_positivity(self):
        with pytest.raises(SpeedPositivityError):
            check_speed_positivity(solve_coefficients(math.nan))

    @pytest.mark.parametrize("a", [1.09231, 1.09235, 1.09239])
    def test_speed_dip_next_to_the_ends_is_caught(self, a):
        # g < 0 on a band just inside t = a, 1e-4 a to 2e-3 a wide, which
        # a 1,000-point grid that forgave the last 1e-3 of (-a, a) passed
        with pytest.raises(SpeedPositivityError):
            check_speed_positivity(solve_coefficients(a))
        backend = DecimalBackend(40)
        co = solve_coefficients(a, backend)
        assert curve_speed(co, a * (1 - 5e-5), backend) < 0


class TestCurve:
    def test_through_origin(self):
        co = solve_coefficients(A_REF)
        x, y = curve_point(co, 0.0)
        assert abs(x) <= 1e-15 and abs(y) <= 1e-15

    def test_symmetry(self):
        co = solve_coefficients(A_REF)
        rng = random.Random(11)
        for _ in range(100):
            t = (2 * rng.random() - 1) * co.a
            xp, yp = curve_point(co, t)
            xm, ym = curve_point(co, -t)
            assert abs(xp + xm) <= 1e-14
            assert abs(yp - ym) <= 1e-14

    def test_domain_error(self):
        co = solve_coefficients(A_REF)
        with pytest.raises(ValueError):
            curve_point(co, co.a * 1.01)

    def test_nan_is_outside_the_domain(self):
        co = solve_coefficients(A_REF)
        with pytest.raises(ValueError, match="outside"):
            curve_point(co, math.nan)
        with pytest.raises(ValueError, match="outside"):
            curve_point(solve_coefficients(math.nan), 0.0)

    def test_speed_is_derivative(self):
        co = solve_coefficients(A_REF)
        rng = random.Random(5)
        h = 1e-5
        for _ in range(100):
            t = (2 * rng.random() - 1) * (co.a - 2 * h)
            xm, ym = curve_point(co, t - h)
            xp, yp = curve_point(co, t + h)
            speed_fd = math.hypot(xp - xm, yp - ym) / (2 * h)
            assert abs(speed_fd - curve_speed(co, t)) <= 1e-10


class TestInvolutePoints:
    def test_left_end_unwraps_nothing(self):
        co = solve_coefficients(A_REF)
        c1, _ = involute_points(co, -co.a)
        u = curve_point(co, -co.a)
        assert math.dist(c1, u) <= 1e-12
        assert abs(unwrapped_length(co, -co.a)) <= 1e-12

    def test_right_end_reaches_apex(self):
        co = solve_coefficients(A_REF)
        c1, _ = involute_points(co, co.a)
        v = curve_point(co, co.a)
        assert abs(unwrapped_length(co, co.a) - 1.0) <= 1e-12
        assert abs(math.dist(c1, v) - 1.0) <= 1e-12
        assert abs(c1[0]) <= 1e-12  # the apex sits on the symmetry axis

    def test_unwrapped_length_keeps_decimal_precision(self):
        def length(digits):
            be = DecimalBackend(digits)
            co = solve_coefficients(Decimal(A_PRINTED), be)
            return unwrapped_length(co, Decimal("0.3"), be)

        value, ref = length(40), length(60)
        assert len(value.as_tuple().digits) >= 38
        assert abs(value - ref) <= abs(ref) * Decimal(10) ** -38

    def test_unit_offset_between_involutes(self):
        co = solve_coefficients(A_REF)
        rng = random.Random(3)
        for _ in range(100):
            t = (2 * rng.random() - 1) * co.a
            c1, c2 = involute_points(co, t)
            assert abs(math.dist(c1, c2) - 1.0) <= 1e-15


class TestArea:
    def test_reference_area_prefix(self):
        co = solve_coefficients(A_REF)
        assert f"{smooth_area(co):.12f}"[:10] == AREA_PREFIX

    def test_cap_antiderivative_zero_at_origin(self):
        co = solve_coefficients(A_REF)
        assert smooth._cap_288(co, 0.0, *NATIVE.multiples(0.0, 6)) == 0.0

    def test_ell_squared_quadrature_oracle(self):
        co = solve_coefficients(A_REF)
        int_l2, _, _ = smooth_area_parts(co)
        quad = numerics.integrate(lambda t: unwrapped_length(co, t) ** 2,
                                  -co.a, co.a, tol=1e-12)
        assert abs(int_l2 - quad) <= 1e-9
        # and the indefinite form integrates to the same definite value
        definite = (ell_squared_antiderivative(co, co.a)
                    - ell_squared_antiderivative(co, -co.a))
        assert abs(int_l2 - definite) <= 1e-12

    def test_cap_quadrature_oracle(self):
        co = solve_coefficients(A_REF)
        _, _, a_uv = smooth_area_parts(co)

        def integrand(t):
            x0 = curve_point(co, t)[0]
            y0p = -curve_speed(co, t) * math.sin(t)
            return -2.0 * x0 * y0p

        quad = numerics.integrate(integrand, 0.0, co.a, tol=1e-12)
        assert abs(a_uv - quad) <= 1e-9

    def test_apex_triangle(self):
        co = solve_coefficients(A_REF)
        _, a_uvw, _ = smooth_area_parts(co)
        assert abs(a_uvw - math.cos(co.a) * math.sin(co.a)) <= 1e-15

    @pytest.mark.parametrize("backend, a", [
        (NATIVE, 1.1),
        (DecimalBackend(40), Decimal("1.1")),
        (DualBackend(DecimalBackend(30)), Dual(Decimal("1.1"), 1)),
    ], ids=["native", "decimal", "dual"])
    def test_coefficients_carry_their_multiples(self, backend, a):
        # solving takes multiples(a, 6) once, and the area reads them back
        calls = []

        class Counting:
            def __getattr__(self, name):
                return getattr(backend, name)

            def multiples(self, t, k):
                calls.append(k)
                return backend.multiples(t, k)

        def plain(trig):
            return [[(x.value, x.deriv) if isinstance(x, Dual) else x
                     for x in row] for row in trig]

        co = solve_coefficients(a, Counting())
        assert plain(co.trig) == plain(backend.multiples(a, 6))
        assert calls == [6]
        smooth_area(co, Counting())
        assert calls == [6]


class TestOptimize:
    def test_native_recovers_reference(self, smooth_optimum):
        a, co, area = smooth_optimum
        assert abs(a - A_REF) <= 1e-8
        assert abs(area - 0.5553603686466261) <= 1e-8

    def test_unimodal_on_bracket(self):
        values = [smooth_area(solve_coefficients(0.8 + 0.6 * k / 200))
                  for k in range(201)]
        drops = sum(values[i + 1] < values[i] for i in range(200))
        rises = sum(values[i + 1] > values[i] for i in range(200))
        # strictly down then strictly up: exactly one sign change
        flips = sum((values[i + 1] - values[i]) * (values[i] - values[i - 1]) < 0
                    for i in range(1, 200))
        assert flips == 1 and drops > 0 and rises > 0

    def test_sub_brackets_agree(self, smooth_optimum, monkeypatch):
        a_ref = smooth_optimum[0]
        for bracket in ((0.8, 1.2), (1.0, 1.4)):
            monkeypatch.setattr(smooth, "SMOOTH_BRACKET", bracket)
            a, _, _ = optimize_smooth(tol=1e-12)
            assert abs(a - a_ref) <= 1e-8

    def test_default_tol_is_native_tolerance(self, smooth_optimum):
        # tol defaults to 1e-12, the float optimum's, bit for bit
        # (SmoothCoefficients has no value ==, so compare its fields)
        def fields(a, co, area):
            return a, (co.a, co.b0, co.b1, co.b2, co.b), area

        assert fields(*optimize_smooth()) == fields(*smooth_optimum)

    @pytest.mark.parametrize("digits", [None, 20])
    def test_argmin_at_bracket_end_raises(self, digits, monkeypatch):
        # the optimum (~1.1107) lies outside, so the argmin ends at 1.0
        monkeypatch.setattr(smooth, "SMOOTH_BRACKET", (0.8, 1.0))
        with pytest.raises(numerics.ConvergenceError):
            decimal_optimum(digits) if digits else optimize_smooth()

    def test_unconverged_decimal_minimizer_raises(self, monkeypatch):
        def stalled(f, lo, hi, tol, **kwargs):
            mid = (lo + hi) / 2
            return numerics.MinimizeResult(argmin=mid, value=f(mid),
                                           iterations=600, converged=False)

        monkeypatch.setattr(numerics, "minimize_1d", stalled)
        with pytest.raises(numerics.ConvergenceError, match=r"\[0\.8, 1\.4\]"):
            decimal_optimum(20)
        with pytest.raises(numerics.ConvergenceError, match=r"\[0\.8, 1\.4\]"):
            reproduce_appendix(20)

    def test_stalled_decimal_secant_raises(self, monkeypatch):
        monkeypatch.setattr(smooth, "MAX_SLOPE_STEPS", 1)
        with pytest.raises(numerics.ConvergenceError, match=r"\[0\.8, 1\.4\]"):
            decimal_optimum(20)
        with pytest.raises(numerics.ConvergenceError, match=r"\[0\.8, 1\.4\]"):
            reproduce_appendix(20)

    @pytest.mark.parametrize("start", [0.81, 1.39])
    def test_decimal_secant_stays_in_bracket(self, monkeypatch, start):
        # from a poor start the secant steps past the bracket; the safeguard
        # bisects instead, and every slope is taken inside [0.8, 1.4]; at
        # 200 digits the last step falls below the last digit of a bracket
        # end, which must end the solve, not read as a step outside
        def poor(f, lo, hi, tol, **kwargs):
            return numerics.MinimizeResult(argmin=start, value=f(start),
                                           iterations=1, converged=True)

        seen, slope = [], smooth._area_slope
        monkeypatch.setattr(numerics, "minimize_1d", poor)
        monkeypatch.setattr(smooth, "_area_slope",
                            lambda a, be: seen.append(a) or slope(a, be))
        a, _, _ = decimal_optimum(200)
        assert abs(a - Decimal(reproduce_appendix(120).a)) <= Decimal("1e-118")
        assert all(Decimal("0.8") <= x <= Decimal("1.4") for x in seen)

    @pytest.mark.parametrize("a", ["0.9", "1.1107", "1.3"])
    def test_dual_slope_matches_central_difference(self, a):
        def area(x, backend):
            return smooth_area(solve_coefficients(x, backend), backend)

        def slope(backend):
            x = Dual(backend.num(a), 1)
            return area(x, DualBackend(backend)).deriv

        # the float area is good to ~1e-11 near a = 0.9, so its difference
        # quotient to ~1e-7; at 60 digits, h = 1e-18 leaves ~1e-34
        h = 1e-4
        central = (area(float(a) + h, NATIVE) - area(float(a) - h, NATIVE)) / (2 * h)
        assert abs(slope(NATIVE) - central) <= 1e-6
        be = DecimalBackend(60)
        with be.context():
            x, h = Decimal(a), Decimal("1e-18")
            central = (area(x + h, be) - area(x - h, be)) / (2 * h)
        assert abs(slope(be) - central) <= Decimal("1e-33")
        assert abs(slope(NATIVE) - float(slope(be))) <= 1e-10

    def test_area_below_four_edge(self, smooth_optimum):
        from conftest import FOUR_REF_AREA, THREE_REF_AREA, TWO_OPT_AREA

        assert smooth_optimum[2] < FOUR_REF_AREA < THREE_REF_AREA < TWO_OPT_AREA


class TestDiscretize:
    def test_small_chain_admissible(self, smooth_optimum):
        _, co, _ = smooth_optimum
        chain = discretize_smooth(co, 2)
        assert validate_chain(chain) == []
        involute_cover(chain)

    def test_unit_length(self, smooth_optimum):
        _, co, _ = smooth_optimum
        for n in (2, 7, 33):
            chain = discretize_smooth(co, n)
            assert chain.n_edges == n
            assert abs(chain.cum_lengths[-1] - 1.0) <= 1e-12

    def test_convergence(self, smooth_optimum):
        _, co, area = smooth_optimum
        errors = []
        for n in (64, 128, 256, 512):
            chain = discretize_smooth(co, n)
            errors.append(abs(involute_cover(chain).area - area))
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))

    def test_rejects_tiny_n(self, smooth_optimum):
        _, co, _ = smooth_optimum
        with pytest.raises(ValueError):
            discretize_smooth(co, 1)


class TestHighPrecision:
    def test_reference_coefficients_at_40_digits(self):
        be = DecimalBackend(40)
        co = solve_coefficients(Decimal(A_PRINTED), be)
        assert truncate_digits(co.b0, 20) == truncate_digits(Decimal(B0_PRINTED), 20)
        assert truncate_digits(co.b1, 20) == truncate_digits(Decimal(B1_PRINTED), 20)
        assert truncate_digits(co.b2, 20) == truncate_digits(Decimal(B2_PRINTED), 20)
        assert str(smooth_area(co, be)).startswith(AREA_PREFIX)

    def test_reproduce_self_consistency(self):
        r20 = reproduce_appendix(20)
        r40 = reproduce_appendix(40)
        assert r40.area.startswith(r20.area[:19])  # 18 digits + the dot
        assert r40.a.startswith(r20.a[:19])

    def test_reproduce_60_digits_pinned(self):
        assert reproduce_appendix(60).as_text() == (
            "digits = 60\n"
            "a  = 1.11073213677147211458454234766063494620119655906995129653636\n"
            "b0 = -0.310039083801076651082339283741630630524784418132366207004661\n"
            "b1 = 0.882420100742466054972684952091717670228902429507148197108378\n"
            "b2 = 0.134980967580652222210035503627755618243413545774327130283430\n"
            "A  = 0.555360368646626116048170223491013283449047332557401932142234\n")

    @pytest.mark.parametrize("digits,text", [
        (20, "digits = 20\n"
             "a  = 1.1107321367714721145\n"
             "b0 = -0.31003908380107665108\n"
             "b1 = 0.88242010074246605497\n"
             "b2 = 0.13498096758065222221\n"
             "A  = 0.55536036864662611604\n"),
        (40, "digits = 40\n"
             "a  = 1.110732136771472114584542347660634946201\n"
             "b0 = -0.3100390838010766510823392837416306305247\n"
             "b1 = 0.8824201007424660549726849520917176702289\n"
             "b2 = 0.1349809675806522222100355036277556182434\n"
             "A  = 0.5553603686466261160481702234910132834490\n"),
        (80, "digits = 80\n"
             "a  = 1.1107321367714721145845423476606349462011965590699512965363606117566655786102461\n"
             "b0 = -0.31003908380107665108233928374163063052478441813236620700466154954928910392790541\n"
             "b1 = 0.88242010074246605497268495209171767022890242950714819710837840946238381956062502\n"
             "b2 = 0.13498096758065222221003550362775561824341354577432713028343099459067933766467087\n"
             "A  = 0.55536036864662611604817022349101328344904733255740193214223485028152339376142746\n"),
        (120, "digits = 120\n"
              "a  = 1.11073213677147211458454234766063494620119655906995129653636061175666557861024613591057433907696033485626070941227666284\n"
              "b0 = -0.310039083801076651082339283741630630524784418132366207004661549549289103927905416372438652156134228929568958948929601711\n"
              "b1 = 0.882420100742466054972684952091717670228902429507148197108378409462383819560625024687170664979822254983941850415929185515\n"
              "b2 = 0.134980967580652222210035503627755618243413545774327130283430994590679337664670878507445654340888090998532014988121105461\n"
              "A  = 0.555360368646626116048170223491013283449047332557401932142234850281523393761427462315480181900132117268170118377945742373\n"),
    ])
    def test_reproduce_pinned(self, digits, text):
        assert reproduce_appendix(digits).as_text() == text

    @pytest.mark.parametrize("digits", [240, 500])
    def test_reproduce_past_the_golden_section_ceiling(self, digits):
        # golden-section minimization stopped at MAX_ITER_1D above ~125
        # digits; the root of A' gets there and truncates to the 120 pin
        report, pin = reproduce_appendix(digits), reproduce_appendix(120)
        for key in ("a", "b0", "b1", "b2", "area"):
            value = getattr(report, key)
            assert len(value.lstrip("-0.").replace(".", "")) == digits
            assert truncate_digits(Decimal(value), 120) == getattr(pin, key)

    def test_reproduce_rejects_low_digits(self):
        with pytest.raises(ValueError):
            reproduce_appendix(10)

    def test_report_text_layout(self):
        rep = reproduce_appendix(20)
        lines = rep.as_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[1].startswith("a  = 1.110732136771472114")


def test_default_bracket_contains_reference():
    assert SMOOTH_BRACKET[0] < A_REF < SMOOTH_BRACKET[1]
