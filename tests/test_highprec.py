import math
import random
from decimal import Decimal, localcontext

import pytest

from rulecover import smooth
from rulecover.highprec import (
    DecimalBackend,
    Dual,
    DualBackend,
    NATIVE,
    cos_decimal,
    pi_decimal,
    sin_decimal,
    sincos_decimal,
    truncate_digits,
)

PI_50 = "3.1415926535897932384626433832795028841971693993751"


def test_pi_matches_reference():
    assert str(pi_decimal(50)) == PI_50


def test_trig_matches_math_module():
    for x in (0.3, 1.1107321367714721, 2.9, -0.7, 6.664392820628832):
        assert abs(float(sin_decimal(Decimal(repr(x)), 30)) - math.sin(x)) < 5e-16
        assert abs(float(cos_decimal(Decimal(repr(x)), 30)) - math.cos(x)) < 5e-16


def test_argument_reduction():
    # 10 full turns away from a small angle
    big = Decimal("0.25") + 20 * pi_decimal(45)
    assert abs(float(sin_decimal(big, 35)) - math.sin(0.25)) < 1e-15
    assert abs(float(cos_decimal(big, 35)) - math.cos(0.25)) < 1e-15


def test_known_sine_value():
    # sin(0.5) to 28 digits, a fixed external reference
    want = Decimal("0.4794255386042030002732879352")
    assert abs(sin_decimal(Decimal("0.5"), 28) - want) <= Decimal("2E-28")


def _ulp(x: Decimal, digits: int) -> Decimal:
    return Decimal(10) ** (x.adjusted() - digits + 1)


def _kernel_arguments():
    """Seeded angles in [-10, 10], angles within 0, 1e-30 and 1e-8 of the
    zeros of sin and cos in [-pi, 2pi], and one far from the origin."""
    rng = random.Random(2024)
    args = [Decimal(rng.uniform(-10, 10)) for _ in range(12)]
    pi = pi_decimal(250)
    with localcontext() as ctx:
        ctx.prec = 260
        for base in (0, pi / 2, -pi / 2, pi, -pi, 2 * pi):
            for offset in ("0", "1e-30", "-1e-30", "1e-8", "-1e-8"):
                args.append(base + Decimal(offset))
    return args + [Decimal("123456.789")]


@pytest.mark.parametrize("digits", [10, 20, 38, 78, 140, 200])
def test_sincos_matches_oracle_series(oracle_package, digits):
    # the frozen library's plain Taylor series, 20 digits higher, rounded;
    # near a zero any series loses relative digits to cancellation, so
    # values under 0.1 are held to 10^-digits absolute instead of 1 ulp
    oracle = oracle_package.highprec
    for x in _kernel_arguments():
        got = sincos_decimal(x, digits)
        for value, series in zip(got, (oracle.sin_decimal, oracle.cos_decimal)):
            with localcontext() as ctx:
                ctx.prec = digits
                want = +series(x, digits + 20)
            bound = (_ulp(want, digits) if abs(want) >= Decimal("0.1")
                     else Decimal(10) ** -digits)
            assert abs(value - want) <= bound, (x, value, want)


@pytest.mark.parametrize("digits", [30, 60, 132])
def test_decimal_multiples_match_direct_series(digits):
    # the recurrence against one sin/cos series per multiple, as the smooth
    # closed forms evaluated them before; angles have `digits` digits, so
    # j * t is exact and both sides see the same argument
    rng = random.Random(digits)
    angles = [Decimal("0.8"), Decimal("1.11073213677147211458454234766"),
              Decimal("1.4")]
    angles += [Decimal(rng.uniform(-math.pi, math.pi)) for _ in range(20)]
    be = DecimalBackend(digits)
    for t in angles:
        with localcontext() as ctx:
            ctx.prec = digits
            t = +t
        sines, cosines = be.multiples(t, 6)
        assert len(sines) == len(cosines) == 7
        for j in range(7):
            with localcontext() as ctx:
                ctx.prec = digits + 2
                jt = j * t
            want_s, want_c = sin_decimal(jt, digits), cos_decimal(jt, digits)
            assert abs(sines[j] - want_s) <= _ulp(want_s, digits), (t, j)
            assert abs(cosines[j] - want_c) <= _ulp(want_c, digits), (t, j)


def test_native_multiples_are_math_module_values():
    rng = random.Random(7)
    for t in [0.8, 1.1107321367714721, 1.4] + [rng.uniform(-math.pi, math.pi)
                                               for _ in range(20)]:
        sines, cosines = NATIVE.multiples(t, 6)
        assert sines == [math.sin(j * t) for j in range(7)]
        assert cosines == [math.cos(j * t) for j in range(7)]


class TestDual:
    @pytest.mark.parametrize("f, df", [
        (lambda x: x + 2, lambda x: 1),
        (lambda x: 2 + x, lambda x: 1),
        (lambda x: x + x * x, lambda x: 1 + 2 * x),
        (lambda x: x - 3, lambda x: 1),
        (lambda x: 3 - x, lambda x: -1),
        (lambda x: x - x * x, lambda x: 1 - 2 * x),
        (lambda x: 5 * x, lambda x: 5),
        (lambda x: x * 5, lambda x: 5),
        (lambda x: x / 4, lambda x: 0.25),
        (lambda x: x / (x * x + 1), lambda x: (1 - x * x) / (x * x + 1) ** 2),
        (lambda x: x ** 1, lambda x: 1),
        (lambda x: x ** 3, lambda x: 3 * x ** 2),
        (lambda x: -x, lambda x: -1),
        (lambda x: +x, lambda x: 1),
        (lambda x: abs(x), lambda x: 1 if x > 0 else -1),
    ])
    @pytest.mark.parametrize("x", [-1.3, 0.7, 2.0])
    def test_operators_match_hand_derivatives(self, f, df, x):
        y = f(Dual(x, 1))
        assert y.value == pytest.approx(f(x), rel=1e-15)
        assert y.deriv == pytest.approx(df(x), rel=1e-15)

    @pytest.mark.parametrize("c", [1.0, -2.5, 3])
    @pytest.mark.parametrize("x", [-1.3, 0.7, 2.0])
    def test_constant_over_dual_matches_central_difference(self, c, x):
        y = c / Dual(x, 1.5)  # d/dt c / (x + 1.5 t) at t = 0
        h = 1e-6
        assert y.value == c / x
        assert y.deriv == pytest.approx(
            (c / (x + 1.5 * h) - c / (x - 1.5 * h)) / (2 * h), rel=1e-8)

    def test_decimal_over_dual_matches_central_difference(self):
        with localcontext() as ctx:
            ctx.prec = 40
            x, c, h = Decimal("0.7"), Decimal(3), Decimal("1e-12")
            y = c / Dual(x, Decimal(2))
            assert y.value == c / x
            slope = (c / (x + 2 * h) - c / (x - 2 * h)) / (2 * h)
            assert abs(y.deriv - slope) < Decimal("1e-20")  # 20 digits

    @pytest.mark.parametrize("x", [-1.3, 0.7, 2.0])
    def test_constant_over_nested_dual_has_both_derivatives(self, x):
        # 1/t at t = x on Dual(Dual(t, 1), Dual(1, 0)): the second derivative
        # sits in deriv.deriv; both match central differences of the first
        y = 1.0 / Dual(Dual(x, 1.0), Dual(1.0, 0.0))
        h = 1e-5
        assert y.value.value == 1.0 / x
        assert y.value.deriv == y.deriv.value == pytest.approx(
            (1 / (x + h) - 1 / (x - h)) / (2 * h), rel=1e-8)
        assert y.deriv.deriv == pytest.approx(
            (-1 / (x + h) ** 2 + 1 / (x - h) ** 2) / (2 * h), rel=1e-6)

    def test_float_is_the_value(self):
        assert float(Dual(Decimal("2.5"), 7)) == 2.5

    def test_pos_rounds_both_parts(self):
        with localcontext() as ctx:
            ctx.prec = 5
            y = +Dual(Decimal("1.234567"), Decimal("9.876543"))
        assert (y.value, y.deriv) == (Decimal("1.2346"), Decimal("9.8765"))

    @pytest.mark.parametrize("base", [NATIVE, DecimalBackend(30)])
    def test_multiples_carry_scaled_derivatives(self, base):
        dual = DualBackend(base)
        t = base.num("0.9")
        sines, cosines = dual.multiples(Dual(t, 2), 6)
        want_s, want_c = base.multiples(t, 6)
        for j in range(7):
            assert sines[j].value == want_s[j] and cosines[j].value == want_c[j]
            assert float(sines[j].deriv) == pytest.approx(
                2 * j * math.cos(j * 0.9), abs=1e-14)
            assert float(cosines[j].deriv) == pytest.approx(
                -2 * j * math.sin(j * 0.9), abs=1e-14)

    @pytest.mark.parametrize("y, x", [(0.3, 0.8), (-1.2, 0.5), (0.4, -2.0)])
    def test_atan2_chain_rule(self, y, x):
        # along (y, x) + s (2, -3): the derivative matches a central difference
        r = DualBackend(NATIVE).atan2(Dual(y, 2.0), Dual(x, -3.0))
        assert r.value == math.atan2(y, x) == NATIVE.atan2(y, x)
        h = 1e-6
        slope = (math.atan2(y + 2 * h, x - 3 * h)
                 - math.atan2(y - 2 * h, x + 3 * h)) / (2 * h)
        assert r.deriv == pytest.approx(slope, rel=1e-8)

    def test_nested_atan2_recovers_the_angle(self):
        # atan2(sin t, cos t) = t: first derivatives 1, second derivative 0
        dual2 = DualBackend(DualBackend(NATIVE))
        sines, cosines = dual2.multiples(Dual(Dual(0.7, 1.0), Dual(1.0, 0.0)), 1)
        r = dual2.atan2(sines[1], cosines[1])
        assert r.value.value == pytest.approx(0.7, abs=1e-16)
        assert r.value.deriv == pytest.approx(1.0, abs=1e-15)
        assert r.deriv.value == pytest.approx(1.0, abs=1e-15)
        assert r.deriv.deriv == pytest.approx(0.0, abs=1e-15)

    def test_num_and_context_delegate(self):
        base = DecimalBackend(30)
        dual = DualBackend(base)
        x = Dual(Decimal(1), 1)
        assert dual.num(x) is x
        assert dual.num(0.5) == base.num(0.5)
        with dual.context():
            assert len(str(Decimal(1) / 3)) == 32  # "0." and 30 digits


class TestTruncateDigits:
    def test_truncates_not_rounds(self):
        assert truncate_digits(Decimal("0.99999"), 3) == "0.999"
        assert truncate_digits(Decimal("0.123456789"), 4) == "0.1234"

    def test_negative(self):
        assert truncate_digits(Decimal("-0.310039"), 4) == "-0.3100"

    def test_zero(self):
        assert truncate_digits(Decimal(0), 10) == "0"

    def test_integer_part(self):
        assert truncate_digits(Decimal("1.11073213677"), 6) == "1.11073"


class TestBackends:
    def test_native_ops(self):
        assert NATIVE.num("0.5") == 0.5

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            DecimalBackend(2)

    def test_context_precision(self):
        be = DecimalBackend(35)
        with be.context():
            x = Decimal(1) / Decimal(3)
        assert len(str(x).replace("0.", "")) == 35


def test_high_precision_reproduces_native_formulas():
    # 40-digit mode agrees with native mode to 15 digits at the reference
    # angle; nearby angles sit closer to the coefficient formulas' pole and
    # native floats are conditioning-limited to ~14 digits there
    be = DecimalBackend(40)
    for a, rel in ((1.1107321367714721, 5e-15), (1.05, 1e-12), (1.25, 1e-12)):
        co_n = smooth.solve_coefficients(a)
        co_d = smooth.solve_coefficients(Decimal(repr(a)), be)
        for name in ("b0", "b1", "b2", "b"):
            native = getattr(co_n, name)
            dec = float(getattr(co_d, name))
            assert abs(native - dec) <= rel * max(1.0, abs(native))
        area_n = smooth.smooth_area(co_n)
        area_d = float(smooth.smooth_area(co_d, be))
        assert abs(area_n - area_d) <= rel
