import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulecover import numerics
from rulecover.numerics import (
    EvaluationError,
    IntegrationError,
    integrate,
    minimize_1d,
)


class TestMinimize1d:
    def test_shifted_parabola(self):
        res = minimize_1d(lambda x: (x - 1) ** 2, 0.0, 2.0, tol=1e-10)
        assert res.converged
        assert abs(res.argmin - 1.0) <= 1e-10

    def test_boundary_minimum(self):
        # cos is decreasing on [0, 3], so the minimum sits on the boundary
        res = minimize_1d(math.cos, 0.0, 3.0, tol=1e-10)
        assert abs(res.argmin - 3.0) <= 1e-9

    def test_smooth_area_objective(self):
        from rulecover import smooth

        res = minimize_1d(
            lambda a: smooth.smooth_area(smooth.solve_coefficients(a)),
            0.9, 1.3, tol=1e-12)
        assert abs(res.argmin - 1.1107321367714721) <= 1e-9

    def test_non_finite_objective(self):
        with pytest.raises(EvaluationError) as err:
            minimize_1d(lambda x: math.nan, 0.0, 1.0, tol=1e-6)
        assert 0.0 <= err.value.x <= 1.0

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            minimize_1d(lambda x: x, 1.0, 0.0)

    @given(vertex=st.floats(-5, 5), scale=st.floats(0.1, 50))
    @settings(max_examples=100, deadline=None)
    def test_unimodal_property(self, vertex, scale):
        lo, hi = vertex - 3, vertex + 2.7
        res = minimize_1d(lambda x: scale * (x - vertex) ** 2 + 0.3, lo, hi,
                          tol=1e-9)
        assert res.converged
        assert abs(res.argmin - vertex) <= 1e-8


class TestIntegrate:
    def test_sin(self):
        assert abs(integrate(math.sin, 0.0, math.pi, tol=1e-12) - 2.0) <= 1e-12

    def test_monomial(self):
        assert abs(integrate(lambda t: t * t, 0.0, 1.0, tol=1e-12) - 1 / 3) <= 1e-12

    def test_empty_interval(self):
        assert integrate(math.sin, 1.0, 1.0) == 0.0

    def test_subdivision_limit(self):
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t: math.sin(1000 * t), 0.0, 3.0, tol=1e-14,
                      max_depth=3)
        assert math.isfinite(err.value.estimate)
        assert err.value.error > 0

    def test_non_finite(self):
        f = lambda t: math.inf if t == 0 else 1.0 / t
        with pytest.raises(EvaluationError):
            integrate(f, -1.0, 1.0, tol=1e-6)

    @given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_polynomial_property(self, coeffs):
        def poly(t):
            return sum(c * t ** k for k, c in enumerate(coeffs))

        exact = sum(c * (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coeffs))
        assert abs(integrate(poly, -1.0, 2.0, tol=1e-12) - exact) <= 1e-9

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2),
           k=st.integers(1, 6), m=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_trig_polynomial_property(self, a, b, k, m):
        f = lambda t: a * math.sin(k * t) + b * math.cos(m * t)
        hi = 1.7
        exact = (a * (1 - math.cos(k * hi)) / k + b * math.sin(m * hi) / m)
        assert abs(integrate(f, 0.0, hi, tol=1e-12) - exact) <= 1e-10


def test_minimize_result_reports_iterations():
    res = minimize_1d(lambda x: (x - 0.25) ** 2, 0.0, 1.0, tol=1e-8)
    assert res.iterations > 0
    assert res.converged
