"""Radial quadrature and the dyadic-shell divergence classifier.

Known closed forms used as oracles: gaussian integrals sqrt(pi)^d, and
integral of (1 + |xi|)^(-3/4) over [-1, 1], which is 8 (2^(1/4) - 1).
"""

import math
import warnings

import numpy as np
import pytest

import fellerkit as fk
from fellerkit.quadrature import (
    classify_improper,
    direction_set,
    integrate_radial,
    surface_area,
)


class TestIntegrateRadial:
    def test_gaussian_one_dimensional(self):
        res = integrate_radial(lambda r: np.exp(-(r**2)), 1, 0.0, np.inf)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert res.classification == "convergent"
        assert res.annulus_trace == []

    def test_gaussian_two_dimensional(self):
        res = integrate_radial(lambda r: np.exp(-(r**2)), 2, 0.0, np.inf)
        assert res.value == pytest.approx(math.pi, rel=1e-10)
        assert res.abs_error_estimate < 1e-6

    def test_infinite_integrand_is_undetermined(self):
        res = integrate_radial(lambda r: math.inf, 1, 0.0, 1.0)
        assert res.classification == "undetermined"
        assert not res.infinite
        assert res.to_dict() == {
            "value": None,
            "abs_error_estimate": None,
            "classification": "undetermined",
            "annulus_trace": [],
        }


class TestClassifyImproper:
    def test_gaussian_full_space(self):
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1, include_tail=True)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_gaussian_unit_ball_default(self):
        # default is the unit ball only: 2 * integral_0^1 e^(-r^2) dr
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1)
        assert res.value == pytest.approx(1.493648265624854, rel=1e-9)

    def test_three_quarters_power_on_ball(self):
        res = classify_improper(lambda xi: (1 + np.abs(np.asarray(xi))) ** -0.75, 1)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(8 * (2**0.25 - 1), rel=1e-12)

    def test_three_quarters_power_with_tail_diverges(self):
        res = classify_improper(
            lambda xi: (1 + np.abs(np.asarray(xi))) ** -0.75, 1, include_tail=True
        )
        assert res.classification == "divergent_at_infinity"
        assert res.infinite
        assert res.value == math.inf

    def test_inverse_modulus_diverges_at_zero(self):
        res = classify_improper(lambda xi: 1.0 / np.abs(np.asarray(xi)), 1)
        assert res.classification == "divergent_at_zero"
        assert res.infinite

    def test_annulus_trace_structure(self):
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1)
        trace = res.annulus_trace
        assert trace[0][0] == -40
        idx = [j for j, _ in trace]
        assert idx == sorted(idx)
        assert all(v >= 0 for _, v in trace)

    def test_log_squared_weight_is_conservatively_divergent(self):
        # integrable at both ends, but the shell masses decay like 1/j^2 on
        # the dyadic scale: the ratio test cannot certify that, and the
        # classifier prefers a false "divergent" to a false "convergent"
        def f(xi):
            r = np.abs(np.asarray(xi))
            return 1.0 / (r * (1.0 + np.log(r) ** 2))

        res = classify_improper(f, 1, include_tail=True)
        assert res.classification == "divergent_at_zero"

    def test_oscillating_shells_are_undetermined(self):
        # alternating shell masses defeat both the nondecreasing test and
        # the geometric tail extrapolation: no verdict is invented
        def f(xi):
            r = np.abs(np.asarray(xi))
            j = np.floor(np.log2(r))
            return 0.8 ** np.abs(j) * (1 + 0.9 * np.cos(np.pi * j)) / r

        res = classify_improper(f, 1)
        assert res.classification == "undetermined"
        assert math.isnan(res.value)
        assert len(res.annulus_trace) == 400

    def test_kink_inside_a_shell_is_resolved(self):
        # the infinite slope at |xi| = 0.7 sits inside the shell [0.5, 1],
        # which the shell rule has to bisect to meet its budget:
        # 2 * integral_0^1 |r - 0.7|^(1/2) dr = (4/3) (0.7^1.5 + 0.3^1.5)
        res = classify_improper(lambda xi: np.sqrt(np.abs(np.abs(xi) - 0.7)), 1)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(4.0 / 3.0 * (0.7**1.5 + 0.3**1.5), rel=1e-9)

    @pytest.mark.parametrize(
        "f, d, radial",
        [
            (lambda xi: np.where(np.abs(xi) < 0.3, np.inf, 1.0), 1, True),
            # +inf and -inf on the two sides: the direction mean is nan
            (lambda xi: np.where(xi > 0, np.inf, -np.inf), 1, False),
            (lambda xi: np.where(xi[..., 0] > 0, np.inf, -np.inf), 2, False),
        ],
    )
    def test_nonfinite_node_values_diverge_without_warnings(self, f, d, radial):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = classify_improper(f, d, radial=radial)
        assert res.classification == "divergent_at_zero"
        assert res.value == math.inf

    def test_nonradial_two_dimensional(self):
        # angular weight 1 + sin^2 averages to 3/2, so the full-plane
        # gaussian integral becomes 1.5 pi
        def f(xi):
            xi = np.asarray(xi)
            x, y = xi[..., 0], xi[..., 1]
            ang = np.arctan2(y, x)
            return (1 + np.sin(ang) ** 2) * np.exp(-(x**2) - y**2)

        res = classify_improper(f, 2, include_tail=True, radial=False)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(1.5 * math.pi, rel=1e-6)


class TestDirectionHelpers:
    def test_direction_counts(self):
        d1 = direction_set(1)
        assert np.array_equal(d1, np.array([[1.0], [-1.0]]))
        d2 = direction_set(2)
        assert d2.shape == (1024, 2)
        assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)
        d3 = direction_set(3)
        assert d3.shape == (1024, 3)
        assert np.allclose(np.linalg.norm(d3, axis=1), 1.0)

    def test_surface_areas(self):
        assert surface_area(1) == pytest.approx(2.0)
        assert surface_area(2) == pytest.approx(2 * math.pi)
        assert surface_area(3) == pytest.approx(4 * math.pi)

    def test_direction_dimension_guard(self):
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            direction_set(4)
