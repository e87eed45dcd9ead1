"""Symbol construction and evaluation.

Closed-form families, the Levy-Khintchine quadrature route, subordination,
and symmetrization. Jump-measure values are checked against independently
computed integrals frozen below.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

import fellerkit as fk

# normalizers C(alpha, d) with C * integral(1 - cos(z_1)) |z|^(-d-alpha) dz = 1,
# frozen from a direct high-precision evaluation of the integral
STABLE_CONSTANTS = {
    (0.5, 1): 0.19947114020071638,
    (1.0, 1): 0.31830988618379075,
    (1.5, 1): 0.2992067103010746,
    (0.8, 2): 0.13207971389562193,
    (1.2, 2): 0.1767447855742851,
    (0.8, 3): 0.08077514677468614,
}

# one-sided density |z|^(-1.7) on z > 0, evaluated at xi = 1.3; reference
# value from the split defect/tail quadrature done independently
ONE_SIDED_DENSITY = "abs(z)**(-1.7) * max(0.0, min(1.0, 1e30 * z))"
ONE_SIDED_VALUE = 2.331353306122569 - 0.24220515728611505j


def ev(model, x, xi):
    """Evaluate at a single point and coerce to a python complex."""
    out = np.asarray(fk.eval_symbol(model, x, xi))
    return complex(out.reshape(-1)[0])


class TestClosedFormFamilies:
    def test_brownian_with_drift(self):
        m = fk.brownian(1, drift=0.3)
        assert ev(m, 0.0, 2.0) == pytest.approx(4.0 - 0.6j)

    def test_brownian_two_dimensional(self):
        m = fk.brownian(2)
        v = ev(m, np.zeros(2), np.array([1.0, 2.0]))
        assert v == pytest.approx(5.0 + 0.0j)

    def test_alpha_stable_modulus(self):
        m = fk.alpha_stable(0.5, 1)
        assert ev(m, 0.0, 4.0) == pytest.approx(2.0 + 0.0j)
        assert ev(m, 0.0, -4.0) == pytest.approx(2.0 + 0.0j)

    def test_cauchy_is_stable_index_one(self):
        mc = fk.cauchy(1)
        ms = fk.alpha_stable(1.0, 1)
        for xi in (0.25, 1.0, 7.5):
            assert ev(mc, 0.0, xi) == ev(ms, 0.0, xi)

    def test_compound_poisson_closed_form(self):
        lam, mean, sd = 2.0, 0.3, 1.0
        m = fk.compound_poisson(lam, mean, sd)
        xi = 1.3
        want = lam * (1.0 - cmath.exp(1j * mean * xi - 0.5 * (sd * xi) ** 2))
        assert ev(m, 0.0, xi) == pytest.approx(want, rel=1e-14)

    def test_zero_symbol(self):
        m = fk.zero_symbol(1)
        assert ev(m, 0.3, 5.0) == 0.0 + 0.0j

    def test_eval_symbol_vectorizes(self):
        m = fk.brownian(1)
        xis = np.array([1.0, 2.0, 3.0])
        vals = fk.eval_symbol(m, 0.0, xis)
        assert np.allclose(vals, xis**2)

    def test_closed_forms_answer_in_the_broadcast_shape(self):
        """An expression sees the points as given and only its value is
        broadcast; a callable still gets the broadcast points."""
        x = np.array([0.0, 0.5, 1.0])[:, None]
        xi = np.array([1.0, 2.0, 3.0, 4.0])
        in_x = fk.eval_symbol(fk.closed_form_symbol("1.5 + sin(x)", im="cos(x)"), x, xi)
        want = (1.5 + np.sin(x)) + 1j * np.cos(x)
        assert in_x.shape == (3, 4) and in_x.flags.writeable
        assert np.array_equal(in_x, np.broadcast_to(want, (3, 4)))
        both = fk.closed_form_symbol("(1.25 + 0.5*sin(x)) * abs(xi)**1.5")
        assert np.array_equal(
            fk.eval_symbol(both, x, xi), (1.25 + 0.5 * np.sin(x)) * np.abs(xi) ** 1.5 + 0j
        )
        seen = []

        def re(xp, xip):
            seen.append((xp.shape, xip.shape))
            return xip[..., 0] ** 2

        assert fk.eval_symbol(fk.closed_form_symbol(re), x, xi).shape == (3, 4)
        assert seen == [((3, 4, 1), (3, 4, 1))]

    def test_dimension_mismatch_raises(self):
        m = fk.brownian(2)
        with pytest.raises(ValueError, match="last axis of length 2"):
            fk.eval_symbol(m, np.zeros(2), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.5])
    def test_stable_index_range(self, alpha):
        with pytest.raises(fk.ConfigError, match=r"stable index must lie in \(0, 2\]"):
            fk.alpha_stable(alpha, 1)

    def test_compound_poisson_needs_positive_rate(self):
        with pytest.raises(fk.ConfigError, match="jump rate must be positive"):
            fk.compound_poisson(0.0, 0.3, 1.0)

    def test_compound_poisson_dimension_guard(self):
        with pytest.raises(fk.ConfigError, match="compound_poisson is implemented for dimension 1"):
            fk.compound_poisson(2.0, 0.3, 1.0, dimension=2)


class TestStableLike:
    def test_constant_order_matches_stable(self):
        m = fk.stable_like_symbol("1.3", 1.2, 1.4)
        s = fk.alpha_stable(1.3, 1)
        for xi in (0.5, 1.0, 3.0):
            assert ev(m, 0.7, xi) == pytest.approx(ev(s, 0.0, xi), rel=1e-14)

    def test_state_dependent_order(self):
        m = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        x = 0.4
        a = 1.5 + 0.3 * math.sin(x)
        assert ev(m, x, 2.0) == pytest.approx(2.0**a + 0.0j, rel=1e-14)

    def test_order_leaving_band_rejected(self):
        # the constructor samples the order function against the band
        with pytest.raises(fk.ConfigError, match="sampled order leaves the declared band"):
            fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.45, 1.55)

    def test_band_endpoints_checked(self):
        with pytest.raises(fk.ConfigError, match="order band must satisfy"):
            fk.stable_like_symbol("1.0", 1.2, 1.1)
        with pytest.raises(fk.ConfigError, match="order band must satisfy"):
            fk.stable_like_symbol("1.0", 0.5, 2.0)

    @pytest.mark.parametrize("d, per_axis", [(1, 201), (2, 11)])
    def test_band_sample_points(self, d, per_axis):
        # the order is checked at the C-order product of linspace(-10, 10)
        # axes, every point in one call; the whole sample is pinned bit for bit
        seen = []

        def alpha(x):
            seen.append(np.array(x))
            return np.full(np.shape(x)[:-1], 1.5)

        fk.stable_like_symbol(alpha, 1.2, 1.8, dimension=d)
        axis = np.linspace(-10.0, 10.0, per_axis)
        want = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        assert len(seen) == 1
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the band is checked on a sample; every sample"
        " point x = k/10 gives sin(k pi) = 0, so the true range [0.4, 1.4] is missed",
    )
    def test_order_leaving_band_between_samples_rejected(self):
        with pytest.raises(fk.ConfigError, match="sampled order leaves the declared band"):
            fk.stable_like_symbol("0.9 + 0.5*sin(10*pi*x)", 0.89, 0.91)


class TestStableLikeConstant:
    @pytest.mark.parametrize("key, want", sorted(STABLE_CONSTANTS.items()))
    def test_frozen_values(self, key, want):
        alpha, d = key
        assert fk.stable_like_constant(alpha, d) == pytest.approx(want, rel=1e-9)

    def test_invalid_order(self):
        with pytest.raises(fk.ConfigError, match=r"order must lie in \(0, 2\)"):
            fk.stable_like_constant(2.0, 1)

    def test_invalid_dimension(self):
        with pytest.raises(fk.ConfigError, match="dimension must be a positive integer"):
            fk.stable_like_constant(1.0, 0)


class TestLevySymbol:
    def test_diffusion_only_matches_brownian(self):
        chars = fk.LevyCharacteristics(diffusion=2.0)
        m = fk.levy_symbol(chars, dimension=1)
        b = fk.brownian(1)
        for xi in (0.5, 2.0):
            assert ev(m, 0.0, xi) == pytest.approx(ev(b, 0.0, xi))

    def test_kill_and_drift(self):
        chars = fk.LevyCharacteristics(kill=0.3, drift=0.5)
        m = fk.levy_symbol(chars, dimension=1)
        assert ev(m, 0.0, 2.0) == pytest.approx(0.3 - 1.0j)

    @pytest.mark.parametrize(
        "alpha, d, tol",
        [(0.5, 1, 1e-7), (1.5, 1, 1e-7), (0.8, 2, 1e-6), (1.2, 2, 1e-6), (0.8, 3, 1e-6)],
    )
    def test_radial_stable_density_reproduces_power(self, alpha, d, tol):
        c = STABLE_CONSTANTS[(alpha, d)]
        chars = fk.LevyCharacteristics(
            jump_density=f"{c!r} * r**({-(d + alpha)!r})",
            singularity_exponent=alpha,
            radial=True,
            symmetric=True,
        )
        m = fk.levy_symbol(chars, dimension=d)
        x = 0.0 if d == 1 else np.zeros(d)
        xi = 2.0 if d == 1 else np.array([2.0] + [0.0] * (d - 1))
        v = ev(m, x, xi)
        assert v.real == pytest.approx(2.0**alpha, rel=tol)
        assert v.imag == 0.0

    def test_one_sided_density_frozen_value(self):
        chars = fk.LevyCharacteristics(
            jump_density=ONE_SIDED_DENSITY, singularity_exponent=0.7, radial=False
        )
        m = fk.levy_symbol(chars, dimension=1)
        assert ev(m, 0.0, 1.3) == pytest.approx(ONE_SIDED_VALUE, rel=1e-8)

    def test_hermitian_in_xi(self):
        chars = fk.LevyCharacteristics(
            jump_density=ONE_SIDED_DENSITY, singularity_exponent=0.7, radial=False
        )
        m = fk.levy_symbol(chars, dimension=1)
        a = ev(m, 0.0, 1.3)
        b = ev(m, 0.0, -1.3)
        assert b == pytest.approx(a.conjugate(), rel=1e-10)

    def test_symmetric_flag_kills_imaginary_part(self):
        chars = fk.LevyCharacteristics(
            jump_density="abs(z)**(-2.5)", singularity_exponent=1.5, radial=False, symmetric=True
        )
        m = fk.levy_symbol(chars, dimension=1)
        assert ev(m, 0.0, 1.7).imag == 0.0

    def test_compound_poisson_via_characteristics(self):
        # gaussian jump density with rate 2; the compensating drift equals
        # the first moment of the density truncated to |z| <= 1, frozen here
        m1 = 0.11497083527688218
        chars = fk.LevyCharacteristics(
            jump_density="2.0 * exp(-(z - 0.3)**2 / 2) / ((2*pi)**0.5)",
            singularity_exponent=0.5,
            radial=False,
            drift=m1,
        )
        m = fk.levy_symbol(chars, dimension=1)
        ref = fk.compound_poisson(2.0, 0.3, 1.0)
        xi = 1.3
        assert ev(m, 0.0, xi) == pytest.approx(ev(ref, 0.0, xi), rel=1e-7)

    def test_state_dependent_radial_density_scales(self):
        chars = fk.LevyCharacteristics(
            jump_density="(1 + 0.5*sin(x)) * r**(-1.5)",
            singularity_exponent=0.5,
            radial=True,
        )
        m = fk.levy_symbol(chars, dimension=1)
        v1 = ev(m, 0.7, 2.0)
        v2 = ev(m, -0.4, 2.0)
        want = (1 + 0.5 * math.sin(0.7)) / (1 + 0.5 * math.sin(-0.4))
        assert v1.real / v2.real == pytest.approx(want, rel=1e-12)

    def test_integrability_witness_rejects_heavy_singularity(self):
        # |z|^(-3.5) near zero fails min(1, z^2) integrability no matter
        # what exponent the characteristics declare
        chars = fk.LevyCharacteristics(
            jump_density="abs(z)**(-3.5)", singularity_exponent=1.5, radial=False
        )
        with pytest.raises(fk.ConfigError, match=r"min\(1, \|z\|\^2\) integrability"):
            fk.levy_symbol(chars, dimension=1)

    def test_non_radial_needs_dimension_one(self):
        chars = fk.LevyCharacteristics(
            jump_density="abs(z)**(-2.5)", singularity_exponent=1.5, radial=False
        )
        with pytest.raises(
            fk.ConfigError, match="non-radial jump densities are supported in dimension 1"
        ):
            fk.levy_symbol(chars, dimension=2)

    def test_singularity_exponent_range(self):
        chars = fk.LevyCharacteristics(
            jump_density="r**(-3.0)", singularity_exponent=2.0, radial=True
        )
        with pytest.raises(fk.ConfigError, match=r"singularity exponent must lie in \(0, 2\)"):
            fk.levy_symbol(chars, dimension=1)


class TestSubordination:
    def test_square_root_of_brownian_is_cauchy(self):
        m = fk.subordinate(fk.brownian(1), "s**0.5")
        s = fk.alpha_stable(1.0, 1)
        for xi in (0.5, 2.0, 8.0):
            assert ev(m, 0.0, xi) == pytest.approx(ev(s, 0.0, xi), rel=1e-12)

    def test_expression_bernstein_function(self):
        m = fk.subordinate(fk.brownian(1), "log(1 + s)")
        xi = 3.0
        assert ev(m, 0.0, xi) == pytest.approx(math.log(1 + xi**2) + 0.0j, rel=1e-12)

    def test_callable_spec(self):
        spec = fk.BernsteinSpec(fn=lambda x_pts, s: np.sqrt(s), growth_constant=1.0)
        m = fk.subordinate(fk.brownian(1), spec)
        assert ev(m, 0.0, 3.0) == pytest.approx(3.0 + 0.0j, rel=1e-12)

    def test_constant_expression_has_the_shape_of_s(self):
        m = fk.subordinate(fk.brownian(1), "0")
        assert not m.x_dependent
        out = fk.eval_symbol(m, 0.0, [0.5, 1.0, 2.0])
        assert out.shape == (3,) and not out.any()

    def test_rejects_state_dependent_base(self):
        base = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        with pytest.raises(fk.ConfigError, match="state-free base exponent"):
            fk.subordinate(base, "s**0.5")

    def test_rejects_complex_base(self):
        with pytest.raises(fk.ConfigError, match="real base exponent"):
            fk.subordinate(fk.brownian(1, drift=0.3), "s**0.5")

    @pytest.mark.parametrize(
        "expression, fragment",
        [
            ("s**2", r"f\(x, s\) is not concave in s"),
            ("1 + s", "is not 0 at x"),
            ("2", r"f\(x, 0\) = 2 is not 0 at x"),
            ("-s", "decreases in s near x"),
            ("3 * s**0.5", "exceeds its declared linear growth"),
        ],
    )
    def test_rejects_non_bernstein_expressions(self, expression, fragment):
        with pytest.raises(fk.ConfigError, match=fragment):
            fk.subordinate(fk.brownian(1), expression)


class TestSymmetrization:
    def test_symmetrized_stable_closed_form(self):
        # difference of two independent copies, halved: the symbol becomes
        # 2 Re p(xi/2), so a stable index a turns into 2^(1-a) |xi|^a
        m = fk.stable_like_symbol("1.7", 1.5, 1.9)
        sym = fk.symmetrize(m)
        v = ev(sym, 0.0, 0.3)
        assert v.real == pytest.approx(2.0 ** (1 - 1.7) * 0.3**1.7, rel=1e-12)
        assert v.imag == 0.0

    def test_power_scaling_exact_point(self):
        sym = fk.symmetrize(fk.alpha_stable(0.3, 1))
        assert ev(sym, 0.0, 2.0).real == pytest.approx(2.0, rel=1e-14)
        assert ev(sym, 0.0, 1.0).real == pytest.approx(2.0**0.7, rel=1e-12)

    def test_kind_is_labelled_and_imag_dropped(self):
        sym = fk.symmetrize(fk.brownian(1, drift=0.5))
        assert sym.kind == "symmetrized"
        assert ev(sym, 0.0, 1.0).imag == 0.0


class TestRadialCheck:
    """closed_form compares p(x, r u) with p(x, r e_1) at fixed points when
    ``radial_in_xi`` is declared."""

    @pytest.mark.parametrize("re, d", [
        ("(1.25 + 0.5*sin(x))*abs(xi)**1.5", 1),
        ("(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75", 2),
        ("exp(-x3**2) + (xi1**2 + xi2**2 + xi3**2)**0.6", 3),
        ("log(x1)*(xi1**2 + xi2**2)", 2),  # NaN at the states x1 < 0, in every direction
    ])
    def test_radial_expressions_pass(self, re, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fk.closed_form_symbol(re, dimension=d, radial_in_xi=True).radial_in_xi

    def test_radial_callable_passes(self):
        def re(x, xi):
            return (2.0 + np.cos(x[..., 0])) * np.sqrt(np.sum(xi * xi, axis=-1))

        assert fk.closed_form_symbol(re, dimension=3, radial_in_xi=True).radial_in_xi

    @pytest.mark.parametrize("re, im, d, where", [
        ("xi1**2 + 0.01*xi2**2", None, 2, "xi = [0.0, 0.25]"),
        ("xi1**2 + xi2**2 + xi1*xi2", None, 2, "xi = [0.17677669529663687, 0.17677669529663687]"),
        ("abs(xi)**1.5", "0.5*xi", 1, "xi = [-0.25]"),
        ("xi1**2 + xi2**2 + (1 + 0*x1)*xi3**2 * 1.000001", None, 3, "xi = [0.0, 0.0, 0.25]"),
    ])
    def test_direction_dependence_is_rejected(self, re, im, d, where):
        with pytest.raises(fk.ConfigError, match="radial_in_xi is declared") as info:
            fk.closed_form_symbol(re, im, dimension=d, radial_in_xi=True)
        assert where in str(info.value)
        # without the flag the same symbol builds
        assert not fk.closed_form_symbol(re, im, dimension=d).radial_in_xi


class TestValidateModel:
    def test_clean_model_report(self):
        rep = fk.validate_model(fk.alpha_stable(1.5, 1))
        assert rep["hermitian_ok"] is True
        assert rep["hermitian_defect"] == 0.0
        assert rep["nonnegative_ok"] is True
        assert rep["conservative_ok"] is True
        assert rep["zero_offset"] == 0.0

    def test_negative_real_part_flagged(self):
        m = fk.closed_form_symbol("0 - abs(xi)", conservative=False)
        rep = fk.validate_model(m)
        assert rep["nonnegative_ok"] is False
        assert rep["min_real_part"] < 0


class TestLevyExpressionCoefficients:
    def test_string_drift_and_diffusion_in_one_dimension(self):
        chars = fk.LevyCharacteristics(
            kill="0.1*x**2", drift="sin(x)", diffusion="1 + x**2", radial=True
        )
        m = fk.levy_symbol(chars, dimension=1)
        x, xi = 0.7, 2.0
        want = 0.1 * x**2 - 1j * math.sin(x) * xi + 0.5 * (1 + x**2) * xi**2
        assert ev(m, x, xi) == pytest.approx(want, rel=1e-14)
        assert ev(m, x, -xi) == pytest.approx(want.conjugate(), rel=1e-14)
        # a state-dependent drift is never radial in xi
        assert not m.radial_in_xi

    @pytest.mark.parametrize(
        "key, value, shape", [("drift", "sin(x1)", "vector"), ("diffusion", "1 + x2**2", "matrix")]
    )
    def test_string_drift_or_diffusion_needs_dimension_one(self, key, value, shape):
        with pytest.raises(
            fk.ConfigError,
            match=f"levy {key} may be an expression string only in dimension 1;"
            f" in dimension 2 give a constant {shape}",
        ):
            fk.levy_symbol(fk.LevyCharacteristics(**{key: value}), dimension=2)


class TestLevyConservative:
    def test_expression_kill_rate_is_not_conservative(self):
        # c(x) = 0.1 x^2 vanishes at the origin only: p(2, 0) = 0.4
        m = fk.levy_symbol(fk.LevyCharacteristics(kill="0.1*x**2", diffusion=1.0))
        assert ev(m, 2.0, 0.0) == pytest.approx(0.4, rel=1e-14)
        assert not m.conservative
        assert fk.validate_model(m)["conservative_ok"] is True

    def test_callable_kill_rate_is_not_conservative(self):
        chars = fk.LevyCharacteristics(kill=lambda x: 0.1 * x[..., 0] ** 2, diffusion=1.0)
        assert not fk.levy_symbol(chars).conservative

    @pytest.mark.parametrize("kill", [0, 0.0])
    def test_constant_zero_kill_rate_stays_conservative(self, kill):
        m = fk.levy_symbol(fk.LevyCharacteristics(kill=kill, diffusion=1.0))
        assert m.conservative
        assert fk.validate_model(m)["conservative_ok"] is True

    def test_constant_positive_kill_rate_is_not_conservative(self):
        assert not fk.levy_symbol(fk.LevyCharacteristics(kill=0.3, diffusion=1.0)).conservative


def _levy_with(key, **chars):
    return lambda v: fk.levy_symbol(fk.LevyCharacteristics(**{**chars, key: v}))


# builder and coefficient -> (build from one value, the value in each of FORMS)
COEFFICIENTS = {
    "closed_form.re": (
        fk.closed_form_symbol,
        (1.0, "abs(xi)**1.5", "(1.25 + 0.5*sin(x))*abs(xi)**1.5",
         lambda x, xi: np.abs(xi[..., 0]) ** 1.5),
    ),
    "closed_form.im": (
        lambda v: fk.closed_form_symbol("xi**2", v),
        (0.5, "xi", "sin(x)*xi", lambda x, xi: xi[..., 0]),
    ),
    "stable_like.alpha": (
        lambda v: fk.stable_like_symbol(v, 1.2, 1.8),
        (1.5, "1.2 + 0.3", "1.5 + 0.3*sin(x)", lambda x: 1.5 + 0.3 * np.sin(x[..., 0])),
    ),
    "levy.kill": (
        _levy_with("kill", diffusion=1.0),
        (0.3, "0.3", "0.1*x**2", lambda x: 0.1 * x[..., 0] ** 2),
    ),
    "levy.drift": (
        _levy_with("drift", diffusion=1.0),
        (0.5, "0.5", "sin(x)", lambda x: np.sin(x[..., 0])),
    ),
    "levy.diffusion": (
        _levy_with("diffusion"),
        (2.0, "2.0", "1 + 0.5*cos(x)", lambda x: 1 + 0.5 * np.cos(x[..., 0])),
    ),
    "levy.jump_density": (
        _levy_with("jump_density", singularity_exponent=1.5, symmetric=True),
        (0.0, "abs(z)**(-2.5)", "(1 + 0.5*sin(x))*abs(z)**(-2.5)",
         lambda x, z: np.abs(z) ** -2.5),
    ),
    "subordinate.f": (
        lambda v: fk.subordinate(fk.brownian(1), v),
        (0.0, "s**0.5", "(1 + 0.5*sin(x))*s**0.5", lambda x, s: np.sqrt(s)),
    ),
}
# each form of a coefficient, and whether a model built from it is x-dependent
FORMS = [("number", False), ("expression", False), ("expression in x", True), ("callable", True)]


@pytest.mark.parametrize("form", range(len(FORMS)), ids=[name for name, _ in FORMS])
@pytest.mark.parametrize("coefficient", COEFFICIENTS)
def test_state_dependence_is_read_off_the_coefficients(coefficient, form):
    build, values = COEFFICIENTS[coefficient]
    model = build(values[form])
    assert model.x_dependent is FORMS[form][1]
    assert fk.symmetrize(model).x_dependent is FORMS[form][1]


@pytest.mark.parametrize("model", [
    fk.brownian(2, drift=[0.5, 0.0]), fk.alpha_stable(1.5), fk.cauchy(3),
    fk.compound_poisson(2.0, 0.3), fk.zero_symbol(),
], ids=lambda m: m.name)
def test_built_in_families_are_state_free(model):
    assert not model.x_dependent
