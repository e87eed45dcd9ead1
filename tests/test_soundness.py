"""Soundness sweep: where the true answer is known, fellerkit must not
claim more than it.

Each class draws seeded parameters for symbols whose truth is known and
asserts an invariant over ``fellerkit analyze`` run on them.  The
non-symbols, functions that no Feller process has as its symbol, must get
no "holds".  Other spellings of a built-in family's symbol (a stable-like
order that is one constant, a closed-form expression) must get the
family's report.  A compound Poisson process has no density at any time,
so it must get no finite heat bound and no ultracontractivity.  A run may
end with a numerical failure instead, which claims nothing.  The cases
that fellerkit still gets wrong are strict xfails that name the ROADMAP
item that mends them; the change that mends one sees its xfail pass,
which strict mode reports, and removes the mark.  The examples are
derandomized, so every run draws the same ones.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fellerkit.cli as cli

sweep = settings(max_examples=8, deadline=None, derandomize=True)


def _exponent_in(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _report(config: dict) -> dict | None:
    """The report of ``fellerkit analyze`` on ``config``, or None when the
    run fails numerically (exit 3, no report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        rc = cli.main(["analyze", "--config", str(path), "--out", str(out)])
        assert rc in (0, 3)
        return json.loads((out / "report.json").read_text()) if rc == 0 else None


def _verdicts(config: dict) -> list:
    """The criterion verdicts of ``fellerkit analyze`` on ``config``, or
    none when the run fails numerically."""
    report = _report(config)
    return [] if report is None else [c["verdict"] for c in report["criteria"]]


def _verdicts_and_heat_bounds(config: dict):
    """The verdicts and the heat bounds, by time, of a run that must end
    with a report; a bound the report writes as "inf" reads as math.inf."""
    report = _report(config)
    assert report is not None
    bounds = {t: float(v) for t, v in report["heat_kernel_bounds"].items()}
    return [c["verdict"] for c in report["criteria"]], bounds


def _alpha_stable(alpha: float, d: int) -> dict:
    return {"symbol": {"type": "alpha_stable", "alpha": alpha, "dimension": d}}


def _compound_poisson(rate_exponent: float, jump_std_exponent: float) -> dict:
    symbol = {"rate": 10.0**rate_exponent, "jump_std": 10.0**jump_std_exponent}
    return {"symbol": {"type": "compound_poisson", **symbol}}


def _state_free_infinite(alpha: float, c: float) -> dict:
    # exp(c) overflows for c > 709.78; 0*xi keeps the subtree non-constant,
    # so the expression checks cannot fold it
    return {"symbol": {"type": "closed_form", "re": f"abs(xi)**{alpha} + exp({c} + 0*xi)"}}


def _grid_infinite(alpha: float, c: float) -> dict:
    return {
        "symbol": {"type": "closed_form", "re": f"abs(xi)**{alpha} * exp(x**2 + {c})"},
        "envelope": {
            "method": "grid", "x_domain": [[-1.0, 1.0]], "tail": "periodic", "resolution": 9,
        },
    }


class TestNonSymbolsGetNoHolds:
    """A Feller symbol is finite, grows at most like |xi|^2 and is
    Hermitian: p(x, -xi) is the complex conjugate of p(x, xi)."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @sweep
    @given(
        build=st.sampled_from([_state_free_infinite, _grid_infinite]),
        alpha=_exponent_in(0.3, 2.0),
        c=_exponent_in(710.0, 2000.0),
    )
    @example(build=_state_free_infinite, alpha=1.5, c=1000.0)
    @example(build=_grid_infinite, alpha=1.5, c=1000.0)
    def test_an_infinite_value(self, build, alpha, c):
        assert "holds" not in _verdicts(build(alpha, c))

    @pytest.mark.xfail(
        strict=True,
        reason="item 12: no admissibility gate rejects growth faster than |xi|^2",
    )
    @sweep
    @given(power=_exponent_in(2.5, 4.0), scale=_exponent_in(0.5, 2.0))
    @example(power=4.0, scale=1.0)  # xi**4
    def test_growth_faster_than_the_square(self, power, scale):
        config = {"symbol": {"type": "closed_form", "re": f"{scale} * abs(xi)**{power}"}}
        assert "holds" not in _verdicts(config)

    @pytest.mark.xfail(
        strict=True,
        reason="item 12: no admissibility gate rejects a symbol that is not Hermitian",
    )
    @sweep
    @given(alpha=_exponent_in(1.2, 2.0), im=_exponent_in(0.1, 2.0))
    @example(alpha=1.5, im=0.5)
    def test_an_imaginary_constant(self, alpha, im):
        config = {"symbol": {"type": "closed_form", "re": f"abs(xi)**{alpha}", "im": im}}
        assert "holds" not in _verdicts(config)


# the (alpha, d) pairs every run checks besides the drawn ones
_STABLE_CASES = [(0.7, 1), (1.3, 1), (1.7, 2), (0.9, 2), (1.5, 3)]


def _at_stable_cases(test):
    for alpha, d in _STABLE_CASES:
        test = example(alpha=alpha, d=d)(test)
    return test


class TestStableLikeAtAConstantOrder:
    """A stable-like symbol whose order is one constant alpha, with the band
    [alpha, alpha], is the alpha-stable symbol |xi|^alpha."""

    @sweep
    @given(alpha=_exponent_in(0.3, 1.95), d=st.integers(1, 3))
    @_at_stable_cases
    def test_the_report_of_alpha_stable(self, alpha, d):
        symbol = {
            "type": "stable_like", "alpha": repr(alpha), "alpha_min": alpha, "alpha_max": alpha,
            "dimension": d,
        }
        assert _verdicts_and_heat_bounds({"symbol": symbol}) == _verdicts_and_heat_bounds(
            _alpha_stable(alpha, d)
        )


class TestClosedFormSpellings:
    """A closed-form expression of a built-in family's symbol, declared
    radial, gets the family's verdicts and its heat bounds up to rounding:
    the expression computes |xi|^alpha in other operations."""

    @sweep
    @given(alpha=_exponent_in(0.3, 2.0), d=st.integers(1, 3))
    @_at_stable_cases
    def test_alpha_stable(self, alpha, d):
        symbol = {
            "type": "closed_form", "re": _radial_power(alpha, d), "dimension": d, "radial_in_xi": True,
        }
        verdicts, bounds = _verdicts_and_heat_bounds({"symbol": symbol})
        family_verdicts, family_bounds = _verdicts_and_heat_bounds(_alpha_stable(alpha, d))
        assert verdicts == family_verdicts
        assert bounds.keys() == family_bounds.keys()
        for t, bound in bounds.items():
            assert math.isclose(bound, family_bounds[t], rel_tol=1e-12, abs_tol=0.0), t


    @pytest.mark.parametrize("re, family", [
        ("xi1**2 + xi2**2", {"type": "brownian", "dimension": 2}),
        ("(xi1**2 + xi2**2)**0.5", {"type": "cauchy", "dimension": 2}),
    ])
    def test_brownian_and_cauchy(self, re, family):
        symbol = {"type": "closed_form", "re": re, "dimension": 2, "radial_in_xi": True}
        assert _verdicts({"symbol": symbol}) == _verdicts({"symbol": family})


def _radial_power(alpha: float, d: int) -> str:
    """|xi|^alpha as an expression."""
    if d == 1:
        return f"abs(xi)**{alpha!r}"
    return "(" + " + ".join(f"xi{i}**2" for i in range(1, d + 1)) + f")**({alpha!r}/2)"


class TestProductsOfAStateFactor:
    """p(x, xi) = (c + b sin(x1)) |xi|^alpha on a periodic box has q_inf =
    (c - |b|) |xi|^alpha: alpha-stable's verdicts, and at time t
    alpha-stable's heat bound at time (c - |b|) t."""

    @sweep
    @given(
        alpha=_exponent_in(0.3, 1.95),
        d=st.integers(1, 3),
        c=_exponent_in(0.5, 3.0),
        share=_exponent_in(-0.9, 0.9),
    )
    @example(alpha=1.5, d=2, c=1.25, share=0.4)  # grid_envelope_2d's symbol, with b = 0.5
    @example(alpha=0.7, d=1, c=2.0, share=-0.9)
    @example(alpha=1.5, d=3, c=1.0, share=0.5)
    def test_the_report_of_alpha_stable_at_a_scaled_time(self, alpha, d, c, share):
        b = share * c
        times = [0.1, 1.0, 10.0]
        x1 = "x" if d == 1 else "x1"
        config = {
            "symbol": {
                "type": "closed_form", "re": f"({c!r} + {b!r}*sin({x1})) * {_radial_power(alpha, d)}",
                "dimension": d, "radial_in_xi": True,
            },
            "envelope": {
                "method": "grid", "x_domain": [[0.0, 2.0 * math.pi]] * d, "tail": "periodic",
            },
            "criteria": {"heat_times": times},
        }
        stable = _alpha_stable(alpha, d)
        stable["criteria"] = {"heat_times": [(c - abs(b)) * t for t in times]}
        verdicts, bounds = _verdicts_and_heat_bounds(config)
        family_verdicts, family_bounds = _verdicts_and_heat_bounds(stable)
        assert verdicts == family_verdicts
        assert len(bounds) == len(family_bounds) == len(times)
        assert all(map(math.isfinite, bounds.values()))
        for t, bound, family_bound in zip(times, bounds.values(), family_bounds.values()):
            assert math.isclose(bound, family_bound, rel_tol=1e-12, abs_tol=0.0), t


class TestCompoundPoissonHasNoDensity:
    """psi(xi) = rate (1 - exp(-jump_std^2 |xi|^2 / 2)) is bounded, and X_t
    has an atom of mass exp(-rate t) at its start: no time has a density,
    so every heat bound is infinite and ultracontractivity does not hold."""

    @pytest.mark.xfail(
        strict=True,
        reason="item 2: e^{-t q_inf/16} underflows to 0.0 and the walk reads the zeros "
        "as a convergent tail",
    )
    @sweep
    @given(rate_exponent=_exponent_in(4.0, 14.0), jump_std_exponent=_exponent_in(-6.0, 0.0))
    @example(rate_exponent=5.0, jump_std_exponent=-3.0)  # 2.523 at t = 1
    def test_every_heat_bound_is_infinite(self, rate_exponent, jump_std_exponent):
        report = _report(_compound_poisson(rate_exponent, jump_std_exponent))
        assert report is None or set(report["heat_kernel_bounds"].values()) == {"inf"}

    @pytest.mark.xfail(
        strict=True,
        reason="item 2: ultracontractivity reads q_inf at six radii up to 1e6, not its limit",
    )
    @sweep
    @given(rate_exponent=_exponent_in(3.0, 14.0), jump_std_exponent=_exponent_in(-7.0, -5.0))
    @example(rate_exponent=13.0, jump_std_exponent=-6.0)
    def test_ultracontractivity_does_not_hold(self, rate_exponent, jump_std_exponent):
        config = _compound_poisson(rate_exponent, jump_std_exponent)
        config["criteria"] = {"run": ["ultracontractivity"]}
        assert "holds" not in _verdicts(config)
