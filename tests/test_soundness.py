"""Soundness sweep: where the true answer is known, fellerkit must not
claim more than it.

Each class draws seeded parameters for symbols whose truth is known and
asserts an invariant over ``fellerkit analyze`` run on them.  The first
class is the non-symbols: a function that no Feller process has as its
symbol must get no "holds".  A run may end with a numerical failure
instead, which claims nothing.  The cases that fellerkit still gets wrong
are strict xfails that name the ROADMAP item that mends them; the change
that mends one sees its xfail pass, which strict mode reports, and
removes the mark.  The examples are derandomized, so every run draws the
same ones.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fellerkit.cli as cli

sweep = settings(max_examples=8, deadline=None, derandomize=True)


def _exponent_in(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _verdicts(config: dict) -> list:
    """The criterion verdicts of ``fellerkit analyze`` on ``config``, or
    none when the run fails numerically (exit 3, no report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        rc = cli.main(["analyze", "--config", str(path), "--out", str(out)])
        assert rc in (0, 3)
        if rc == 3:
            return []
        return [c["verdict"] for c in json.loads((out / "report.json").read_text())["criteria"]]


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
