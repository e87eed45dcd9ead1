"""Tests for the restricted expression compiler."""

import numpy as np
import pytest

from fellerkit.expressions import ExpressionError, compile_expression


def test_vocabulary_round_trip():
    # every allowed callable and both constants in one expression
    f = compile_expression(
        "sin(x) + cos(xi)*exp(-abs(x)) + min(x, xi, 2.0) + max(1.0, xi)"
        " + log(1 + x**2) + pi + e",
        ("x", "xi"),
    )
    xs = np.array([0.3, -1.2, 4.0])
    xis = np.array([1.0, 4.0, -0.5])
    want = (
        np.sin(xs)
        + np.cos(xis) * np.exp(-np.abs(xs))
        + np.minimum(np.minimum(xs, xis), 2.0)
        + np.maximum(1.0, xis)
        + np.log(1 + xs**2)
        + np.pi
        + np.e
    )
    assert np.allclose(f(xs, xis), want)


def test_scalar_inputs_work():
    f = compile_expression("e**2 + x", ("x",))
    assert f(1.0) == pytest.approx(np.e**2 + 1.0)


def test_compiled_function_exposes_source_and_variables():
    f = compile_expression("x + 1", ("x",))
    assert f.source == "x + 1"
    assert f.variables == ("x",)


@pytest.mark.parametrize("source, used", [
    ("sin(x1) * xi**2", {"x1", "xi"}),
    ("abs(xi)**1.5 + pi", {"xi"}),
    ("max(2.0, e)", set()),
])
def test_compiled_function_records_the_variables_it_names(source, used):
    assert compile_expression(source, ("x1", "x2", "xi")).used == used


def test_unary_and_arithmetic_operators():
    f = compile_expression("-x + 2*x - x/2 + x**2", ("x",))
    assert f(3.0) == pytest.approx(-3.0 + 6.0 - 1.5 + 9.0)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("np.sin(x)", "only sin/cos/exp/log/abs/min/max may be called"),
        ("x.real", "syntax element Attribute not allowed"),
        ("x[0]", "syntax element Subscript not allowed"),
        ("y + 1", "unknown name 'y'"),
        ("x % 2", "operator Mod not allowed"),
        ("x // 2", "operator FloorDiv not allowed"),
        ("x < 1", "syntax element Compare not allowed"),
        ("'abc'", "literal 'abc' not allowed"),
        ("tan(x)", "only sin/cos/exp/log/abs/min/max may be called"),
        ("lambda: 1", "syntax element Lambda not allowed"),
        ("import os", "cannot parse"),
        ("min(x, default=1)", "keyword arguments not allowed"),
        ("sin + x", "function 'sin' may only be called"),
    ],
)
def test_rejected_sources(source, fragment):
    with pytest.raises(ExpressionError, match=fragment.replace("[", r"\[")):
        compile_expression(source, ("x",))


def test_non_string_source_rejected():
    with pytest.raises(ExpressionError, match="expected an expression string, got int"):
        compile_expression(5, ("x",))


def test_min_arity_checked_at_call_time():
    # compiling succeeds; the arity complaint fires when the call happens
    f = compile_expression("min(x)", ("x",))
    with pytest.raises(ExpressionError, match="min/max need at least two arguments"):
        f(3.0)


def test_wrong_call_arity_is_a_type_error():
    f = compile_expression("x + 1", ("x",))
    with pytest.raises(TypeError, match="expected 1 arguments, got 2"):
        f(1.0, 2.0)
