"""Tests for the restricted expression compiler."""

import inspect

import numpy as np
import pytest

from fellerkit.expressions import ExpressionError, compile_expression

# every allowed callable and both constants in one expression
VOCABULARY = (
    "sin(x) + cos(xi)*exp(-abs(x)) + min(x, xi, 2.0) + max(1.0, xi) + log(1 + x**2) + pi + e"
)


def test_vocabulary_round_trip():
    f = compile_expression(VOCABULARY, ("x", "xi"))
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
    assert np.array_equal(f(xs, xis), want)


def _reference_mismatches():
    """Evaluate VOCABULARY and the expressions of perfbench's workloads on
    arrays and scalars, once through compile_expression and once by
    ``eval`` over numpy's functions, and list where type, dtype or bits
    differ."""
    import functools

    import numpy as np

    from fellerkit.expressions import compile_expression

    namespace = {
        "__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
        "abs": np.abs, "pi": np.pi, "e": np.e,
        "min": lambda *a: functools.reduce(np.minimum, a),
        "max": lambda *a: functools.reduce(np.maximum, a),
    }
    cases = [
        (VOCABULARY, ("x", "xi")),
        ("(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75", ("x1", "x2", "xi1", "xi2")),
        ("1.5 + 0.3*sin(x1)*cos(x2)", ("x1", "x2")),
        ("1.5 + 0.3*sin(x)", ("x",)),
    ]
    rng = np.random.default_rng(29)
    draws = {
        "(63, 65)": lambda: rng.uniform(-3.0, 3.0, (63, 65)),
        "(4000,)": lambda: rng.uniform(-3.0, 3.0, 4000),
        "float": lambda: float(rng.uniform(-3.0, 3.0)),
        "float64": lambda: np.float64(rng.uniform(-3.0, 3.0)),
    }
    wrong = []
    for source, variables in cases:
        f, code = compile_expression(source, variables), compile(source, "<reference>", "eval")
        for kind, draw in draws.items():
            args = [draw() for _ in variables]
            got, want = f(*args), eval(code, namespace, dict(zip(variables, args)))
            same = type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
            if not (same and np.asarray(got).tobytes() == np.asarray(want).tobytes()):
                wrong.append((source, kind))
    return wrong


def test_same_bits_as_eval_on_every_cpu_target(under_cpu_targets):
    # literals as written and subtrees computed while building make the same
    # ufunc calls as eval of the source; each child compares within itself
    probe = (f"VOCABULARY = {VOCABULARY!r}\n" + inspect.getsource(_reference_mismatches)
             + "print(_reference_mismatches())\n")
    assert under_cpu_targets(probe) == {"default": "[]", "no AVX512": "[]"}


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


def test_literals_reach_the_operators_as_written():
    # x**2 hands numpy the int 2, as compiled Python does, so numpy takes its
    # square path (x**2.0 gives the same bits in about twice the time);
    # only a power of literals is taken in floats
    exponents = []

    class Probe:
        def __pow__(self, other):
            exponents.append(other)
            return self

    compile_expression("x**2", ("x",))(Probe())
    compile_expression("x**(2**3)", ("x",))(Probe())
    assert [(type(v), v) for v in exponents] == [(int, 2), (float, 8.0)]
    assert type(compile_expression("2", ())()) is int


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
        ("sin(x, x)", "sin takes exactly one argument"),
        ("abs()", "abs takes exactly one argument"),
        ("min(x)", "min/max need at least two arguments"),
        ("x + True", "literal True not allowed"),
        # in Python, a negative float to a fractional power is a complex number
        ("x + (-1)**0.5", r"constant power -1\.0 \*\* 0\.5 is not real"),
        # a Feller symbol is finite: numpy answers these with inf or nan
        ("x + 1e999", "literal inf not allowed"),
        ("x + exp(1000)", "constant part evaluates to inf"),
        ("x + log(-1)", "constant part evaluates to nan"),
        ("x + 0*exp(1000)", "constant part evaluates to inf"),
        ("x + 1e308*10", "constant part evaluates to inf"),
    ],
)
def test_rejected_sources(source, fragment):
    with pytest.raises(ExpressionError, match=fragment.replace("[", r"\[")):
        compile_expression(source, ("x",))


def test_non_string_source_rejected():
    with pytest.raises(ExpressionError, match="expected an expression string, got int"):
        compile_expression(5, ("x",))


def test_wrong_call_arity_is_a_type_error():
    f = compile_expression("x + 1", ("x",))
    with pytest.raises(TypeError, match="expected 1 arguments, got 2"):
        f(1.0, 2.0)
