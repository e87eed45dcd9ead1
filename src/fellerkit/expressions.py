"""Safe evaluation of user-supplied closed-form expressions.

Coefficient functions (variable orders alpha(x), Bernstein functions
f(x, s), jump densities n(x, z), closed-form exponents psi(x, xi)) may be
given as plain text over a fixed vocabulary:

    sin cos exp log abs min max    +  -  *  /  **    pi  e

plus numeric literals and the variable names supplied by the caller.
Anything else (attribute access, subscripts, names outside the allowed
set, a function name that is not called, double-underscore tricks) is
rejected at parse time with :class:`ExpressionError`, a
:class:`~fellerkit.errors.ConfigError`.
"""

from __future__ import annotations

import ast
import functools

import numpy as np

from .errors import ConfigError

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ConfigError):
    """Raised when an expression uses syntax outside the allowed vocabulary."""


def _reduce_binary(fn):
    def reducer(*args):
        if len(args) < 2:
            raise ExpressionError("min/max need at least two arguments")
        return functools.reduce(fn, args)

    return reducer


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "min": _reduce_binary(np.minimum),
    "max": _reduce_binary(np.maximum),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


def _check_node(node: ast.AST, variables: tuple[str, ...]) -> None:
    if isinstance(node, ast.Expression):
        _check_node(node.body, variables)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _check_node(node.left, variables)
        _check_node(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _check_node(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sin/cos/exp/log/abs/min/max may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        for arg in node.args:
            _check_node(arg, variables)
    elif isinstance(node, ast.Name):
        if node.id in _FUNCTIONS:
            raise ExpressionError(f"function {node.id!r} may only be called")
        if node.id not in variables and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"literal {node.value!r} not allowed")
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(source: str, variables: tuple[str, ...]):
    """Compile ``source`` to a vectorized callable of the named variables.

    The returned function takes the variables as positional numpy arrays
    (or scalars) and broadcasts elementwise.  Its ``used`` attribute is the
    set of those variables that the expression names.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expected an expression string, got {type(source).__name__}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from None
    _check_node(tree, tuple(variables))
    code = compile(tree, "<expression>", "eval")
    namespace = {"__builtins__": {}}
    namespace.update(_FUNCTIONS)
    namespace.update(_CONSTANTS)

    def evaluate(*args):
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} arguments, got {len(args)}")
        local = dict(zip(variables, args))
        return eval(code, namespace, local)

    evaluate.source = source
    evaluate.variables = tuple(variables)
    evaluate.used = frozenset(
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in variables
    )
    return evaluate
