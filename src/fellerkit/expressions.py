"""Safe evaluation of user-supplied closed-form expressions.

Coefficient functions (variable orders alpha(x), Bernstein functions
f(x, s), jump densities n(x, z), closed-form exponents psi(x, xi)) may be
given as plain text over a fixed vocabulary:

    sin cos exp log abs min max    +  -  *  /  **    pi  e

plus numeric literals and the variable names supplied by the caller.  One
pass checks the parsed tree and builds a closure per node, so anything else
(attribute access, subscripts, unknown names, bool literals, other calls,
wrong argument counts, literals that are not finite) raises
:class:`ExpressionError`, a :class:`~fellerkit.errors.ConfigError`, before
anything runs.  A subtree that names no variable is computed once, while
building, a power in floats; an overflow, a division by zero, a power that
is not real or any value that is not finite there raises
:class:`ExpressionError` too.
"""

import ast
import functools
import math
import operator

import numpy as np

from .errors import ConfigError

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ConfigError):
    """Raised when an expression is outside the vocabulary or a constant part fails."""


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow,
              ast.USub: operator.neg, ast.UAdd: operator.pos}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs}
_FOLDS = {"min": np.minimum, "max": np.maximum}
_CONSTANTS = {"pi": np.pi, "e": np.e}


def _apply(fn, parts):
    """``fn`` of the parts: a value when every part is a value, else a closure
    of the argument tuple (a part that names a variable is such a closure)."""
    if not any(map(callable, parts)):
        if fn is operator.pow:  # in floats, so 9**9**9 overflows at once
            parts = [float(p) for p in parts]
        with np.errstate(all="ignore"):  # numpy answers with inf or nan, rejected below
            value = fn(*parts)
        if isinstance(value, complex):  # a negative base to a fractional power
            raise ExpressionError(f"constant power {parts[0]!r} ** {parts[1]!r} is not real")
        if not math.isfinite(value):
            raise ExpressionError(f"constant part evaluates to {value}")
        return value
    a, *rest = [p if callable(p) else (lambda args, p=p: p) for p in parts]
    if not rest:
        return lambda args: fn(a(args))
    return lambda args, b=rest[0]: fn(a(args), b(args))


def _build(node: ast.AST, variables: tuple[str, ...], used: set[str]):
    """Check ``node`` and return what :func:`_apply` takes as a part,
    adding the variables it names to ``used``."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float) or not math.isfinite(node.value):
            raise ExpressionError(f"literal {node.value!r} not allowed")
        return node.value
    if isinstance(node, ast.Name):
        if node.id in _FUNCTIONS or node.id in _FOLDS:
            raise ExpressionError(f"function {node.id!r} may only be called")
        if node.id in variables:
            used.add(node.id)
            return operator.itemgetter(variables.index(node.id))
        if node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}")
        return _CONSTANTS[node.id]
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        fn = _OPERATORS.get(type(node.op))
        if fn is None:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        operands = (node.operand,) if isinstance(node, ast.UnaryOp) else (node.left, node.right)
        return _apply(fn, [_build(n, variables, used) for n in operands])
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _FUNCTIONS and name not in _FOLDS:
            raise ExpressionError("only sin/cos/exp/log/abs/min/max may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        parts = [_build(arg, variables, used) for arg in node.args]
        if name in _FUNCTIONS:
            if len(parts) != 1:
                raise ExpressionError(f"{name} takes exactly one argument")
            return _apply(_FUNCTIONS[name], parts)
        if len(parts) < 2:
            raise ExpressionError("min/max need at least two arguments")
        return functools.reduce(lambda a, b: _apply(_FOLDS[name], [a, b]), parts)
    raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


def _evaluator(source: str, variables: tuple[str, ...], value, used: set[str]):
    def evaluate(*args):
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} arguments, got {len(args)}")
        return value(args) if callable(value) else value

    evaluate.source = source
    evaluate.variables = variables
    evaluate.used = frozenset(used)
    return evaluate


def compile_expression(source: str, variables: tuple[str, ...]):
    """Compile ``source`` to a vectorized callable of the named variables.

    The returned function takes the variables as positional numpy arrays
    (or scalars) and broadcasts elementwise.  Its ``used`` attribute is the
    set of those variables that the expression names.  When the root of
    the expression is a product ``L * R``, its ``factors`` attribute holds
    the compiled operands L and R, callables of the same variables, each
    with its own ``used``.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expected an expression string, got {type(source).__name__}")
    variables = tuple(variables)
    parts = []  # (node, part, used) per operand of a product at the root, else of the root
    try:
        root = ast.parse(source, mode="eval").body
        product = isinstance(root, ast.BinOp) and isinstance(root.op, ast.Mult)
        for node in (root.left, root.right) if product else (root,):
            used: set[str] = set()
            parts.append((node, _build(node, variables, used), used))
        value = _apply(operator.mul, [part for _, part, _ in parts]) if product else parts[0][1]
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from None
    except ArithmeticError as exc:  # from a subtree computed while building
        raise ExpressionError(f"cannot evaluate {source!r}: {exc}") from None

    evaluate = _evaluator(source, variables, value, set().union(*(used for *_, used in parts)))
    if product:
        evaluate.factors = tuple(
            _evaluator(ast.get_source_segment(source, node), variables, part, used)
            for node, part, used in parts
        )
    return evaluate
