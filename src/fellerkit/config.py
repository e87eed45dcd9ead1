"""JSON run configuration: loading, validation, and object construction.

A configuration is a single JSON object with optional sections

    symbol      what process model to build (required)
    envelope    how to build the frequency envelopes
    criteria    which criteria to evaluate and their parameters
    simulation  ensemble sizes, horizon, step control
    validation  which empirical checks to run
    output      where artifacts go
    tolerances  numeric tolerances passed through to the integrators
    seed        root seed for all randomness

Unknown keys anywhere raise ConfigError with the offending section named,
so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .envelopes import Envelope, build_envelope
from .errors import ConfigError
from .symbols import (
    LevyCharacteristics,
    SymbolModel,
    alpha_stable,
    brownian,
    cauchy,
    closed_form_symbol,
    compound_poisson,
    levy_symbol,
    stable_like_symbol,
    subordinate,
    symmetrize,
    zero_symbol,
)

__all__ = [
    "load_config", "check_seed_flag", "build_model", "build_envelope_from_config", "DEFAULTS",
]

_ABSENT = object()  # the default of a key that stays out of the merged config
_CRITERIA = ["ultracontractivity", "transience", "local_times"]


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def _or_null(kind):
    test, what = kind
    return (lambda v: v is None or test(v)), f"{what}, or null"


def _criteria(names) -> bool:
    for name in names if isinstance(names, list) else ():
        if name not in _CRITERIA:
            raise ConfigError(f"unknown criterion '{name}'; known: {sorted(_CRITERIA)}")
    return isinstance(names, list)


def _pair(v) -> bool:
    return _NUMBERS[0](v) and len(v) == 2


# kinds of value: (test, what the error message says the value must be)
_NUMBER = (_number, "a number")
_INTEGER = (lambda v: _number(v) and isinstance(v, int), "an integer")
_POSITIVE_INTEGER = (lambda v: _INTEGER[0](v) and v >= 1, "a positive integer")
_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBERS = (_list_of(_number), "a list of numbers")
_POINT = (lambda v: _number(v) or _NUMBERS[0](v), "a number or a list of numbers")
_POINTS = (_list_of(_POINT[0]), "a list of numbers or lists of numbers")
_BOX = (lambda v: _pair(v) or _list_of(_pair)(v), "a [low, high] pair or a list of them")
_EXITS = (
    _list_of(lambda v: isinstance(v, dict) and set(v) == {"r", "t"}
             and all(map(_number, v.values()))),
    'a list of {"r": number, "t": number} objects',
)

# section -> key -> (default or _ABSENT, kind); ``seed`` is the one top-level
# key.  Ranges that the library functions taking the values check (a finite
# positive radius or time, a grid time, a box per dimension) stay there.
_SCHEMA = {
    "envelope": {
        "method": ("auto", (lambda v: v in ("auto", "grid"), "'auto' or 'grid'")),
        "resolution": (513, _INTEGER),
        "refine_rounds": (3, _INTEGER),
        "x_domain": (_ABSENT, _or_null(_BOX)),
        "tail": (_ABSENT, _or_null(_STRING)),
    },
    "criteria": {
        "run": (list(_CRITERIA), (_criteria, "a list of criterion names")),
        "transience_radius": (1.0, _NUMBER),
        "heat_times": ([0.1, 1.0, 10.0], _NUMBERS),
        "occupation_radii": (_ABSENT, _NUMBERS),
    },
    "simulation": {
        "n_paths": (1000, _POSITIVE_INTEGER),
        "t_max": (1.0, _NUMBER),
        "h_max": (1e-3, _NUMBER),
        "n_steps": (_ABSENT, _or_null(_INTEGER)),
        "start": (_ABSENT, _or_null(_POINT)),
    },
    "validation": {
        "t_values": ([0.25, 0.5, 1.0], _NUMBERS),
        "xi_values": ([0.5, 1.0, 2.0, 4.0], _POINTS),
        "n_sigma": (3.0, (lambda v: _number(v) and 0 <= v < math.inf, "a finite number >= 0")),
        "exit": (_ABSENT, _or_null(_EXITS)),
        "occupation_xi": (_ABSENT, _or_null(_POINTS)),
    },
    "output": {"directory": ("fellerkit-out", _STRING)},
    "tolerances": {
        "rel_tol": (1e-6, (lambda v: _number(v) and 0 < v < math.inf, "a positive number")),
    },
    "seed": (0, (lambda v: _INTEGER[0](v) and v >= 0, "a non-negative integer")),
}

DEFAULTS = {
    name: {key: default for key, (default, _) in spec.items() if default is not _ABSENT}
    if isinstance(spec, dict) else spec[0]
    for name, spec in _SCHEMA.items()
}


def _check_keys(section: dict, allowed, where: str) -> None:
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown key(s) {sorted(extra)} in {where};"
            f" allowed: {sorted(allowed)}"
        )


def _check(kind, key: str, value, where: str) -> None:
    test, what = kind
    if not test(value):
        raise ConfigError(f"'{key}' in {where} must be {what}")


def _section(name: str, given) -> dict:
    """The section ``name`` with its given values checked against the table
    and the defaults merged under them."""
    where = f"the {name} section"
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object")
    spec = _SCHEMA[name]
    _check_keys(given, spec, where)
    for key, value in given.items():
        _check(spec[key][1], key, value, where)
    return {**DEFAULTS[name], **given}


def check_seed_flag(seed):
    """The ``--seed`` command-line value, checked as the config's ``seed``
    is; returns it."""
    _check(_SCHEMA["seed"][1], "--seed", seed, "the command line")
    return seed


def load_config(path) -> dict:
    """Read a configuration file and check every section but ``symbol``
    against the table (``build_model`` checks that one).

    Returns the parsed dict with defaults merged in for missing entries;
    a key without a default stays absent unless given.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    _check_keys(cfg, [*_SCHEMA, "symbol"], "the top-level config")
    if "symbol" not in cfg:
        raise ConfigError("config needs a 'symbol' section")
    merged = {}
    for name, spec in _SCHEMA.items():
        if isinstance(spec, dict):
            merged[name] = _section(name, cfg.get(name, {}))
        else:
            merged[name] = cfg.get(name, spec[0])
            _check(spec[1], name, merged[name], "the top-level config")
    merged["symbol"] = cfg["symbol"]
    return merged


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _levy(dimension=1, name="levy", **chars) -> SymbolModel:
    return levy_symbol(LevyCharacteristics(**chars), dimension, name=name)


def _subordinate(base, bernstein, growth_constant=1.0, name=None) -> SymbolModel:
    return subordinate(build_model(base), bernstein, growth_constant, name=name)


# symbol type -> (required keys, optional keys, builder); build_model checks
# the keys, then calls the builder with the section's other entries as
# keyword arguments, so an omitted optional key takes the builder's default
_SYMBOL_TYPES = {
    "brownian": ((), ("dimension", "drift"), brownian),
    "alpha_stable": (("alpha",), ("dimension", "drift"), alpha_stable),
    "cauchy": ((), ("dimension",), cauchy),
    "compound_poisson": (("rate",), ("jump_mean", "jump_std", "dimension"), compound_poisson),
    "zero": ((), ("dimension",), zero_symbol),
    "stable_like": (
        ("alpha", "alpha_min", "alpha_max"), ("dimension", "name"), stable_like_symbol
    ),
    "closed_form": (
        ("re",),
        ("im", "dimension", "radial_in_xi", "conservative", "name"),
        closed_form_symbol,
    ),
    "levy": (
        (),
        (
            "kill", "drift", "diffusion", "jump_density", "singularity_exponent",
            "radial", "symmetric", "dimension", "name",
        ),
        _levy,
    ),
    "subordinate": (("base", "bernstein"), ("growth_constant", "name"), _subordinate),
    "symmetrize": (("base",), (), lambda base: symmetrize(build_model(base))),
}


def build_model(symbol_cfg: dict) -> SymbolModel:
    """Construct the process model described by the symbol section."""
    if not isinstance(symbol_cfg, dict):
        raise ConfigError("the symbol section must be an object")
    kind = _require(symbol_cfg, "type", "the symbol section")
    if not isinstance(kind, str) or kind not in _SYMBOL_TYPES:
        raise ConfigError(
            f"unknown symbol type '{kind}'; known types: {', '.join(_SYMBOL_TYPES)}"
        )
    required, optional, builder = _SYMBOL_TYPES[kind]
    body = {k: v for k, v in symbol_cfg.items() if k != "type"}
    where = f"symbol type '{kind}'"
    _check_keys(body, required + optional, where)
    for key in required:
        _require(body, key, where)
    return builder(**body)


def build_envelope_from_config(model: SymbolModel, env_cfg: dict) -> Envelope:
    env_cfg = _section("envelope", env_cfg)
    return build_envelope(
        model,
        x_domain=env_cfg.get("x_domain"),
        resolution=env_cfg["resolution"],
        tail=env_cfg.get("tail"),
        use_closed_form=(env_cfg["method"] == "auto"),
        refine_rounds=env_cfg["refine_rounds"],
    )
