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
from pathlib import Path

import numpy as np

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

__all__ = ["load_config", "build_model", "build_envelope_from_config", "DEFAULTS"]

DEFAULTS = {
    "envelope": {"method": "auto", "resolution": 513, "refine_rounds": 3},
    "criteria": {
        "run": ["ultracontractivity", "transience", "local_times"],
        "transience_radius": 1.0,
        "heat_times": [0.1, 1.0, 10.0],
    },
    "simulation": {"n_paths": 1000, "t_max": 1.0, "h_max": 1e-3},
    "validation": {
        "t_values": [0.25, 0.5, 1.0],
        "xi_values": [0.5, 1.0, 2.0, 4.0],
        "n_sigma": 3.0,
    },
    "output": {"directory": "fellerkit-out"},
    "tolerances": {"rel_tol": 1e-6},
    "seed": 0,
}

_SECTIONS = set(DEFAULTS) | {"symbol"}


def _check_keys(section: dict, allowed, where: str) -> None:
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown key(s) {sorted(extra)} in {where};"
            f" allowed: {sorted(allowed)}"
        )


def load_config(path) -> dict:
    """Read and structurally validate a configuration file.

    Returns the parsed dict with defaults merged in for missing sections.
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
    _check_keys(cfg, _SECTIONS, "the top-level config")
    if "symbol" not in cfg:
        raise ConfigError("config needs a 'symbol' section")
    merged = {}
    for key, default in DEFAULTS.items():
        if isinstance(default, dict):
            merged[key] = {**default, **cfg.get(key, {})}
        else:
            merged[key] = cfg.get(key, default)
    merged["symbol"] = cfg["symbol"]
    return merged


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _levy(dimension=1, x_dependent=True, name="levy", **chars) -> SymbolModel:
    return levy_symbol(
        LevyCharacteristics(**chars), dimension, x_dependent=x_dependent, name=name
    )


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
        ("alpha", "alpha_min", "alpha_max"), ("dimension", "smooth", "name"), stable_like_symbol
    ),
    "closed_form": (
        ("re",),
        ("im", "dimension", "radial_in_xi", "conservative", "name", "x_dependent"),
        closed_form_symbol,
    ),
    "levy": (
        (),
        (
            "kill", "drift", "diffusion", "jump_density", "singularity_exponent",
            "radial", "symmetric", "dimension", "x_dependent", "name",
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
    _check_keys(
        env_cfg,
        {"method", "x_domain", "resolution", "tail", "refine_rounds"},
        "the envelope section",
    )
    method = env_cfg.get("method", "auto")
    if method not in ("auto", "grid"):
        raise ConfigError(f"envelope method must be 'auto' or 'grid', got '{method}'")
    domain = env_cfg.get("x_domain")
    if domain is not None:
        domain = np.asarray(domain, dtype=float)
    return build_envelope(
        model,
        x_domain=domain,
        resolution=int(env_cfg.get("resolution", 513)),
        tail=env_cfg.get("tail"),
        use_closed_form=(method == "auto"),
        refine_rounds=int(env_cfg.get("refine_rounds", 3)),
    )
