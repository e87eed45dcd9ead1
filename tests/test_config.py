"""Symbol-section errors of ``build_model``, pinned message by message, and
the merge that ``load_config`` makes of the benchmark and README configs."""

import copy
import dataclasses
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

import fellerkit as fk
from fellerkit.config import _SYMBOL_TYPES, DEFAULTS, build_model, load_config

# type -> (a section that builds, its required keys, its optional keys)
SYMBOL_TYPES = {
    "brownian": ({"type": "brownian"}, [], ["dimension", "drift"]),
    "alpha_stable": (
        {"type": "alpha_stable", "alpha": 1.5}, ["alpha"], ["dimension", "drift"]
    ),
    "cauchy": ({"type": "cauchy"}, [], ["dimension"]),
    "compound_poisson": (
        {"type": "compound_poisson", "rate": 2.0},
        ["rate"],
        ["dimension", "jump_mean", "jump_std"],
    ),
    "zero": ({"type": "zero"}, [], ["dimension"]),
    "stable_like": (
        {"type": "stable_like", "alpha": "1.5 + 0.3*sin(x)", "alpha_min": 1.2, "alpha_max": 1.8},
        ["alpha", "alpha_min", "alpha_max"],
        ["dimension", "name"],
    ),
    "closed_form": (
        {"type": "closed_form", "re": "(1 + 0.5*sin(x))*xi**2"},
        ["re"],
        ["conservative", "dimension", "im", "name", "radial_in_xi"],
    ),
    "levy": (
        {"type": "levy", "diffusion": 1.0},
        [],
        [
            "diffusion", "dimension", "drift", "jump_density", "kill", "name",
            "radial", "singularity_exponent", "symmetric",
        ],
    ),
    "subordinate": (
        {"type": "subordinate", "base": {"type": "brownian"}, "bernstein": "s**0.5"},
        ["base", "bernstein"],
        ["growth_constant", "name"],
    ),
    "symmetrize": ({"type": "symmetrize", "base": {"type": "cauchy"}}, ["base"], []),
}

MISSING = [(kind, key) for kind, (_, required, _) in SYMBOL_TYPES.items() for key in required]


def _message(section) -> str:
    with pytest.raises(fk.ConfigError) as info:
        build_model(section)
    return str(info.value)


@pytest.mark.parametrize("kind", SYMBOL_TYPES)
def test_every_type_builds(kind):
    section, _, _ = SYMBOL_TYPES[kind]
    assert build_model(copy.deepcopy(section)).dimension == 1


@pytest.mark.parametrize("kind", SYMBOL_TYPES)
def test_unknown_key_names_the_allowed_keys(kind):
    section, required, optional = SYMBOL_TYPES[kind]
    section = {**copy.deepcopy(section), "bogus": 1}
    assert _message(section) == (
        f"unknown key(s) ['bogus'] in symbol type '{kind}';"
        f" allowed: {sorted(required + optional)}"
    )


@pytest.mark.parametrize("kind", SYMBOL_TYPES)
def test_every_key_reaches_a_builder_parameter(kind):
    # a key without a parameter to go to would exit 3 with a TypeError
    required, optional, builder = _SYMBOL_TYPES[kind]
    if kind == "levy":
        # the config's levy builder passes the keys it does not name on to
        # LevyCharacteristics, and the ones it names to levy_symbol
        params = {
            *inspect.signature(fk.levy_symbol).parameters,
            *(f.name for f in dataclasses.fields(fk.LevyCharacteristics)),
        }
    else:
        params = set(inspect.signature(builder).parameters)
    assert set(required + optional) <= params


@pytest.mark.parametrize("kind, key", MISSING)
def test_missing_required_key(kind, key):
    section = copy.deepcopy(SYMBOL_TYPES[kind][0])
    del section[key]
    assert _message(section) == f"missing required key '{key}' in symbol type '{kind}'"


def test_unknown_type_lists_every_type():
    assert _message({"type": "warp_drive"}) == (
        "unknown symbol type 'warp_drive'; known types: " + ", ".join(SYMBOL_TYPES)
    )


def test_section_shape_errors():
    assert _message([1, 2]) == "the symbol section must be an object"
    assert _message({"alpha": 1.5}) == "missing required key 'type' in the symbol section"


def test_nested_base_errors_surface():
    section = {"type": "symmetrize", "base": {"type": "cauchy", "bogus": 1}}
    assert _message(section) == (
        "unknown key(s) ['bogus'] in symbol type 'cauchy'; allowed: ['dimension']"
    )


def test_levy_expression_drift_builds_in_one_dimension():
    model = build_model({"type": "levy", "drift": "sin(x)", "diffusion": "1 + 0.5*cos(x)"})
    assert fk.eval_symbol(model, 0.0, 2.0) == pytest.approx(3.0)
    with pytest.raises(fk.ConfigError, match="levy drift may be an expression string only"):
        build_model({"type": "levy", "drift": "sin(x1)", "dimension": 2})


ROOT = Path(__file__).resolve().parents[1]

# the defaults as a literal, and the merge of a loader without a key table:
# each section's defaults overlaid by its given entries
DEFAULTS_LITERAL = {
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


def _overlaid(cfg: dict) -> dict:
    merged = {
        key: {**default, **cfg.get(key, {})} if isinstance(default, dict)
        else cfg.get(key, default)
        for key, default in DEFAULTS_LITERAL.items()
    }
    merged["symbol"] = cfg["symbol"]
    return merged


def _benchmark_configs() -> dict:
    """The configs of ``perfbench/workloads.py`` at seed 1, read without
    importing the benchmark package, and the README's JSON block."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    configs = {name: make(1) for name, (_, make) in module.WORKLOADS.items()}
    (block,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    configs["readme"] = json.loads(block)
    return configs


BENCHMARK_CONFIGS = _benchmark_configs()


def test_defaults_are_the_literal():
    assert DEFAULTS == DEFAULTS_LITERAL


@pytest.mark.parametrize("name", BENCHMARK_CONFIGS)
def test_benchmark_config_merges_as_overlaid_defaults(name, tmp_path):
    cfg = BENCHMARK_CONFIGS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == _overlaid(cfg)
