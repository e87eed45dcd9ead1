"""The benchmark's tracer wraps fellerkit functions by name
(``perfbench/tracer.py``); a refactor that drops or renames one would break
``perfbench/run.py --trace 1`` without failing anything else, so every name
it wraps must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fellerkit.envelopes import Envelope

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in tracer.ENTRY_POINTS.items() for n in names]
)
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fellerkit.{module}"), name))


@pytest.mark.parametrize("query", tracer.ENVELOPE_QUERIES)
def test_envelope_query_resolves(query):
    assert callable(getattr(Envelope, query))
