"""The benchmark tracer wraps package functions by name; every name it
wraps must still resolve, or a refactor silently drops per-layer metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [(module, attr) for module, attr, *_ in tracer.SPANS + tracer.COUNTED]


def test_tables_are_not_empty():
    assert len(tracer.SPANS) > 0 and len(tracer.COUNTED) > 0


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
