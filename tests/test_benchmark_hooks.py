"""The benchmark's tracer patches the package by name; every name must resolve."""

import importlib
import weakref
from pathlib import Path

from loopalg.catalog import expected_rational_presentation
from loopalg.families import LieFamily

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, function in tracing.SPAN_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"loopalg.{module}"), function))
    for module, cls, method in tracing.LEAF_METHODS:
        assert method in vars(getattr(importlib.import_module(f"loopalg.{module}"), cls))
    # the tracer remembers presentations weakly
    weakref.ref(expected_rational_presentation(LieFamily.SU, 2))
