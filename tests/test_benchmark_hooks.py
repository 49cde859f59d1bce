"""The benchmark's tracer patches the package by name; every name must resolve."""

import importlib
import sys
import weakref
from pathlib import Path

import pytest

from loopalg import catalog, cli, enveloping, minimal_model, symmetric
from loopalg.catalog import (
    catalog_entry,
    cohomology_presentation,
    default_max_degree,
    expected_integral_presentation,
    expected_rational_presentation,
)
from loopalg.families import LieFamily
from loopalg.pipeline import rational_pipeline
from oracles import force_the_engine, graded_dimension

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_names_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    for module, function in tracing.SPAN_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"loopalg.{module}"), function))
    for module, cls, method in tracing.LEAF_METHODS:
        assert method in vars(getattr(importlib.import_module(f"loopalg.{module}"), cls))
    # the tracer remembers presentations weakly
    weakref.ref(expected_rational_presentation(LieFamily.SU, 2))


def test_traced_row_counts_match_the_rows_eliminated(monkeypatch):
    """The eliminators see exactly the rows the tracer derives from the results."""
    tracer = _tracing(monkeypatch).Tracer()
    presentation = expected_rational_presentation(LieFamily.SU, 3)
    # so-even4's Euler-class relation makes four relations in four
    # variables.  Each budget fits every degree up to socle - 2 but not
    # degree socle + 2, so there is no top-degree certificate: every degree
    # is ranked once over Q, every row built
    cohomologies = [
        (cohomology_presentation(LieFamily.SU, 3), 40),
        (cohomology_presentation(LieFamily.SO_EVEN, 4), 900),
    ]
    tracer.install()
    try:
        for cohomology, budget in cohomologies:
            minimal_model.quotient_dimensions(cohomology, cohomology.socle_degree() - 2, budget)
        enveloping.graded_dimensions(presentation, 8)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    assert metrics["linalg.ffe_rows"] == 0
    assert metrics["minimal_model.rows"] > 0 and metrics["enveloping.rational_rows"] > 0
    assert metrics["linalg.rref_rows"] == (
        metrics["minimal_model.rows"] + metrics["enveloping.rational_rows"]
    )


def test_a_certified_quotient_eliminates_at_most_its_top_degree_rows(monkeypatch):
    """Through the socle, only the rows of degree socle + 2 reach the F_p eliminator."""
    tracer = _tracing(monkeypatch).Tracer()
    cohomology = cohomology_presentation(LieFamily.SO_EVEN, 4)
    top = cohomology.socle_degree() + 2
    tracer.install()
    try:
        minimal_model.quotient_dimensions(cohomology, top)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    algebra = cohomology.algebra
    top_rows = sum(
        len(algebra.monomials_of_degree(top - e)) for e in cohomology.relation_degrees
    )
    assert 0 < metrics["linalg.ffe_rows"] <= top_rows


def test_traced_graded_dimension_counts_the_rows_it_eliminates(monkeypatch):
    """The ``graded_dimension`` oracle reaches the engine through the traced function."""
    tracer = _tracing(monkeypatch).Tracer()
    presentation = expected_rational_presentation(LieFamily.SU, 3)
    tracer.install()
    try:
        assert graded_dimension(presentation, 8) > 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    assert metrics["linalg.rref_rows"] == metrics["enveloping.rational_rows"] > 0


def test_traced_coker_counts_stay_within_the_integer_engine(monkeypatch):
    """The integer rows reach ``coker_normalize`` once per degree built, zero rows dropped."""
    tracer = _tracing(monkeypatch).Tracer()
    presentation = expected_integral_presentation(LieFamily.SU, 3)
    tracer.install()
    try:
        enveloping.graded_smith_report(presentation, 8)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    assert 0 < metrics["linalg.coker_rows"] <= metrics["enveloping.integer_rows"]
    # degree 0 is the ground ring, so degrees 1 .. 8 are built
    assert metrics["linalg.coker_calls"] == 8


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
def test_traced_cli_compute_eliminates_the_core_through_the_traced_engines(
    monkeypatch, tmp_path, coeffs
):
    """``compute`` reaches the engine only through the traced functions.

    The identities hold for the rows really eliminated, which are the whole
    presentation's.  su3 certifies its normal words, so the certificate is
    forced to fail and ``compute`` falls back to the engine.
    """
    force_the_engine(monkeypatch)
    tracer = _tracing(monkeypatch).Tracer()
    argv = ["compute", "--family", "su", "--rank", "3", "--coeffs", coeffs]
    argv += ["--cache-dir", str(tmp_path), "--out", str(tmp_path / "out")]
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    if coeffs == "rational":
        presentation = rational_pipeline(catalog_entry(LieFamily.SU, 3)).presentation
    else:
        presentation = expected_integral_presentation(LieFamily.SU, 3)
    engine = presentation.engine()
    engine.report(default_max_degree(LieFamily.SU))
    rows = metrics[f"enveloping.{coeffs}_rows"]
    assert 0 < rows == sum(w.rows for w in engine.work[1:])
    if coeffs == "rational":
        assert metrics["linalg.rref_rows"] == rows
    else:
        assert 0 < metrics["linalg.coker_rows"] <= rows


def test_the_benchmark_setup_builds_no_invariant_form(monkeypatch, capsys):
    """``run.py``'s set-up imports the CLI and builds every workload's catalog
    entries; an entry holds no form until a request reads one, so ``setup_s``
    times no form."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    configs = [c for w in workloads.WORKLOADS for c in workloads.configurations(w)]
    original = symmetric.invariant_polynomials
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return original(*args, **kwargs)

    for module in (symmetric, catalog):
        monkeypatch.setattr(module, "invariant_polynomials", spy)
    monkeypatch.setattr(sys, "path", list(sys.path))
    exec(run.SETUP_CODE.format(src=str(PERFBENCH.parent / "src"), configs=configs), {})
    capsys.readouterr()
    assert {LieFamily.E6.slug, LieFamily.SU.slug} <= {f for f, _ in configs}
    assert calls == []
