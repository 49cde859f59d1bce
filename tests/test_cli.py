"""Command line contract: subcommands, exit codes, determinism, cache."""

import gc
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

import loopalg
from loopalg import (
    cli,
    enveloping,
    homotopy_lie,
    linalg,
    minimal_model,
    normal_words,
    pipeline,
    symmetric,
)
from loopalg.catalog import (
    DEFAULT_CHECKED_RANKS,
    catalog_entry,
    default_max_degree,
    splitting_series,
)
from loopalg.cli import main
from loopalg.enveloping import BudgetExceededError, RingPresentation, engine_report
from loopalg.families import LieFamily
from loopalg.pipeline import rational_pipeline
from loopalg.series import PoincareSeries
from loopalg.symmetric import invariant_polynomials

from oracles import empty_request_memos, force_the_engine, with_torsion


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("LOOPALG_CACHE_DIR", str(directory))
    return directory


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_schema(cache_dir, capsys):
    code, out, _ = run(
        capsys, "compute", "--family", "su", "--rank", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for key in (
        "family",
        "rank",
        "coeffs",
        "max_degree",
        "generators",
        "relations",
        "poincare",
        "ranks",
        "torsion",
        "checks",
        "schema_version",
    ):
        assert key in doc
    assert {"name": "a1", "degree": 1} in doc["generators"]
    assert doc["poincare"][:6] == [1, 2, 2, 2, 3, 4]
    assert doc["schema_version"] == cli.SCHEMA_VERSION == 2
    # a report carries only checks that can fail: none over Q, torsion over Z
    assert doc["checks"] == {}
    code, out, _ = run(
        capsys, "compute", "--family", "su", "--rank", "2", "--coeffs", "integer", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["checks"] == {"torsion_free_check": True}


def test_text_output_lists_checks_only_when_there_are_some(cache_dir, capsys):
    code, out, _ = run(capsys, "compute", "--family", "su", "--rank", "2")
    assert code == 0
    assert out.startswith("family=su rank=2 coeffs=rational max_degree=10\n")
    assert "checks" not in out
    code, out, _ = run(capsys, "compute", "--family", "su", "--rank", "2", "--coeffs", "integer")
    assert code == 0
    assert out.endswith("\nchecks:\n  torsion_free_check: pass\n")


def _count_calls(monkeypatch, module, name: str) -> list:
    """Replace every binding of ``module.name`` in the package with a counting spy."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name == "loopalg" or module_name.startswith("loopalg."):
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, spy)
    return calls


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_each_check_runs_once_per_request(cache_dir, capsys, monkeypatch, command):
    """The Lie axioms guard the enveloping presentation once; d^2 = 0 is not rechecked.

    The Jacobi identity is the pipeline presentation's certificate, made
    once and read again by ``compute``'s route from the memo.
    """
    axioms = _count_calls(monkeypatch, homotopy_lie, "graded_lie_axioms_check")
    square = _count_calls(monkeypatch, minimal_model, "derivation_square_check")
    certified = _count_calls(monkeypatch, normal_words, "_certify")
    code, _, _ = run(capsys, command, "--family", "su", "--rank", "3")
    assert code == 0
    assert (len(axioms), len(square)) == (1, 0)
    assert [p.domain for (p,) in certified] == ["rational"]


def test_no_request_multiplies_two_elements_of_the_model_algebra(cache_dir, capsys, monkeypatch):
    """The forms are expanded term by term and d^2 = 0 is read off the model's shape.

    Over every checked configuration, from an empty memo: the catalog entry,
    its pipeline, ``compute`` in both domains and ``verify``; then su10's
    ``compute`` in both domains.
    """
    from loopalg.gca import GcaElement

    calls = []
    original = GcaElement.__mul__

    def spy(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(GcaElement, "__mul__", spy)
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]
    for family, rank in configs:
        catalog_entry(family, rank).pipeline
        args = ("--family", family.slug, "--rank", str(rank))
        for argv in (("compute", *args), ("compute", *args, "--coeffs", "integer"), ("verify", *args)):
            assert run(capsys, *argv)[0] == 0, argv
    for coeffs in ("rational", "integer"):
        assert run(capsys, "compute", "--family", "su", "--rank", "10", "--coeffs", coeffs)[0] == 0
    assert calls == []


@pytest.mark.parametrize("command", ["compute", "verify", "series"])
def test_budget_refuses_degree_one_before_anything_is_built(cache_dir, capsys, command):
    # degree 1 needs su12's 12 generators, which the budget refuses at once,
    # for series as for compute, before the catalog entry or the model
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "su", "--rank", "12", "--budget", "5")
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == "error: degree 1 needs 12 basis symbols/rows, over the budget of 5\n"
    # degree 0 needs no generator, so no budget refuses it
    code, out, _ = run(
        capsys, command, "--family", "su", "--rank", "2", "--max-degree", "0", "--budget", "1"
    )
    assert code == 0 and out


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_budget_refuses_degree_two_before_anything_is_built(
    cache_dir, capsys, monkeypatch, command
):
    # degree 2 needs 10 * 10 + 1 symbols on both routes (b1 and y1 have
    # degree 2), refused before su10's catalog entry is built
    built = _count_calls(monkeypatch, cli.cat, "catalog_entry")
    cases = [(("--coeffs", "rational"), "50"), (("--coeffs", "integer"), "100")]
    if command == "verify":  # both, its default, refuses on the rational shape first
        cases += [((), "50")]
    for options, budget in cases:
        start = time.perf_counter()
        argv = ("--family", "su", "--rank", "10", *options, "--budget", budget)
        code, out, err = run(capsys, command, *argv)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err == f"error: degree 2 needs 101 basis symbols/rows, over the budget of {budget}\n"
    assert built == []


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_integer_requests_are_refused_by_their_route_before_the_catalog_build(
    cache_dir, capsys, monkeypatch, command
):
    # degrees 1 and 2 of su12's integral presentation fit 150, degree 3
    # does not, and the integral route refuses before the catalog entry
    built = _count_calls(monkeypatch, cli.cat, "catalog_entry")
    start = time.perf_counter()
    argv = ("--family", "su", "--rank", "12", "--coeffs", "integer", "--budget", "150")
    code, out, err = run(capsys, command, *argv)
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == "error: degree 3 needs 816 basis symbols/rows, over the budget of 150\n"
    assert built == []


def _rational_builds(monkeypatch) -> dict[str, list]:
    """Count the builds of the rational objects: the catalog's expected
    presentation, the pipeline and the invariant forms."""
    return {
        "expected": _count_calls(monkeypatch, cli.cat, "expected_rational_presentation"),
        "pipeline": _count_calls(monkeypatch, pipeline, "rational_pipeline"),
        "forms": _count_calls(monkeypatch, symmetric, "invariant_polynomials"),
    }


def test_verify_refuses_on_its_integral_shape_before_the_rational_build(
    cache_dir, capsys, monkeypatch
):
    # so-odd3's rational shape peaks at 85 symbols/rows through degree 10 and
    # its integral one at 121, so verify's default both fits the rational
    # refusal and is refused on the integral presentation before any build
    built = _rational_builds(monkeypatch)
    code, out, err = run(capsys, "verify", "--family", "so-odd", "--rank", "3", "--budget", "120")
    assert (code, out) == (3, "")
    assert err == "error: degree 10 needs 121 basis symbols/rows, over the budget of 120\n"
    assert built == {"expected": [], "pipeline": [], "forms": []}


INTEGER_GOLDEN = {
    "su3": ("--family", "su", "--rank", "3"),
    "g2": ("--family", "g2"),
    "e6": ("--family", "e6"),
}


@pytest.mark.parametrize("config", INTEGER_GOLDEN)
def test_integer_requests_build_nothing_rational(cache_dir, capsys, monkeypatch, config):
    """An integer compute reads its PBW series from the exponents and the
    catalog entry's integral presentation, whose rational parts stay
    unbuilt; verify builds one pipeline."""
    built = _rational_builds(monkeypatch)
    argv = (*INTEGER_GOLDEN[config], "--coeffs", "integer", "--format", "json")
    golden = (GOLDEN / f"compute-{config}-integer.json").read_text()
    assert run(capsys, "compute", *argv) == (0, golden, "")
    for entry in cache_dir.glob("*.json"):
        entry.unlink()  # so report --compute-missing computes
    assert run(capsys, "report", "--compute-missing", *argv) == (0, golden, "")
    assert built == {"expected": [], "pipeline": [], "forms": []}
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 0
    # its checks read the pipeline and the forms, but over Z no expected
    # rational presentation
    assert (built["expected"], len(built["pipeline"])) == ([], 1)
    assert built["forms"]


def _refusal(check, *args):
    try:
        check(*args)
    except BudgetExceededError as err:
        return err.degree, err.size, err.budget
    return None


def test_the_early_budget_check_refuses_as_the_route_would():
    """Every degree up to the default, counted from the degrees alone, against the engine.

    Each presentation a request answers (the pipeline's for a rational or
    both request, the integral one for an integer or both request) is
    refused where its engine would refuse it.  The budgets are each size
    the engine met, and one less, so every degree that can refuse first is
    reached.
    """
    refused = set()
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        n = default_max_degree(family)
        for rank in ranks:
            pipeline = rational_pipeline(catalog_entry(family, rank)).presentation
            integral = cli.cat.expected_integral_presentation(family, rank)
            for p, requests, given in (
                (pipeline, ("rational", "both"), ()),
                (integral, ("integer", "both"), (True,)),
            ):
                engine_report(p, n)
                sizes = {s for w in p.engine().work[1:] for s in (w.symbols, w.rows)}
                for budget in sorted({1} | sizes | {s - 1 for s in sizes if s > 1}):
                    want = _refusal(engine_report, p, n, budget)
                    for coeffs in requests:
                        cfg = cli.RunConfig(family, rank, coeffs, budget=budget)
                        got = _refusal(cli._refuse_over_budget, cfg, *given)
                        assert got == want, (family, rank, coeffs, budget)
                    refused.add(None if want is None else want[0])
    # each degree up to the deepest default is the first refused somewhere
    assert refused == {None, *range(1, 13)}


@pytest.mark.parametrize("command", ["compute", "report"])
def test_an_integer_request_is_refused_before_its_certificate(
    cache_dir, capsys, monkeypatch, command
):
    # su80's integral presentation passes degrees 1-2 of the default budget
    # and fails degree 3; certifying it first took about 27 s
    certified = _count_calls(monkeypatch, normal_words, "certificate")
    extra = ["--compute-missing"] if command == "report" else []
    start = time.perf_counter()
    code, out, err = run(
        capsys, command, "--family", "su", "--rank", "80", "--coeffs", "integer", *extra
    )
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == "error: degree 3 needs 252960 basis symbols/rows, over the budget of 200000\n"
    assert certified == []


@pytest.mark.parametrize("command", ["compute", "verify", "series"])
def test_a_rational_request_is_refused_in_any_degree_before_anything_is_built(
    cache_dir, capsys, monkeypatch, command
):
    # su12 passes degrees 1-9 of the default budget and fails degree 10,
    # refused from the exponents before the catalog entry is built
    built = _count_calls(monkeypatch, cli.cat, "catalog_entry")
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "su", "--rank", "12")
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == "error: degree 10 needs 244448 basis symbols/rows, over the budget of 200000\n"
    assert built == []


@pytest.mark.parametrize("command", ["compute", "verify", "series"])
def test_a_large_rank_is_refused_without_listing_its_relations(
    cache_dir, capsys, monkeypatch, command
):
    # su2000's pipeline has 8,000,000 relations and its integral presentation
    # as many; the refusal counts them per degree up to degree 2, builds
    # neither, and took 1.9 s and 318 MB when it listed every pair
    built = _count_calls(monkeypatch, cli.cat, "expected_integral_presentation")
    cli._shape.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "su", "--rank", "2000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: degree 2 needs 4000001 basis symbols/rows, over the budget of 200000\n"
    assert built == []


SU2000 = ("--family", "su", "--rank", "2000")


@pytest.mark.parametrize(
    "request_argv, refusal",
    [
        (("compute", *SU2000), "degree 2 needs 4000001"),
        (("report", "--compute-missing", *SU2000), "degree 2 needs 4000001"),
        (("verify", *SU2000), "degree 2 needs 4000001"),
        (("compute", "--family", "so-even", "--rank", "300"), "degree 3 needs 13455600"),
    ],
)
def test_a_large_rank_integer_request_is_refused_from_its_counts(
    cache_dir, capsys, monkeypatch, request_argv, refusal
):
    # su2000's integral presentation has 8,000,000 relations, and building
    # them before the refusal ran for over a minute; the refusal counts them
    # per degree from the family data and builds nothing
    built = _count_calls(monkeypatch, cli.cat, "expected_integral_presentation")
    start = time.perf_counter()
    code, out, err = run(capsys, *request_argv, "--coeffs", "integer")
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == f"error: {refusal} basis symbols/rows, over the budget of 200000\n"
    assert built == []


def _request_stream(seed: int) -> list[tuple[str, ...]]:
    """Every command on every checked configuration, shuffled by ``seed``.

    Each is asked in each domain (``verify`` also in both) under the
    default budget and under two small ones that refuse many of them.
    """
    stream = []
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            config = ("--family", family.slug, "--rank", str(rank), "--format", "json")
            for budget in ("200000", "100", "30"):
                stream.append(("series", *config, "--budget", budget))
                stream.append(("verify", *config, "--budget", budget))
                for coeffs in ("rational", "integer"):
                    for command in (("compute",), ("report", "--compute-missing"), ("verify",)):
                        stream.append((*command, *config, "--coeffs", coeffs, "--budget", budget))
    random.Random(seed).shuffle(stream)
    return stream


def test_a_request_answers_alike_whatever_the_process_answered_before(tmp_path, capsys):
    """One process answers a shuffled stream as fresh processes answer each request.

    The stream runs once with the memos kept between requests, and once
    with the memos and the catalog emptied before each request; each run
    has its own cache directory.  Exit codes, stdout and stderr agree
    request by request, among them small-budget refusals of configurations
    that the process already built under the default budget.
    """
    stream = _request_stream(seed=30)

    def answer(argv, cache):
        code = main([*argv, "--cache-dir", str(tmp_path / cache)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    kept = [answer(argv, "kept") for argv in stream]
    fresh = []
    for argv in stream:
        empty_request_memos()
        catalog_entry.cache_clear()
        fresh.append(answer(argv, "fresh"))
    for argv, got, want in zip(stream, kept, fresh):
        assert got == want, argv
    answered, refused_after_an_answer = set(), 0
    for argv, (code, _, _) in zip(stream, kept):
        config = argv[argv.index("--family") + 1], argv[argv.index("--rank") + 1]
        refused_after_an_answer += code == 3 and config in answered
        if code == 0:
            answered.add(config)
    assert refused_after_an_answer > 50
    assert {code for code, _, _ in kept} == {0, 3}


def test_verbose_names_what_the_memos_held(cache_dir, capsys):
    """Each object a request read is named a miss the first time and a hit after."""

    def memo_lines(*argv):
        code, _, err = run(capsys, *argv, "--family", "su", "--rank", "3", "--verbose")
        assert code == 0
        return [line for line in err.splitlines() if line.startswith("memo ")]

    assert memo_lines("compute", "--coeffs", "integer") == ["memo integral: miss"]
    assert memo_lines("compute", "--coeffs", "rational") == ["memo pipeline: miss"]
    assert memo_lines("verify") == ["memo pipeline: hit", "memo integral: hit"]
    # a cached report reads neither, and names neither
    assert memo_lines("report") == []
    empty_request_memos()
    assert memo_lines("verify", "--coeffs", "integer") == [
        "memo pipeline: miss",
        "memo integral: miss",
    ]


def test_the_process_keeps_a_bounded_number_of_configurations(cache_dir, capsys):
    """Configurations read again and again stay as few as the memo's bound.

    su1-su15 are computed, then again after each of four new ranks, so a
    memo that the rereads keep refreshing and one that they do not part
    ways; after the stream no more catalog entries are alive than the bound.
    """

    def compute(rank):
        argv = ("--family", "su", "--rank", str(rank), "--max-degree", "2")
        assert run(capsys, "compute", *argv)[0] == 0

    def live_entries():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, cli.cat.CatalogEntry)]

    before = live_entries()
    kept = range(1, 16)
    for rank in kept:
        compute(rank)
    for rank in range(16, 20):
        compute(rank)
        for kept_rank in kept:
            compute(kept_rank)
    alive = [e for e in live_entries() if not any(e is b for b in before)]
    assert len(alive) <= cli.cat.MEMO_CONFIGURATIONS


# the configurations of the ring-deep benchmark workload
RING_DEEP = [("su", "7", "10"), ("su", "6", "12"), ("e6", "6", "16")]


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
@pytest.mark.parametrize("family, rank, degree", RING_DEEP)
def test_a_compute_asked_again_renders_and_builds_nothing_its_configuration_holds(
    tmp_path, capsys, monkeypatch, family, rank, degree, coeffs
):
    """A second compute renders no relation, builds no automaton, counts no
    word and renders one JSON.

    The presentation keeps its rendered relations and its certificate the
    automaton of its leading words and its longest word counts; the JSON
    text a request renders is both its output and its cache entry.  The
    first answer, the second and a fresh process's agree byte for byte,
    output and cache entry alike.
    """
    argv = ["compute", "--family", family, "--rank", rank, "--max-degree", degree]
    argv += ["--coeffs", coeffs, "--format", "json"]
    spies = [
        _count_calls(monkeypatch, enveloping, "relation_string"),
        _count_calls(monkeypatch, normal_words, "_automaton"),
        _count_calls(monkeypatch, normal_words, "_count"),
        _count_calls(monkeypatch, cli, "render_json"),
    ]

    def answer(cache):
        for calls in spies:
            calls.clear()
        assert main([*argv, "--cache-dir", str(tmp_path / cache)]) == 0
        (entry,) = (tmp_path / cache).iterdir()
        return capsys.readouterr().out.encode(), entry.read_bytes(), [len(c) for c in spies]

    first_out, first_entry, first_calls = answer("first")
    second_out, second_entry, second_calls = answer("second")
    assert first_calls[0] > 0 and first_calls[1:] == [1, 1, 1]
    assert second_calls == [0, 0, 0, 1]
    fresh = subprocess.run(
        [sys.executable, "-m", "loopalg.cli", *argv, "--cache-dir", str(tmp_path / "fresh")],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(loopalg.__file__).parents[1])},
    )
    (fresh_entry,) = (tmp_path / "fresh").iterdir()
    assert first_out == second_out == fresh.stdout == first_entry
    assert first_entry == second_entry == fresh_entry.read_bytes()


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
def test_a_request_asked_again_recounts_no_size(cache_dir, capsys, monkeypatch, coeffs):
    """The refusal reads its sizes from the memoized shape, counted on the first request."""
    counted = _count_calls(monkeypatch, cli, "degree_size")
    argv = ("compute", "--family", "su", "--rank", "3", "--coeffs", coeffs)
    assert run(capsys, *argv)[0] == 0
    assert len(counted) == default_max_degree(LieFamily.SU)
    counted.clear()
    assert run(capsys, *argv)[0] == 0
    assert counted == []


@pytest.mark.parametrize(
    "request_argv",
    [("compute",), ("compute", "--coeffs", "integer"), ("verify",), ("series",)],
)
def test_a_rank_over_the_budget_is_refused_at_once_in_degree_one(
    cache_dir, capsys, request_argv
):
    # su20000000's PBW series folds in 20,000,000 odd factors, and counting
    # it before the refusal did not end within 40 s; degree 1 holds just the
    # rank's generators, so it is refused first
    start = time.perf_counter()
    code, out, err = run(capsys, *request_argv, "--family", "su", "--rank", "20000000")
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == "error: degree 1 needs 20000000 basis symbols/rows, over the budget of 200000\n"


@pytest.mark.parametrize("compute_missing", [(), ("--compute-missing",)])
def test_report_refuses_a_rank_over_the_budget_before_it_reads_the_cache(
    cache_dir, capsys, monkeypatch, compute_missing
):
    # reading a cached entry checks it against the PBW series, which for
    # su20000000 folds in 20,000,000 odd factors (su2000000 took 17 s and
    # 232 MB); degree 1 is refused first, as every other subcommand does,
    # so a well-formed entry planted for the configuration is never read
    cfg = cli.RunConfig(LieFamily.SU, 20_000_000)
    body = {"generators": [], "relations": [], "poincare": [1], "ranks": [], "torsion": []}
    cache_dir.mkdir()
    entry = cache_dir / f"{cfg.cache_key()}.json"
    entry.write_text(cli.render_json({**cfg.identity(), **body, "checks": {}}))
    monkeypatch.setattr(cli, "cache_load", lambda cfg: pytest.fail("the cache was read"))
    start = time.perf_counter()
    code, out, err = run(capsys, "report", *compute_missing, "--family", "su", "--rank", "20000000")
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == "error: degree 1 needs 20000000 basis symbols/rows, over the budget of 200000\n"
    assert entry.exists()


def test_the_pbw_memo_does_not_grow_with_the_rank(cache_dir, capsys):
    # an entry held one degree per generator, 4.6 MB for an su100000 rank
    # refused in degree 2; it keeps counts per degree up to the entry's degree
    cli._shape.cache_clear()
    argv = ("compute", "--family", "su", "--max-degree", "2", "--rank")
    assert run(capsys, *argv, "999")[0] == 3
    held = {}
    tracemalloc.start()
    try:
        for rank in (1_000, 20_000, 40_000):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            assert run(capsys, *argv, str(rank))[0] == 3
            gc.collect()
            held[rank] = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cli._shape.cache_info().currsize == 4
    assert max(held.values()) < 20_000, held
    assert held[40_000] - held[1_000] < 2_000, held


def test_a_rational_compute_builds_only_the_degree_four_form(cache_dir, capsys, monkeypatch):
    """su10's forms run to degree 22; the model and brackets read the degree-4 one alone."""
    forms = _count_calls(monkeypatch, symmetric, "invariant_polynomials")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "compute", "--family", "su", "--rank", "10", "--coeffs", "rational", "--format", "json"
    )
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert [args[:3] for args in forms] == [(LieFamily.SU, 10, 1)]
    assert json.loads(out)["poincare"] == list(splitting_series(LieFamily.SU, 10, 10))


def test_the_cache_key_reads_only_the_identity_and_the_version(monkeypatch):
    """Configurations that name one report share one key, so no other option selects an entry."""
    base = cli.RunConfig(LieFamily.SU, 3)
    key = base.cache_key()
    outside = {
        "max_degree": base.degree,
        "fmt": "json",
        "out": "report.json",
        "budget": 7,
        "cache_dir": "elsewhere",
        "verbose": True,
    }
    assert {*outside, "family", "rank", "coeffs"} == {f.name for f in fields(cli.RunConfig)}
    same = replace(base, **outside)
    assert same.identity() == base.identity() and same.cache_key() == key
    for change in ({"family": LieFamily.SP}, {"rank": 4}, {"coeffs": "integer"}, {"max_degree": 9}):
        other = replace(base, **change)
        assert other.identity() != base.identity() and other.cache_key() != key, change
    monkeypatch.setattr(cli, "__version__", f"{loopalg.__version__}+other")
    assert base.cache_key() != key


def test_compute_is_byte_identical(cache_dir, capsys):
    config = ("--family", "sp", "--rank", "2", "--format", "json")
    for command in (
        ("compute", "--coeffs", "rational"),
        ("compute", "--coeffs", "integer"),
        ("verify",),
        ("series",),
        ("report", "--compute-missing"),
    ):
        for entry in cache_dir.glob("*.json"):
            entry.unlink()  # so report --compute-missing computes once, then hits
        first = run(capsys, *command, *config)
        second = run(capsys, *command, *config)
        assert first[0] == 0 and first == second, command


def test_verbose_names_each_degree_of_the_engine_after_the_timings(
    cache_dir, capsys, monkeypatch
):
    raised = []
    add_row = linalg.FractionRREF.add_row

    def spy(self, row):
        raised.append(add_row(self, row))
        return raised[-1]

    monkeypatch.setattr(linalg.FractionRREF, "add_row", spy)
    # su3 certifies, so force the engine route whose lines this test reads
    force_the_engine(monkeypatch)
    args = ("compute", "--family", "su", "--rank", "2", "--format", "json")
    code, out, err = run(capsys, *args, "--verbose")
    assert code == 0
    lines = err.splitlines()
    timings = [line for line in lines if line.startswith("timing ")]
    assert timings and lines[: len(timings)] == timings
    # the memo's outcome comes first, then the route, then its engine lines
    assert lines[len(timings) : len(timings) + 2] == [
        "memo pipeline: miss",
        "route rational: engine (forced)",
    ]
    pattern = re.compile(r"engine rational degree (\d+): symbols (\d+) rows (\d+) rank (\d+)")
    work = [pattern.fullmatch(line) for line in lines[len(timings) + 2 :]]
    assert all(work)
    assert [int(m[1]) for m in work] == list(range(1, default_max_degree(LieFamily.SU) + 1))
    # every row of every degree went through the eliminator, and the ranks add up
    assert sum(int(m[3]) for m in work) == len(raised)
    assert sum(int(m[4]) for m in work) == sum(raised)
    # the report itself does not change
    assert run(capsys, *args) == (0, out, "")


def test_report_requires_cache_or_permission(cache_dir, capsys):
    code, _, err = run(capsys, "report", "--family", "su", "--rank", "2")
    assert code == 2 and "cached" in err
    code, _, _ = run(
        capsys, "report", "--family", "su", "--rank", "2", "--compute-missing"
    )
    assert code == 0
    # now cached: plain report succeeds and matches compute output bytes
    code, report_out, _ = run(
        capsys, "report", "--family", "su", "--rank", "2", "--format", "json"
    )
    assert code == 0
    _, compute_out, _ = run(
        capsys, "compute", "--family", "su", "--rank", "2", "--format", "json"
    )
    assert report_out == compute_out


def test_series_subcommand_g2_default_degree(cache_dir, capsys):
    code, out, _ = run(capsys, "series", "--family", "g2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_degree"] == 12
    assert doc["pbw"] == doc["splitting"]
    assert doc["pbw"][10:] == [3, 4, 4]


def test_verify_passes_for_su3(cache_dir, capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "su", "--rank", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(v is True for v in doc["checks"].values())
    assert doc["failures"] == {}


def test_verify_skips_the_quotient_checks_over_the_budget(cache_dir, capsys):
    # so-even6's commutative quotient is over the default budget at degree 48,
    # long before its socle; every other check still runs and passes
    code, out, err = run(capsys, "verify", "--family", "so-even", "--rank", "6", "--format", "json")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    quotient = {"regular_sequence_check", "cohomology_weyl_order"}
    assert {name: checks[name] for name in quotient} == dict.fromkeys(quotient, "skipped")
    assert all(value is True for name, value in checks.items() if name not in quotient)


def test_verify_proves_su5s_quotient_from_the_pruned_certificate(cache_dir, capsys):
    # su5's certificate ranked 9,037 rows before the criterion left out the
    # Koszul rows
    args = ("verify", "--family", "su", "--rank", "5", "--format", "json")
    code, out, err = run(capsys, *args, "--verbose")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert (checks["regular_sequence_check"], checks["cohomology_weyl_order"]) == (True, True)
    lines = err.splitlines()
    assert re.fullmatch(r"timing quotient: \d+\.\d{3}s", lines[1])
    start = lines.index("route quotient: top-degree certificate")
    assert lines[start + 1] == (
        "quotient degree 32 over F_p: monomials 4845 rows 5956 skipped 3081 rank 4845"
    )
    assert lines[start + 2] == "route rational: engine (verify eliminates)"


def test_verbose_names_the_quotient_route_and_leaves_the_report_alone(cache_dir, capsys):
    args = ("verify", "--family", "su", "--rank", "3", "--format", "json")
    code, out, err = run(capsys, *args, "--verbose")
    assert code == 0
    assert "route quotient: top-degree certificate" in err.splitlines()
    assert "quotient degree 14 over F_p: monomials 36 rows 37 skipped 6 rank 36" in err
    assert run(capsys, *args) == (0, out, "")
    # over the budget the quotient is not ranked, and its route says so
    code, _, err = run(capsys, "verify", "--family", "e6", "--rank", "6", "--verbose")
    assert code == 0
    assert "route quotient: skipped (over the budget)" in err.splitlines()
    assert "quotient degree" not in err and "timing quotient" not in err


def test_verify_fails_a_planted_torsion_with_the_named_check(cache_dir, capsys, monkeypatch):
    original = cli.cat.expected_integral_presentation
    monkeypatch.setattr(
        cli.cat, "expected_integral_presentation", lambda *args: with_torsion(original(*args))
    )
    code, out, _ = run(capsys, "verify", "--family", "su", "--rank", "2", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["torsion_free_check"] is False
    assert "torsion_free_check" in doc["failures"]


def _bumped(series, *_):
    """``series`` with its degree-3 coefficient one higher."""
    coefficients = list(series)
    coefficients[3] += 1
    return PoincareSeries(tuple(coefficients))


def _dropped(index: int):
    """A change that drops relation ``index`` from a presentation."""

    def drop(p, *_):
        kept = list(p.relations)
        del kept[index]
        return RingPresentation(p.algebra, kept, domain=p.domain)

    return drop


def _not_regular(form, family, rank, k, algebra):
    """su3's degree-6 form replaced by the degree-4 one times u1, so P1 divides it."""
    return form if k != 2 else invariant_polynomials(family, rank, 1, algebra) * algebra.gen("u1")


SU3_PBW = "[1, 3, 4, 4, 5, 7, 9, 11, 13, 15, 17]"
SU3_PBW_BUMPED = "[1, 3, 4, 5, 5, 7, 9, 11, 13, 15, 17]"
# with b2.b3 - b3.b2 (or y2.y3 - y3.y2) dropped, degree 10 holds both orders of the pair
SU3_ABOVE = "[1, 3, 4, 4, 5, 7, 9, 11, 13, 15, 18]"

# one fault per verify cross-check, planted in a builder or a name cli reads:
# (module, name, change of its result, the failures verify reports for su3)
PLANTED_FAULTS = {
    "brackets": (
        cli.cat,
        "_expected_brackets",
        lambda table, *_: {k: {b: 2 * c for b, c in v.items()} for k, v in table.items()},
        {"brackets_match_expected": "computed bracket table differs from the catalog table"},
    ),
    "weyl order": (
        cli.cat,
        "weyl_order",
        lambda order, *_: order + 1,
        {"cohomology_weyl_order": "quotient total 24 != weyl order 25"},
    ),
    "regular sequence": (
        cli.cat,
        "invariant_polynomials",
        _not_regular,
        {
            "regular_sequence_check": "mismatch",
            "cohomology_weyl_order": "quotient total 40 != weyl order 24",
        },
    ),
    "expected rational": (
        cli.cat,
        "expected_rational_presentation",
        _dropped(-1),
        {"uea_matches_expected_rational": f"pipeline {SU3_PBW} vs expected {SU3_ABOVE}"},
    ),
    "splitting": (
        cli.cat,
        "splitting_series",
        _bumped,
        {"pbw_matches_splitting": f"pbw {SU3_PBW} vs splitting {SU3_PBW_BUMPED}"},
    ),
    "pbw": (
        cli,
        "pbw_series",
        _bumped,
        {
            "pbw_matches_uea": f"pbw {SU3_PBW_BUMPED} vs linear algebra {SU3_PBW}",
            "pbw_matches_splitting": f"pbw {SU3_PBW_BUMPED} vs splitting {SU3_PBW}",
            "smith_ranks_match_rational": f"ranks {SU3_PBW} vs rational {SU3_PBW_BUMPED}",
        },
    ),
    "centrality": (
        cli.cat,
        "expected_integral_presentation",
        _dropped(-1),  # 1*y2.y3 - 1*y3.y2
        {"smith_ranks_match_rational": f"ranks {SU3_ABOVE} vs rational {SU3_PBW}"},
    ),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_each_verify_cross_check_fails_on_its_own(cache_dir, capsys, monkeypatch, fault):
    """A fault in one builder fails exactly the checks that read it, each with its detail."""
    module, name, change, want = PLANTED_FAULTS[fault]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args), *args))
    code, out, err = run(capsys, "verify", "--family", "su", "--rank", "3", "--format", "json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["failures"] == want
    assert {check for check, ok in doc["checks"].items() if ok is not True} == set(want)


def test_usage_errors(cache_dir, capsys):
    code, _, _ = run(capsys, "verify", "--family", "nope", "--rank", "2")
    assert code == 2
    code, _, err = run(capsys, "compute", "--family", "so-even", "--rank", "2")
    assert code == 2 and "n > 2" in err
    code, _, _ = run(capsys, "compute", "--family", "su")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--family", "su", "--rank", "2", "--budget", "-1")
    assert code == 2
    # refused before any series table is allocated
    code, _, err = run(
        capsys, "compute", "--family", "su", "--rank", "1", "--max-degree", "10000000000000"
    )
    assert code == 2 and "--max-degree" in err
    # series compares the rational PBW and splitting series: it takes no --coeffs
    code, out, err = run(capsys, "series", "--family", "su", "--rank", "3", "--coeffs", "integer")
    assert (code, out) == (2, "") and "--coeffs" in err
    # nor --verbose, since it has no stage timings or routes to print
    code, out, err = run(capsys, "series", "--family", "su", "--rank", "3", "--verbose")
    assert (code, out) == (2, "") and "--verbose" in err
    code, out, _ = run(capsys, "series", "--family", "su", "--rank", "3", "--cache-dir", ".")
    assert code == 0 and out


def test_budget_exceeded_exit_code(cache_dir, capsys):
    code, _, err = run(
        capsys, "compute", "--family", "su", "--rank", "2", "--budget", "3"
    )
    assert code == 3
    assert "degree" in err


def test_verify_bounds_the_commutative_quotient_by_the_budget(cache_dir, capsys):
    # su3's quotient fits in 20 rows a degree; the enveloping algebra does not,
    # and its refusal names degree 7's 24 rows, counted before any is built
    code, out, err = run(capsys, "verify", "--family", "su", "--rank", "2", "--budget", "20")
    assert (code, out) == (3, "")
    assert err == "error: degree 7 needs 24 basis symbols/rows, over the budget of 20\n"


def test_integer_compute_reports_ranks_and_torsion(cache_dir, capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--family",
        "g2",
        "--coeffs",
        "integer",
        "--max-degree",
        "8",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ranks"] == doc["poincare"]
    assert all(t == [] for t in doc["torsion"])
    assert doc["checks"]["torsion_free_check"] is True


def test_f4_anticommute_flag_limited(cache_dir, capsys):
    """f4 has one integral presentation, so `--f4-anticommute` is a usage error for every family."""
    for config in (("--family", "su", "--rank", "2"), ("--family", "f4")):
        code, out, err = run(capsys, "compute", *config, "--f4-anticommute")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --f4-anticommute" in err


def test_out_file(cache_dir, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "compute",
        "--family",
        "su",
        "--rank",
        "2",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["family"] == "su"


def test_corrupt_cache_entry_is_recomputed(cache_dir, capsys):
    _, fresh, _ = run(capsys, "compute", "--family", "su", "--rank", "2", "--format", "json")
    (entry,) = cache_dir.glob("*.json")
    # another configuration's valid report, stored under this one's key
    run(capsys, "compute", "--family", "su", "--rank", "3", "--format", "json")
    (other,) = (p for p in cache_dir.glob("*.json") if p != entry)
    other_report = other.read_text()
    other.unlink()
    for damaged in (fresh[: len(fresh) // 2], "[1, 2]\n", other_report):
        entry.write_text(damaged)
        code, _, err = run(capsys, "report", "--family", "su", "--rank", "2")
        assert code == 2 and "ignoring cache entry" in err
        code, out, err = run(
            capsys, "report", "--family", "su", "--rank", "2", "--compute-missing", "--format", "json"
        )
        assert code == 0 and "ignoring cache entry" in err
        assert out == fresh and entry.read_text() == fresh
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_cache_entry_nested_too_deep_to_parse_is_a_miss(cache_dir, capsys):
    """The JSON parser gives up on deep nesting with RecursionError, not ValueError."""
    args = ("--family", "su", "--rank", "2", "--format", "json")
    _, fresh, _ = run(capsys, "compute", *args)
    (entry,) = cache_dir.glob("*.json")
    entry.write_text("[" * 200000)
    code, out, err = run(capsys, "report", *args)
    assert (code, out) == (2, "")
    assert "ignoring cache entry" in err and "Traceback" not in err
    code, out, err = run(capsys, "report", *args, "--compute-missing")
    assert (code, out) == (0, fresh) and "ignoring cache entry" in err
    assert entry.read_text() == fresh


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cache_entry_with_a_malformed_body_is_a_miss(cache_dir, capsys, fmt):
    """The identity fields match, but a body field is missing, extra or of the wrong type."""
    args = ("--family", "su", "--rank", "2", "--format", fmt)
    _, fresh, _ = run(capsys, "compute", *args)
    (entry,) = cache_dir.glob("*.json")
    stored = entry.read_text()
    doc = json.loads(stored)
    damaged = [
        {**doc, "relations": 5},
        {**doc, "relations": [5]},
        {**doc, "poincare": ["1", "2"]},
        {**doc, "ranks": {}},
        {**doc, "torsion": [1]},
        {**doc, "generators": [{"name": "x1"}]},
        {**doc, "checks": {"torsion_free_check": "pass"}},
        {**doc, "rank": 2.0},
        {key: value for key, value in doc.items() if key != "ranks"},
        {**doc, "failures": {}},
    ]
    for body in damaged:
        entry.write_text(json.dumps(body))
        code, out, err = run(capsys, "report", *args)
        assert (code, out) == (2, ""), body
        assert "ignoring cache entry" in err and "Traceback" not in err
        code, out, err = run(capsys, "report", *args, "--compute-missing")
        assert (code, out) == (0, fresh), body
        assert "ignoring cache entry" in err and "Traceback" not in err
        assert entry.read_text() == stored


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
def test_a_cache_entry_with_a_wrong_number_is_a_miss(cache_dir, capsys, coeffs):
    """A well-typed entry is served only when its numbers pass the PBW cross-check."""
    args = ("--family", "su", "--rank", "3", "--coeffs", coeffs, "--format", "json")
    _, fresh, _ = run(capsys, "compute", *args)
    (entry,) = cache_dir.glob("*.json")
    stored = entry.read_text()
    doc = json.loads(stored)
    poincare = list(doc["poincare"])
    poincare[3] += 1
    torsion = [list(t) for t in doc["torsion"]] or [[]]
    torsion[-1].append(2)
    # an integer report's ranks equal the PBW series; a rational one has none
    ranks = list(doc["ranks"]) or list(doc["poincare"])
    ranks[3] += coeffs == "integer"
    damaged = [
        ({**doc, "poincare": poincare}, "poincare differs from the PBW series"),
        ({**doc, "ranks": ranks}, "ranks differ from the PBW series"),
        ({**doc, "torsion": torsion}, "torsion in a torsion-free ring"),
    ]
    for body, problem in damaged:
        entry.write_text(json.dumps(body))
        code, out, err = run(capsys, "report", *args)
        assert (code, out) == (2, ""), body
        assert err.startswith(f"warning: ignoring cache entry {entry}: {problem}\n")
        code, out, err = run(capsys, "report", *args, "--compute-missing")
        assert (code, out) == (0, fresh), body
        assert err == f"warning: ignoring cache entry {entry}: {problem}\n"
        assert entry.read_text() == stored
    assert run(capsys, "report", *args) == (0, fresh, "")


def test_entry_of_another_package_version_is_a_miss(cache_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    _, fresh, _ = run(capsys, "compute", "--family", "su", "--rank", "2", "--format", "json")
    (stale,) = cache_dir.glob("*.json")
    monkeypatch.setattr(cli, "__version__", loopalg.__version__)
    code, _, err = run(capsys, "report", "--family", "su", "--rank", "2")
    assert code == 2 and "cached" in err
    code, out, _ = run(
        capsys, "report", "--family", "su", "--rank", "2", "--compute-missing", "--format", "json"
    )
    assert code == 0 and out == fresh
    (entry,) = (p for p in cache_dir.glob("*.json") if p != stale)
    assert entry.read_text() == stale.read_text() == fresh


def test_unusable_cache_dir_is_a_config_error(cache_dir, tmp_path, capsys):
    blocker = tmp_path / "regular-file"
    blocker.write_text("")
    code, out, err = run(
        capsys, "compute", "--family", "su", "--rank", "1", "--cache-dir", str(blocker / "c")
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_out_is_a_config_error(cache_dir, tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "compute", "--family", "su", "--rank", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and not target.exists()


def test_failed_out_leaves_no_cache_entry(cache_dir, tmp_path, capsys):
    code, out, err = run(
        capsys, "compute", "--family", "su", "--rank", "2", "--out", str(tmp_path)
    )
    assert code == 2 and out == "" and err.startswith("error: ")
    assert list(cache_dir.glob("*.json")) == []
    code, _, err = run(capsys, "report", "--family", "su", "--rank", "2")
    assert code == 2 and "cached" in err


VERIFY_ONLY_CHECKS = {
    "brackets_match_expected",
    "regular_sequence_check",
    "cohomology_weyl_order",
    "uea_matches_expected_rational",
    "pbw_matches_uea",
    "pbw_matches_splitting",
    "smith_ranks_match_rational",
}


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
@pytest.mark.parametrize("config", [("--family", "su", "--rank", "3"), ("--family", "g2")])
def test_verify_is_compute_plus_checks(cache_dir, capsys, config, coeffs):
    args = (*config, "--coeffs", coeffs, "--format", "json")
    code, out, _ = run(capsys, "verify", *args)
    assert code == 0
    verified = json.loads(out)
    del verified["failures"]
    verified["checks"] = {
        k: v for k, v in verified["checks"].items() if k not in VERIFY_ONLY_CHECKS
    }
    code, out, _ = run(capsys, "compute", *args)
    assert code == 0 and verified == json.loads(out)


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REPORTS = {
    "compute-su3-rational": "compute --family su --rank 3 --coeffs rational",
    "compute-su3-integer": "compute --family su --rank 3 --coeffs integer",
    "compute-sp2-rational": "compute --family sp --rank 2 --coeffs rational",
    "compute-sp2-integer": "compute --family sp --rank 2 --coeffs integer",
    "compute-g2-rational": "compute --family g2 --coeffs rational",
    "compute-g2-integer": "compute --family g2 --coeffs integer",
    "compute-so-odd3-rational": "compute --family so-odd --rank 3 --coeffs rational",
    "compute-so-odd3-integer": "compute --family so-odd --rank 3 --coeffs integer",
    "compute-so-even4-rational": "compute --family so-even --rank 4 --coeffs rational",
    "compute-so-even4-integer": "compute --family so-even --rank 4 --coeffs integer",
    "compute-f4-rational": "compute --family f4 --coeffs rational",
    "compute-f4-integer": "compute --family f4 --coeffs integer",
    "compute-f4-integer-anticommute": "compute --family f4 --coeffs integer",
    "compute-e6-rational": "compute --family e6 --coeffs rational",
    "compute-e6-integer": "compute --family e6 --coeffs integer",
    "compute-su10-rational": "compute --family su --rank 10 --coeffs rational",
    "compute-su10-integer": "compute --family su --rank 10 --coeffs integer",
    "verify-su3": "verify --family su --rank 3",
    "verify-f4": "verify --family f4",
    "verify-e6": "verify --family e6",
}
# The anticommuting sign is f4's only integral presentation, so the case that
# pinned it reads the default report's fixture.
GOLDEN_FIXTURE = {"compute-f4-integer-anticommute": "compute-f4-integer"}


def test_every_golden_fixture_is_read_by_a_test():
    """No fixture outlives the report it pinned."""
    read = {*(GOLDEN_FIXTURE.get(n, n) for n in GOLDEN_REPORTS), "invariant-forms", "normal-forms"}
    read.add("integral-relations-bd")  # test_catalog.py
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(f"{name}.json" for name in read)


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_report_matches_golden_bytes(cache_dir, capsys, name):
    """Reports stay byte-for-byte what the stored fixtures recorded."""
    code, out, err = run(capsys, *GOLDEN_REPORTS[name].split(), "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{GOLDEN_FIXTURE.get(name, name)}.json").read_text()
