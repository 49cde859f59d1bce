"""Command line front end: compute, verify, series and report.

Reports serialize deterministically (sorted keys, fixed layout), so a given
configuration always produces byte-identical output.  Completed compute
results are cached on disk keyed by a content hash of the configuration and
the package version; an entry without the fields and types a compute report
writes, or with numbers off the PBW series, is a miss, recomputed by
``report --compute-missing``.

A request is one pass (:func:`build_report`): it is refused over the
budget, then each requested domain is answered once, rational first.
``compute`` and ``report`` answer from certified normal words
(:mod:`loopalg.normal_words`) and eliminate only where the certificate
fails; ``verify`` eliminates in both domains, its independent route, on the
engine each presentation keeps (:func:`loopalg.enveloping.engine_report`),
and runs each domain's cross-checks right after its answer.  Reports carry
only checks that can fail: ``torsion_free_check`` over Z and ``verify``'s
cross-checks (the Lie axioms guard ``uea_presentation``).

One process keeps each configuration in one memo, ``catalog.catalog_entry``, of
at most ``catalog.MEMO_CONFIGURATIONS`` (16) entries, the least recently read
dropped first.  An entry builds its pipeline and integral presentation on the
first request that reads them; later requests reuse them with their
certificates and engines, and ``--verbose`` names each read a hit or a miss.
A presentation also keeps its rendered relations and a certificate its
normal-word automaton, so a request answered again renders no relation and
builds no automaton.  A ``compute`` request renders its JSON once: that text
is what a ``--format json`` request writes and what the cache stores.

Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 budget
exceeded.  A request is refused before any build, in every degree where the
engine would refuse a presentation it answers (:func:`_refuse_over_budget`),
on sizes counted from the family data and kept with the PBW series in one
memo, :func:`_shape`, so a request asked again counts nothing: an integer
request never builds an integral presentation over the budget, and a rank
over the budget is refused at once, in degree 1, by ``report`` too before
it reads the cache: a cached entry whose rank is over ``--budget`` is not
served.
``--budget`` also bounds ``verify``'s commutative quotient: over it, both
quotient checks are ``"skipped"``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import __version__, catalog as cat, normal_words
from .enveloping import (
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    RingPresentation,
    check_budget,
    degree_size,
    engine_report,
    graded_dimensions,
    pbw_series,
    pbw_series_of_degrees,
)
from .families import FIXED_RANK, LieFamily, validate_rank
from .minimal_model import is_regular, quotient_dimensions
from .pipeline import presentation_degrees

SCHEMA_VERSION = 2

# the largest --max-degree served: a request allocates its series tables up
# front, and su1 and su2 never reach the per-degree budget, so without this
# bound an absurd degree would exhaust memory instead of exiting 2
MAX_DEGREE = 1000


@dataclass
class RunConfig:
    family: LieFamily
    rank: int
    coeffs: str = "rational"  # rational | integer | both (verify only)
    max_degree: int | None = None
    fmt: str = "text"
    out: str | None = None
    budget: int = DEFAULT_WORD_BUDGET
    cache_dir: str | None = None
    verbose: bool = False

    @property
    def degree(self) -> int:
        if self.max_degree is not None:
            return self.max_degree
        return cat.default_max_degree(self.family)

    def identity(self) -> dict:
        """The fields that name a report: they lead the report and key its cache entry."""
        return {
            "family": self.family.slug,
            "rank": self.rank,
            "coeffs": self.coeffs,
            "max_degree": self.degree,
            "schema_version": SCHEMA_VERSION,
        }

    def cache_key(self) -> str:
        payload = {**self.identity(), "version": __version__}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]


class UsageError(Exception):
    pass


@functools.lru_cache(maxsize=256)  # every cache hit is cross-checked against the series
def _shape(family: LieFamily, rank: int, degree: int, integral: bool) -> tuple:
    """The PBW series up to ``degree``, and the engine's symbols and rows in
    each degree 1 .. ``degree`` of the presentation answered, before any build.

    That is the pipeline's or, with ``integral``, the catalog's integral
    one; neither is built, their degrees are counted from the family data,
    so an entry's size does not grow with the rank.  Both rings are torsion
    free with the PBW series as ranks, so :func:`degree_size` on those
    degrees and ranks gives the engine's sizes.
    """
    gens, rels = presentation_degrees(rank, cat.exponents(family, rank), degree)
    pbw = tuple(pbw_series_of_degrees(gens, degree))
    if integral:
        gens, rels = cat.integral_presentation_degrees(family, rank, degree)
    counts, no_torsion = Counter(gens), [0] * (degree + 1)
    sizes = tuple(degree_size(d, counts, rels, pbw, no_torsion) for d in range(1, degree + 1))
    return pbw, sizes


def _refuse_rank_over_budget(cfg: RunConfig) -> None:
    """Refuse in degree 1, which holds the ``rank`` generators of degree 1 and no relation."""
    if cfg.degree >= 1:
        check_budget(1, cfg.budget, cfg.rank)


def _refuse_over_budget(cfg: RunConfig, integral: bool = False) -> None:
    """Refuse, in every degree, where the engine would on the presentation answered.

    Degree 1 is checked first, by :func:`_refuse_rank_over_budget`, so a
    rank over the budget is refused before its shape is counted; the other
    degrees read their sizes from :func:`_shape`.
    """
    _refuse_rank_over_budget(cfg)
    for d, sizes in enumerate(_shape(cfg.family, cfg.rank, cfg.degree, integral)[1], 1):
        check_budget(d, cfg.budget, *sizes)


def _recall(name: str, entry: cat.CatalogEntry, recalled: dict[str, str]):
    """``entry``'s object ``name``; ``recalled[name]`` says whether the entry held it."""
    recalled[name] = "hit" if name in vars(entry) else "miss"
    return getattr(entry, name)


def build_report(cfg: RunConfig, verify: bool = False) -> dict:
    """The compute report; ``verify`` adds the cross-checks and their ``failures``.

    One pass: each presentation answered is refused over the budget, then
    the catalog entry is read, then each requested domain is answered once,
    the rational one first, each followed by the ``verify`` checks that read
    its answer.  ``compute`` answers from certified normal words, ``verify``
    by elimination, its independent route.  ``poincare`` holds the rational
    dimensions when they were computed and the PBW series otherwise: an
    integer compute reads that series from the memoized shape and builds
    nothing rational, while ``verify`` reads the pipeline in every domain,
    because its checks read it.
    """
    n = cfg.degree
    rational, integral = cfg.coeffs != "integer", cfg.coeffs != "rational"
    checks: dict[str, object] = {}
    failures: dict[str, str] = {}
    timings: dict[str, float] = {}

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks[name] = bool(ok)
        if not ok:
            failures[name] = detail or "mismatch"

    def timed(stage: str, run, *args):
        t0 = time.perf_counter()
        result = run(*args)
        timings[stage] = time.perf_counter() - t0
        return result

    if rational:
        _refuse_over_budget(cfg)
    if integral:
        _refuse_over_budget(cfg, integral=True)
    entry = cat.catalog_entry(cfg.family, cfg.rank)
    recalled: dict[str, str] = {}
    answer = engine_report if verify else normal_words.report
    if rational or verify:
        pipe = timed("pipeline", _recall, "pipeline", entry, recalled)
    if verify:
        pbw = list(pbw_series(pipe.lie_algebra, n))
        got = {k: dict(v) for k, v in pipe.lie_algebra.brackets.items()}
        want = {k: dict(v) for k, v in entry.expected_brackets.items()}
        differs = "computed bracket table differs from the catalog table"
        record("brackets_match_expected", got == want, differs)
        socle = entry.cohomology.socle_degree()
        try:
            dims = timed("quotient", quotient_dimensions, entry.cohomology, socle + 2, cfg.budget)
        except BudgetExceededError:
            # refused before any elimination: the quotient is over the budget
            checks["regular_sequence_check"] = checks["cohomology_weyl_order"] = "skipped"
        else:
            record("regular_sequence_check", is_regular(entry.cohomology, dims))
            total, order = sum(dims.prefix(socle)), entry.weyl_order
            detail = f"quotient total {total} != weyl order {order}"
            record("cohomology_weyl_order", total == order, detail)
    else:  # the series the refusal counted, which needs no build
        pbw = list(_shape(cfg.family, cfg.rank, n, integral)[0])

    engines: list[tuple[str, RingPresentation]] = []
    poincare, ranks, torsion = pbw, [], []
    if rational:
        engines.append(("rational", pipe.presentation))
        poincare = list(timed("graded_dimension", answer, pipe.presentation, n, cfg.budget).ranks())
        if verify:
            # the catalog's expected presentation, independent of the pipeline's
            expected = list(graded_dimensions(entry.expected_rational, n, cfg.budget))
            split = list(cat.splitting_series(cfg.family, cfg.rank, n))
            detail = f"pipeline {poincare} vs expected {expected}"
            record("uea_matches_expected_rational", poincare == expected, detail)
            record("pbw_matches_uea", pbw == poincare, f"pbw {pbw} vs linear algebra {poincare}")
            record("pbw_matches_splitting", pbw == split, f"pbw {pbw} vs splitting {split}")
    if integral:
        shown = _recall("integral", entry, recalled)
        engines.append(("integer", shown))
        report = timed("graded_smith", answer, shown, n, cfg.budget)
        ranks = list(report.ranks())
        torsion = [list(t) for t in report.torsion_lists()]
        record("torsion_free_check", report.torsion_free(), f"torsion {torsion}")
        if verify:
            record("smith_ranks_match_rational", ranks == pbw, f"ranks {ranks} vs rational {pbw}")
    else:
        shown = entry.expected_rational

    if cfg.verbose:
        for stage, seconds in timings.items():
            print(f"timing {stage}: {seconds:.3f}s", file=sys.stderr)
        for name, outcome in recalled.items():
            print(f"memo {name}: {outcome}", file=sys.stderr)
        if verify:
            quotient_work = entry.cohomology.quotient_work  # None over the budget
            route = "skipped (over the budget)" if quotient_work is None else quotient_work.route
            print(f"route quotient: {route}", file=sys.stderr)
            for w in () if quotient_work is None else quotient_work.ranked:
                print(
                    f"quotient degree {w.degree} over {w.field}: monomials {w.monomials}"
                    f" rows {w.rows} skipped {w.skipped} rank {w.rank}",
                    file=sys.stderr,
                )
        for domain, presentation in engines:
            cert = None if verify else normal_words.certificate(presentation)
            if cert is not None and cert.failure is None:
                defined = f", defined: {', '.join(cert.defined)}" if cert.defined else ""
                print(
                    f"route {domain}: normal words, {len(cert.leading)} rules,"
                    f" {cert.overlaps} overlaps resolved, {cert.swapped} swapped,"
                    f" {cert.rewrites} words rewritten{defined}",
                    file=sys.stderr,
                )
                continue
            reason = "verify eliminates" if cert is None else cert.failure
            print(f"route {domain}: engine ({reason})", file=sys.stderr)
            work = presentation.engine().work
            for d in range(1, n + 1):
                w = work[d]
                print(
                    f"engine {domain} degree {d}: symbols {w.symbols} rows {w.rows} rank {w.rank}",
                    file=sys.stderr,
                )
    doc = {
        **cfg.identity(),
        "generators": [{"name": name, "degree": d} for name, d in shown.generators],
        "relations": list(shown.relation_strings()),
        "poincare": poincare,
        "ranks": ranks,
        "torsion": torsion,
        "checks": checks,
    }
    if verify:
        doc["failures"] = failures
    return doc


def build_series_report(cfg: RunConfig) -> dict:
    """The built Lie algebra's PBW series against the splitting series.

    It reads the pipeline, so every degree obeys the budget first.
    """
    _refuse_over_budget(cfg)
    pipe = cat.catalog_entry(cfg.family, cfg.rank).pipeline
    n = cfg.degree
    return {
        "family": cfg.family.slug,
        "rank": cfg.rank,
        "max_degree": n,
        "pbw": list(pbw_series(pipe.lie_algebra, n)),
        "splitting": list(cat.splitting_series(cfg.family, cfg.rank, n)),
        "schema_version": SCHEMA_VERSION,
    }


# ---------------------------------------------------------------------------
# rendering and cache
# ---------------------------------------------------------------------------


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    lines = [
        f"family={doc['family']} rank={doc['rank']} coeffs={doc.get('coeffs', '-')}"
        f" max_degree={doc['max_degree']}"
    ]
    if "generators" in doc:
        gens = " ".join(f"{g['name']}:{g['degree']}" for g in doc["generators"])
        lines.append(f"generators: {gens}")
        lines.append("relations:")
        for r in doc["relations"]:
            lines.append(f"  {r}")
    if "pbw" in doc:
        lines.append(f"pbw:       {doc['pbw']}")
        lines.append(f"splitting: {doc['splitting']}")
    if doc.get("poincare"):
        lines.append("deg  dim  rank  torsion")
        ranks = doc.get("ranks") or []
        torsion = doc.get("torsion") or []
        for d, dim in enumerate(doc["poincare"]):
            rank = str(ranks[d]) if d < len(ranks) else "-"
            tor = ",".join(map(str, torsion[d])) if d < len(torsion) and torsion[d] else "-"
            lines.append(f"{d:>3}  {dim:>3}  {rank:>4}  {tor}")
    if doc.get("checks"):
        lines.append("checks:")
        for name in sorted(doc["checks"]):
            value = doc["checks"][name]
            text = value if isinstance(value, str) else ("pass" if value else "FAIL")
            lines.append(f"  {name}: {text}")
    for name in sorted(doc.get("failures", {})):
        lines.append(f"failure {name}: {doc['failures'][name]}")
    return "\n".join(lines) + "\n"


def cache_directory(cfg: RunConfig) -> Path:
    if cfg.cache_dir:
        return Path(cfg.cache_dir)
    env = os.environ.get("LOOPALG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "loopalg"


def cache_store(cfg: RunConfig, text: str) -> Path:
    """Write the entry, a report's JSON ``text``, into the existing cache
    directory through a temporary file, so readers never see half of it."""
    path = cache_directory(cfg) / f"{cfg.cache_key()}.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _ints(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


# the body of a compute report: each field and a test of the type build_report writes
_REPORT_BODY = {
    "generators": lambda v: isinstance(v, list)
    and all(
        isinstance(g, dict)
        and set(g) == {"name", "degree"}
        and type(g["name"]) is str
        and type(g["degree"]) is int
        for g in v
    ),
    "relations": lambda v: isinstance(v, list) and all(type(r) is str for r in v),
    "poincare": _ints,
    "ranks": _ints,
    "torsion": lambda v: isinstance(v, list) and all(map(_ints, v)),
    "checks": lambda v: isinstance(v, dict) and all(type(c) is bool for c in v.values()),
}


def cache_load(cfg: RunConfig) -> dict | None:
    """The cached report, or None on a miss.

    An entry that cannot be read or parsed (nested too deep for the parser
    included), that names another configuration than ``cfg``, or whose
    fields are not those of a compute report with the types
    ``build_report`` writes, counts as a miss.  So does one whose numbers
    are not the PBW series (``poincare``; an integer report's ``ranks``, a
    rational one's are empty) or that shows torsion.
    """
    path = cache_directory(cfg) / f"{cfg.cache_key()}.json"
    if not path.exists():
        return None
    # the shape the integer or rational refusal reads
    shape = cfg.family, cfg.rank, cfg.degree, cfg.coeffs == "integer"
    try:
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict):
            problem = "not a JSON object"
        elif any(type(doc.get(k)) is not type(v) or doc[k] != v for k, v in cfg.identity().items()):
            problem = "written for another configuration"
        elif set(doc) != {*cfg.identity(), *_REPORT_BODY}:
            problem = "not the fields of a compute report"
        elif not all(valid(doc[k]) for k, valid in _REPORT_BODY.items()):
            problem = "a field of the wrong type"
        elif doc["poincare"] != (pbw := list(_shape(*shape)[0])):
            problem = "poincare differs from the PBW series"
        elif doc["ranks"] != (pbw if cfg.coeffs == "integer" else []):
            problem = "ranks differ from the PBW series"
        elif any(doc["torsion"]):
            problem = "torsion in a torsion-free ring"
        else:
            return doc
    except (OSError, ValueError, RecursionError) as err:
        problem = str(err)
    print(f"warning: ignoring cache entry {path}: {problem}", file=sys.stderr)
    return None


def render(cfg: RunConfig, doc: dict) -> str:
    return render_json(doc) if cfg.fmt == "json" else render_text(doc)


def emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopalg",
        description=(
            "Exact Pontrjagin-ring computations for based loop spaces on "
            "complete flag manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("compute", "verify", "series", "report"):
        p = sub.add_parser(name)
        p.add_argument(
            "--family",
            required=True,
            choices=[f.slug for f in LieFamily],
        )
        p.add_argument("--rank", type=int, default=None)
        if name != "series":  # series compares the rational PBW and splitting series
            p.add_argument("--coeffs", choices=["rational", "integer"], default=None)
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=["json", "text"], default="text")
        p.add_argument("--out", default=None)
        p.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET)
        p.add_argument("--cache-dir", default=None)
        if name != "series":  # series prints no stage timings or engine work
            p.add_argument(
                "--verbose",
                action="store_true",
                help="print stage timings and per-degree engine work to stderr",
            )
        if name == "report":
            p.add_argument(
                "--compute-missing",
                action="store_true",
                help="compute and cache the report when it is not cached yet",
            )
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    family = LieFamily.from_slug(args.family)
    rank = args.rank
    if rank is None:
        if family in FIXED_RANK:
            rank = FIXED_RANK[family]
        else:
            raise UsageError(f"--rank is required for --family {family.slug}")
    try:
        validate_rank(family, rank)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    if args.max_degree is not None and args.max_degree > MAX_DEGREE:
        raise UsageError(f"--max-degree must be <= {MAX_DEGREE}")
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    coeffs = getattr(args, "coeffs", None)
    if args.command == "verify":
        coeffs = coeffs or "both"
    else:
        coeffs = coeffs or "rational"
    return RunConfig(
        family=family,
        rank=rank,
        coeffs=coeffs,
        max_degree=args.max_degree,
        fmt=args.fmt,
        out=args.out,
        budget=args.budget,
        cache_dir=args.cache_dir,
        verbose=getattr(args, "verbose", False),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        cfg = _config_from(args)
        if args.command == "series":
            emit(cfg, render(cfg, build_series_report(cfg)))
            return 0
        if args.command == "verify":
            doc = build_report(cfg, verify=True)
            emit(cfg, render(cfg, doc))
            return 1 if doc["failures"] else 0
        if args.command == "report":
            _refuse_rank_over_budget(cfg)
            doc = cache_load(cfg)
            if doc is not None:
                emit(cfg, render(cfg, doc))
                return 0
            if not args.compute_missing:
                raise UsageError(
                    "no cached result for this configuration; run compute first "
                    "or pass --compute-missing"
                )
        # compute, or report --compute-missing on a miss: an unusable cache
        # directory fails before the work, and the entry is written only once
        # the report was delivered; the JSON is rendered once, for the cache
        # and for a JSON request
        cache_directory(cfg).mkdir(parents=True, exist_ok=True)
        doc = build_report(cfg)
        text = render_json(doc)
        emit(cfg, text if cfg.fmt == "json" else render_text(doc))
        cache_store(cfg, text)
        return 0
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as err:
        # an unusable --out or --cache-dir is a configuration error too
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
