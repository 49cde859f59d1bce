"""Spans around the program's public functions, and the per-layer metrics.

The tracer patches public functions of ``loopalg`` from outside: every module
attribute that is bound to a traced function is replaced by a wrapper, so a
name imported with ``from .x import f`` is traced as well as ``x.f``.  Each
wrapped call records a span ``[name, start, end, parent, request]``.  Three
methods run so often that one span per call would dominate memory
(``FractionRREF.add_row``, ``FractionFreeEliminator.add_row`` and
``GcaElement.__mul__``); their calls are kept as leaf aggregates instead:
per (parent span, name) a call count, the rank-raising calls and the total
time.  A layer's self time is the time its spans cover minus the time of the
spans and leaf aggregates recorded inside them.

Work counts are derived from what the traced calls return, not from inside
the program: symbols and rows of each degree come from the returned graded
dimensions and the presentation's generator and relation degrees; monomials
and rows of the commutative quotient come from
``GradedAlgebra.monomials_of_degree``.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (module, function) pairs recorded as spans
SPAN_FUNCTIONS = (
    ("cli", "main"),
    ("cli", "emit"),
    ("cli", "render_json"),
    ("cli", "render_text"),
    ("cli", "cache_store"),
    ("cli", "cache_load"),
    ("pipeline", "rational_pipeline"),
    ("catalog", "catalog_entry"),
    ("catalog", "expected_integral_presentation"),
    ("catalog", "splitting_series"),
    ("symmetric", "invariant_polynomials"),
    ("minimal_model", "build_minimal_model"),
    ("minimal_model", "quotient_dimensions"),
    ("minimal_model", "regular_sequence_check"),
    ("minimal_model", "derivation_square_check"),
    ("homotopy_lie", "brackets_from_d1"),
    ("homotopy_lie", "graded_lie_axioms_check"),
    ("enveloping", "uea_presentation"),
    ("enveloping", "graded_dimensions"),
    ("enveloping", "graded_smith_report"),
    ("linalg", "coker_normalize"),
    ("series", "pbw_coefficients"),
    ("series", "poly_mul_trunc"),
    ("series", "divide_by_one_minus"),
)

# (module, class, method) triples recorded as leaf aggregates
LEAF_METHODS = (
    ("linalg", "FractionRREF", "add_row"),
    ("linalg", "FractionFreeEliminator", "add_row"),
    ("gca", "GcaElement", "__mul__"),
)

LAYERS = (
    "cli",
    "pipeline",
    "catalog",
    "symmetric",
    "minimal_model",
    "homotopy_lie",
    "enveloping",
    "linalg",
    "gca",
    "series",
)

# metric name -> (span or leaf name whose inclusive time it is)
INCLUSIVE_TIMES = {
    "enveloping.rational_s": "enveloping.graded_dimensions",
    "enveloping.integer_s": "enveloping.graded_smith_report",
    "enveloping.uea_s": "enveloping.uea_presentation",
    "linalg.rref_s": "linalg.FractionRREF.add_row",
    "linalg.coker_s": "linalg.coker_normalize",
    "linalg.ffe_s": "linalg.FractionFreeEliminator.add_row",
    "minimal_model.quotient_s": "minimal_model.quotient_dimensions",
    "minimal_model.regular_s": "minimal_model.regular_sequence_check",
    "minimal_model.build_s": "minimal_model.build_minimal_model",
    "gca.mul_s": "gca.GcaElement.__mul__",
    "catalog.entry_s": "catalog.catalog_entry",
    "catalog.integral_presentation_s": "catalog.expected_integral_presentation",
    "symmetric.invariants_s": "symmetric.invariant_polynomials",
    "pipeline.rational_s": "pipeline.rational_pipeline",
    "homotopy_lie.brackets_s": "homotopy_lie.brackets_from_d1",
    "homotopy_lie.axioms_s": "homotopy_lie.graded_lie_axioms_check",
    "cli.render_s": ("cli.render_json", "cli.render_text"),
    "cli.cache_store_s": "cli.cache_store",
    "cli.cache_load_s": "cli.cache_load",
    "series.s": ("series.pbw_coefficients", "series.poly_mul_trunc", "series.divide_by_one_minus"),
}

# every per-layer metric with its unit and direction, as BENCHMARK.json lists them
PER_LAYER = (
    ("enveloping.rational_s", "s", "lower"),
    ("enveloping.rational_symbols", "count", "lower"),
    ("enveloping.rational_rows", "count", "lower"),
    ("enveloping.integer_s", "s", "lower"),
    ("enveloping.integer_symbols", "count", "lower"),
    ("enveloping.integer_rows", "count", "lower"),
    ("enveloping.uea_s", "s", "lower"),
    ("linalg.rref_rows", "count", "lower"),
    ("linalg.rref_useful_ratio", "ratio", "higher"),
    ("linalg.rref_s", "s", "lower"),
    ("linalg.coker_calls", "count", "lower"),
    ("linalg.coker_rows", "count", "lower"),
    ("linalg.coker_useful_ratio", "ratio", "higher"),
    ("linalg.coker_s", "s", "lower"),
    ("linalg.ffe_rows", "count", "lower"),
    ("linalg.ffe_useful_ratio", "ratio", "higher"),
    ("linalg.ffe_s", "s", "lower"),
    ("minimal_model.quotient_s", "s", "lower"),
    ("minimal_model.quotient_calls", "count", "lower"),
    ("minimal_model.regular_s", "s", "lower"),
    ("minimal_model.monomials", "count", "lower"),
    ("minimal_model.rows", "count", "lower"),
    ("minimal_model.build_s", "s", "lower"),
    ("gca.mul_calls", "count", "lower"),
    ("gca.mul_s", "s", "lower"),
    ("catalog.entries_built", "count", "lower"),
    ("catalog.entry_s", "s", "lower"),
    ("catalog.integral_presentation_s", "s", "lower"),
    ("symmetric.invariants_s", "s", "lower"),
    ("pipeline.rational_s", "s", "lower"),
    ("homotopy_lie.brackets_s", "s", "lower"),
    ("homotopy_lie.axioms_s", "s", "lower"),
    ("series.s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.busy_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.cache_store_s", "s", "lower"),
    ("cli.cache_load_s", "s", "lower"),
    ("cli.cache_hit_ratio", "ratio", "higher"),
    ("cli.cache_bytes_written", "bytes", "lower"),
    ("cli.cache_bytes_read", "bytes", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli") + (
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory spans and work counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._reached: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._monomial_counts: dict[tuple, int] = {}
        self._after = {
            "enveloping.graded_dimensions": self._count_rational,
            "enveloping.graded_smith_report": self._count_integer,
            "minimal_model.quotient_dimensions": self._count_quotient,
            "linalg.coker_normalize": self._count_coker,
            "cli.cache_store": self._count_store,
            "cli.cache_load": self._count_load,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        for module_name, _ in SPAN_FUNCTIONS:
            importlib.import_module(f"loopalg.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "loopalg" or n.startswith("loopalg.")]
        for module_name, func_name in SPAN_FUNCTIONS:
            original = getattr(sys.modules[f"loopalg.{module_name}"], func_name)
            wrapper = self._span_wrapper(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module_name, class_name, method in LEAF_METHODS:
            cls = getattr(sys.modules[f"loopalg.{module_name}"], class_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._leaf_wrapper(f"{module_name}.{class_name}.{method}", original))

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name, func):
        spans, stack, after = self.spans, self._stack, self._after.get(name)

        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _leaf_wrapper(self, name, func):
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = func(*args, **kwargs)
            elapsed = perf_counter() - t0
            key = (stack[-1] if stack else -1, name)
            acc = leaves.get(key)
            if acc is None:
                acc = leaves[key] = [0, 0, 0.0]
            acc[0] += 1
            acc[1] += result is True
            acc[2] += elapsed
            return result

        return traced

    # -- work counts from returned values --------------------------------

    def _new_degrees(self, presentation, budget, max_degree) -> range:
        """Degrees the presentation's cached engine had not reached yet."""
        reached = self._reached.setdefault(presentation, {})
        start = reached.get(budget, 0) + 1
        reached[budget] = max(reached.get(budget, 0), max_degree)
        return range(start, max_degree + 1)

    @staticmethod
    def _budget(args, kwargs):
        from loopalg.enveloping import DEFAULT_WORD_BUDGET

        return args[2] if len(args) > 2 else kwargs.get("budget", DEFAULT_WORD_BUDGET)

    @staticmethod
    def _symbols_and_rows(presentation, sizes, degrees, extra_rows=None):
        gen_degrees = [d for _, d in presentation.generators]
        rel_degrees = [r.degree() for r in presentation.relations]
        symbols = rows = 0
        for d in degrees:
            symbols += sum(sizes[d - g] for g in gen_degrees if d >= g)
            rows += sum(sizes[d - e] for e in rel_degrees if d >= e)
            if extra_rows is not None:
                rows += sum(extra_rows[d - g] for g in gen_degrees if d >= g)
        return symbols, rows

    def _count_rational(self, args, kwargs, result):
        presentation, max_degree = args[0], args[1]
        degrees = self._new_degrees(presentation, self._budget(args, kwargs), max_degree)
        symbols, rows = self._symbols_and_rows(presentation, result.coefficients, degrees)
        self.counts["enveloping.rational_symbols"] += symbols
        self.counts["enveloping.rational_rows"] += rows

    def _count_integer(self, args, kwargs, result):
        presentation, max_degree = args[0], args[1]
        degrees = self._new_degrees(presentation, self._budget(args, kwargs), max_degree)
        # every degree component is generated by its free and torsion generators;
        # each torsion generator one degree down adds one diagonal row
        sizes = [e.rank + len(e.torsion) for e in result.entries]
        torsion = [len(e.torsion) for e in result.entries]
        symbols, rows = self._symbols_and_rows(presentation, sizes, degrees, torsion)
        self.counts["enveloping.integer_symbols"] += symbols
        self.counts["enveloping.integer_rows"] += rows

    def _monomials(self, algebra, degree: int) -> int:
        key = (algebra.generators, degree)
        if key not in self._monomial_counts:
            self._monomial_counts[key] = len(algebra.monomials_of_degree(degree))
        return self._monomial_counts[key]

    def _count_quotient(self, args, kwargs, result):
        presentation, max_degree = args[0], args[1]
        algebra = presentation.algebra
        self.counts["minimal_model.quotient_calls"] += 1
        for d in range(max_degree + 1):
            size = self._monomials(algebra, d)
            if not size:
                continue
            self.counts["minimal_model.monomials"] += size
            self.counts["minimal_model.rows"] += sum(
                self._monomials(algebra, d - e) for e in presentation.relation_degrees if e <= d
            )

    def _count_coker(self, args, kwargs, result):
        self.counts["linalg.coker_calls"] += 1
        self.counts["linalg.coker_rows"] += len(args[0])
        self.counts["linalg.coker_rank"] += result.matrix_rank

    def _count_store(self, args, kwargs, result):
        self.counts["cli.cache_bytes_written"] += result.stat().st_size

    def _count_load(self, args, kwargs, result):
        from loopalg import cli

        self.counts["cli.cache_loads"] += 1
        if result is not None:
            cfg = args[0]
            path = cli.cache_directory(cfg) / f"{cfg.cache_key()}.json"
            self.counts["cli.cache_hits"] += 1
            self.counts["cli.cache_bytes_read"] += path.stat().st_size

    # -- derived metrics ---------------------------------------------------

    def metrics(self, entries_built: int) -> dict[str, float]:
        """Per-layer metrics over every span and leaf aggregate recorded so far."""
        spans = self.spans
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            duration = end - start
            self_time[name.split(".")[0]] += duration
            if parent >= 0:
                self_time[spans[parent][0].split(".")[0]] -= duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += duration
        leaf_calls: defaultdict[str, int] = defaultdict(int)
        leaf_useful: defaultdict[str, int] = defaultdict(int)
        for (parent, name), (calls, useful, seconds) in self.leaves.items():
            leaf_calls[name] += calls
            leaf_useful[name] += useful
            inclusive[name] += seconds
            self_time[name.split(".")[0]] += seconds
            if parent >= 0:
                self_time[spans[parent][0].split(".")[0]] -= seconds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for metric, names in INCLUSIVE_TIMES.items():
            names = (names,) if isinstance(names, str) else names
            out[metric] = sum(inclusive[n] for n in names)
        for key in (
            "enveloping.rational_symbols",
            "enveloping.rational_rows",
            "enveloping.integer_symbols",
            "enveloping.integer_rows",
            "linalg.coker_calls",
            "linalg.coker_rows",
            "minimal_model.quotient_calls",
            "minimal_model.monomials",
            "minimal_model.rows",
            "cli.cache_bytes_written",
            "cli.cache_bytes_read",
        ):
            out[key] = self.counts[key]
        rref, ffe, mul = (
            "linalg.FractionRREF.add_row",
            "linalg.FractionFreeEliminator.add_row",
            "gca.GcaElement.__mul__",
        )
        out["linalg.rref_rows"] = leaf_calls[rref]
        out["linalg.rref_useful_ratio"] = ratio(leaf_useful[rref], leaf_calls[rref])
        out["linalg.ffe_rows"] = leaf_calls[ffe]
        out["linalg.ffe_useful_ratio"] = ratio(leaf_useful[ffe], leaf_calls[ffe])
        out["linalg.coker_useful_ratio"] = ratio(
            self.counts["linalg.coker_rank"], self.counts["linalg.coker_rows"]
        )
        out["gca.mul_calls"] = leaf_calls[mul]
        out["catalog.entries_built"] = entries_built
        out["cli.requests"] = sum(1 for s in spans if s[0] == "cli.main")
        out["cli.busy_s"] = self_time["cli"]
        out["cli.cache_hit_ratio"] = ratio(
            self.counts["cli.cache_hits"], self.counts["cli.cache_loads"]
        )
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self_time[layer]
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, *acc] for (parent, name), acc in self.leaves.items()],
            "counts": dict(self.counts),
        }
