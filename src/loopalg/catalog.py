"""Per-family data: cohomology presentations, exponents, expected answers.

Each entry collects, for one complete flag manifold G/T of a simple compact
Lie group:

* the reduced cohomology presentation (degree-2 variables and invariant
  forms, each built on its first read) feeding the minimal-model pipeline;
* the exponents, which place the loop-space generators in degrees 2k - 2;
* the expected rational and integral Pontrjagin presentations, with tensor
  factors encoded as explicit centrality relations, the expected Lie
  bracket table on the degree-1 classes and the rational pipeline, each
  built on its first read and kept by the entry.

Every expected presentation is built by ``_presentation``: the family's core
relations on the degree-1 classes, then the commutators that make each even
class central.

Type B integral presentations use the uniform relation set over the full
generator list ``y_1 .. y_{2n-1}`` (which spells out every sign), the
doubled-generator form being display metadata only.  Type D encodes the two
degree-2(n-1) classes as independent generators ``wp``/``wm`` and each
doubled class ``2 y_j`` (j >= n) as a single generator ``Y{j}``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Callable

from . import series as series_mod
from .enveloping import FreeGradedAlgebra, NcElement, RingPresentation, uea_pair_degrees
from .families import EXCEPTIONAL_EXPONENTS, LieFamily, validate_rank
from .minimal_model import CohomologyPresentation
from .series import PoincareSeries
from .symmetric import invariant_indices, invariant_polynomials, variable_algebra


@dataclass(frozen=True)
class CatalogEntry:
    """One configuration; a property builds on first read, by the builder its module then holds."""

    family: LieFamily
    rank: int
    weyl_order: int
    cohomology: CohomologyPresentation
    odd_names: tuple[str, ...]
    dual_names: dict[str, str]

    @cached_property
    def expected_rational(self) -> RingPresentation:
        return expected_rational_presentation(self.family, self.rank)

    @cached_property
    def expected_brackets(self) -> dict[tuple[str, str], dict[str, int]]:
        return _expected_brackets(self.family, self.rank)

    @cached_property
    def pipeline(self):
        from . import pipeline  # it imports this module
        return pipeline.rational_pipeline(self)

    @cached_property
    def integral(self) -> RingPresentation:
        return expected_integral_presentation(self.family, self.rank)


# ranks exercised by the default verification sweep; word counts at the
# default truncation stay well inside the budget for these
DEFAULT_CHECKED_RANKS: dict[LieFamily, tuple[int, ...]] = {
    LieFamily.SU: (1, 2, 3, 4),
    LieFamily.SP: (2, 3),
    LieFamily.SO_ODD: (2, 3),
    LieFamily.SO_EVEN: (3, 4),
    LieFamily.G2: (2,),
    LieFamily.F4: (4,),
    LieFamily.E6: (6,),
}


def default_max_degree(family: LieFamily) -> int:
    # G2 runs to 12 so its degree-10 generator takes part in the checks
    return 12 if family is LieFamily.G2 else 10


def exponents(family: LieFamily, rank: int) -> tuple[int, ...]:
    validate_rank(family, rank)
    if family is LieFamily.SU:
        return tuple(range(2, rank + 2))
    if family in (LieFamily.SP, LieFamily.SO_ODD):
        return tuple(range(2, 2 * rank + 1, 2))
    if family is LieFamily.SO_EVEN:
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return EXCEPTIONAL_EXPONENTS[family]


def weyl_order(family: LieFamily, rank: int) -> int:
    validate_rank(family, rank)
    if family is LieFamily.SU:
        return factorial(rank + 1)
    if family in (LieFamily.SP, LieFamily.SO_ODD):
        return 2**rank * factorial(rank)
    if family is LieFamily.SO_EVEN:
        return 2 ** (rank - 1) * factorial(rank)
    return {LieFamily.G2: 12, LieFamily.F4: 1152, LieFamily.E6: 51840}[family]


def splitting_series(family: LieFamily, rank: int, max_degree: int) -> PoincareSeries:
    """(1+t)^rank * prod 1/(1 - t^{2k-2}) over the exponents, truncated."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    coeffs = [1] + [0] * max_degree
    torus = [1, 1]
    for _ in range(rank):
        coeffs = series_mod.poly_mul_trunc(coeffs, torus, max_degree)
    for k in exponents(family, rank):
        coeffs = series_mod.divide_by_one_minus(coeffs, 2 * k - 2, max_degree)
    return PoincareSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# cohomology presentations and model names
# ---------------------------------------------------------------------------


def cohomology_presentation(family: LieFamily, rank: int) -> CohomologyPresentation:
    """The invariant forms, one of degree 2e per exponent e, each built on its first read."""
    algebra = variable_algebra(family, rank)
    indices = invariant_indices(family, rank)
    return CohomologyPresentation(
        algebra,
        degrees=[2 * e for e in exponents(family, rank)],
        build=lambda j: invariant_polynomials(family, rank, indices[j], algebra),
    )


def _odd_names(family: LieFamily, rank: int) -> tuple[str, ...]:
    return tuple(f"v{k}" for k in invariant_indices(family, rank))


def _dual_names(family: LieFamily, rank: int) -> dict[str, str]:
    names: dict[str, str] = {}
    for u in variable_algebra(family, rank).names:
        names[u] = "a" + u[1:] if len(u) > 1 else "a"
    shift = 1 if family in EXCEPTIONAL_EXPONENTS else 0
    for k in invariant_indices(family, rank):
        names[f"v{k}"] = f"b{k - shift}"
    return names


def _type_a_pairing(names: list[str], c: int) -> dict[tuple[str, str], dict[str, int]]:
    """[x, x] = 2c b1 and [x, y] = c b1 for distinct x, y."""
    return {(x, y): {"b1": 2 * c if x == y else c} for x in names for y in names}


def _expected_brackets(family: LieFamily, rank: int) -> dict[tuple[str, str], dict[str, int]]:
    a = [f"a{i}" for i in range(1, rank + 1)]
    if family in (LieFamily.SU, LieFamily.G2):
        return _type_a_pairing(a, 2)
    if family is LieFamily.E6:
        # a1..a5 pair like type A; the sixth class a brackets only with itself
        return {**_type_a_pairing(a[:5], 12), ("a", "a"): {"b1": 24}}
    return {(x, x): {"b1": 6 if family is LieFamily.F4 else 2} for x in a}


# ---------------------------------------------------------------------------
# expected Pontrjagin presentations
# ---------------------------------------------------------------------------


def _presentation(
    odd: list[str],
    even: list[tuple[str, int]],
    core: Callable[[FreeGradedAlgebra], list[NcElement]],
    domain: str,
) -> RingPresentation:
    """The core ring on the degree-1 classes ``odd``, tensored with a
    polynomial ring on the central classes ``even``.

    ``core(alg)`` gives the family's own relations; the commutators making
    each even class central follow, first with every odd class, then
    pairwise among the even classes.
    """
    alg = FreeGradedAlgebra([(x, 1) for x in odd] + even)
    g = alg.gen
    rels = core(alg)
    names = [n for n, _ in even]
    for x in odd:
        for z in names:
            rels.append(g(x) * g(z) - g(z) * g(x))
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            rels.append(g(x) * g(y) - g(y) * g(x))
    return RingPresentation(alg, rels, domain=domain)


def _pairs(alg: FreeGradedAlgebra, names: list[str]) -> list[NcElement]:
    """p q + q p for every pair p before q."""
    g = alg.gen
    return [g(p) * g(q) + g(q) * g(p) for i, p in enumerate(names) for q in names[i + 1 :]]


def _clifford(alg: FreeGradedAlgebra, names: list[str], target: NcElement) -> list[NcElement]:
    """Every square and every anticommutator of the named classes equals ``target``."""
    g = alg.gen
    return [g(x) * g(x) - target for x in names] + [e - target for e in _pairs(alg, names)]


def _equal_squares(alg: FreeGradedAlgebra, names: list[str]) -> list[NcElement]:
    """The named classes anticommute and share one square."""
    g = alg.gen
    first = g(names[0]) * g(names[0])
    return [first - g(x) * g(x) for x in names[1:]] + _pairs(alg, names)


def _type_bd(alg: FreeGradedAlgebra, names: list[str]) -> list[NcElement]:
    """x1^2 = y1, consecutive squares equal, and the classes anticommute."""
    g = alg.gen
    rels = [g("x1") * g("x1") - g("y1")]
    for p, q in zip(names, names[1:]):
        rels.append(g(p) * g(p) - g(q) * g(q))
    return rels + _pairs(alg, names)


def expected_rational_presentation(family: LieFamily, rank: int) -> RingPresentation:
    validate_rank(family, rank)
    a = [f"a{i}" for i in range(1, rank + 1)]
    # the classes dual to the odd generators, one of degree 2e - 2 per
    # exponent e, but b1: the degree-1 classes generate degree 2
    names = _dual_names(family, rank)
    indices, exps = invariant_indices(family, rank), exponents(family, rank)
    b = [(names[f"v{k}"], 2 * e - 2) for k, e in zip(indices, exps)][1:]
    if family is LieFamily.SU:
        # everything equals a1^2; the first relation, a1^2 = a1^2, is dropped
        return _presentation(
            a, b, lambda alg: _clifford(alg, a, alg.gen("a1") ** 2)[1:], "rational"
        )

    if family is LieFamily.G2:

        def g2_core(alg: FreeGradedAlgebra) -> list[NcElement]:
            g = alg.gen
            return [
                g("a1") * g("a1") - g("a2") * g("a2"),
                g("a1") * g("a2") + g("a2") * g("a1") - g("a1") * g("a1"),
            ]

        return _presentation(a, b, g2_core, "rational")

    if family is LieFamily.E6:
        # five classes a1..a5 pairing like type A, one class a anticommuting
        a = a[:5]

        def e6_core(alg: FreeGradedAlgebra) -> list[NcElement]:
            g = alg.gen
            return _clifford(alg, a, g("a") * g("a")) + [g("a") * g(x) + g(x) * g("a") for x in a]

        return _presentation(a + ["a"], b, e6_core, "rational")

    return _presentation(a, b, lambda alg: _equal_squares(alg, a), "rational")


def _y_relation(
    alg: FreeGradedAlgebra, head: NcElement, i: int, two_y: Callable[[int], NcElement]
) -> NcElement:
    """``head`` + sum_{k=1..i} (-1)^k y_{i-k} (2y)_{i+k}, with y_0 = 1.

    ``head`` is y_i^2 but in type D's last relation, and ``two_y(j)`` writes
    the class 2 y_j in the family's generators.
    """
    rel = head
    for k in range(1, i + 1):
        y = alg.one() if k == i else alg.gen(f"y{i - k}")
        rel = rel + (-1) ** k * (y * two_y(i + k))
    return rel


def _so_even_core(alg: FreeGradedAlgebra, x: list[str], n: int) -> list[NcElement]:
    g = alg.gen

    def two_y(j: int) -> NcElement:
        # the class 2 y_j written in the chosen generators; j >= 2 here
        if j <= n - 2:
            return 2 * g(f"y{j}")
        if j == n - 1:
            return g("wp") + g("wm")
        return g(f"Y{j}")

    rels = _type_bd(alg, x)
    rels += [_y_relation(alg, g(f"y{i}") ** 2, i, two_y) for i in range(1, n - 1)]
    rels.append(_y_relation(alg, g("wp") * g("wm"), n - 1, two_y))
    return rels


# the exceptional central classes y_k, of degree 2k, and the core relations
# beyond degree 2 per degree, as the builders below write them
_INTEGRAL_CENTRAL = {
    LieFamily.G2: (1, 2, 5),
    LieFamily.F4: (1, 2, 3, 5, 7, 11),
    LieFamily.E6: (1, 2, 3, 4, 5, 7, 8, 11),
}
_INTEGRAL_CORE_ABOVE_TWO = {
    LieFamily.G2: {4: 2},
    LieFamily.F4: {4: 1, 6: 2},
    LieFamily.E6: {4: 2, 6: 2},
}


def _integral_central(family: LieFamily, n: int) -> list[tuple[str, int]]:
    """The central classes of the integral presentation, names and degrees, in order."""
    if family is LieFamily.SU:
        return [(f"y{i}", 2 * i) for i in range(1, n + 1)]
    if family is LieFamily.SP:
        return [(f"y{i}", 4 * i - 2) for i in range(2, n + 1)]
    if family is LieFamily.SO_ODD:
        return [(f"y{i}", 2 * i) for i in range(1, 2 * n)]
    if family is LieFamily.SO_EVEN:
        y = [(f"y{i}", 2 * i) for i in range(1, n - 1)]
        y += [("wp", 2 * (n - 1)), ("wm", 2 * (n - 1))]
        return y + [(f"Y{j}", 2 * j) for j in range(n, 2 * n - 1)]
    return [(f"y{k}", 2 * k) for k in _INTEGRAL_CENTRAL[family]]


def integral_presentation_degrees(
    family: LieFamily, rank: int, max_degree: int
) -> tuple[list[int], dict[int, int]]:
    """The integral presentation's generator degrees and relations per degree, before any build.

    As :func:`~loopalg.pipeline.presentation_degrees` does for the
    pipeline's presentation: the generators are the ``rank`` degree-1
    classes, then the central ones, and the relations are counted per
    degree up to ``max_degree``, never listed, so the count costs
    O(rank + degrees²), not O(rank²).  Every family's core relates the
    degree-1 classes in degree 2, one square per class (type C one fewer)
    and one anticommutator per pair; types B and D add one relation in each
    degree 4i, i < rank, and the exceptional cores theirs above degree 2.
    :func:`_presentation` then adds a commutator of each degree-1 class with
    each central class, and one per pair of central classes, which
    :func:`~loopalg.enveloping.uea_pair_degrees` counts, their degrees
    being even.
    """
    validate_rank(family, rank)
    central = [d for _, d in _integral_central(family, rank)]
    squares = rank - 1 if family is LieFamily.SP else rank
    rels = Counter({2: squares + rank * (rank - 1) // 2})
    if family in (LieFamily.SO_ODD, LieFamily.SO_EVEN):
        rels.update(4 * i for i in range(1, rank))
    rels.update(_INTEGRAL_CORE_ABOVE_TWO.get(family, {}))
    rels.update({d + 1: rank * m for d, m in Counter(central).items()})
    rels.update(uea_pair_degrees(central, max_degree))
    return [1] * rank + central, {d: m for d, m in rels.items() if m and d <= max_degree}


def expected_integral_presentation(family: LieFamily, rank: int) -> RingPresentation:
    validate_rank(family, rank)
    n = rank
    x = [f"x{i}" for i in range(1, n + 1)]
    y = _integral_central(family, n)

    if family is LieFamily.SU:
        return _presentation(x, y, lambda alg: _clifford(alg, x, 2 * alg.gen("y1")), "integer")

    if family is LieFamily.SP:
        return _presentation(x, y, lambda alg: _equal_squares(alg, x), "integer")

    if family is LieFamily.SO_ODD:

        def so_odd_core(alg: FreeGradedAlgebra) -> list[NcElement]:
            g = alg.gen

            def two_y(j: int) -> NcElement:
                # how the relations write the class 2 y_j: 2 y_j below n, y_j from n on
                return 2 * g(f"y{j}") if j < n else g(f"y{j}")

            rels = _type_bd(alg, x)
            return rels + [_y_relation(alg, g(f"y{i}") ** 2, i, two_y) for i in range(1, n)]

        return _presentation(x, y, so_odd_core, "integer")

    if family is LieFamily.SO_EVEN:
        return _presentation(x, y, lambda alg: _so_even_core(alg, x, n), "integer")

    if family is LieFamily.G2:

        def g2_core(alg: FreeGradedAlgebra) -> list[NcElement]:
            g = alg.gen
            return _clifford(alg, x, 2 * g("y1")) + [
                g("x1") ** 4 - 2 * g("y2"),
                # torsion saturation: the displayed relation only gives
                # 2(y2 - 2 y1^2) = 0; the torsion-free ring satisfies the half
                g("y2") - 2 * g("y1") * g("y1"),
            ]

        return _presentation(x, y, g2_core, "integer")

    if family is LieFamily.F4:

        def f4_core(alg: FreeGradedAlgebra) -> list[NcElement]:
            g = alg.gen
            # x_i x_j = -x_j x_i for i != j, as in the rational ring
            rels = [g(p) * g(p) - 3 * g("y1") for p in x] + _pairs(alg, x)
            rels.append(2 * g("y2") - g("x1") ** 4)
            rels.append(3 * g("y3") - g("x1") * g("x1") * g("y2"))
            # torsion saturation: x1^2 y2 = 3 y1 y2 makes 3(y3 - y1 y2) = 0
            rels.append(g("y3") - g("y1") * g("y2"))
            return rels

        return _presentation(x, y, f4_core, "integer")

    def e6_core(alg: FreeGradedAlgebra) -> list[NcElement]:
        g = alg.gen
        rels = _clifford(alg, x, 12 * g("y1"))
        rels.append(2 * g("y2") - g("x1") ** 4)
        rels.append(3 * g("y3") - g("x1") * g("x1") * g("y2"))
        # torsion saturation: x1^4 = 144 y1^2 and x1^2 y2 = 12 y1 y2 leave
        # 2(y2 - 72 y1^2) = 0 and 3(y3 - 4 y1 y2) = 0 in the displayed ideal
        rels.append(g("y2") - 72 * g("y1") * g("y1"))
        rels.append(g("y3") - 4 * g("y1") * g("y2"))
        return rels

    return _presentation(x, y, e6_core, "integer")


# configurations whose built objects one process keeps: the catalog entries,
# each with what it has built (expected presentations, pipeline, integral
# presentation) and their certificates, automata and engines.  The 13 of
# DEFAULT_CHECKED_RANKS fit; one su20 configuration computed in both domains
# at degree 8 holds about 2.1 MB.
MEMO_CONFIGURATIONS = 16


@lru_cache(maxsize=MEMO_CONFIGURATIONS)
def catalog_entry(family: LieFamily, rank: int) -> CatalogEntry:
    validate_rank(family, rank)
    return CatalogEntry(
        family=family,
        rank=rank,
        weyl_order=weyl_order(family, rank),
        cohomology=cohomology_presentation(family, rank),
        odd_names=_odd_names(family, rank),
        dual_names=_dual_names(family, rank),
    )
