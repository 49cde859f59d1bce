"""Per-family data: cohomology presentations, exponents, expected answers.

Each entry collects, for one complete flag manifold G/T of a simple compact
Lie group:

* the reduced cohomology presentation (degree-2 variables and invariant
  forms) feeding the minimal-model pipeline;
* the exponents, which place the loop-space generators in degrees 2k - 2;
* the expected rational and integral Pontrjagin presentations, with tensor
  factors encoded as explicit centrality relations;
* the expected Lie bracket table on the degree-1 classes.

Type B integral presentations use the uniform relation set over the full
generator list ``y_1 .. y_{2n-1}`` (which spells out every sign), the
doubled-generator form being display metadata only.  Type D encodes the two
degree-2(n-1) classes as independent generators ``wp``/``wm`` and each
doubled class ``2 y_j`` (j >= n) as a single generator ``Y{j}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from . import series as series_mod
from .enveloping import FreeGradedAlgebra, NcElement, RingPresentation
from .families import LieFamily, validate_rank
from .minimal_model import CohomologyPresentation
from .series import PoincareSeries
from .symmetric import invariant_indices, invariant_polynomials, variable_algebra


@dataclass(frozen=True)
class CatalogEntry:
    family: LieFamily
    rank: int
    exponents: tuple[int, ...]
    weyl_order: int
    cohomology: CohomologyPresentation
    odd_names: tuple[str, ...]
    dual_names: dict[str, str]
    expected_rational: RingPresentation
    expected_brackets: dict[tuple[str, str], dict[str, int]]


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

SLOW_COHOMOLOGY_FAMILIES = (LieFamily.F4, LieFamily.E6)


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
    if family is LieFamily.G2:
        return (2, 6)
    if family is LieFamily.F4:
        return (2, 6, 8, 12)
    return (2, 5, 6, 8, 9, 12)


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
    algebra = variable_algebra(family, rank)
    relations = [
        invariant_polynomials(family, rank, k, algebra)
        for k in invariant_indices(family, rank)
    ]
    return CohomologyPresentation(algebra, relations)


def _odd_names(family: LieFamily, rank: int) -> tuple[str, ...]:
    return tuple(f"v{k}" for k in invariant_indices(family, rank))


def _dual_names(family: LieFamily, rank: int) -> dict[str, str]:
    names: dict[str, str] = {}
    for u in variable_algebra(family, rank).names:
        names[u] = "a" + u[1:] if len(u) > 1 else "a"
    if family in (LieFamily.G2, LieFamily.F4, LieFamily.E6):
        for k in invariant_indices(family, rank):
            names[f"v{k}"] = f"b{k - 1}"
    else:
        for k in invariant_indices(family, rank):
            names[f"v{k}"] = f"b{k}"
    return names


def _expected_brackets(family: LieFamily, rank: int) -> dict[tuple[str, str], dict[str, int]]:
    table: dict[tuple[str, str], dict[str, int]] = {}
    if family is LieFamily.SU:
        a = [f"a{i}" for i in range(1, rank + 1)]
        for x in a:
            table[(x, x)] = {"b1": 4}
        for x in a:
            for y in a:
                if x != y:
                    table[(x, y)] = {"b1": 2}
    elif family in (LieFamily.SP, LieFamily.SO_ODD, LieFamily.SO_EVEN):
        for i in range(1, rank + 1):
            table[(f"a{i}", f"a{i}")] = {"b1": 2}
    elif family is LieFamily.G2:
        table[("a1", "a1")] = {"b1": 4}
        table[("a2", "a2")] = {"b1": 4}
        table[("a1", "a2")] = {"b1": 2}
        table[("a2", "a1")] = {"b1": 2}
    elif family is LieFamily.F4:
        for i in range(1, 5):
            table[(f"a{i}", f"a{i}")] = {"b1": 6}
    else:  # E6
        a = [f"a{i}" for i in range(1, 6)]
        for x in a:
            table[(x, x)] = {"b1": 24}
        table[("a", "a")] = {"b1": 24}
        for x in a:
            for y in a:
                if x != y:
                    table[(x, y)] = {"b1": 12}
    return table


# ---------------------------------------------------------------------------
# expected Pontrjagin presentations
# ---------------------------------------------------------------------------


def _centrality(alg: FreeGradedAlgebra, left: list[str], right: list[str]) -> list[NcElement]:
    """Commutators making the tensor factors commute."""
    out = []
    for x in left:
        for y in right:
            out.append(alg.gen(x) * alg.gen(y) - alg.gen(y) * alg.gen(x))
    return out


def _pairwise_commutators(alg: FreeGradedAlgebra, names: list[str]) -> list[NcElement]:
    out = []
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            out.append(alg.gen(x) * alg.gen(y) - alg.gen(y) * alg.gen(x))
    return out


def expected_rational_presentation(family: LieFamily, rank: int) -> RingPresentation:
    validate_rank(family, rank)
    if family is LieFamily.SU:
        a = [f"a{i}" for i in range(1, rank + 1)]
        b = [(f"b{k}", 2 * k) for k in range(2, rank + 1)]
        alg = FreeGradedAlgebra([(x, 1) for x in a] + b)
        exprs = [alg.gen(x) * alg.gen(x) for x in a]
        for i, x in enumerate(a):
            for y in a[i + 1 :]:
                exprs.append(alg.gen(x) * alg.gen(y) + alg.gen(y) * alg.gen(x))
        rels = [e - exprs[0] for e in exprs[1:]]
        rels += _centrality(alg, a, [n for n, _ in b])
        rels += _pairwise_commutators(alg, [n for n, _ in b])
        return RingPresentation(alg, rels, domain="rational")

    if family in (LieFamily.SP, LieFamily.SO_ODD, LieFamily.SO_EVEN):
        a = [f"a{i}" for i in range(1, rank + 1)]
        if family is LieFamily.SO_EVEN:
            b = [(f"b{k}", 4 * k - 2) for k in range(2, rank)] + [(f"b{rank}", 2 * rank - 2)]
        else:
            b = [(f"b{k}", 4 * k - 2) for k in range(2, rank + 1)]
        alg = FreeGradedAlgebra([(x, 1) for x in a] + b)
        rels = []
        for x in a[1:]:
            rels.append(alg.gen(a[0]) * alg.gen(a[0]) - alg.gen(x) * alg.gen(x))
        for i, x in enumerate(a):
            for y in a[i + 1 :]:
                rels.append(alg.gen(x) * alg.gen(y) + alg.gen(y) * alg.gen(x))
        rels += _centrality(alg, a, [n for n, _ in b])
        rels += _pairwise_commutators(alg, [n for n, _ in b])
        return RingPresentation(alg, rels, domain="rational")

    if family is LieFamily.G2:
        alg = FreeGradedAlgebra([("a1", 1), ("a2", 1), ("b5", 10)])
        g = alg.gen
        rels = [
            g("a1") * g("a1") - g("a2") * g("a2"),
            g("a1") * g("a2") + g("a2") * g("a1") - g("a1") * g("a1"),
        ]
        rels += _centrality(alg, ["a1", "a2"], ["b5"])
        return RingPresentation(alg, rels, domain="rational")

    if family is LieFamily.F4:
        a = [f"a{i}" for i in range(1, 5)]
        b = [("b5", 10), ("b7", 14), ("b11", 22)]
        alg = FreeGradedAlgebra([(x, 1) for x in a] + b)
        rels = []
        for x in a[1:]:
            rels.append(alg.gen(a[0]) * alg.gen(a[0]) - alg.gen(x) * alg.gen(x))
        for i, x in enumerate(a):
            for y in a[i + 1 :]:
                rels.append(alg.gen(x) * alg.gen(y) + alg.gen(y) * alg.gen(x))
        rels += _centrality(alg, a, [n for n, _ in b])
        rels += _pairwise_commutators(alg, [n for n, _ in b])
        return RingPresentation(alg, rels, domain="rational")

    # E6: five classes a1..a5 pairing like type A, one class a anticommuting
    a = [f"a{i}" for i in range(1, 6)]
    b = [("b4", 8), ("b5", 10), ("b7", 14), ("b8", 16), ("b11", 22)]
    alg = FreeGradedAlgebra([(x, 1) for x in a] + [("a", 1)] + b)
    g = alg.gen
    exprs = [g("a") * g("a")] + [g(x) * g(x) for x in a]
    for i, x in enumerate(a):
        for y in a[i + 1 :]:
            exprs.append(g(x) * g(y) + g(y) * g(x))
    rels = [e - exprs[0] for e in exprs[1:]]
    for x in a:
        rels.append(g("a") * g(x) + g(x) * g("a"))
    rels += _centrality(alg, a + ["a"], [n for n, _ in b])
    rels += _pairwise_commutators(alg, [n for n, _ in b])
    return RingPresentation(alg, rels, domain="rational")


def _so_odd_y_relation(alg: FreeGradedAlgebra, i: int, n: int) -> NcElement:
    """y_i^2 + 2 sum_{k<=min(i, n-1-i)} (-1)^k y_{i-k} y_{i+k}
    + sum_{k=n-i}^{i} (-1)^k y_{i-k} y_{i+k}, with y_0 = 1."""

    def y(j: int) -> NcElement:
        return alg.one() if j == 0 else alg.gen(f"y{j}")

    rel = y(i) * y(i)
    for k in range(1, min(i, n - 1 - i) + 1):
        sign = -1 if k % 2 else 1
        rel = rel + 2 * sign * (y(i - k) * y(i + k))
    for k in range(max(1, n - i), i + 1):
        sign = -1 if k % 2 else 1
        rel = rel + sign * (y(i - k) * y(i + k))
    return rel


def expected_integral_presentation(
    family: LieFamily, rank: int, anticommute: bool = False
) -> RingPresentation:
    if anticommute and family is not LieFamily.F4:
        raise ValueError("the commutation variant switch only applies to f4")
    validate_rank(family, rank)

    if family is LieFamily.SU:
        x = [f"x{i}" for i in range(1, rank + 1)]
        y = [(f"y{i}", 2 * i) for i in range(1, rank + 1)]
        alg = FreeGradedAlgebra([(n, 1) for n in x] + y)
        g = alg.gen
        target = 2 * g("y1")
        rels = [g(n) * g(n) - target for n in x]
        for i, p in enumerate(x):
            for q in x[i + 1 :]:
                rels.append(g(p) * g(q) + g(q) * g(p) - target)
        rels += _centrality(alg, x, [n for n, _ in y])
        rels += _pairwise_commutators(alg, [n for n, _ in y])
        return RingPresentation(alg, rels, domain="integer")

    if family is LieFamily.SP:
        x = [f"x{i}" for i in range(1, rank + 1)]
        y = [(f"y{i}", 4 * i - 2) for i in range(2, rank + 1)]
        alg = FreeGradedAlgebra([(n, 1) for n in x] + y)
        g = alg.gen
        rels = [g(x[0]) * g(x[0]) - g(n) * g(n) for n in x[1:]]
        for i, p in enumerate(x):
            for q in x[i + 1 :]:
                rels.append(g(p) * g(q) + g(q) * g(p))
        rels += _centrality(alg, x, [n for n, _ in y])
        rels += _pairwise_commutators(alg, [n for n, _ in y])
        return RingPresentation(alg, rels, domain="integer")

    if family is LieFamily.SO_ODD:
        n = rank
        x = [f"x{i}" for i in range(1, n + 1)]
        y = [(f"y{i}", 2 * i) for i in range(1, 2 * n)]
        alg = FreeGradedAlgebra([(m, 1) for m in x] + y)
        g = alg.gen
        rels = [g("x1") * g("x1") - g("y1")]
        for i in range(1, n):
            rels.append(g(f"x{i}") * g(f"x{i}") - g(f"x{i + 1}") * g(f"x{i + 1}"))
        for i, p in enumerate(x):
            for q in x[i + 1 :]:
                rels.append(g(p) * g(q) + g(q) * g(p))
        for i in range(1, n):
            rels.append(_so_odd_y_relation(alg, i, n))
        rels += _centrality(alg, x, [m for m, _ in y])
        rels += _pairwise_commutators(alg, [m for m, _ in y])
        return RingPresentation(alg, rels, domain="integer")

    if family is LieFamily.SO_EVEN:
        n = rank
        x = [f"x{i}" for i in range(1, n + 1)]
        plain = [(f"y{i}", 2 * i) for i in range(1, n - 1)]
        doubled = [("wp", 2 * (n - 1)), ("wm", 2 * (n - 1))]
        doubled += [(f"Y{j}", 2 * j) for j in range(n, 2 * n - 1)]
        alg = FreeGradedAlgebra([(m, 1) for m in x] + plain + doubled)
        g = alg.gen

        def two_y(j: int) -> NcElement:
            # the class 2 y_j written in the chosen generators
            if j == 0:
                return 2 * alg.one()
            if j <= n - 2:
                return 2 * g(f"y{j}")
            if j == n - 1:
                return g("wp") + g("wm")
            return g(f"Y{j}")

        def y_plain(j: int) -> NcElement:
            return alg.one() if j == 0 else g(f"y{j}")

        rels = [g("x1") * g("x1") - g("y1")]
        for i in range(1, n):
            rels.append(g(f"x{i}") * g(f"x{i}") - g(f"x{i + 1}") * g(f"x{i + 1}"))
        for i, p in enumerate(x):
            for q in x[i + 1 :]:
                rels.append(g(p) * g(q) + g(q) * g(p))
        for i in range(1, n - 1):
            rel = y_plain(i) * y_plain(i)
            for k in range(1, i + 1):
                sign = -1 if k % 2 else 1
                rel = rel + sign * (y_plain(i - k) * two_y(i + k))
            rels.append(rel)
        final = g("wp") * g("wm")
        for k in range(1, n):
            sign = -1 if k % 2 else 1
            final = final + sign * (y_plain(n - 1 - k) * two_y(n - 1 + k))
        rels.append(final)
        evens = [m for m, _ in plain + doubled]
        rels += _centrality(alg, x, evens)
        rels += _pairwise_commutators(alg, evens)
        return RingPresentation(alg, rels, domain="integer")

    if family is LieFamily.G2:
        alg = FreeGradedAlgebra(
            [("x1", 1), ("x2", 1), ("y1", 2), ("y2", 4), ("y5", 10)]
        )
        g = alg.gen
        target = 2 * g("y1")
        rels = [
            g("x1") * g("x1") - target,
            g("x2") * g("x2") - target,
            g("x1") * g("x2") + g("x2") * g("x1") - target,
            g("x1") ** 4 - 2 * g("y2"),
            # torsion saturation: the displayed relation only gives
            # 2(y2 - 2 y1^2) = 0; the torsion-free ring satisfies the half
            g("y2") - 2 * g("y1") * g("y1"),
        ]
        rels += _centrality(alg, ["x1", "x2"], ["y1", "y2", "y5"])
        rels += _pairwise_commutators(alg, ["y1", "y2", "y5"])
        return RingPresentation(alg, rels, domain="integer")

    if family is LieFamily.F4:
        x = [f"x{i}" for i in range(1, 5)]
        y = [("y1", 2), ("y2", 4), ("y3", 6), ("y5", 10), ("y7", 14), ("y11", 22)]
        alg = FreeGradedAlgebra([(n, 1) for n in x] + y)
        g = alg.gen
        rels = [g(n) * g(n) - 3 * g("y1") for n in x]
        sign = 1 if anticommute else -1
        for i, p in enumerate(x):
            for q in x[i + 1 :]:
                # commuting by default; anticommuting variant on demand
                rels.append(g(p) * g(q) + sign * (g(q) * g(p)))
        rels.append(2 * g("y2") - g("x1") ** 4)
        rels.append(3 * g("y3") - g("x1") * g("x1") * g("y2"))
        # torsion saturation: x1^2 y2 = 3 y1 y2 makes 3(y3 - y1 y2) = 0
        rels.append(g("y3") - g("y1") * g("y2"))
        rels += _centrality(alg, x, [n for n, _ in y])
        rels += _pairwise_commutators(alg, [n for n, _ in y])
        return RingPresentation(alg, rels, domain="integer")

    # E6
    x = [f"x{i}" for i in range(1, 7)]
    y = [("y1", 2), ("y2", 4), ("y3", 6), ("y4", 8), ("y5", 10), ("y7", 14), ("y8", 16), ("y11", 22)]
    alg = FreeGradedAlgebra([(n, 1) for n in x] + y)
    g = alg.gen
    target = 12 * g("y1")
    rels = [g(n) * g(n) - target for n in x]
    for i, p in enumerate(x):
        for q in x[i + 1 :]:
            rels.append(g(p) * g(q) + g(q) * g(p) - target)
    rels.append(2 * g("y2") - g("x1") ** 4)
    rels.append(3 * g("y3") - g("x1") * g("x1") * g("y2"))
    # torsion saturation: x1^4 = 144 y1^2 and x1^2 y2 = 12 y1 y2 leave
    # 2(y2 - 72 y1^2) = 0 and 3(y3 - 4 y1 y2) = 0 in the displayed ideal
    rels.append(g("y2") - 72 * g("y1") * g("y1"))
    rels.append(g("y3") - 4 * g("y1") * g("y2"))
    rels += _centrality(alg, x, [n for n, _ in y])
    rels += _pairwise_commutators(alg, [n for n, _ in y])
    return RingPresentation(alg, rels, domain="integer")


@lru_cache(maxsize=None)
def catalog_entry(family: LieFamily, rank: int) -> CatalogEntry:
    validate_rank(family, rank)
    return CatalogEntry(
        family=family,
        rank=rank,
        exponents=exponents(family, rank),
        weyl_order=weyl_order(family, rank),
        cohomology=cohomology_presentation(family, rank),
        odd_names=_odd_names(family, rank),
        dual_names=_dual_names(family, rank),
        expected_rational=expected_rational_presentation(family, rank),
        expected_brackets=_expected_brackets(family, rank),
    )
