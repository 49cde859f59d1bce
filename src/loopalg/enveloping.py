"""Finitely presented graded associative algebras and their graded sizes.

The free associative algebra :class:`FreeGradedAlgebra` (elements
:class:`NcElement`, keyed by words of generator indices, multiplied by
concatenation) shares its generator set, linear structure and grading with
the graded-commutative algebra through the core in :mod:`loopalg.gca`.
The main objects are :class:`RingPresentation` (generators plus homogeneous
noncommutative relations, over exact rationals or integers) and the one
degreewise engine that measures the quotient algebra, :class:`GradedQuotient`.
Over Q it yields the graded dimension of each degree component, over Z the
rank and the Smith invariant factors (torsion); the two differ only in how
one degree's rows are eliminated.

The engine works degree by degree.  Writing ``A = T(G)/I`` and letting
``A_e`` denote the already-computed lower components, every element of
``A_d`` is a combination of symbols ``g * w`` with ``g`` a generator and
``w`` a basis element of ``A_{d - deg g}``; the kernel of that covering is
spanned by the rows ``r * w`` for the defining relations ``r`` (any ideal
element with a nonempty left factor falls into ``g * I`` and is already
zero in the lower quotient).  This keeps every matrix at the size of the
quotient, not of the free algebra, while computing exactly the same
dimensions as elimination over the full word basis.

A presentation keeps one engine, and each read names its budget: a degree
already built is checked again, so a smaller budget refuses as a fresh engine
would.  :func:`degree_size` is the one size rule.  A relation is written
once, in the one form both routes read: its terms, on words of generator
indices with integral coefficients as ``int``.  Only :func:`relation_string`
reads the names, to render it; a presentation renders its relations on the
first read of :meth:`RingPresentation.relation_strings` and keeps them.

``compute`` reaches the engine, through :func:`engine_report`, only where
:mod:`loopalg.normal_words` cannot certify the presentation's normal words;
``verify`` always eliminates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg, series
from .linalg import add_multiple
from .gca import GeneratorSet, Polynomial, Scalar
from .series import PoincareSeries

Word = tuple[int, ...]  # generator indices
Counts = Mapping[int, int]  # degree -> how many generators or relations

DEFAULT_WORD_BUDGET = 200_000


class BudgetExceededError(RuntimeError):
    """Raised when a degree would need more symbols/rows than the budget."""

    def __init__(self, degree: int, size: int, budget: int):
        super().__init__(
            f"degree {degree} needs {size} basis symbols/rows, over the budget of {budget}"
        )
        self.degree = degree
        self.size = size
        self.budget = budget


def check_budget(degree: int, budget: int, *sizes: int) -> None:
    """Raise :class:`BudgetExceededError` at the first size over ``budget``."""
    for size in sizes:
        if size > budget:
            raise BudgetExceededError(degree, size, budget)


def degree_size(
    degree: int, gens: Counts, rels: Counts, sizes: list[int], torsion: list[int]
) -> tuple[int, int]:
    """The symbols and rows of one degree of the quotient engine.

    ``gens`` and ``rels`` map a degree to how many generators and relations
    have it, up to ``degree``; ``sizes[e]`` counts the generators of the
    lower component ``A_e`` and ``torsion[e]`` its torsion generators:
    symbols = Σ_g |A_{d-g}| and rows = Σ_g torsion_{d-g} + Σ_r |A_{d-r}|,
    every relation row counted, zero or not.
    """
    lower = [(degree - g, n) for g, n in gens.items() if g <= degree]
    rows = sum(n * torsion[e] for e, n in lower)
    rows += sum(n * sizes[degree - r] for r, n in rels.items() if r <= degree)
    return sum(n * sizes[e] for e, n in lower), rows


class NcElement(Polynomial):
    """A noncommutative polynomial: word of generator indices -> coefficient, zeros dropped."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check_compatible(other)
        acc: dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                acc[w] = acc.get(w, 0) + c1 * c2
        return NcElement(self.algebra, acc)

    def __repr__(self) -> str:
        return relation_string(self)


class FreeGradedAlgebra(GeneratorSet):
    """Free associative algebra on named generators; monomials are words of generator indices."""

    __slots__ = ()
    element_class = NcElement

    def key_of(self, letters) -> Word:
        return tuple(letters)

    def key_degrees(self, words: Iterable[Word]) -> Iterator[int]:
        degree_of = self._degrees.__getitem__
        return (sum(map(degree_of, word)) for word in words)


def relation_string(element: NcElement) -> str:
    """Serialize content-normalized as terms "c*g1.g2", the first positive.

    Each word is read through ``algebra.names``, and the terms are ordered
    by those name words, whose order is not the order of the index words
    (``a1.a10`` precedes ``a1.a2``).
    """
    names = element.algebra.names
    norm = element.content_normalized().terms
    terms = sorted((tuple(map(names.__getitem__, w)), c) for w, c in norm.items())
    if not terms:
        return "0"
    positive = terms[0][1] > 0
    return " ".join(
        ("" if i == 0 else "+ " if (c > 0) == positive else "- ") + f"{abs(c)}*{'.'.join(w) or '1'}"
        for i, (w, c) in enumerate(terms)
    )


class RingPresentation:
    """A finitely presented graded algebra over Q or Z.

    ``domain`` is "rational" or "integer"; integer presentations must have
    integral relation coefficients (they are never silently rescaled).
    ``relation_degrees`` holds the degree of each relation, in order.
    The engine, the rendered relations and the normal-words certificate are
    made on first read and kept.
    """

    def __init__(
        self,
        algebra: FreeGradedAlgebra,
        relations: Iterable[NcElement],
        domain: str = "rational",
    ):
        if domain not in ("rational", "integer"):
            raise ValueError("domain must be 'rational' or 'integer'")
        rels = tuple(relations)
        degrees = []
        for r in rels:
            if not algebra.same_generators(r.algebra):
                raise ValueError("relation over a different generator set")
            if r.is_zero():
                raise ValueError("zero relation")
            # the degree of every word, in the one scan that validates it
            try:
                degrees.append(r.degree())
            except ValueError:
                raise ValueError(f"inhomogeneous relation: {r!r}") from None
            if degrees[-1] < 1:
                raise ValueError("relations must have positive degree")
            if domain == "integer" and any(c.denominator != 1 for c in r.terms.values()):
                raise ValueError("integer presentation with non-integral coefficient")
        self.algebra = algebra
        self.relations = rels
        self.relation_degrees = tuple(degrees)
        self.domain = domain
        self._engine: GradedQuotient | None = None
        self._strings: tuple[str, ...] | None = None
        # the normal_words certificate once it has been checked
        self._certificate = None

    @property
    def generators(self) -> tuple[tuple[str, int], ...]:
        return self.algebra.generators

    def engine(self) -> "GradedQuotient":
        """The presentation's one quotient engine, memoized; reads name their budget."""
        if self._engine is None:
            self._engine = GradedQuotient(self)
        return self._engine

    def relation_strings(self) -> tuple[str, ...]:
        """Each relation rendered by :func:`relation_string`, in order, memoized."""
        if self._strings is None:
            self._strings = tuple(map(relation_string, self.relations))
        return self._strings


# ---------------------------------------------------------------------------
# the graded quotient engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithEntry:
    """Degree component of a quotient: free rank + invariant factors (none over Q)."""

    degree: int
    rank: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class GradedSmithReport:
    entries: tuple[SmithEntry, ...]

    @classmethod
    def free(cls, ranks: Iterable[int]) -> "GradedSmithReport":
        """The torsion-free report with these ranks in degrees 0, 1, ..."""
        return cls(tuple(SmithEntry(d, c, ()) for d, c in enumerate(ranks)))

    def ranks(self) -> tuple[int, ...]:
        return tuple(e.rank for e in self.entries)

    def torsion_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e.torsion for e in self.entries)

    def torsion_free(self) -> bool:
        return all(not e.torsion for e in self.entries)


@dataclass(frozen=True)
class DegreeWork:
    """One degree's elimination: its symbols, its rows (zero rows included) and their rank."""

    symbols: int
    rows: int
    rank: int


def _integer_eliminate(rows: Iterable[dict[int, int]], ncols: int) -> linalg.CokerResult:
    return linalg.coker_normalize([row for row in rows if row], ncols)


class GradedQuotient:
    """Degree components of T(G)/I over the presentation's domain, Q or Z.

    Each computed degree keeps the invariants of its chosen generators (0 for
    a free summand, ``s >= 2`` for Z/s; over Q every invariant is 0), the
    offsets of the symbol blocks ``(g, w)`` and the expansion of each symbol
    over the generators.  The domain fixes the elimination of one degree's
    rows: :func:`linalg.rref_normalize` over Q, :func:`linalg.coker_normalize`
    over Z.  ``work[d]`` records what eliminating degree ``d`` cost (degree 0
    costs nothing): its symbols and rows by :func:`degree_size`, and the rank.
    """

    def __init__(self, presentation: RingPresentation):
        self._gen_degrees = [d for _, d in presentation.generators]
        integer = presentation.domain == "integer"
        self._relations = tuple(zip(presentation.relation_degrees, presentation.relations))
        self._gen_counts = Counter(self._gen_degrees)
        self._rel_counts = Counter(presentation.relation_degrees)
        self._eliminate = _integer_eliminate if integer else linalg.rref_normalize
        self._invariants: list[list[int]] = [[0]]
        self._torsion: list[dict[int, int]] = [{}]
        self._offsets: list[dict[int, int]] = [{}]
        self._expand: list[list[dict[int, Scalar]]] = [[]]
        self._entries: list[SmithEntry] = [SmithEntry(0, 1, ())]
        self.work: list[DegreeWork] = [DegreeWork(0, 0, 0)]

    def report(self, max_degree: int, budget: int = DEFAULT_WORD_BUDGET) -> GradedSmithReport:
        """Degrees 0 .. ``max_degree``, each checked against ``budget``.

        A built degree is checked from ``work``, a new one before any of its
        rows is built, so a refusal names what a fresh engine would.  Each
        degree's :class:`SmithEntry` is built once, with the degree, and a
        read slices them.
        """
        for degree in range(1, min(max_degree + 1, len(self.work))):
            check_budget(degree, budget, self.work[degree].symbols, self.work[degree].rows)
        for degree in range(len(self.work), max_degree + 1):
            self._build(degree, budget)
        return GradedSmithReport(tuple(self._entries[: max_degree + 1]))

    def _leftmul(self, gen_index: int, vec: dict[int, Scalar], src_degree: int):
        """Image of a vector of A_src under left multiplication."""
        target = src_degree + self._gen_degrees[gen_index]
        offset = self._offsets[target][gen_index]
        expand = self._expand[target]
        out: dict[int, Scalar] = {}
        for w, c in vec.items():
            add_multiple(out, c, expand[offset + w])
        for g, s in self._torsion[target].items():
            v = out.get(g)
            if v is not None:
                v %= s
                if v:
                    out[g] = v
                else:
                    del out[g]
        return out

    def _build(self, degree: int, budget: int) -> None:
        sizes = [len(inv) for inv in self._invariants]
        torsion = [len(t) for t in self._torsion]
        symbols, rows = degree_size(degree, self._gen_counts, self._rel_counts, sizes, torsion)
        check_budget(degree, budget, symbols, rows)
        offsets: dict[int, int] = {}
        nsym = 0
        for g, d in enumerate(self._gen_degrees):
            lower = degree - d
            if lower >= 0 and sizes[lower]:
                offsets[g] = nsym
                nsym += sizes[lower]
        result = self._eliminate(self._rows(degree, offsets), symbols)
        self._invariants.append(result.invariants)
        self._torsion.append({g: s for g, s in enumerate(result.invariants) if s > 1})
        self._offsets.append(offsets)
        self._expand.append(result.expansions)
        inv = result.invariants
        self._entries.append(SmithEntry(degree, inv.count(0), tuple(s for s in inv if s > 1)))
        self.work.append(DegreeWork(symbols, rows, result.matrix_rank))

    def _rows(self, degree: int, offsets: dict[int, int]):
        """The presentation rows of one degree, zero rows included."""
        # torsion of the lower components becomes diagonal presentation rows
        for g, base in offsets.items():
            for w, s in self._torsion[degree - self._gen_degrees[g]].items():
                yield {base + w: s}
        for rel_degree, relation in self._relations:
            lower = degree - rel_degree
            if lower < 0:
                continue
            for w in range(len(self._invariants[lower])):
                row: dict[int, Scalar] = {}
                for word, coeff in relation.terms.items():
                    vec = {w: coeff}
                    deg = lower
                    for g in reversed(word[1:]):
                        vec = self._leftmul(g, vec, deg)
                        deg += self._gen_degrees[g]
                        if not vec:
                            break
                    if not vec:
                        continue
                    base = offsets[word[0]]
                    for pos, c in vec.items():
                        row[base + pos] = row.get(base + pos, 0) + c
                yield {col: c for col, c in row.items() if c}


# ---------------------------------------------------------------------------
# the envelop operations
# ---------------------------------------------------------------------------


def uea_pairs(degrees: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The basis pairs ``i <= j`` that carry a relation of :func:`uea_presentation`.

    ``degrees`` lists the basis degrees in order; every pair is kept except
    ``x x`` for even ``x``, whose relation vanishes.
    """
    for i, degree in enumerate(degrees):
        for j in range(i if degree % 2 else i + 1, len(degrees)):
            yield i, j


def uea_pair_degrees(degrees: Sequence[int], max_degree: int) -> dict[int, int]:
    """How many pairs of :func:`uea_pairs` have each degree up to ``max_degree``.

    A convolution of the counts of each basis degree, cut at ``max_degree``,
    so the pairs are never listed: two distinct degrees pair in every way,
    and ``n`` elements of one degree make ``n (n - 1) / 2`` pairs, and ``n``
    more, their squares, when that degree is odd.
    """
    counts = Counter(d for d in degrees if d < max_degree)
    pairs: Counter[int] = Counter()
    for d, n in counts.items():
        for e, m in counts.items():
            if d < e and d + e <= max_degree:
                pairs[d + e] += n * m
        if 2 * d <= max_degree:
            pairs[2 * d] += n * (n - 1) // 2 + (n if d % 2 else 0)
    return {d: n for d, n in pairs.items() if n}  # one even element pairs with nothing


def uea_presentation(L) -> RingPresentation:
    """Universal enveloping presentation of a graded Lie algebra.

    One relation per unordered basis pair (including x = x for odd x):
    ``x y - (-1)^{deg x deg y} y x - [x, y]``, content-normalized.  It is
    refused unless L passes ``graded_lie_axioms_check`` and the
    presentation's certificate holds, which over Q is the Jacobi identity.
    """
    from . import normal_words
    from .homotopy_lie import graded_lie_axioms_check

    if not graded_lie_axioms_check(L):
        raise ValueError("graded Lie axiom check failed")
    algebra = FreeGradedAlgebra([(b.name, b.degree) for b in L.basis])
    relations = []
    for i, j in uea_pairs([b.degree for b in L.basis]):
        x, y = L.basis[i], L.basis[j]
        sign = -1 if (x.degree * y.degree) % 2 else 1
        # x y - sign y x, which is 2 x x for odd x = y, then - [x, y]
        terms: dict[Word, Scalar] = {(i, j): 1}
        terms[(j, i)] = terms.get((j, i), 0) - sign
        for z, c in L.brackets.get((x.name, y.name), {}).items():
            terms[(algebra.index(z),)] = -c
        relations.append(NcElement(algebra, terms).content_normalized())
    p = RingPresentation(algebra, relations, domain="rational")
    if normal_words.certificate(p).failure is not None:
        raise ValueError("graded Lie axiom check failed")
    return p


def graded_dimensions(
    p: RingPresentation, max_degree: int, budget: int = DEFAULT_WORD_BUDGET
) -> PoincareSeries:
    if p.domain != "rational":
        raise ValueError("graded_dimensions expects a rational presentation")
    return PoincareSeries(p.engine().report(max_degree, budget).ranks())


def pbw_series(L, max_degree: int) -> PoincareSeries:
    """Graded dimensions of the enveloping algebra from the PBW basis count."""
    return pbw_series_of_degrees([b.degree for b in L.basis], max_degree)


def pbw_series_of_degrees(degrees: Sequence[int], max_degree: int) -> PoincareSeries:
    """The PBW series of U(L) for a Lie algebra L whose basis has these degrees.

    By Poincare-Birkhoff-Witt it reads nothing else of L: one exterior factor
    per odd degree, one polynomial factor per even one.
    """
    odd = [d for d in degrees if d % 2 == 1]
    even = [d for d in degrees if d % 2 == 0]
    return PoincareSeries(tuple(series.pbw_coefficients(odd, even, max_degree)))


def graded_smith_report(
    p: RingPresentation, max_degree: int, budget: int = DEFAULT_WORD_BUDGET
) -> GradedSmithReport:
    if p.domain != "integer":
        raise ValueError("graded_smith_report expects an integer presentation")
    return p.engine().report(max_degree, budget)


def engine_report(
    p: RingPresentation, max_degree: int, budget: int = DEFAULT_WORD_BUDGET
) -> GradedSmithReport:
    """The engine's degrees 0 .. ``max_degree`` of ``p`` in its own domain.

    It reads through :func:`graded_dimensions` or :func:`graded_smith_report`,
    so the engine is reached the same way from every route.
    """
    if p.domain == "integer":
        return graded_smith_report(p, max_degree, budget)
    return GradedSmithReport.free(graded_dimensions(p, max_degree, budget))


def series_equal(a: PoincareSeries, b: PoincareSeries, max_degree: int) -> bool:
    return a.prefix(max_degree) == b.prefix(max_degree)
