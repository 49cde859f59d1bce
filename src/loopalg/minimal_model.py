"""Minimal models of spaces whose cohomology is a complete intersection.

For a presentation ``Q[u_1..u_n] / (P_1..P_k)`` by a regular sequence, the
minimal model is ``Q[u] (x) Lambda(v_1..v_k)`` with ``deg v_j = deg P_j - 1``
and differential ``d(u_i) = 0``, ``d(v_j) = P_j``.  A relation of degree
2k has word length k, so a :class:`MinimalModel` carries d1, the quadratic
part the Lie algebra reads, from the degree-4 relations alone; the others
are built on their first read.  No full differential is built: d^2 = 0
follows from the model's shape, which :func:`derivation_square_check`
reads without a form.  The regular-sequence property itself is
checked by dimension counting of the commutative quotient A, which reads
every form and also yields the graded dimensions of the cohomology.

With as many relations as variables, one rank decides every degree.  Let
D = socle + 2, where the socle degree is sum(deg P_j - 2).  If the degree-D
rows m * P_j span every degree-D monomial over F_p, they do so over Q, since
a rank mod p never exceeds the rank over Q.  So A_D = 0, and A, generated in
degree 2, is zero from D on.  n forms in n variables with a
finite-dimensional quotient form a regular sequence, and the quotient's
Hilbert series is then exactly prod (1 - t^{deg P_j}) / (1 - t^2)^n
(Bruns-Herzog, *Cohen-Macaulay Rings*, chapters 2 and 4).  That series is
the answer in every degree, from one F_p rank, however few degrees are
asked for.

That rank leaves out the Koszul rows, by the trivial-syzygy form of
Faugere's F5 criterion (ISSAC 2002).  Take the relations in order, and let
LM(P) be P's lex-largest exponent tuple (u_1 first), the monomial the F_p
eliminator pivots on.  The row m * P_j with m = m' * LM(P_i), i < j, is
(m' P_j P_i - m' tail(P_i) P_j) / lc(P_i): rows of P_i, and rows of P_j
on monomials below m.  By induction on (j, m) it lies in the span of the
rows kept, over Q and over F_p when lc(P_i) is a unit mod p.  Soundness
does not rest on that: rows that span every monomial prove so for all rows,
so a row left out can only cost the fallback below, never a wrong answer.

Where that certificate fails (an unlucky prime, a leading coefficient that
vanishes mod p, a non-regular presentation) or is not tried (a degree-D
matrix over the budget, a relation count that differs from the variable
count), every degree is ranked over Q, every row kept, by the package's one
exact elimination, :class:`~loopalg.linalg.FractionRREF`.  The F_p rank is
:class:`~loopalg.linalg.FractionFreeEliminator`.  Each call leaves a
:class:`QuotientWork` on the presentation: the route that answered and, per
rank taken, the rows built, the rows left out and the rank-raising rows.

The top-degree certificate depends on the forms and the prime alone, so a
presentation ranks it once per prime and keeps the :class:`RankedDegree`;
every later call reads it, the budget having picked the route first, and
records the same work as the first.  A catalog entry owns its presentation,
so ``catalog.MEMO_CONFIGURATIONS`` bounds what is kept.  The degreewise
ranks over Q are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import mul
from typing import Callable, Mapping, Sequence

from . import linalg
from .enveloping import DEFAULT_WORD_BUDGET, check_budget
from .gca import GcaElement, GradedAlgebra
from .series import PoincareSeries, complete_intersection_coefficients

# the prime of the rank pass that the certificate checks; below 2**30, so
# every product of two residues stays a small int
CERTIFICATE_PRIME = 1_073_741_789


class CohomologyPresentation:
    """Degree-2 polynomial generators modulo homogeneous even relations.

    Given ``degrees`` and ``build`` instead of the forms ``relations``, form j
    is made by ``build(j)`` on its first read, checked against ``degrees[j]``
    and kept; ``relation_degrees`` and the socle degree read no form.  The
    top-degree certificate is ranked on the first call of
    :func:`quotient_dimensions` that tries it and kept, keyed by the prime.
    """

    def __init__(self, algebra: GradedAlgebra, relations=None, degrees=(), build=None):
        for name, degree in algebra.generators:
            if degree != 2:
                raise ValueError(f"generator {name!r} must have degree 2")
        self.algebra = algebra
        if relations is not None:
            degrees, build = [self._degree(r) for r in relations], tuple(relations).__getitem__
        if any(d < 4 or d % 2 for d in degrees):
            raise ValueError("relations must have even degree >= 4")
        self.relation_degrees = tuple(degrees)
        self._build: Callable[[int], GcaElement] = build
        self._forms: dict[int, GcaElement] = {}
        # the top-degree certificate per prime, ranked by the first call that tries it
        self._certificates: dict[int, RankedDegree] = {}
        # set by each quotient_dimensions call, the same whether its certificate
        # was ranked or read; None when it raised
        self.quotient_work: QuotientWork | None = None

    def _degree(self, r: GcaElement) -> int:
        if not self.algebra.same_generators(r.algebra):
            raise ValueError("relation over a different generator set")
        # generators of degree 2: the word lengths give the degree in one scan
        lengths = {sum(mono) for mono in r.terms}
        if len(lengths) != 1:
            raise ValueError("relations must be nonzero and homogeneous")
        return 2 * lengths.pop()

    def relation(self, j: int) -> GcaElement:
        if j not in self._forms:
            form, declared = self._build(j), self.relation_degrees[j]
            if (degree := self._degree(form)) != declared:
                raise ValueError(f"relation {j} has degree {degree}, declared {declared}")
            self._forms[j] = form
        return self._forms[j]

    @property
    def relations(self) -> tuple[GcaElement, ...]:
        return tuple(map(self.relation, range(len(self.relation_degrees))))

    def socle_degree(self) -> int:
        return sum(d - 2 for d in self.relation_degrees)

    def holds_certificate(self) -> bool:
        """Whether the top-degree certificate mod ``CERTIFICATE_PRIME`` is kept."""
        return CERTIFICATE_PRIME in self._certificates


@dataclass(frozen=True)
class MinimalModel:
    """Q[u] (x) Lambda(v) with d1, the word-length-2 part of d, on each generator
    where it is nonzero: the degree-4 relations."""

    algebra: GradedAlgebra
    odd_names: tuple[str, ...]
    d1: Mapping[str, GcaElement]
    presentation: CohomologyPresentation


def _padded(algebra: GradedAlgebra, form: GcaElement) -> GcaElement:
    """A form in the u as an element of the model: zero exponents on the v."""
    pad = (0,) * (len(algebra) - len(form.algebra))
    return GcaElement(algebra, {m + pad: c for m, c in form.terms.items()})


@dataclass(frozen=True)
class RankedDegree:
    """One rank the commutative quotient took.

    ``field`` is ``"F_p"`` or ``"Q"``.  ``rows`` counts the rows handed to
    the eliminator, ``skipped`` those the top-degree criterion left out, and
    ``rank`` the rows that raised the rank.
    """

    degree: int
    field: str
    monomials: int
    rows: int
    skipped: int
    rank: int


@dataclass(frozen=True)
class QuotientWork:
    """Which route answered a ``quotient_dimensions`` call, and each rank it took."""

    route: str
    ranked: tuple[RankedDegree, ...]


def quotient_dimensions(
    c: CohomologyPresentation, max_degree: int, budget: int = DEFAULT_WORD_BUDGET
) -> PoincareSeries:
    """Graded dimensions of the commutative quotient, by exact rank counts.

    Degree d of the quotient = (number of degree-d monomials) minus the rank
    of the matrix whose rows expand monomial * P_j over the degree-d basis.
    With as many relations as variables, one F_p rank of degree socle + 2 is
    tried first: where it is full, the answer is the complete-intersection
    series in every degree (see the module docstring).  That rank is taken
    once per prime and kept on ``c``.  Otherwise each degree is ranked over
    Q by :class:`~loopalg.linalg.FractionRREF`.
    A degree up to ``max_degree`` with more monomials or rows than
    ``budget`` raises :class:`~loopalg.enveloping.BudgetExceededError`
    before any elimination; a degree socle + 2 over ``budget`` only skips
    the top-degree certificate.  ``c.quotient_work`` holds the route and
    the rows of every rank taken once the call returns, and ``None`` after
    a call that raised.
    """
    c.quotient_work = None
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    n = len(c.algebra)
    degrees = c.relation_degrees
    top = c.socle_degree() + 2
    # monomials per degree: the coefficients of 1 / (1 - t^2)^n
    sizes = complete_intersection_coefficients((), n, max(max_degree, top))

    def rows(d: int) -> int:
        return sum(sizes[d - e] for e in degrees if e <= d)

    for d in range(max_degree + 1):
        check_budget(d, budget, sizes[d], rows(d))
    ranked: list[RankedDegree] = []
    if len(degrees) != n:
        route = "degreewise (relation count differs from variable count)"
    elif max(sizes[top], rows(top)) > budget:
        route = f"degreewise (degree {top} over the budget)"
    else:
        prime = CERTIFICATE_PRIME
        if prime not in c._certificates:
            c._certificates[prime] = _top_degree_certificate(c, top, prime)
        ranked.append(c._certificates[prime])
        if ranked[0].rank == ranked[0].monomials:
            c.quotient_work = QuotientWork("top-degree certificate", tuple(ranked))
            series = complete_intersection_coefficients(degrees, n, max_degree)
            return PoincareSeries(tuple(series))
        route = f"degreewise (degree {top} certificate failed)"
    dims = _degreewise(c, max_degree, ranked)
    c.quotient_work = QuotientWork(route, tuple(ranked))
    return dims


def _coded(c: CohomologyPresentation, max_degree: int, wanted) -> tuple[dict, list]:
    """Int-coded monomials of each ``wanted`` degree and the coded relations.

    A monomial u^a is coded as the int sum a_i * radix^i; the exponents of a
    monomial of degree <= ``max_degree`` are below radix, so the code of the
    term m * k of m * P_j is code(m) + code(k).  Primitive integer relations
    make every row integral; with all generators of degree 2 there are no
    Koszul signs.  Each relation's terms start with its leading term, the
    lex-largest exponent tuple.
    """
    weights = [(max_degree // 2 + 1) ** i for i in range(len(c.algebra))]

    def code(monomial) -> int:
        return sum(map(mul, monomial, weights))

    relations = []
    for degree, rel in zip(c.relation_degrees, c.relations):
        # lex-largest exponent tuple first: the monomial the F_p route pivots on
        terms = sorted(rel.content_normalized().terms.items(), reverse=True)
        relations.append((degree, [(code(k), v.numerator) for k, v in terms]))
    # A degree-d monomial is a multiset of d / 2 generators, and its code is
    # the sum of their weights.  combinations_with_replacement lists the
    # sorted index multisets in lex order; where two first differ, the
    # earlier one holds more of the smaller index, so its exponent tuple is
    # lex larger.  Reversed, the codes come in the ascending lex order of
    # GradedAlgebra.monomials_of_degree, without building its tuples.
    basis = {
        d: [sum(m) for m in combinations_with_replacement(weights, d // 2)][::-1]
        if d % 2 == 0
        else []
        for d in wanted
    }
    return basis, relations


def _top_degree_certificate(c: CohomologyPresentation, top: int, prime: int) -> RankedDegree:
    """Rank the degree-``top`` rows mod ``prime``, leaving out the Koszul rows.

    The row m * P_j is left out when m is a multiple of the leading monomial
    of an earlier relation P_i (see the module docstring).  Stops adding
    rows once the rank is full.
    """
    degrees = c.relation_degrees
    # top is at least every relation degree, each deg P_j - 2 being >= 2
    wanted = {top} | {top - e for e in degrees}
    wanted |= {top - e - f for e, f in combinations(degrees, 2) if e + f <= top}
    basis, relations = _coded(c, top, wanted)
    monomials = basis[top]
    index = {m: i for i, m in enumerate(monomials)}
    full = len(monomials)
    elim = linalg.FractionFreeEliminator(prime)
    rows = skipped = 0
    earlier: list[tuple[int, int]] = []
    for e, terms in relations:
        if elim.rank == full:
            break
        # exponents stay below the radix, so a code sum is the product's code
        koszul = {lead + b for f, lead in earlier if e + f <= top for b in basis[top - e - f]}
        for m in basis[top - e]:
            if elim.rank == full:
                break
            if m in koszul:
                skipped += 1
                continue
            rows += 1
            elim.add_row({index[m + k]: v for k, v in terms})
        earlier.append((e, terms[0][0]))
    return RankedDegree(top, "F_p", full, rows, skipped, elim.rank)


def _degreewise(
    c: CohomologyPresentation, max_degree: int, ranked: list[RankedDegree]
) -> PoincareSeries:
    """Rank each degree's rows m * P_j over Q, appending each rank to ``ranked``."""
    basis, relations = _coded(c, max_degree, range(max_degree + 1))
    dims = []
    for d, monomials in basis.items():
        if not monomials:
            dims.append(0)
            continue
        # the RREF pivots on a row's smallest column: numbering the columns
        # from the largest monomial down makes it pivot on the leading
        # monomial, which keeps the fill small (19x faster for su rank 4)
        index = {m: i for i, m in enumerate(reversed(monomials))}
        elim = linalg.FractionRREF()
        rows = 0
        for e, terms in relations:
            for m in basis[d - e] if e <= d else ():
                elim.add_row({index[m + k]: v for k, v in terms})
                rows += 1
        ranked.append(RankedDegree(d, "Q", len(monomials), rows, 0, elim.rank))
        dims.append(len(monomials) - elim.rank)
    return PoincareSeries(tuple(dims))


def regular_sequence_check(c: CohomologyPresentation) -> bool:
    """Finite-dimensionality test for n relations in n variables."""
    return is_regular(c, quotient_dimensions(c, c.socle_degree() + 2))


def is_regular(c: CohomologyPresentation, dims: PoincareSeries) -> bool:
    """Regular-sequence test read from quotient dimensions up to socle + 2.

    The quotient is generated in degree 2, so one vanishing even degree past
    the socle bound sum(deg P_j - 2) kills everything above it.
    """
    if len(c.relation_degrees) != len(c.algebra):
        raise ValueError("relation count differs from variable count")
    socle = c.socle_degree()
    return dims.coefficient(socle + 1) == 0 and dims.coefficient(socle + 2) == 0


def build_minimal_model(c: CohomologyPresentation, odd_names: Sequence[str]) -> MinimalModel:
    """Minimal model with one odd generator per relation, d(v_j) = P_j.

    Reads only the degree-4 relations, which make up d1.  The relations are
    taken to form a regular sequence, which is not checked here:
    :func:`regular_sequence_check` and :func:`is_regular` test it.
    """
    degrees = c.relation_degrees
    if len(odd_names) != len(degrees):
        raise ValueError("need one odd generator name per relation")
    odd = [(name, d - 1) for name, d in zip(odd_names, degrees)]
    algebra = GradedAlgebra(list(c.algebra.generators) + odd)
    d1 = {v: _padded(algebra, c.relation(j)) for j, v in enumerate(odd_names) if degrees[j] == 4}
    return MinimalModel(algebra=algebra, odd_names=tuple(odd_names), d1=d1, presentation=c)


def derivation_square_check(m: MinimalModel) -> bool:
    """True iff the model has the shape on which d(d(g)) = 0 for every generator g.

    The shape: the presentation's degree-2 u, in order, then one v_j of degree
    deg P_j - 1 per form, named by ``odd_names``, with d1 on those v alone.
    Proof: d kills every u, so d(P_j) = 0 by the Leibniz rule, and d(d(v_j)) =
    d(P_j).  Reads generator lists and degrees only, never a form.
    """
    c = m.presentation
    odd = tuple((v, d - 1) for v, d in zip(m.odd_names, c.relation_degrees))
    return (
        len(m.odd_names) == len(c.relation_degrees)
        and m.algebra.generators == c.algebra.generators + odd
        and set(m.d1) <= set(m.odd_names)
    )
