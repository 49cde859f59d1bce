"""Independent brute-force oracles used only by the tests.

Graded dimensions and Smith data are recomputed here over the full word
basis of the tensor algebra (rows are all two-sided multiples
left-word * relation * right-word), with a self-contained dense Smith
normal form; over Q it runs on the rows with their denominators cleared.
This is deliberately different machinery from the package's incremental
quotient engine, so the two routes check each other.  The commutative
quotient is recounted from ``GcaElement`` products over a basis of
exponent tuples enumerated here, with a dense rank over Q; ranks over F_p
come from a dense elimination on residues.  The monomials of a graded
algebra are listed by one recursion step per generator
(:func:`recursive_monomials_of_degree`).  :func:`graded_commutative_dimensions`
compares presentations as rings, not by their ranks.

:func:`split_report` checks a structure rather than an elimination: most
catalog presentations are a small core tensored with a polynomial ring on
central even generators, and their sizes are the core's convolved with the
polynomial factor's, over Q and over Z.  :func:`pbw_by_generator` folds
the PBW series one factor per generator, in place, where
``series.pbw_coefficients`` folds one binomial row per distinct odd degree.

The homotopy Lie algebra has its own references: :func:`pairing_brackets`
reads the brackets through the full permutation pairing (with Koszul signs,
on the quadratic part of the differential), one basis pair at a time, and
:func:`lie_axioms_full_loop` checks the graded Lie axioms on every triple.
A differential is a map from generator names to images;
:func:`differential` builds a model's from every form.
:func:`newton_sigma` and :func:`recursion_p` are the two classical
recursions tying power sums to elementary symmetric functions; under the
substitution ``y_i = e_i(t_1..t_m)``, each e_i a sum of products
(:func:`elementary_symmetric`), both produce the power sum
``t_1^k + ... + t_m^k``.
:func:`naive_normal_form` rewrites with a max-first scan,
:func:`naive_interreduce` re-normalizes every pending relation after each
new rule, and :func:`naive_resolve` rewrites every overlap of the leading
words to normal form, with no shortcut for overlaps that resolve by swaps.  :func:`graded_dimension` is no oracle but a shorthand for one
degree of the package's engine, and :func:`force_the_engine` none but a
way to send ``compute`` to that engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from loopalg import catalog, cli, enveloping, normal_words, pipeline
from loopalg.enveloping import (
    FreeGradedAlgebra,
    GradedSmithReport,
    NcElement,
    RingPresentation,
    SmithEntry,
    graded_dimensions,
)
from loopalg.gca import GcaElement, GradedAlgebra, Polynomial
from loopalg.homotopy_lie import HomotopyLieAlgebra, LieBasisElement, dual_basis
from loopalg.minimal_model import CohomologyPresentation, MinimalModel
from loopalg.series import pbw_coefficients


def element_of_names(algebra: FreeGradedAlgebra, terms: Mapping) -> NcElement:
    """The element whose terms are ``terms`` with each word of names read as generator indices."""
    return algebra.element({tuple(map(algebra.index, w)): c for w, c in terms.items()})


def words_of_degree(presentation: RingPresentation, degree: int) -> list[tuple[int, ...]]:
    """Every word of generator indices of total degree ``degree``."""
    gens = presentation.generators
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for g, (_, d) in enumerate(gens):
            if d <= remaining:
                extend(prefix + (g,), remaining - d)

    extend((), degree)
    return out


def ideal_rows(presentation: RingPresentation, degree: int):
    """All two-sided multiples u * r * v of total degree `degree`."""
    index = {w: i for i, w in enumerate(words_of_degree(presentation, degree))}
    rows = []
    for rel in presentation.relations:
        e = rel.degree()
        if e > degree:
            continue
        for left_deg in range(degree - e + 1):
            right_deg = degree - e - left_deg
            for u in words_of_degree(presentation, left_deg):
                for v in words_of_degree(presentation, right_deg):
                    row = {}
                    for word, coeff in rel.terms.items():
                        col = index[u + word + v]
                        row[col] = row.get(col, Fraction(0)) + coeff
                    rows.append({c: x for c, x in row.items() if x})
    return rows, len(index)


def dense_integer(rows, ncols: int) -> list[list[int]]:
    """Rows as a dense integer matrix, each scaled by its denominators' lcm."""
    dense = [[0] * ncols for _ in rows]
    for i, row in enumerate(rows):
        scale = lcm(*(Fraction(v).denominator for v in row.values()))
        for c, v in row.items():
            dense[i][c] = int(v * scale)
    return dense


def force_the_engine(monkeypatch) -> None:
    """Fail the certificate of every presentation ``compute`` answers, so it eliminates.

    The failing certificate is set on the pipeline's presentation and on the
    integral one as they leave ``rational_pipeline`` and
    ``expected_integral_presentation``, after ``uea_presentation`` has
    proved the Jacobi identity by the real one.  Both are replaced in their
    modules, where the catalog entry reads them at call time, so a tracer
    installed afterwards wraps the forced builders.  The catalog memo is
    emptied, so every later request builds through them instead of reading
    a certified presentation.
    """
    forced = normal_words.Certificate((), 0, "forced")
    rational, integral = pipeline.rational_pipeline, catalog.expected_integral_presentation

    def pipeline_of(entry):
        result = rational(entry)
        result.presentation._certificate = forced
        return result

    def integral_of(family, rank):
        p = integral(family, rank)
        p._certificate = forced
        return p

    monkeypatch.setattr(pipeline, "rational_pipeline", pipeline_of)
    monkeypatch.setattr(catalog, "expected_integral_presentation", integral_of)
    empty_request_memos()


def empty_request_memos() -> None:
    """Drop every configuration and shape the process keeps, as a fresh process starts."""
    catalog.catalog_entry.cache_clear()
    cli._shape.cache_clear()


def brute_graded_dimension(presentation: RingPresentation, degree: int) -> int:
    """Rank over Q: the count of nonzero invariant factors of the scaled rows."""
    rows, ncols = ideal_rows(presentation, degree)
    return ncols - len(dense_smith_invariants(dense_integer(rows, ncols)))


def graded_dimension(presentation: RingPresentation, degree: int) -> int:
    """Dimension over Q of one degree of the quotient, by the package's engine.

    It reads ``enveloping.graded_dimensions`` at call time, so a tracer that
    replaces that function sees the call.
    """
    return enveloping.graded_dimensions(presentation, degree).coefficient(degree)


def dense_smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, textbook elimination."""
    mat = [list(r) for r in matrix]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    t = 0
    out = []
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if mat[i][j] and (best is None or abs(mat[i][j]) < abs(best[2])):
                    best = (i, j, mat[i][j])
        if best is None:
            break
        i, j, _ = best
        mat[t], mat[i] = mat[i], mat[t]
        for r in mat:
            r[t], r[j] = r[j], r[t]
        while True:
            pivot = mat[t][t]
            moved = False
            for i in range(t + 1, nrows):
                if mat[i][t]:
                    q = mat[i][t] // pivot
                    for k in range(t, ncols):
                        mat[i][k] -= q * mat[t][k]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        moved = True
                        break
            if moved:
                continue
            pivot = mat[t][t]
            for j in range(t + 1, ncols):
                if mat[t][j]:
                    q = mat[t][j] // pivot
                    for r in mat:
                        r[j] -= q * r[t]
                    if mat[t][j]:
                        for r in mat:
                            r[t], r[j] = r[j], r[t]
                        moved = True
                        break
            if not moved:
                break
        if mat[t][t] < 0:
            for k in range(t, ncols):
                mat[t][k] = -mat[t][k]
        pivot = mat[t][t]
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if mat[i][j] % pivot:
                    for k in range(t, ncols):
                        mat[t][k] += mat[i][k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        out.append(pivot)
        t += 1
    return out


def brute_smith(presentation: RingPresentation, degree: int):
    """(free rank, sorted invariant factors > 1) of the degree component."""
    rows, ncols = ideal_rows(presentation, degree)
    invariants = dense_smith_invariants(dense_integer(rows, ncols))
    rank = ncols - len(invariants)
    torsion = [d for d in invariants if d > 1]
    return rank, torsion


def dense_rank(rows, ncols: int) -> int:
    """Rank over Q by Gaussian elimination on dense Fraction rows.

    Used where the matrices outgrow :func:`dense_smith_invariants`, whose
    integer entries can grow exponentially with the matrix size.
    """
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] / mat[rank][col]
            if factor:
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def dense_rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank over F_p of integer rows, by Gaussian elimination on dense residues."""
    mat = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] * inv % p
            if factor:
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def exponent_tuples(degrees: list[int], total: int) -> list[tuple[int, ...]]:
    """Every exponent tuple whose weighted degree is ``total``."""
    ranges = [range(total // d + 1) for d in degrees]
    return [e for e in product(*ranges) if sum(x * d for x, d in zip(e, degrees)) == total]


def recursive_monomials_of_degree(alg: GradedAlgebra, degree: int) -> list[tuple[int, ...]]:
    """Every canonical monomial of ``alg`` of total degree ``degree``, in lex order.

    One recursion step per generator: an odd generator takes exponent 0 or 1,
    an even one any exponent that fits, each ascending.
    """
    degrees = [d for _, d in alg.generators]
    out: list[tuple[int, ...]] = []

    def extend(i: int, remaining: int, prefix: list[int]) -> None:
        if i == len(degrees):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        d = degrees[i]
        cap = 1 if d % 2 == 1 else remaining // d
        for e in range(min(cap, remaining // d) + 1):
            prefix.append(e)
            extend(i + 1, remaining - e * d, prefix)
            prefix.pop()

    if degree >= 0:
        extend(0, degree, [])
    return out


def brute_commutative_dimension(
    c: CohomologyPresentation, degree: int, prime: int | None = None
) -> int:
    """Degree component of the commutative quotient, by products and a dense rank.

    The rows are the products ``monomial * relation`` of ``GcaElement``s over
    every exponent tuple of the right degree, ranked over Q by
    :func:`dense_rank`, or over F_prime by :func:`dense_rank_mod_p` on their
    residues.
    """
    alg = c.algebra
    degrees = [d for _, d in alg.generators]
    index = {m: i for i, m in enumerate(exponent_tuples(degrees, degree))}
    rows = []
    for rel in c.relations:
        e = rel.degree()
        if e > degree:
            continue
        for m in exponent_tuples(degrees, degree - e):
            shifted = alg.element({m: 1}) * rel
            rows.append({index[k]: v for k, v in shifted.terms.items()})
    if prime is None:
        return len(index) - dense_rank(rows, len(index))
    residues = [
        {k: v.numerator * pow(v.denominator, -1, prime) for k, v in row.items()} for row in rows
    ]
    return len(index) - dense_rank_mod_p(residues, len(index), prime)


def graded_commutative_dimensions(p: RingPresentation, max_degree: int) -> list[int]:
    """Degrees 0 .. ``max_degree`` of the graded-commutative quotient of ``p`` over Q.

    ``p``'s relations are read over Q, and the graded commutator
    ``x y - (-1)^{|x||y|} y x`` of every generator pair is added; for even
    ``x`` the pair ``x x`` is zero and is dropped.  The dimensions are a ring
    invariant: two presentations of one ring give the same list, whatever
    their ranks.  They are counted by the package's engine, since the word
    basis of :func:`brute_graded_dimension` outgrows e6 at degree 8.
    """
    g = p.algebra.gen
    rels = list(p.relations)
    gens = p.generators
    for i, (x, dx) in enumerate(gens):
        for y, dy in gens[i:]:
            if x != y or dx % 2:
                rels.append(g(x) * g(y) - (-1) ** (dx * dy) * (g(y) * g(x)))
    quotient = RingPresentation(p.algebra, rels, domain="rational")
    return list(graded_dimensions(quotient, max_degree))


def _commutator_partner(relation: NcElement, z: int) -> int | None:
    """The generator ``g`` when ``relation`` is ``±(z g - g z)`` with ``g != z``, else None."""
    terms = relation.terms
    if len(terms) != 2:
        return None
    a, b = terms
    if a != b[::-1] or len(a) != 2 or a[0] == a[1] or z not in a:
        return None
    if abs(terms[a]) != 1 or terms[b] != -terms[a]:
        return None
    return a[1] if a[0] == z else a[0]


def central_split(p: RingPresentation) -> tuple[RingPresentation, tuple[int, ...]]:
    """The core presentation of ``p`` and the degrees of the generators split off.

    An even generator ``z`` splits off when its only relations are the
    commutators ``±(z g - g z)``, exactly one with every other generator
    ``g``.  Dropping every such ``z`` and its commutators leaves the core,
    and ``T(G)/I = core ⊗ k[z, ...]`` over Q and over Z: the central
    generators commute with everything and meet no other relation, and the
    polynomial factor is a free module.
    """
    touching: dict[int, list[NcElement]] = {g: [] for g in range(len(p.algebra))}
    for r in p.relations:
        for g in {g for word in r.terms for g in word}:
            touching[g].append(r)
    central = set()
    for z, (_, degree) in enumerate(p.generators):
        partners = [_commutator_partner(r, z) for r in touching[z]]
        others = set(touching) - {z}
        if degree % 2 == 0 and len(partners) == len(others) and set(partners) == others:
            central.add(z)
    kept = [g for g in range(len(p.algebra)) if g not in central]
    algebra = FreeGradedAlgebra([p.generators[g] for g in kept])
    # the core's generators are numbered afresh, in their order
    new = {g: i for i, g in enumerate(kept)}
    relations = [
        NcElement(algebra, {tuple(map(new.__getitem__, w)): c for w, c in r.terms.items()})
        for r in p.relations
        if not any(g in central for word in r.terms for g in word)
    ]
    degrees = tuple(d for g, (_, d) in enumerate(p.generators) if g in central)
    return RingPresentation(algebra, relations, p.domain), degrees


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors ``s_1 | s_2 | ...``, ascending, of the direct sum of the groups Z/s."""
    chain: list[int] = []
    for s in orders:
        # one insertion pass from the top: per prime, the exponents stay sorted
        for i in range(len(chain) - 1, -1, -1):
            chain[i], s = lcm(chain[i], s), gcd(chain[i], s)
        if s > 1:
            chain.insert(0, s)
    return tuple(chain)


def with_torsion(p: RingPresentation) -> RingPresentation:
    """The integral presentation ``p`` with its first relation doubled, planting 2-torsion."""
    return RingPresentation(p.algebra, [2 * p.relations[0], *p.relations[1:]], domain="integer")


def pbw_by_generator(
    odd_degrees: Sequence[int], even_degrees: Sequence[int], max_degree: int
) -> list[int]:
    """prod (1 + t^odd) * prod 1/(1 - t^even) up to ``max_degree``, one factor per generator."""
    out = [1] + [0] * max_degree
    for d in odd_degrees:
        for i in range(max_degree, d - 1, -1):
            out[i] += out[i - d]
    for d in even_degrees:
        for i in range(d, max_degree + 1):
            out[i] += out[i - d]
    return out


def split_report(p: RingPresentation, max_degree: int) -> GradedSmithReport:
    """The degree components of ``p`` from its core's engine and the polynomial factor.

    Degree ``d`` is ``A_d = ⊕_m C_{d-m}`` over the monomials of degree ``m``
    in the central generators, so ranks convolve and torsion merges into
    invariant factors.
    """
    core, central = central_split(p)
    monomials = pbw_coefficients((), central, max_degree)
    core_entries = core.engine().report(max_degree).entries
    entries = []
    for d in range(max_degree + 1):
        parts = [(monomials[m], core_entries[d - m]) for m in range(d + 1) if monomials[m]]
        torsion = invariant_factors(s for n, e in parts for s in e.torsion * n)
        entries.append(SmithEntry(d, sum(n * e.rank for n, e in parts), torsion))
    return GradedSmithReport(tuple(entries))


def koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign ``eps`` with ``v_{s(1)} ^ ... ^ v_{s(k)} = eps * v_1 ^ ... ^ v_k``.

    ``permutation`` lists ``s(1), ..., s(k)`` as 0-based indices and
    ``degrees[i]`` is the degree of the letter ``v_{i+1}``.  Each transposition
    of two odd-degree letters contributes a factor -1; transpositions
    involving an even letter contribute +1.
    """
    if len(permutation) != len(degrees):
        raise ValueError("permutation and degree sequence have different lengths")
    seq = list(permutation)
    if sorted(seq) != list(range(len(seq))):
        raise ValueError("argument is not a permutation of 0..k-1")
    sign = 1
    for sweep in range(len(seq)):
        for j in range(len(seq) - 1 - sweep):
            if seq[j] > seq[j + 1]:
                if degrees[seq[j]] % 2 == 1 and degrees[seq[j + 1]] % 2 == 1:
                    sign = -sign
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
    return sign


def differential(m: MinimalModel) -> dict[str, GcaElement]:
    """The image of every generator of ``m`` under d: zero on each u, P_j on v_j.

    Each form is read from the presentation and padded with zero exponents
    on the v, by hand rather than by the package's own padding.
    """
    alg = m.algebra
    images = {name: alg.zero() for name in alg.names}
    pad = (0,) * len(m.odd_names)
    for v, form in zip(m.odd_names, m.presentation.relations):
        images[v] = GcaElement(alg, {k + pad: c for k, c in form.terms.items()})
    return images


def quadratic_part(images: Mapping[str, GcaElement]) -> dict[str, GcaElement]:
    """Word-length-2 component of a differential's image on every generator."""
    return {
        name: GcaElement(image.algebra, {k: c for k, c in image.terms.items() if sum(k) == 2})
        for name, image in images.items()
    }


def elementary_symmetric(k: int, variables: list[GcaElement]) -> GcaElement:
    """The k-th elementary symmetric polynomial of the given elements, by products."""
    if not variables:
        raise ValueError("need at least one variable")
    if k < 1 or k > len(variables):
        raise ValueError(f"k = {k} out of range for {len(variables)} variables")
    algebra = variables[0].algebra
    total = algebra.zero()
    for subset in combinations(variables, k):
        term = algebra.one()
        for v in subset:
            term = term * v
        total = total + term
    return total


def is_homogeneous(p: Polynomial) -> bool:
    return len(set(p.algebra.key_degrees(p.terms))) <= 1


def newton_sigma(k: int, y: list[GcaElement]) -> GcaElement:
    """sigma_k from sigma_k = sum_{i<k} (-1)^{i-1} sigma_{k-i} y_i + (-1)^{k-1} k y_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(y) < k:
        raise ValueError(f"missing y entries: need y_1..y_{k}, got {len(y)}")
    algebra = y[0].algebra
    sigma: list[GcaElement] = [algebra.one()]
    for m in range(1, k + 1):
        total = algebra.zero()
        for i in range(1, m):
            sign = 1 if (i - 1) % 2 == 0 else -1
            total = total + sign * (sigma[m - i] * y[i - 1])
        sign = 1 if (m - 1) % 2 == 0 else -1
        total = total + (sign * m) * y[m - 1]
        sigma.append(total)
    return sigma[k]


def recursion_p(k: int, y: list[GcaElement]) -> GcaElement:
    """p_k solved from p_k - p_{k-1} y_1 + ... +- k y_k = 0 with p_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        if not y:
            raise ValueError("need at least one y entry to know the ambient algebra")
        return y[0].algebra.one()
    if len(y) < k:
        raise ValueError(f"missing y entries: need y_1..y_{k}, got {len(y)}")
    algebra = y[0].algebra
    p: list[GcaElement] = [algebra.one()]
    for m in range(1, k + 1):
        total = algebra.zero()
        for i in range(1, m):
            sign = 1 if (i - 1) % 2 == 0 else -1
            total = total + sign * (y[i - 1] * p[m - i])
        sign = 1 if (m - 1) % 2 == 0 else -1
        total = total + (sign * m) * y[m - 1]
        p.append(total)
    return p[k]


def pairing(w: GcaElement, args: Sequence[LieBasisElement]) -> Fraction:
    """Evaluate a word-length-k element against k suspended basis elements."""
    k = len(args)
    total = Fraction(0)
    algebra = w.algebra
    degrees_of = [d for _, d in algebra.generators]
    names_of = algebra.names
    for mono, coeff in w.terms.items():
        letters = w.letters(mono)
        if len(letters) != k:
            raise ValueError(
                f"length mismatch: monomial has word length {len(letters)}, got {k} arguments"
            )
        letter_degrees = [degrees_of[g] for g in letters]
        letter_names = [names_of[g] for g in letters]
        acc = 0
        for sigma in permutations(range(k)):
            if all(letter_names[sigma[i]] == args[i].dual_to for i in range(k)):
                acc += koszul_sign(sigma, letter_degrees)
        if acc:
            total += coeff * acc
    return total


def pairing_brackets(
    m: MinimalModel, images: Mapping[str, GcaElement], dual_names: Mapping[str, str]
) -> HomotopyLieAlgebra:
    """The brackets ``<v ; s[x, y]> = (-1)^{deg y + 1} <d1 v ; s x, s y>``, pair by pair.

    d1 is the quadratic part of the differential whose image on each of
    ``m``'s generators ``images`` gives, not the model's own ``d1``.
    """
    basis = dual_basis(m, dual_names)
    dual_of = {b.dual_to: b.name for b in basis}
    images = quadratic_part(images)
    brackets = {}
    for x in basis:
        for y in basis:
            target = x.degree + y.degree + 1
            combo = {}
            for gen_name, gen_degree in m.algebra.generators:
                if gen_degree != target or images[gen_name].is_zero():
                    continue
                value = pairing(images[gen_name], [x, y])
                if value:
                    sign = 1 if (y.degree + 1) % 2 == 0 else -1
                    combo[dual_of[gen_name]] = sign * value
            if combo:
                brackets[(x.name, y.name)] = combo
    return HomotopyLieAlgebra(basis, brackets)


def _bracket(L: HomotopyLieAlgebra, x: str, y: str) -> dict:
    return dict(L.brackets.get((x, y), {}))


def _bracket_on_combination(L: HomotopyLieAlgebra, x: str, combo) -> dict:
    out = {}
    for z, c in combo.items():
        for t, v in _bracket(L, x, z).items():
            nv = out.get(t, Fraction(0)) + c * v
            if nv:
                out[t] = nv
            else:
                out.pop(t, None)
    return out


def lie_axioms_full_loop(L: HomotopyLieAlgebra) -> bool:
    """Graded antisymmetry, degree additivity and Jacobi on every triple."""
    names = [b.name for b in L.basis]
    for x in names:
        for y in names:
            dx, dy = L.degree(x), L.degree(y)
            xy = _bracket(L, x, y)
            if any(L.degree(z) != dx + dy for z in xy):
                return False
            sign = -1 if (dx * dy) % 2 == 0 else 1
            if xy != {z: sign * c for z, c in _bracket(L, y, x).items() if c}:
                return False
    for x in names:
        for y in names:
            for z in names:
                left = _bracket_on_combination(L, x, _bracket(L, y, z))
                right = {}
                for t, c in _bracket(L, x, y).items():
                    for s, v in _bracket(L, t, z).items():
                        nv = right.get(s, Fraction(0)) + c * v
                        if nv:
                            right[s] = nv
                        else:
                            right.pop(s, None)
                sign = -1 if (L.degree(x) * L.degree(y)) % 2 else 1
                for t, c in _bracket_on_combination(L, y, _bracket(L, x, z)).items():
                    nv = right.get(t, Fraction(0)) + sign * c
                    if nv:
                        right[t] = nv
                    else:
                        right.pop(t, None)
                if left != right:
                    return False
    return True


def naive_normal_form(tails: dict, weights: list[int], poly: dict) -> dict:
    """Rewrite the largest reducible word first, found by a full scan each step.

    ``tails`` maps leading words to their tails; the occurrence rewritten is
    the leftmost, the shortest leading word first at each position.
    """
    todo = {w: c for w, c in poly.items() if c}
    out = {}
    while todo:
        word = max(todo, key=lambda w: (sum(weights[g] for g in w), w))
        coeff = todo.pop(word)
        hit = next(
            (
                (i, word[i:j])
                for i in range(len(word))
                for j in range(i + 1, len(word) + 1)
                if word[i:j] in tails
            ),
            None,
        )
        if hit is None:
            out[word] = coeff
            continue
        i, lead = hit
        for t, c in tails[lead].items():
            w = word[:i] + t + word[i + len(lead) :]
            v = todo.get(w, 0) + coeff * c
            if v:
                todo[w] = v
            else:
                todo.pop(w, None)
    return out


def naive_interreduce(presentation: RingPresentation, relations: Iterable, weights: list[int]):
    """The rules of ``relations`` by re-normalizing every pending relation after each new rule.

    ``relations`` holds (degree, polynomial on generator-index words) pairs
    and ``weights`` the generator weights of the word order.  One degree at
    a time, the largest word of the pending relations leads; the first
    relation in pending order with a unit coefficient on it is the pivot
    (over Z there must be one), else the first.  Returns the tails by
    leading word, in the order the rules were made, and the failure
    message, or None.
    """
    integer = presentation.domain == "integer"
    names = presentation.algebra.names
    tails: dict = {}
    by_degree: dict = {}
    for degree, poly in relations:
        by_degree.setdefault(degree, []).append(poly)

    def order(w):
        return sum(weights[g] for g in w), w

    for degree in sorted(by_degree):
        pending = by_degree[degree]
        while pending := [q for q in (naive_normal_form(tails, weights, q) for q in pending) if q]:
            lead = max((w for q in pending for w in q), key=order)
            group = [q for q in pending if lead in q]
            pivot = next((q for q in group if q[lead] in (1, -1)), None)
            if pivot is None and integer:
                word = ".".join(names[g] for g in lead)
                return tails, f"leading coefficient {group[0][lead]} on {word}"
            pivot = pivot or group[0]
            inv = pivot[lead] if pivot[lead] in (1, -1) else Fraction(1) / pivot[lead]
            tails[lead] = {w: -c * inv for w, c in pivot.items() if w != lead}
            pending = [q for q in pending if q is not pivot]
    return tails, None


def naive_resolve(tails: dict, weights: list[int]):
    """Rewrite every overlap of the leading words of ``tails`` to normal form.

    Every pair of leading words ``u``, ``v`` whose last ``k`` and first
    ``k`` letters agree, with ``k`` shorter than both, is an overlap; it
    resolves when the difference of its two one-step rewrites has
    :func:`naive_normal_form` zero.  No overlap is taken on trust.  Returns
    the first overlap word that does not resolve, or None, and the number
    of overlaps resolved before it.
    """
    resolved = 0
    for u, v in product(tails, repeat=2):
        for k in range(1, min(len(u), len(v))):
            if u[-k:] != v[:k]:
                continue
            diff: dict = {}
            for t, c in tails[u].items():
                diff[t + v[k:]] = diff.get(t + v[k:], 0) + c
            for t, c in tails[v].items():
                diff[u[:-k] + t] = diff.get(u[:-k] + t, 0) - c
            if naive_normal_form(tails, weights, diff):
                return u + v[k:], resolved
            resolved += 1
    return None, resolved
