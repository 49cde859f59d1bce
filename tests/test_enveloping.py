"""Presentations, graded dimension/Smith engines, and the PBW series.

The incremental engines are cross-checked against the full word-basis
elimination in ``oracles.py`` on every instance small enough to enumerate.
"""

import copy
import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopalg import linalg, normal_words
from loopalg.catalog import (
    DEFAULT_CHECKED_RANKS,
    catalog_entry,
    default_max_degree,
    exponents,
    expected_integral_presentation,
    expected_rational_presentation,
)
from loopalg.enveloping import (
    BudgetExceededError,
    FreeGradedAlgebra,
    RingPresentation,
    graded_dimensions,
    graded_smith_report,
    pbw_series,
    pbw_series_of_degrees,
    relation_string,
    series_equal,
    uea_pair_degrees,
    uea_pairs,
    uea_presentation,
)
from loopalg.families import LieFamily
from loopalg.homotopy_lie import HomotopyLieAlgebra, LieBasisElement
from loopalg.pipeline import presentation_degrees, rational_pipeline
from loopalg.series import PoincareSeries

from oracles import (
    brute_graded_dimension,
    brute_smith,
    central_split,
    dense_smith_invariants,
    graded_dimension,
    invariant_factors,
    split_report,
    with_torsion,
)


def test_relation_homogeneity_enforced():
    """Zero, inhomogeneous and degree-0 relations are refused, each with its message."""
    alg = FreeGradedAlgebra([("x", 1), ("y", 2)])
    x, y = alg.gen("x"), alg.gen("y")
    with pytest.raises(ValueError, match="^zero relation$"):
        RingPresentation(alg, [x * y, x - x])
    with pytest.raises(ValueError, match=r"^inhomogeneous relation: 1\*x \+ 1\*y$"):
        RingPresentation(alg, [x * y, x + y])
    with pytest.raises(ValueError, match="^relations must have positive degree$"):
        RingPresentation(alg, [x * y, alg.one()])


def test_integer_domain_rejects_fractions():
    alg = FreeGradedAlgebra([("x", 1)])
    bad = alg.gen("x") * Fraction(1, 2)
    with pytest.raises(ValueError):
        RingPresentation(alg, [bad], domain="integer")


def test_uea_presentation_su3_relations():
    result = rational_pipeline(catalog_entry(LieFamily.SU, 2))
    rendered = {relation_string(r) for r in result.presentation.relations}
    assert "1*a1.a1 - 2*b1" in rendered
    assert "1*a1.a2 + 1*a2.a1 - 2*b1" in rendered
    assert "1*a1.b1 - 1*b1.a1" in rendered
    assert "1*b1.b2 - 1*b2.b1" in rendered


def test_presentation_degrees_match_the_built_presentation():
    """The degrees the budget reads before any build are the pipeline's own.

    The generator degrees in order, and the relations counted per degree up
    to each cut, the last past every relation.
    """
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]
    for family, rank in configs + [(LieFamily.SU, 6), (LieFamily.SO_EVEN, 5)]:
        p = rational_pipeline(catalog_entry(family, rank)).presentation
        for cut in (1, 2, 3, 7, 12, 100):
            rels = Counter(d for d in p.relation_degrees if d <= cut)
            built = [d for _, d in p.generators], rels
            got = presentation_degrees(rank, exponents(family, rank), cut)
            assert got == built, (family, rank, cut)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=12), st.integers(0, 14))
def test_pair_degrees_count_the_pairs_without_listing_them(degrees, max_degree):
    pairs = Counter(degrees[i] + degrees[j] for i, j in uea_pairs(degrees))
    want = {d: n for d, n in pairs.items() if d <= max_degree}
    assert uea_pair_degrees(degrees, max_degree) == want


def test_pbw_series_from_the_exponents_is_the_built_lie_algebras():
    """By PBW the series reads only the Lie basis degrees, which the exponents give.

    An integer compute reports this series without building the pipeline.
    """
    configs = [
        (f, r, default_max_degree(f)) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks
    ]
    ring_deep = [(LieFamily.SU, 7, 10), (LieFamily.SU, 6, 12), (LieFamily.E6, 6, 16)]
    for family, rank, n in configs + ring_deep:
        gens, _ = presentation_degrees(rank, exponents(family, rank), n)
        built = pbw_series(rational_pipeline(catalog_entry(family, rank)).lie_algebra, n)
        assert pbw_series_of_degrees(gens, n) == built, (family, rank, n)


def test_relation_degrees_are_the_relations_own():
    """The degrees recorded in the validating scan, on every catalog presentation."""
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            presentations = [
                rational_pipeline(catalog_entry(family, rank)).presentation,
                catalog_entry(family, rank).expected_rational,
                expected_integral_presentation(family, rank),
            ]
            for p in presentations:
                assert p.relation_degrees == tuple(r.degree() for r in p.relations), (family, rank)


def test_each_relation_is_held_in_one_form_that_its_routes_leave_unchanged():
    """Relations hold index words, with ints for integral values, and no second copy.

    Every checked catalog presentation in both domains and every pipeline
    presentation, and one rational relation with a coefficient 1/2, which
    stays a ``Fraction``.  The certificate and the engine read each
    relation's terms and leave them as they were.
    """
    alg = FreeGradedAlgebra([("x", 1), ("y", 1)])
    x, y = alg.gen("x"), alg.gen("y")
    half = RingPresentation(alg, [x * y - Fraction(1, 2) * (y * x)])
    assert half.relations[0].terms == {(0, 1): 1, (1, 0): Fraction(-1, 2)}
    assert not hasattr(half, "coded_relations")
    presentations = [half]
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            entry = catalog_entry(family, rank)
            presentations += [entry.expected_rational, entry.integral, entry.pipeline.presentation]
    for p in presentations:
        held = [r.terms for r in p.relations]
        before = copy.deepcopy(held)
        normal_words.certificate(p)
        p.engine().report(6)
        assert all(r.terms is terms for r, terms in zip(p.relations, held))
        assert held == before


def _assert_one_form(poly, key_ok):
    """Every key passes ``key_ok`` and every integral coefficient is an ``int``."""
    assert poly.terms
    for key, c in poly.terms.items():
        assert type(key) is tuple and key_ok(key), key
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


def test_every_polynomial_the_package_builds_holds_ints_and_index_words():
    """The catalog presentations in both domains, the pipeline presentations,
    the invariant forms, d1 and the brackets of every checked configuration."""
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            entry = catalog_entry(family, rank)
            pipe = entry.pipeline
            for p in (entry.expected_rational, entry.integral, pipe.presentation):
                n = len(p.algebra)
                for r in p.relations:
                    _assert_one_form(r, lambda w: all(type(g) is int and 0 <= g < n for g in w))
            model = pipe.model
            for form in (*entry.cohomology.relations, *model.d1.values()):
                n = len(form.algebra)
                _assert_one_form(form, lambda m: len(m) == n and all(type(e) is int for e in m))
            for combo in pipe.lie_algebra.brackets.values():
                for c in combo.values():
                    assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


def test_uea_requires_lie_axioms():
    basis = [
        LieBasisElement("x", 2, "gx"),
        LieBasisElement("y", 2, "gy"),
        LieBasisElement("z", 4, "gz"),
    ]
    bad = HomotopyLieAlgebra(
        basis, {("x", "y"): {"z": Fraction(1)}, ("y", "x"): {"z": Fraction(1)}}
    )
    with pytest.raises(ValueError):
        uea_presentation(bad)


def test_su3_dimensions_match_pbw_enumeration():
    """Oracle: count monomials a1^e1 a2^e2 b1^f b2^g with e in {0,1}."""
    expected = []
    for d in range(11):
        count = 0
        for e1 in (0, 1):
            for e2 in (0, 1):
                for f in range(d + 1):
                    for g in range(d + 1):
                        if e1 + e2 + 2 * f + 4 * g == d:
                            count += 1
        expected.append(count)
    assert expected[:6] == [1, 2, 2, 2, 3, 4]
    result = rational_pipeline(catalog_entry(LieFamily.SU, 2))
    assert list(graded_dimensions(result.presentation, 10)) == expected
    assert list(pbw_series(result.lie_algebra, 10)) == expected


def test_free_algebra_on_one_generator():
    alg = FreeGradedAlgebra([("a1", 1)])
    free = RingPresentation(alg, [])
    assert [graded_dimension(free, d) for d in range(8)] == [1] * 8


def test_degree_zero_dimension_is_one():
    entry = catalog_entry(LieFamily.SP, 2)
    assert graded_dimension(entry.expected_rational, 0) == 1


def test_engine_matches_word_basis_oracle_on_catalog_cases():
    for family, rank, top in [
        (LieFamily.SU, 2, 6),
        (LieFamily.SP, 2, 6),
        (LieFamily.G2, 2, 5),
    ]:
        p = catalog_entry(family, rank).expected_rational
        for d in range(top + 1):
            assert graded_dimension(p, d) == brute_graded_dimension(p, d)


def test_pbw_series_g2_and_empty():
    result = rational_pipeline(catalog_entry(LieFamily.G2, 2))
    series = pbw_series(result.lie_algebra, 12)
    assert series.coefficient(4) == 2  # b1^2 and a1.a2.b1
    empty = HomotopyLieAlgebra([], {})
    assert list(pbw_series(empty, 4)) == [1, 0, 0, 0, 0]


def test_graded_smith_su2_example():
    p = expected_integral_presentation(LieFamily.SU, 1)
    entry = graded_smith_report(p, 2).entries[2]
    assert entry.rank == 1 and entry.torsion == ()
    rank, torsion = brute_smith(p, 2)
    assert (rank, torsion) == (1, [])
    assert graded_smith_report(p, 0).entries[0].rank == 1


def test_fabricated_doubled_relation_shows_torsion():
    alg = FreeGradedAlgebra([("w", 2)])
    p = RingPresentation(alg, [2 * alg.gen("w")], domain="integer")
    entry = graded_smith_report(p, 2).entries[2]
    assert entry.torsion == (2,)
    assert not graded_smith_report(p, 2).torsion_free()
    rank, torsion = brute_smith(p, 2)
    assert (rank, torsion) == (0, [2])


def test_free_module_torsion_free():
    alg = FreeGradedAlgebra([("x", 1), ("y", 2)])
    p = RingPresentation(alg, [], domain="integer")
    assert graded_smith_report(p, 6).torsion_free()


def test_series_equal_contract():
    a = PoincareSeries((1, 2, 2))
    b = PoincareSeries((1, 2, 2, 2))
    assert series_equal(a, b, 2)
    assert series_equal(a, a, 2)
    with pytest.raises(ValueError):
        series_equal(a, b, 3)


def test_su3_and_sp2_series_differ_in_degree_4():
    su = rational_pipeline(catalog_entry(LieFamily.SU, 2))
    sp = rational_pipeline(catalog_entry(LieFamily.SP, 2))
    a = pbw_series(su.lie_algebra, 10)
    b = pbw_series(sp.lie_algebra, 10)
    assert not series_equal(a, b, 10)
    assert a.coefficient(4) == 3 and b.coefficient(4) == 2


def test_budget_cap_raises_with_degree():
    entry = catalog_entry(LieFamily.SU, 2)
    with pytest.raises(BudgetExceededError) as err:
        graded_dimensions(entry.expected_rational, 10, budget=3)
    assert err.value.degree >= 1


def _refusal_presentation(domain):
    """su3's pipeline presentation, or its integral one with a doubled relation."""
    if domain == "rational":
        return rational_pipeline(catalog_entry(LieFamily.SU, 2)).presentation
    p = expected_integral_presentation(LieFamily.SU, 2)
    return RingPresentation(p.algebra, [2 * p.relations[0], *p.relations[1:]], "integer")


@pytest.mark.parametrize(
    "domain, eliminator, budget, degree, rows",
    [("rational", "rref_normalize", 20, 7, 24), ("integer", "coker_normalize", 40, 6, 43)],
)
def test_budget_refuses_a_degree_before_building_its_rows(
    monkeypatch, domain, eliminator, budget, degree, rows
):
    calls = []
    original = getattr(linalg, eliminator)

    def spy(matrix, ncols):
        calls.append(ncols)
        return original(matrix, ncols)

    monkeypatch.setattr(linalg, eliminator, spy)
    p = _refusal_presentation(domain)
    with pytest.raises(BudgetExceededError) as err:
        p.engine().report(10, budget)
    # degrees 1 .. degree - 1 were eliminated, the refused one was not touched
    assert len(calls) == degree - 1
    assert (err.value.degree, err.value.size, err.value.budget) == (degree, rows, budget)
    # the refusal names the degree's true row count: one row per relation and
    # basis element of the complementary degree, plus one diagonal row per
    # torsion generator one generator degree down
    lower = p.engine().report(degree - 1).entries
    sizes = [e.rank + len(e.torsion) for e in lower]
    torsion = [len(e.torsion) for e in lower]
    gens = [d for _, d in p.generators]
    assert rows == sum(
        sizes[degree - r.degree()] for r in p.relations if r.degree() <= degree
    ) + sum(torsion[degree - g] for g in gens if g <= degree)
    assert any(torsion) == (domain == "integer")


@pytest.mark.parametrize(
    "domain, eliminator, budget",
    [("rational", "rref_normalize", 20), ("integer", "coker_normalize", 40)],
)
def test_one_engine_per_presentation_checks_each_read_against_its_budget(
    monkeypatch, domain, eliminator, budget
):
    """A smaller budget refuses a degree already built as a fresh presentation would.

    The presentation keeps one engine, so the refused read eliminates
    nothing again, and a later uncapped read still answers.
    """
    calls = []
    original = getattr(linalg, eliminator)

    def spy(matrix, ncols):
        calls.append(ncols)
        return original(matrix, ncols)

    monkeypatch.setattr(linalg, eliminator, spy)
    read = graded_dimensions if domain == "rational" else graded_smith_report
    p = _refusal_presentation(domain)
    assert p.engine() is p.engine()
    full = read(p, 8)
    with pytest.raises(BudgetExceededError) as err:
        read(p, 8, budget=budget)
    # degrees 1 .. 8, each eliminated once
    assert len(calls) == 8
    fresh = RingPresentation(p.algebra, p.relations, p.domain)
    with pytest.raises(BudgetExceededError) as want:
        read(fresh, 8, budget=budget)
    assert (err.value.degree, err.value.size, err.value.budget) == (
        want.value.degree,
        want.value.size,
        want.value.budget,
    )
    assert str(err.value) == str(want.value)
    assert err.value.degree <= 8
    assert read(p, 8) == full
    assert len(calls) == 8 + want.value.degree - 1


def _random_presentation(rng, domain):
    gens = [("x", 1), ("y", 1), ("z", 2)][: rng.randint(2, 3)]
    alg = FreeGradedAlgebra(gens)
    relations = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(2, 3)
        words = []

        def wordgen(prefix, remaining):
            if remaining == 0:
                words.append(prefix)
                return
            for g, (_, d) in enumerate(gens):
                if d <= remaining:
                    wordgen(prefix + (g,), remaining - d)

        wordgen((), degree)
        terms = {}
        for w in rng.sample(words, k=min(len(words), rng.randint(1, 3))):
            terms[w] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        if terms:
            relations.append(alg.element(terms))
    if not relations:
        relations = [alg.gen(gens[0][0]) * alg.gen(gens[0][0])]
    return RingPresentation(alg, relations, domain=domain)


def test_random_presentations_match_brute_force_rationally():
    rng = random.Random(20240817)
    for _ in range(25):
        p = _random_presentation(rng, "rational")
        for d in range(5):
            assert graded_dimension(p, d) == brute_graded_dimension(p, d)


def test_random_presentations_match_brute_force_integrally():
    rng = random.Random(907739)
    for _ in range(25):
        p = _random_presentation(rng, "integer")
        for d in range(5):
            entry = graded_smith_report(p, d).entries[d]
            rank, torsion = brute_smith(p, d)
            assert (entry.rank, list(entry.torsion)) == (rank, torsion)


def test_relabeling_invariance_of_dimensions():
    base = catalog_entry(LieFamily.SP, 2).expected_rational
    names = [n for n, _ in base.generators]
    degrees = dict(base.generators)
    rng = random.Random(4451)
    for _ in range(5):
        order = names[:]
        rng.shuffle(order)
        alg = FreeGradedAlgebra([(n, degrees[n]) for n in order])
        relabel = [alg.index(n) for n in names]
        rels = [
            alg.element({tuple(relabel[g] for g in w): c for w, c in r.terms.items()})
            for r in base.relations
        ]
        shuffled = RingPresentation(alg, rels)
        for d in range(8):
            assert graded_dimension(shuffled, d) == graded_dimension(base, d)


def test_integral_catalog_cases_match_brute_force():
    for family, rank, top in [(LieFamily.SU, 1, 6), (LieFamily.SP, 2, 5), (LieFamily.G2, 2, 5)]:
        p = expected_integral_presentation(family, rank)
        for d in range(top + 1):
            entry = graded_smith_report(p, d).entries[d]
            rank_, torsion = brute_smith(p, d)
            assert (entry.rank, list(entry.torsion)) == (rank_, torsion)


def test_integral_ranks_equal_rational_dimensions_of_the_same_relations():
    for family, checked in DEFAULT_CHECKED_RANKS.items():
        for rank in checked:
            n = default_max_degree(family)
            p = expected_integral_presentation(family, rank)
            as_rational = RingPresentation(p.algebra, p.relations, domain="rational")
            ranks = graded_smith_report(p, n).ranks()
            assert ranks == graded_dimensions(as_rational, n).coefficients, (family, rank)


def test_presentation_is_freed_without_the_cyclic_collector():
    """The memoized engine holds no reference back to its presentation."""
    gc.disable()
    try:
        p = expected_rational_presentation(LieFamily.SU, 3)
        graded_dimensions(p, 6)
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


NORMAL_FORMS_FIXTURE = Path(__file__).resolve().parent / "golden" / "normal-forms.json"


def _pinned_presentations():
    """Label, presentation and top degree of every pinned normal form.

    su4's pipeline presentation meets non-unit pivots over Q, g2's integral
    one has relations with coefficient 2 (``x1.x1 - 2*y1``), and the doubled
    relation gives torsion rows and a Smith residual block in every degree
    from 2 on.
    """
    su4 = rational_pipeline(catalog_entry(LieFamily.SU, 4)).presentation
    g2 = expected_integral_presentation(LieFamily.G2, 2)
    e6 = expected_rational_presentation(LieFamily.E6, 6)
    doubled = _refusal_presentation("integer")
    return [
        ("su4-rational", su4, 10),
        ("g2-integer", g2, 12),
        ("e6-rational", e6, 12),
        ("su2-integer-doubled", doubled, 10),
    ]


def normal_form_fingerprints():
    """Per degree, the SHA-256 of the engine's invariants and expansions.

    Each expansion is its sorted ``(generator, numerator, denominator)``
    triples, so the fingerprint pins the pivot choice and the basis, not only
    the ranks.
    """
    out = {}
    for label, presentation, top in _pinned_presentations():
        engine = presentation.engine()
        engine.report(top)
        for degree in range(top + 1):
            expansions = [
                sorted((g, Fraction(v).numerator, Fraction(v).denominator) for g, v in e.items())
                for e in engine._expand[degree]
            ]
            payload = json.dumps([engine._invariants[degree], expansions])
            out[f"{label}/{degree}"] = hashlib.sha256(payload.encode()).hexdigest()
    return out


def test_every_normal_form_matches_its_pinned_fingerprint():
    """The fixture was written with ``json.dumps(normal_form_fingerprints(), indent=1)``."""
    assert normal_form_fingerprints() == json.loads(NORMAL_FORMS_FIXTURE.read_text())


# ---------------------------------------------------------------------------
# the central split oracle against the engine
# ---------------------------------------------------------------------------


def test_invariant_factors_match_the_smith_form_of_the_diagonal():
    rng = random.Random(5501)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([]) == ()
    for _ in range(200):
        count = rng.randint(1, 6)
        orders = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 36]) for _ in range(count)]
        diagonal = [[s if i == j else 0 for j in range(len(orders))] for i, s in enumerate(orders)]
        want = tuple(s for s in dense_smith_invariants(diagonal) if s > 1)
        assert invariant_factors(orders) == want, orders


def _with_central(p, degrees, rng, doubled=False):
    """``p`` tensored with a polynomial ring on new even generators of the given degrees.

    Each commutator gets a random sign; ``doubled`` makes the last new
    generator's commutator with the first old one ``2 (c g - g c)``, so that
    generator no longer splits off.
    """
    names = [f"c{k}" for k in range(len(degrees))]
    alg = FreeGradedAlgebra([*p.generators, *zip(names, degrees)])
    g = alg.gen
    relations = [alg.element(r.terms) for r in p.relations]
    for k, c in enumerate(names):
        for other, _ in alg.generators[: len(p.generators) + k]:
            scale = rng.choice([1, -1])
            if doubled and c == names[-1] and other == alg.names[0]:
                scale *= 2
            relations.append(scale * (g(c) * g(other) - g(other) * g(c)))
    return RingPresentation(alg, relations, domain=p.domain)


@pytest.mark.parametrize("domain, seed", [("rational", 6113), ("integer", 6114)])
def test_split_route_matches_the_unsplit_engine_on_random_presentations(domain, seed):
    rng = random.Random(seed)
    torsion_seen = 0
    for _ in range(30):
        degrees = rng.choice([[2], [4], [2, 4], [4, 6]])
        doubled = domain == "integer" and rng.random() < 0.2
        p = _with_central(_random_presentation(rng, domain), degrees, rng, doubled)
        kept = central_split(p)[0].algebra.names
        added = [f"c{k}" for k in range(len(degrees))]
        assert [c for c in added if c in kept] == (added[-1:] if doubled else [])
        got = split_report(p, 6)
        assert got == p.engine().report(6) == normal_words.report(p, 6)
        torsion_seen += not got.torsion_free()
    assert torsion_seen > 0 or domain == "rational"


def test_split_route_merges_torsion_from_different_core_degrees():
    """Z/2 in core degree 1 and Z/3 in core degree 3 meet in degree 3 as Z/6."""
    alg = FreeGradedAlgebra([("x", 1), ("y", 3)])
    x, y = alg.gen("x"), alg.gen("y")
    core = RingPresentation(alg, [2 * x, x * x, 3 * y, x * y, y * x], domain="integer")
    p = _with_central(core, [2], random.Random(1))
    got = split_report(p, 7)
    assert got == p.engine().report(7)
    assert got.entries[3].torsion == (6,)


def _routed_presentations():
    """Every presentation the CLI answers at a checked rank."""
    for family, checked in DEFAULT_CHECKED_RANKS.items():
        for rank in checked:
            n = default_max_degree(family)
            yield f"{family.slug}{rank}-rational", rational_pipeline(
                catalog_entry(family, rank)
            ).presentation, n
            yield f"{family.slug}{rank}-integer", expected_integral_presentation(family, rank), n


def test_split_route_matches_the_unsplit_engine_at_every_checked_rank():
    for label, p, n in _routed_presentations():
        assert split_report(p, n) == p.engine().report(n), label


@pytest.mark.parametrize("family, rank", [(LieFamily.SU, 2), (LieFamily.G2, 2), (LieFamily.F4, 4)])
def test_split_route_matches_the_unsplit_engine_with_injected_torsion(family, rank):
    p = with_torsion(expected_integral_presentation(family, rank))
    n = default_max_degree(family)
    got = split_report(p, n)
    assert got == p.engine().report(n)
    assert not got.torsion_free()
