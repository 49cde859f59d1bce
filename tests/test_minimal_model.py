"""Minimal models, quadratic parts, and the commutative quotient counts."""

import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopalg import catalog, linalg, minimal_model, symmetric
from loopalg.catalog import DEFAULT_CHECKED_RANKS, catalog_entry
from loopalg.enveloping import BudgetExceededError
from loopalg.families import LieFamily
from loopalg.gca import GradedAlgebra
from loopalg.minimal_model import (
    CohomologyPresentation,
    build_minimal_model,
    derivation_square_check,
    is_regular,
    quotient_dimensions,
    regular_sequence_check,
)
from loopalg.series import complete_intersection_coefficients
from oracles import brute_commutative_dimension, differential, exponent_tuples, quadratic_part
from test_acceptance import FAMILIES


def presentation(family, rank):
    return catalog_entry(family, rank).cohomology


def model_of(family, rank):
    entry = catalog_entry(family, rank)
    return build_minimal_model(entry.cohomology, entry.odd_names)


def test_su3_model_degrees():
    model = model_of(LieFamily.SU, 2)
    degrees = dict(model.algebra.generators)
    assert degrees["v1"] == 3 and degrees["v2"] == 5


def test_so5_model_degrees():
    model = model_of(LieFamily.SO_ODD, 2)
    degrees = dict(model.algebra.generators)
    assert degrees["v1"] == 3 and degrees["v2"] == 7


def test_so6_model_degrees():
    model = model_of(LieFamily.SO_EVEN, 3)
    degrees = dict(model.algebra.generators)
    assert (degrees["v1"], degrees["v2"], degrees["v3"]) == (3, 7, 5)


def test_quadratic_part_su3():
    model = model_of(LieFamily.SU, 2)
    d1 = quadratic_part(differential(model))
    alg = model.algebra
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    assert d1["v1"] == 2 * u1**2 + 2 * u2**2 + 2 * (u1 * u2)
    assert d1["v2"].is_zero()


def test_quadratic_part_so_odd():
    model = model_of(LieFamily.SO_ODD, 2)
    d1 = quadratic_part(differential(model))
    alg = model.algebra
    assert d1["v1"] == alg.gen("u1") ** 2 + alg.gen("u2") ** 2
    assert d1["v2"].is_zero()


def test_quadratic_part_f4():
    model = model_of(LieFamily.F4, 4)
    d1 = quadratic_part(differential(model))
    alg = model.algebra
    expected = alg.zero()
    for i in range(1, 5):
        expected = expected + 3 * alg.gen(f"u{i}") ** 2
    assert d1["v2"] == expected
    for name in ("v6", "v8", "v12"):
        assert d1[name].is_zero()


# ring-deep's configurations in perfbench/workloads.py
RING_DEEP = [(LieFamily.SU, 7), (LieFamily.SU, 6), (LieFamily.E6, 6)]


def test_d1_is_the_quadratic_part_of_the_full_differential():
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks] + RING_DEEP
    for family, rank in configs:
        model = model_of(family, rank)
        d1 = quadratic_part(differential(model))
        assert model.d1 == {n: e for n, e in d1.items() if e}, (family, rank)
        assert len(model.d1) == 1, (family, rank)  # exponent 2 occurs once


def test_a_form_is_built_on_its_first_read_and_checked_against_its_degree():
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    forms = [u1 * u1 + u2 * u2, u1 * u2, u1 * u1 * u2 + u2 * u2 * u2]
    built = []

    def build(j):
        built.append(j)
        return forms[j]

    c = CohomologyPresentation(alg, degrees=[4, 6, 6], build=build)
    assert (c.socle_degree(), built) == (10, [])
    model = build_minimal_model(c, ["v1", "v2", "v3"])
    assert model.d1 == {"v1": model.algebra.element({(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1})}
    assert c.relation(0) == forms[0] and built == [0]  # kept, not built again
    with pytest.raises(ValueError, match="^relation 1 has degree 4, declared 6$"):
        c.relation(1)
    with pytest.raises(ValueError, match="^relation 1 has degree 4, declared 6$"):
        c.relations
    forms[1] = u1 * u1 * u1 + u1 * u2
    with pytest.raises(ValueError, match="^relations must be nonzero and homogeneous$"):
        c.relation(1)
    forms[1] = u1 * u1 * u1
    assert c.relations == (forms[0], forms[1], forms[2])
    assert built == [0, 1, 1, 1, 1, 2]
    with pytest.raises(ValueError, match="^relations must have even degree >= 4$"):
        CohomologyPresentation(alg, degrees=[4, 5], build=build)


def test_catalog_models_have_square_zero_differential():
    for family, rank in [
        (LieFamily.SU, 3),
        (LieFamily.SP, 2),
        (LieFamily.SO_EVEN, 3),
        (LieFamily.G2, 2),
    ]:
        model = model_of(family, rank)
        assert derivation_square_check(model)
        # the reason it holds: every image lies in Q[u], on which d is zero
        odd = range(len(model.presentation.algebra), len(model.algebra))
        for image in differential(model).values():
            assert all(not mono[i] for mono in image.terms for i in odd), (family, rank)


def test_the_square_check_reads_false_off_each_broken_shape():
    """Out-of-order or missing u, a v of the wrong degree or name, d1 off the v."""
    model = model_of(LieFamily.SU, 2)
    assert derivation_square_check(model)
    u, v = [("u1", 2), ("u2", 2)], [("v1", 3), ("v2", 5)]
    u1 = model.algebra.gen("u1")
    broken = [
        replace(model, algebra=GradedAlgebra(u[::-1] + v)),  # the u out of order
        replace(model, algebra=GradedAlgebra(u[:1] + v)),  # a u missing
        replace(model, algebra=GradedAlgebra(u + [("v1", 3), ("v2", 7)])),  # a v's degree
        replace(model, algebra=GradedAlgebra(u + [("v1", 3), ("w2", 5)])),  # a v's name
        replace(model, algebra=GradedAlgebra(u + v[:1]), odd_names=("v1",)),  # a v short
        replace(model, d1={**model.d1, "u1": u1 * u1}),  # d1 on a u
        replace(model, d1={"w": u1 * u1}),  # d1 on no generator
    ]
    assert [derivation_square_check(m) for m in broken] == [False] * len(broken)


def test_the_square_check_builds_no_form(monkeypatch):
    """su10's model holds one form, its degree-4 relation; the check reads no other."""
    calls = []
    original = symmetric.invariant_polynomials

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (symmetric, catalog):
        monkeypatch.setattr(module, "invariant_polynomials", spy)
    model = model_of(LieFamily.SU, 10)
    assert len(calls) == 1
    start = time.perf_counter()
    assert derivation_square_check(model)
    assert time.perf_counter() - start < 0.1
    assert len(calls) == 1


def test_quotient_dimensions_su3():
    dims = quotient_dimensions(presentation(LieFamily.SU, 2), 6)
    assert list(dims) == [1, 0, 2, 0, 2, 0, 1]
    assert dims.total() == 6
    # independent cross-check: (1-t^4)(1-t^6)/(1-t^2)^2
    assert list(dims) == complete_intersection_coefficients([4, 6], 2, 6)


def test_quotient_dimensions_su2():
    dims = quotient_dimensions(presentation(LieFamily.SU, 1), 2)
    assert list(dims) == [1, 0, 1]


def test_quotient_dimensions_g2_total():
    coh = presentation(LieFamily.G2, 2)
    dims = quotient_dimensions(coh, coh.socle_degree())
    assert dims.total() == 12
    assert list(dims) == complete_intersection_coefficients(
        [4, 12], 2, coh.socle_degree()
    )


class EliminatorSpy:
    """Patches in both eliminators and records each degree's route.

    A route is the prime of an F_p eliminator, or ``"exact"`` for the
    :class:`~loopalg.linalg.FractionRREF` that ranks a degree over Q.
    """

    def __init__(self, monkeypatch):
        self.routes = []
        over_f_p, over_q = linalg.FractionFreeEliminator, linalg.FractionRREF

        def modular(prime):
            self.routes.append(prime)
            return over_f_p(prime)

        def exact():
            self.routes.append("exact")
            return over_q()

        monkeypatch.setattr(linalg, "FractionFreeEliminator", modular)
        monkeypatch.setattr(linalg, "FractionRREF", exact)


def test_regular_sequence_on_catalog_families(monkeypatch):
    # the pipeline does not check regularity, so every configuration the
    # acceptance tests build is checked here, but for e6, whose quotient is
    # over the default budget; each one, f4 included, is certified by one
    # F_p rank in degree socle + 2
    spy = EliminatorSpy(monkeypatch)
    for family, rank in FAMILIES:
        if family is LieFamily.E6:
            continue
        coh = presentation(family, rank)
        spy.routes.clear()
        dims = quotient_dimensions(coh, coh.socle_degree() + 2)
        assert is_regular(coh, dims), (family, rank)
        assert spy.routes == [minimal_model.CERTIFICATE_PRIME], (family, rank)
        if family is LieFamily.F4:
            assert sum(dims.prefix(coh.socle_degree())) == 1152


CERTIFIED = [
    (LieFamily.SU, 1),
    (LieFamily.SU, 2),
    (LieFamily.SU, 3),
    (LieFamily.SU, 4),
    (LieFamily.SP, 2),
    (LieFamily.SP, 3),
    (LieFamily.SP, 4),
    (LieFamily.SO_ODD, 2),
    (LieFamily.SO_ODD, 3),
    (LieFamily.SO_ODD, 4),
    (LieFamily.SO_EVEN, 3),
    (LieFamily.SO_EVEN, 4),
    (LieFamily.G2, 2),
]


def test_classical_quotients_are_certified_without_an_exact_fallback(monkeypatch):
    spy = EliminatorSpy(monkeypatch)
    for family, rank in CERTIFIED:
        coh = presentation(family, rank)
        n = coh.socle_degree() + 2
        spy.routes.clear()
        dims = quotient_dimensions(coh, n)
        assert list(dims) == complete_intersection_coefficients(
            list(coh.relation_degrees), len(coh.algebra), n
        ), (family, rank)
        # one eliminator per call, over F_p, in degree socle + 2
        assert spy.routes == [minimal_model.CERTIFICATE_PRIME], (family, rank)


def test_uncertified_degrees_fall_back_to_the_exact_route(monkeypatch):
    spy = EliminatorSpy(monkeypatch)
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    # a regular sequence over Q whose two relations agree mod 3
    good = CohomologyPresentation(alg, [u1 * u1 + u2 * u2, u1 * u1 + 4 * u2 * u2])
    monkeypatch.setattr(minimal_model, "CERTIFICATE_PRIME", 3)
    dims = list(quotient_dimensions(good, 6))
    assert dims == [1, 0, 2, 0, 1, 0, 0]
    assert dims == [brute_commutative_dimension(good, d) for d in range(7)]
    # the degree-6 certificate fails mod 3, then degrees 0, 2, 4 and 6 are
    # ranked over Q
    assert spy.routes == [3, "exact", "exact", "exact", "exact"]
    spy.routes.clear()
    assert regular_sequence_check(good)
    assert spy.routes == [3, "exact", "exact", "exact", "exact"]
    # with fewer relations than variables there is no certificate
    spy.routes.clear()
    assert list(quotient_dimensions(CohomologyPresentation(alg, [u1 * u2]), 4)) == [1, 0, 2, 0, 2]
    assert spy.routes == ["exact"] * 3


@pytest.mark.parametrize("family, rank", [(LieFamily.SU, 4), (LieFamily.SO_EVEN, 4)])
def test_the_exact_route_ranks_catalog_quotients(monkeypatch, family, rank):
    # mod 2 the certificate fails, and every even degree is ranked over Q
    spy = EliminatorSpy(monkeypatch)
    monkeypatch.setattr(minimal_model, "CERTIFICATE_PRIME", 2)
    coh = presentation(family, rank)
    n = coh.socle_degree() + 2
    spy.routes.clear()
    assert list(quotient_dimensions(coh, n)) == complete_intersection_coefficients(
        list(coh.relation_degrees), len(coh.algebra), n
    )
    assert spy.routes == [2] + ["exact"] * (n // 2 + 1)
    assert coh.quotient_work.route == f"degreewise (degree {n} certificate failed)"


def test_quotient_budget_is_checked_before_any_elimination(monkeypatch):
    spy = EliminatorSpy(monkeypatch)
    # 286 monomials and 425 rows in degree 20, 364 and 589 in degree 22
    coh = presentation(LieFamily.SU, 4)
    with pytest.raises(BudgetExceededError) as err:
        quotient_dimensions(coh, coh.socle_degree() + 2, budget=500)
    assert spy.routes == []
    assert (err.value.degree, err.value.size, err.value.budget) == (22, 589, 500)
    assert list(quotient_dimensions(coh, coh.socle_degree() + 2, budget=589))[-1] == 0


@pytest.mark.parametrize(
    "family, rank", [(LieFamily.SU, 4), (LieFamily.SO_EVEN, 4), (LieFamily.G2, 2)]
)
def test_quotient_codes_list_the_algebra_monomials_in_order(family, rank):
    """The int codes the quotient ranks are monomials_of_degree's, in its order."""
    coh = presentation(family, rank)
    top = coh.socle_degree() + 2
    basis, _ = minimal_model._coded(coh, top, range(top + 1))
    radix = top // 2 + 1
    for d in range(top + 1):
        monomials = coh.algebra.monomials_of_degree(d)
        assert basis[d] == [sum(a * radix**i for i, a in enumerate(m)) for m in monomials]


def test_regular_sequence_counterexample():
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    bad = CohomologyPresentation(alg, [u1 * u1, u1 * u2])
    assert not regular_sequence_check(bad)


def test_regular_sequence_single_variable_power():
    alg = GradedAlgebra([("u", 2)])
    good = CohomologyPresentation(alg, [alg.gen("u") ** 4])
    assert regular_sequence_check(good)


def test_regular_sequence_count_mismatch():
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    single = CohomologyPresentation(alg, [alg.gen("u1") ** 2])
    with pytest.raises(ValueError):
        regular_sequence_check(single)


def test_a_non_regular_presentation_still_builds():
    """The builder does not test regularity; regular_sequence_check does."""
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    bad = CohomologyPresentation(alg, [u1 * u1, u1 * u2])
    model = build_minimal_model(bad, ["v1", "v2"])
    assert dict(model.algebra.generators)["v1"] == 3
    with pytest.raises(ValueError, match="^need one odd generator name per relation$"):
        build_minimal_model(bad, ["v1"])


def test_presentation_validation():
    alg = GradedAlgebra([("u1", 2)])
    with pytest.raises(ValueError):
        CohomologyPresentation(alg, [alg.gen("u1")])  # degree 2 < 4
    odd_alg = GradedAlgebra([("w", 3)])
    with pytest.raises(ValueError):
        CohomologyPresentation(odd_alg, [])


def test_complete_intersection_series_matches_types_a_bc_g2():
    for family, rank in [(LieFamily.SU, 3), (LieFamily.SP, 2), (LieFamily.G2, 2)]:
        coh = presentation(family, rank)
        n = coh.socle_degree()
        assert list(quotient_dimensions(coh, n)) == complete_intersection_coefficients(
            list(coh.relation_degrees), len(coh.algebra), n
        )


@st.composite
def degree_two_presentations(draw, square=False):
    """Random relations of degree 4 or 6 in 1-3 degree-2 variables.

    With a nonzero ``shift`` every relation is multiplied by one linear form, so the
    relations share a factor and never form a regular sequence.  A ``square``
    presentation has as many relations as its 2 or 3 variables.
    """
    n = draw(st.integers(min_value=2 if square else 1, max_value=3))
    alg = GradedAlgebra([(f"u{i}", 2) for i in range(1, n + 1)])
    coefficient = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )

    def form(degree):
        monomials = exponent_tuples([2] * n, degree)
        coeffs = draw(st.lists(coefficient, min_size=len(monomials), max_size=len(monomials)))
        element = alg.element(dict(zip(monomials, coeffs)))
        return element if element else alg.element({monomials[0]: 1})

    shift = 2 if draw(st.booleans()) else 0
    shared = form(shift) if shift else alg.one()
    size = {"min_size": n, "max_size": n} if square else {"min_size": 1, "max_size": n + 1}
    degrees = draw(st.lists(st.sampled_from([4, 6]), **size))
    relations = [form(d - shift) * shared for d in degrees]
    return CohomologyPresentation(alg, relations)


def _assert_ranked_over_q_after_the_certificate(work):
    """A top-degree certificate, tried first, is the only rank over F_p."""
    tried = "certificate" in work.route  # it held, or it failed
    fields = [w.field for w in work.ranked]
    assert fields == ["F_p"] * tried + ["Q"] * (len(fields) - tried)


@settings(max_examples=60, deadline=None)
@given(degree_two_presentations())
def test_quotient_dimensions_match_product_oracle(c):
    oracle = [brute_commutative_dimension(c, d) for d in range(11)]
    assert list(quotient_dimensions(c, 10)) == oracle
    # a prime as small as 3 makes many certificates fail, and every degree
    # falls back to the exact route
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimal_model, "CERTIFICATE_PRIME", 3)
        assert list(quotient_dimensions(c, 10)) == oracle
    _assert_ranked_over_q_after_the_certificate(c.quotient_work)


@settings(max_examples=40, deadline=None)
@given(degree_two_presentations(square=True))
def test_square_presentations_match_the_oracle_through_socle_plus_two(c):
    # a regular square presentation is certified by its top degree alone, a
    # non-regular one falls back degree by degree; both must match the oracle
    top = c.socle_degree() + 2
    oracle = [brute_commutative_dimension(c, d) for d in range(top + 1)]
    for prime in (minimal_model.CERTIFICATE_PRIME, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minimal_model, "CERTIFICATE_PRIME", prime)
            assert list(quotient_dimensions(c, top)) == oracle
            _assert_ranked_over_q_after_the_certificate(c.quotient_work)
            assert regular_sequence_check(c) == (oracle[top] == 0)


def test_a_top_degree_over_the_budget_falls_back_to_the_degreewise_route(monkeypatch):
    spy = EliminatorSpy(monkeypatch)
    # su3: up to the socle 12 a degree has at most 31 rows; degree 14 has 46
    coh = presentation(LieFamily.SU, 3)
    socle = coh.socle_degree()
    dims = list(quotient_dimensions(coh, socle, budget=40))
    assert dims == complete_intersection_coefficients(list(coh.relation_degrees), 3, socle)
    # each even degree is ranked over Q
    assert spy.routes == ["exact"] * (socle // 2 + 1)
    spy.routes.clear()
    assert list(quotient_dimensions(coh, socle, budget=46)) == dims
    assert spy.routes == [minimal_model.CERTIFICATE_PRIME]
    spy.routes.clear()
    with pytest.raises(BudgetExceededError) as err:
        quotient_dimensions(coh, socle + 2, budget=40)
    assert spy.routes == []
    assert (err.value.degree, err.value.size) == (14, 46)


@pytest.mark.parametrize(
    # budgets that every degree up to socle - 2 fits and socle + 2 does not
    "family, rank, oracle_degree, budget",
    [(LieFamily.SU, 3, 10, 40), (LieFamily.SO_EVEN, 4, 16, 900)],
)
def test_a_request_short_of_the_socle_is_answered_by_the_certificate(
    monkeypatch, family, rank, oracle_degree, budget
):
    spy = EliminatorSpy(monkeypatch)
    coh = presentation(family, rank)
    n = coh.socle_degree() - 2
    dims = list(quotient_dimensions(coh, n))
    assert coh.quotient_work.route == "top-degree certificate"
    assert spy.routes == [minimal_model.CERTIFICATE_PRIME]
    assert dims == complete_intersection_coefficients(
        list(coh.relation_degrees), len(coh.algebra), n
    )
    # the dense oracle takes seconds past so-even4's degree 16; the exact
    # route, forced by a budget below degree socle + 2, covers every degree
    assert dims[: oracle_degree + 1] == [
        brute_commutative_dimension(coh, d) for d in range(oracle_degree + 1)
    ]
    assert list(quotient_dimensions(coh, n, budget=budget)) == dims
    assert coh.quotient_work.route == f"degreewise (degree {n + 4} over the budget)"


def test_quotient_dimensions_of_a_non_regular_presentation():
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    c = CohomologyPresentation(alg, [u1 * u1, Fraction(2, 3) * u1 * u2])
    dims = list(quotient_dimensions(c, 8))
    assert dims == [brute_commutative_dimension(c, d) for d in range(9)]
    assert dims == [1, 0, 2, 0, 1, 0, 1, 0, 1]
    assert dims != complete_intersection_coefficients([4, 4], 2, 8)


class RowSpy:
    """Counts the rows handed to :class:`~loopalg.linalg.FractionFreeEliminator`."""

    def __init__(self, monkeypatch):
        self.rows = 0
        add_row = linalg.FractionFreeEliminator.add_row

        def counted(eliminator, row):
            self.rows += 1
            return add_row(eliminator, row)

        monkeypatch.setattr(linalg.FractionFreeEliminator, "add_row", counted)


@pytest.mark.parametrize(
    "family, rank, rows, skipped",
    # every row up to full rank, without the criterion: 548, 1,825 and 5,457
    [
        (LieFamily.SU, 4, 408, 140),
        (LieFamily.SP, 4, 1241, 584),
        (LieFamily.F4, 4, 3501, 1956),
    ],
)
def test_the_certificate_builds_only_the_rows_the_criterion_keeps(
    monkeypatch, family, rank, rows, skipped
):
    spy = RowSpy(monkeypatch)
    coh = presentation(family, rank)
    top = coh.socle_degree() + 2
    quotient_dimensions(coh, top)
    work = coh.quotient_work
    assert work.route == "top-degree certificate"
    (certificate,) = work.ranked
    assert (certificate.degree, certificate.field) == (top, "F_p")
    assert (certificate.rows, certificate.skipped) == (rows, skipped)
    assert spy.rows == rows
    # the rank-raising rows are the columns: every degree-top monomial
    assert certificate.rank == certificate.monomials == len(coh.algebra.monomials_of_degree(top))


def test_the_quotient_records_its_route_and_every_rank(monkeypatch):
    spy = RowSpy(monkeypatch)
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    fewer = CohomologyPresentation(alg, [u1 * u2])
    quotient_dimensions(fewer, 4)
    work = fewer.quotient_work
    assert work.route == "degreewise (relation count differs from variable count)"
    # degrees 0, 2 and 4 over Q, every row built, none skipped
    assert [(w.degree, w.field, w.monomials, w.rows, w.skipped, w.rank) for w in work.ranked] == [
        (0, "Q", 1, 0, 0, 0),
        (2, "Q", 2, 0, 0, 0),
        (4, "Q", 3, 1, 0, 1),
    ]
    coh = presentation(LieFamily.SU, 3)
    socle = coh.socle_degree()
    quotient_dimensions(coh, socle - 2)
    assert coh.quotient_work.route == "top-degree certificate"
    assert [(w.degree, w.field) for w in coh.quotient_work.ranked] == [(socle + 2, "F_p")]
    quotient_dimensions(coh, socle, budget=40)
    assert coh.quotient_work.route == "degreewise (degree 14 over the budget)"
    # the Q ranks of every degree, every row built
    assert [w.degree for w in coh.quotient_work.ranked] == list(range(0, socle + 1, 2))
    assert {w.field for w in coh.quotient_work.ranked} == {"Q"}
    assert {w.skipped for w in coh.quotient_work.ranked} == {0}
    spy.rows = 0
    quotient_dimensions(coh, socle)
    assert coh.quotient_work.route == "top-degree certificate"
    assert spy.rows == coh.quotient_work.ranked[0].rows
    # a call that raises leaves no record, not the previous call's
    with pytest.raises(BudgetExceededError):
        quotient_dimensions(coh, socle, budget=1)
    assert coh.quotient_work is None
    quotient_dimensions(coh, socle)
    with pytest.raises(ValueError):
        quotient_dimensions(coh, -1)
    assert coh.quotient_work is None


def test_a_leading_coefficient_divisible_by_the_prime_falls_back_exactly(monkeypatch):
    """The criterion needs a unit leading coefficient; without one it costs the fallback."""
    spy = EliminatorSpy(monkeypatch)
    alg = GradedAlgebra([("u1", 2), ("u2", 2), ("u3", 2)])
    u1, u2, u3 = (alg.gen(f"u{i}") for i in (1, 2, 3))
    # LM(P_1) = u1^2 with coefficient 3.  Mod 3 the ideal is (u2^2, u3^2,
    # u1^2), a regular sequence.  But u1^4 comes only from the row u1^2 * P_3,
    # and u1^2 u3^2 only from u1^2 * P_2 and u3^2 * P_3; the criterion leaves
    # out all three
    c = CohomologyPresentation(alg, [3 * u1 * u1 + u2 * u2, u3 * u3, u1 * u1])
    top = c.socle_degree() + 2
    oracle = [brute_commutative_dimension(c, d) for d in range(top + 1)]
    assert oracle == complete_intersection_coefficients([4, 4, 4], 3, top)
    # every degree-top row ranked mod 3 would have certified
    assert brute_commutative_dimension(c, top, prime=3) == 0
    monkeypatch.setattr(minimal_model, "CERTIFICATE_PRIME", 3)
    assert list(quotient_dimensions(c, top)) == oracle
    work = c.quotient_work
    assert work.route == f"degreewise (degree {top} certificate failed)"
    certificate = work.ranked[0]
    assert (certificate.skipped, certificate.rank) == (3, certificate.monomials - 2)
    assert spy.routes[0] == 3 and len(spy.routes) > 1
    # over the large prime 3 is a unit, and the same presentation certifies
    monkeypatch.setattr(minimal_model, "CERTIFICATE_PRIME", 1_073_741_789)
    assert list(quotient_dimensions(c, top)) == oracle
    assert c.quotient_work.route == "top-degree certificate"


@st.composite
def integer_square_presentations(draw):
    """2-3 degree-2 variables and as many random integer forms of degree 4-8.

    Zero coefficients are frequent, so some forms are sparse, and with a
    nonzero ``shift`` every form shares one linear factor, so the relations
    are not a regular sequence.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    alg = GradedAlgebra([(f"u{i}", 2) for i in range(1, n + 1)])
    coefficient = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))

    def form(degree):
        monomials = exponent_tuples([2] * n, degree)
        coeffs = draw(st.lists(coefficient, min_size=len(monomials), max_size=len(monomials)))
        element = alg.element(dict(zip(monomials, coeffs)))
        return element if element else alg.element({monomials[-1]: 1})

    shift = 2 if draw(st.booleans()) else 0
    shared = form(shift) if shift else alg.one()
    degrees = draw(st.lists(st.sampled_from([4, 6, 8]), min_size=n, max_size=n))
    return CohomologyPresentation(alg, [form(d - shift) * shared for d in degrees])


@settings(max_examples=30, deadline=None)
@given(integer_square_presentations())
def test_the_pruned_certificate_agrees_with_every_row_mod_p(c):
    top = c.socle_degree() + 2
    dims = list(quotient_dimensions(c, top))
    certificate = c.quotient_work.ranked[0]
    assert certificate.degree == top
    # the same verdict as the rank of every degree-top row mod p
    every_row = brute_commutative_dimension(c, top, prime=minimal_model.CERTIFICATE_PRIME) == 0
    assert (certificate.rank == certificate.monomials) == every_row
    assert dims == [brute_commutative_dimension(c, d) for d in range(top + 1)]
