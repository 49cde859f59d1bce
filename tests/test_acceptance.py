"""Acceptance suite: every criterion checked at exact tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them
inline.  All comparisons are exact equalities of integers or rationals.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from loopalg.catalog import (
    DEFAULT_CHECKED_RANKS,
    catalog_entry,
    default_max_degree,
    expected_integral_presentation,
    splitting_series,
)
from loopalg.cli import main as cli_main
from loopalg.enveloping import (
    FreeGradedAlgebra,
    RingPresentation,
    graded_dimensions,
    graded_smith_report,
    pbw_series,
    series_equal,
)
from loopalg.families import LieFamily
from loopalg.gca import GradedAlgebra
from loopalg.homotopy_lie import brackets_from_d1, graded_lie_axioms_check
from loopalg.minimal_model import (
    CohomologyPresentation,
    build_minimal_model,
    derivation_square_check,
    quotient_dimensions,
)
from loopalg.pipeline import rational_pipeline
from loopalg.symmetric import invariant_polynomials

from oracles import (
    differential,
    elementary_symmetric,
    graded_commutative_dimensions,
    graded_dimension,
    newton_sigma,
    recursion_p,
)

FAMILIES = [
    (LieFamily.SU, 1),
    (LieFamily.SU, 2),
    (LieFamily.SU, 3),
    (LieFamily.SU, 4),
    (LieFamily.SO_ODD, 1),
    (LieFamily.SO_ODD, 2),
    (LieFamily.SO_ODD, 3),
    (LieFamily.SP, 1),
    (LieFamily.SP, 2),
    (LieFamily.SP, 3),
    (LieFamily.SO_EVEN, 3),
    (LieFamily.SO_EVEN, 4),
    (LieFamily.G2, 2),
    (LieFamily.F4, 4),
    (LieFamily.E6, 6),
]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


def expected_bracket_table(entry):
    return {
        pair: {name: Fraction(c) for name, c in combo.items()}
        for pair, combo in entry.expected_brackets.items()
    }


def test_criterion_1_bracket_reproduction():
    with criterion(1, "bracket structure constants reproduce the catalog tables"):
        for family, rank in FAMILIES:
            entry = catalog_entry(family, rank)
            start = time.perf_counter()
            model = build_minimal_model(entry.cohomology, entry.odd_names)
            lie = brackets_from_d1(model, entry.dual_names)
            elapsed = time.perf_counter() - start
            got = {pair: dict(combo) for pair, combo in lie.brackets.items()}
            assert got == expected_bracket_table(entry), (family, rank)
            assert elapsed < 1.0, (family, rank, elapsed)


def test_criterion_2_rational_presentation_equivalence():
    with criterion(2, "uea dims == expected dims == pbw == splitting (degrees 0..N)"):
        start = time.perf_counter()
        for family, rank in FAMILIES:
            n = default_max_degree(family)
            entry = catalog_entry(family, rank)
            result = rational_pipeline(catalog_entry(family, rank))
            uea = graded_dimensions(result.presentation, n)
            expected = graded_dimensions(entry.expected_rational, n)
            pbw = pbw_series(result.lie_algebra, n)
            split = splitting_series(family, rank, n)
            assert series_equal(uea, expected, n), (family, rank)
            assert series_equal(uea, pbw, n), (family, rank)
            assert series_equal(pbw, split, n), (family, rank)
        su3 = rational_pipeline(catalog_entry(LieFamily.SU, 2))
        assert list(graded_dimensions(su3.presentation, 5)) == [1, 2, 2, 2, 3, 4]
        assert time.perf_counter() - start < 60.0


def test_criterion_3_cohomology_dimension_equals_weyl_order():
    with criterion(3, "total cohomology dimension equals the Weyl group order"):
        # expected totals recomputed from the order formulas (n+1)!, 2^n n!,
        # 2^(n-1) n!, 12; the degreewise rank count must agree
        cases = [
            (LieFamily.SU, 2, 6),
            (LieFamily.SU, 3, 24),
            (LieFamily.SP, 2, 8),
            (LieFamily.SO_ODD, 2, 8),
            (LieFamily.SO_EVEN, 3, 24),
            (LieFamily.G2, 2, 12),
        ]
        for family, rank, expected_total in cases:
            entry = catalog_entry(family, rank)
            assert entry.weyl_order == expected_total, (family, rank)
            dims = quotient_dimensions(entry.cohomology, entry.cohomology.socle_degree())
            assert dims.total() == expected_total, (family, rank, dims.total())


def test_criterion_4_torsion_freeness():
    with criterion(4, "integral presentations are torsion free up to N"):
        start = time.perf_counter()
        for family, rank in FAMILIES:
            n = default_max_degree(family)
            entry = catalog_entry(family, rank)
            report = graded_smith_report(expected_integral_presentation(family, rank), n)
            assert report.torsion_free(), (family, rank, report.torsion_lists())
        assert time.perf_counter() - start < 120.0


def test_criterion_5_integral_ranks_match_rational_dimensions():
    with criterion(5, "Smith ranks equal rational graded dimensions degreewise"):
        for family, rank in FAMILIES:
            n = default_max_degree(family)
            entry = catalog_entry(family, rank)
            result = rational_pipeline(catalog_entry(family, rank))
            report = graded_smith_report(expected_integral_presentation(family, rank), n)
            assert list(report.ranks()) == list(pbw_series(result.lie_algebra, n)), (
                family,
                rank,
            )
        g2 = rational_pipeline(catalog_entry(LieFamily.G2, 2))
        series = pbw_series(g2.lie_algebra, 12)
        assert series.coefficient(10) == 3
        assert series.coefficient(11) == 4


def test_criterion_6_newton_and_recursion_identities():
    with criterion(6, "Newton and recursion formulas specialize to power sums"):
        start = time.perf_counter()
        for m in range(1, 6):
            alg = GradedAlgebra([(f"t{i}", 2) for i in range(1, m + 1)])
            ts = [alg.gen(f"t{i}") for i in range(1, m + 1)]
            y = [
                elementary_symmetric(i, ts) if i <= m else alg.zero()
                for i in range(1, 7)
            ]
            for k in range(1, 7):
                power_sum = alg.zero()
                for t in ts:
                    power_sum = power_sum + t**k
                assert newton_sigma(k, y) == power_sum, (m, k)
                assert recursion_p(k, y) == power_sum, (m, k)
        assert time.perf_counter() - start < 5.0


def test_criterion_7_invariant_polynomial_pins():
    with criterion(7, "quadratic invariant forms match the pinned expressions"):
        f4 = invariant_polynomials(LieFamily.F4, 4, 2)
        alg = f4.algebra
        assert f4 == 3 * (
            alg.gen("u1") ** 2 + alg.gen("u2") ** 2 + alg.gen("u3") ** 2 + alg.gen("u4") ** 2
        )
        g2 = invariant_polynomials(LieFamily.G2, 2, 2)
        alg = g2.algebra
        assert g2 == 2 * (
            alg.gen("u1") ** 2 + alg.gen("u2") ** 2 + alg.gen("u1") * alg.gen("u2")
        )
        e6 = invariant_polynomials(LieFamily.E6, 6, 2)
        alg = e6.algebra
        quad = alg.gen("u") ** 2
        for i in range(1, 6):
            quad = quad + alg.gen(f"u{i}") ** 2
        for i in range(1, 6):
            for j in range(i + 1, 6):
                quad = quad + alg.gen(f"u{i}") * alg.gen(f"u{j}")
        assert e6 == 12 * quad


def _random_homogeneous(rng, alg, degree):
    monomials = alg.monomials_of_degree(degree)
    picked = rng.sample(monomials, k=min(len(monomials), rng.randint(1, 3)))
    return alg.element(
        {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for m in picked}
    )


def test_criterion_8_structural_property_suite():
    with criterion(8, "structural properties (d^2, axioms, signs, invariances)"):
        # d^2 = 0 and graded Lie axioms on every catalog model
        for family, rank in FAMILIES:
            result = rational_pipeline(catalog_entry(family, rank))
            assert derivation_square_check(result.model), (family, rank)
            assert graded_lie_axioms_check(result.lie_algebra), (family, rank)

        # commutation signs and associativity on 100+ random homogeneous pairs
        alg = GradedAlgebra([("u1", 2), ("u2", 2), ("v1", 3), ("v2", 5)])
        rng = random.Random(65537)
        for _ in range(120):
            p = _random_homogeneous(rng, alg, rng.choice([2, 3, 4, 5, 6]))
            q = _random_homogeneous(rng, alg, rng.choice([2, 3, 4, 5, 6]))
            sign = -1 if (p.degree() * q.degree()) % 2 else 1
            assert p * q == sign * (q * p)
            r = _random_homogeneous(rng, alg, rng.choice([2, 3, 4]))
            assert (p * q) * r == p * (q * r)

        # bracket invariance under a non-quadratic perturbation of d: the
        # model of a presentation whose d(v2) gains a cubic term
        entry = catalog_entry(LieFamily.SU, 2)
        model = build_minimal_model(entry.cohomology, ["v1", "v2"])
        c_alg = entry.cohomology.algebra
        p1, p2 = entry.cohomology.relations
        twisted = CohomologyPresentation(c_alg, [p1, p2 + c_alg.gen("u1") ** 2 * c_alg.gen("u2")])
        perturbed = build_minimal_model(twisted, ["v1", "v2"])
        assert differential(perturbed)["v2"] != differential(model)["v2"]
        assert (
            brackets_from_d1(model, entry.dual_names).brackets
            == brackets_from_d1(perturbed, entry.dual_names).brackets
        )

        # relabeling invariance of graded dimensions
        base = catalog_entry(LieFamily.SU, 2).expected_rational
        names = [n for n, _ in base.generators]
        degrees = dict(base.generators)
        rng = random.Random(271828)
        for _ in range(100):
            order = names[:]
            rng.shuffle(order)
            alg = FreeGradedAlgebra([(n, degrees[n]) for n in order])
            relabel = [alg.index(n) for n in names]
            shuffled = RingPresentation(
                alg,
                [
                    alg.element({tuple(relabel[g] for g in w): c for w, c in r.terms.items()})
                    for r in base.relations
                ],
            )
            d = rng.randint(0, 7)
            assert graded_dimension(shuffled, d) == graded_dimension(base, d)

        # determinism of reports: byte-identical output for the same config
        import io
        from contextlib import redirect_stdout

        def run_compute():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(
                    ["compute", "--family", "so-even", "--rank", "3", "--format", "json"]
                )
            assert code == 0
            return buf.getvalue()

        assert run_compute() == run_compute()


def test_criterion_9_f4_commutation_sign_settled_by_ring_invariant():
    """The integral presentation tensored with Q is the rational ring, f4 included.

    Equal ranks do not show it; the graded-commutative quotient does.  f4's
    degree-1 classes anticommute: with the commuting sign, flipped in its six
    x_i x_j relations, that quotient collapses past degree 1.
    """
    with criterion(9, "f4's commutation sign settled by the graded-commutative quotient"):
        n = 8
        for family, ranks in DEFAULT_CHECKED_RANKS.items():
            for rank in ranks:
                rational = rational_pipeline(catalog_entry(family, rank)).presentation
                integral = expected_integral_presentation(family, rank)
                want = graded_commutative_dimensions(rational, n)
                assert graded_commutative_dimensions(integral, n) == want, (family, rank)
        f4 = expected_integral_presentation(LieFamily.F4, 4)
        assert graded_commutative_dimensions(f4, n) == [1, 4, 6, 4, 1, 0, 0, 0, 0]
        g = f4.algebra.gen
        odd = [x for x, d in f4.generators if d == 1]
        commutators = {
            g(x) * g(y) + g(y) * g(x): g(x) * g(y) - g(y) * g(x)
            for i, x in enumerate(odd)
            for y in odd[i + 1 :]
        }
        assert sum(r in commutators for r in f4.relations) == 6
        flipped = [commutators.get(r, r) for r in f4.relations]
        commuting = RingPresentation(f4.algebra, flipped, domain="integer")
        assert graded_commutative_dimensions(commuting, n) == [1, 4] + [0] * (n - 1)
