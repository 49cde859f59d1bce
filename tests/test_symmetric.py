"""Newton/recursion identities and the per-family invariant forms."""

import hashlib
import json
from pathlib import Path

import pytest

from loopalg.catalog import cohomology_presentation
from loopalg.families import LieFamily
from loopalg.gca import GradedAlgebra
from loopalg.symmetric import invariant_indices, invariant_polynomials

from oracles import elementary_symmetric, is_homogeneous, newton_sigma, recursion_p


def t_algebra(m):
    return GradedAlgebra([(f"t{i}", 2) for i in range(1, m + 1)])


def test_elementary_symmetric_small():
    alg = t_algebra(3)
    t1, t2, t3 = (alg.gen(f"t{i}") for i in (1, 2, 3))
    assert elementary_symmetric(1, [t1, t2]) == t1 + t2
    assert elementary_symmetric(2, [t1, t2]) == t1 * t2
    assert elementary_symmetric(2, [t1, t2, t3]) == t1 * t2 + t1 * t3 + t2 * t3


def test_elementary_symmetric_range_errors():
    alg = t_algebra(2)
    with pytest.raises(ValueError):
        elementary_symmetric(3, [alg.gen("t1"), alg.gen("t2")])
    with pytest.raises(ValueError):
        elementary_symmetric(0, [alg.gen("t1")])


@pytest.mark.parametrize("rank", range(3, 9))
def test_the_euler_class_is_the_top_elementary_symmetric_polynomial(rank):
    """Type D's top form, built as one monomial, equals e_n(u) taken by products."""
    alg = GradedAlgebra([(f"u{i}", 2) for i in range(1, rank + 1)])
    u = [alg.gen(f"u{i}") for i in range(1, rank + 1)]
    euler = invariant_polynomials(LieFamily.SO_EVEN, rank, rank, alg)
    assert euler == elementary_symmetric(rank, u)
    assert all(type(c) is int for c in euler.terms.values())


def free_y(k):
    alg = GradedAlgebra([(f"y{i}", 2 * i) for i in range(1, k + 1)])
    return [alg.gen(f"y{i}") for i in range(1, k + 1)]


def test_newton_sigma_low_cases():
    y = free_y(2)
    assert newton_sigma(1, y) == y[0]
    assert newton_sigma(2, y) == y[0] * y[0] - 2 * y[1]


def test_recursion_p_low_cases():
    y = free_y(2)
    assert recursion_p(0, y) == y[0].algebra.one()
    assert recursion_p(1, y) == y[0]
    assert recursion_p(2, y) == y[0] * y[0] - 2 * y[1]


def test_missing_entries_raise():
    y = free_y(2)
    with pytest.raises(ValueError):
        newton_sigma(3, y)
    with pytest.raises(ValueError):
        recursion_p(3, y)


def test_newton_and_recursion_agree_symbolically():
    y = free_y(6)
    for k in range(1, 7):
        assert newton_sigma(k, y) == recursion_p(k, y)


def power_sum(alg, m, k):
    total = alg.zero()
    for i in range(1, m + 1):
        total = total + alg.gen(f"t{i}") ** k
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_newton_specializes_to_power_sums(m):
    alg = t_algebra(m)
    ts = [alg.gen(f"t{i}") for i in range(1, m + 1)]
    # y_i := e_i(t), zero beyond the variable count
    y = [
        elementary_symmetric(i, ts) if i <= m else alg.zero() for i in range(1, 7)
    ]
    for k in range(1, 7):
        expected = power_sum(alg, m, k)
        assert newton_sigma(k, y) == expected
        assert recursion_p(k, y) == expected


def test_g2_reduced_quadratic_form():
    p2 = invariant_polynomials(LieFamily.G2, 2, 2)
    alg = p2.algebra
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    assert p2 == 2 * (u1 * u1 + u2 * u2 + u1 * u2)


def test_f4_quadratic_form():
    p2 = invariant_polynomials(LieFamily.F4, 4, 2)
    alg = p2.algebra
    expected = alg.zero()
    for i in range(1, 5):
        expected = expected + 3 * (alg.gen(f"u{i}") ** 2)
    assert p2 == expected


def test_so_odd_first_invariant():
    p1 = invariant_polynomials(LieFamily.SO_ODD, 2, 1)
    alg = p1.algebra
    assert p1 == alg.gen("u1") ** 2 + alg.gen("u2") ** 2


def test_e6_quadratic_form_matches_reduced_expression():
    p2 = invariant_polynomials(LieFamily.E6, 6, 2)
    alg = p2.algebra
    expected = alg.zero()
    for i in range(1, 6):
        expected = expected + alg.gen(f"u{i}") ** 2
    expected = expected + alg.gen("u") ** 2
    for i in range(1, 6):
        for j in range(i + 1, 6):
            expected = expected + alg.gen(f"u{i}") * alg.gen(f"u{j}")
    assert p2 == 12 * expected


def test_invalid_index_rejected():
    with pytest.raises(ValueError):
        invariant_polynomials(LieFamily.G2, 2, 3)
    with pytest.raises(ValueError):
        invariant_polynomials(LieFamily.SU, 2, 5)


def substitute_permutation(element, perm):
    """Relabel variables u_i -> u_{perm(i)} and re-expand."""
    alg = element.algebra
    out = alg.zero()
    for mono, coeff in element.terms.items():
        term = alg.element({(0,) * len(alg): coeff})
        for idx, e in enumerate(mono):
            name = alg.names[idx]
            target = perm.get(name, name)
            term = term * alg.gen(target) ** e
        out = out + term
    return out


@pytest.mark.parametrize(
    "family,rank,k",
    [
        (LieFamily.SP, 3, 2),
        (LieFamily.SO_ODD, 3, 3),
        (LieFamily.SO_EVEN, 3, 3),
        (LieFamily.F4, 4, 6),
        (LieFamily.SU, 3, 3),
        (LieFamily.G2, 2, 6),
    ],
)
def test_invariants_symmetric_under_variable_permutations(family, rank, k):
    p = invariant_polynomials(family, rank, k)
    names = [n for n in p.algebra.names]
    rotated = dict(zip(names, names[1:] + names[:1]))
    swapped = dict(zip(names[:2], [names[1], names[0]]))
    assert substitute_permutation(p, rotated) == p
    assert substitute_permutation(p, swapped) == p


def test_f4_sign_sum_consistency_for_higher_invariants():
    # the sign-sum definition keeps exact rational coefficients in every degree
    for k in (6, 8, 12):
        p = invariant_polynomials(LieFamily.F4, 4, k)
        assert is_homogeneous(p) and p.degree() == 2 * k


def test_invariant_indices_per_family():
    assert invariant_indices(LieFamily.SU, 3) == (1, 2, 3)
    assert invariant_indices(LieFamily.SO_EVEN, 4) == (1, 2, 3, 4)
    assert invariant_indices(LieFamily.E6, 6) == (2, 5, 6, 8, 9, 12)


FORMS_FIXTURE = Path(__file__).resolve().parent / "golden" / "invariant-forms.json"
PINNED_RANKS = {
    LieFamily.SU: range(1, 9),
    LieFamily.SP: range(1, 6),
    LieFamily.SO_ODD: range(1, 6),
    LieFamily.SO_EVEN: range(3, 7),
    LieFamily.G2: (2,),
    LieFamily.F4: (4,),
    LieFamily.E6: (6,),
}


def form_fingerprint(p):
    """Term count and SHA-256 of the sorted (exponents, numerator, denominator) triples."""
    triples = sorted((list(m), c.numerator, c.denominator) for m, c in p.terms.items())
    return {
        "terms": len(triples),
        "sha256": hashlib.sha256(json.dumps(triples).encode()).hexdigest(),
    }


def pinned_fingerprints():
    return {
        f"{family.slug}/{rank}/{k}": form_fingerprint(invariant_polynomials(family, rank, k))
        for family, ranks in PINNED_RANKS.items()
        for rank in ranks
        for k in invariant_indices(family, rank)
    }


def test_every_invariant_form_matches_its_pinned_fingerprint():
    """Each form keeps the exact terms recorded in the fixture, index by index.

    The fixture was written with ``json.dumps(pinned_fingerprints(), indent=1)``.
    """
    assert pinned_fingerprints() == json.loads(FORMS_FIXTURE.read_text())


def test_lazily_built_catalog_forms_equal_the_invariant_polynomials():
    """The catalog builds each form on its first read: the same form, the same fixture entry."""
    pinned = json.loads(FORMS_FIXTURE.read_text())
    for family, ranks in PINNED_RANKS.items():
        for rank in ranks:
            c = cohomology_presentation(family, rank)
            for j, k in enumerate(invariant_indices(family, rank)):
                form = c.relation(j)
                assert form == invariant_polynomials(family, rank, k)
                assert form_fingerprint(form) == pinned[f"{family.slug}/{rank}/{k}"]
