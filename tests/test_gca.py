"""Polynomial core: graded-commutative signs, the free algebra, exactness."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from loopalg.enveloping import FreeGradedAlgebra
from loopalg.gca import GradedAlgebra

from oracles import is_homogeneous, koszul_sign, recursive_monomials_of_degree


def algebra(*gens):
    return GradedAlgebra(gens)


def test_degree_zero_generators_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("u", 0)])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("u", 2), ("u", 4)])


def test_odd_square_is_zero():
    alg = algebra(("v", 3))
    v = alg.gen("v")
    assert (v * v).is_zero()


def test_odd_generators_anticommute():
    alg = algebra(("v1", 3), ("v2", 5))
    v1, v2 = alg.gen("v1"), alg.gen("v2")
    assert v1 * v2 == -(v2 * v1)
    assert not (v1 * v2).is_zero()


def test_even_generators_commute():
    alg = algebra(("u1", 2), ("u2", 2))
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    assert u1 * u2 == u2 * u1


def test_mismatched_generator_sets():
    a = algebra(("u", 2))
    b = algebra(("w", 2))
    with pytest.raises(ValueError):
        a.gen("u") * b.gen("w")


def test_negative_powers_rejected():
    for alg in (algebra(("u", 2)), FreeGradedAlgebra([("u", 2)])):
        with pytest.raises(ValueError):
            alg.gen("u") ** -1


def test_algebras_of_different_kinds_do_not_mix():
    commutative = algebra(("u", 2))
    free = FreeGradedAlgebra([("u", 2)])
    assert commutative.gen("u") != free.gen("u")
    with pytest.raises(ValueError):
        commutative.gen("u") + free.gen("u")


def test_koszul_sign_identity_and_swaps():
    assert koszul_sign([0, 1, 2], [3, 5, 2]) == 1
    assert koszul_sign([1, 0], [3, 5]) == -1
    assert koszul_sign([1, 0], [3, 2]) == 1
    assert koszul_sign([1, 0], [2, 2]) == 1


def test_koszul_sign_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [3])


@pytest.mark.parametrize("kind", [GradedAlgebra, FreeGradedAlgebra])
def test_degree_reads_every_term(kind):
    """One degree for a homogeneous element, None for zero, an error otherwise."""
    alg = kind([("x", 1), ("y", 2), ("z", 3)])
    x, y, z = alg.gen("x"), alg.gen("y"), alg.gen("z")
    assert alg.zero().degree() is None and is_homogeneous(alg.zero())
    assert alg.one().degree() == 0
    assert (y * y + z * x * 3 + y * y * 0).degree() == 4
    for p in (x + y, y * y + z * x + x):  # the stray degree first, then last
        assert not is_homogeneous(p)
        with pytest.raises(ValueError, match="^element is not homogeneous$"):
            p.degree()


# -- randomized properties ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=5),
    st.integers(min_value=-2, max_value=18),
)
def test_monomials_of_degree_match_the_recursive_oracle(degrees, degree):
    """Same monomials in the same order, odd and even generators mixed."""
    alg = GradedAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)])
    assert alg.monomials_of_degree(degree) == recursive_monomials_of_degree(alg, degree)


@pytest.mark.parametrize("n, d", [(1, 2), (3, 2), (4, 4), (2, 3), (6, 2)])
def test_monomials_of_one_generator_degree_match_the_recursive_oracle(n, d):
    """The catalog's algebras: every generator of one degree, up to exponent sum 9."""
    alg = GradedAlgebra([(f"u{i}", d) for i in range(n)])
    for degree in range(-1, 9 * d + 2):
        assert alg.monomials_of_degree(degree) == recursive_monomials_of_degree(alg, degree)


GENS = (("u1", 2), ("u2", 2), ("v1", 3), ("v2", 5), ("u3", 4))
ALG = GradedAlgebra(GENS)


@st.composite
def homogeneous_elements(draw):
    degree = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8]))
    monomials = ALG.monomials_of_degree(degree)
    picked = draw(
        st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0),
            min_size=len(picked),
            max_size=len(picked),
        )
    )
    return ALG.element({m: Fraction(c) for m, c in zip(picked, coeffs)})


@settings(max_examples=120, deadline=None)
@given(homogeneous_elements(), homogeneous_elements())
def test_graded_commutativity(p, q):
    sign = -1 if (p.degree() * q.degree()) % 2 else 1
    assert p * q == sign * (q * p)


@settings(max_examples=120, deadline=None)
@given(homogeneous_elements(), homogeneous_elements(), homogeneous_elements())
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=120, deadline=None)
@given(homogeneous_elements(), homogeneous_elements())
def test_integer_inputs_stay_integral(p, q):
    product = p * q
    for coeff in product.terms.values():
        assert type(coeff) is int


@settings(max_examples=120, deadline=None)
@given(homogeneous_elements(), st.integers(min_value=1, max_value=6))
def test_an_integral_fraction_is_stored_as_an_int(p, denominator):
    """A sum of fractions that is integral is held as an ``int``, the one rule of linalg."""
    part = p * Fraction(1, denominator)
    total = part
    for _ in range(denominator - 1):
        total = total + part
    assert total == p
    assert all(type(c) is int for c in total.terms.values())
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in part.terms.values())


# -- the free associative algebra on the same core ------------------------------

FREE = FreeGradedAlgebra((("x", 1), ("y", 2), ("z", 3)))


@st.composite
def free_elements(draw):
    words = st.lists(st.sampled_from(FREE.names), max_size=3).map(tuple)
    picked = draw(st.lists(words, min_size=1, max_size=3, unique=True))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0),
            min_size=len(picked),
            max_size=len(picked),
        )
    )
    return FREE.element(dict(zip(picked, coeffs)))


@settings(max_examples=120, deadline=None)
@given(free_elements(), free_elements(), free_elements())
def test_free_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=120, deadline=None)
@given(free_elements(), free_elements(), free_elements())
def test_free_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(max_examples=120, deadline=None)
@given(free_elements(), free_elements())
def test_free_integer_inputs_stay_integral(p, q):
    for coeff in (p * q - 3 * q).terms.values():
        assert type(coeff) is int


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(homogeneous_elements(), free_elements()),
    st.integers(min_value=-6, max_value=6).filter(lambda c: c != 0),
    st.integers(min_value=1, max_value=6),
)
def test_content_normalized_is_primitive_and_idempotent(p, numerator, denominator):
    scaled = p * Fraction(numerator, denominator)
    norm = scaled.content_normalized()
    assert norm.content_normalized() == norm
    assert all(c.denominator == 1 for c in norm.terms.values())
    assert gcd(*(c.numerator for c in norm.terms.values())) == 1
    lead = min(norm.terms)
    assert norm.terms[lead] > 0
    # a nonzero rational multiple of the input
    assert norm == p * Fraction(norm.terms[lead], p.terms[lead])
    assert p.algebra.zero().content_normalized().is_zero()


def _content_normalized_by_fraction_products(p):
    """The terms ``content_normalized`` gave when it scaled by a ``Fraction``."""
    coeffs = p.terms.values()
    scale = Fraction(lcm(*(c.denominator for c in coeffs)))
    scale /= gcd(*((c * scale).numerator for c in coeffs))
    if p.terms[min(p.terms)] < 0:
        scale = -scale
    return {k: c * scale for k, c in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(homogeneous_elements(), free_elements()),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), min_size=3, max_size=3),
    st.booleans(),
)
def test_content_normalized_on_integers_equals_the_fraction_products(p, coeffs, as_int):
    """Every coefficient's value, and its type ``int``, on Fraction and on int coefficients,
    in a fresh element."""
    terms = {k: Fraction(n, d) for k, (n, d) in zip(p.terms, coeffs) if n}
    if as_int:
        terms = {k: c.numerator for k, c in terms.items()}
    if not terms:
        return
    p = type(p)(p.algebra, terms)  # no conversion, so int coefficients stay ints
    want = _content_normalized_by_fraction_products(p)
    norm = p.content_normalized()
    assert norm.terms == want
    assert all(type(c) is int for c in norm.terms.values())
    assert type(norm) is type(p) and norm is not p and norm.terms is not p.terms
    assert p.terms == terms
