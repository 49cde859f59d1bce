"""Degreewise elimination against the oracles' dense Smith normal form."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from loopalg.linalg import FractionFreeEliminator, FractionRREF, coker_normalize, rref_normalize

from oracles import dense_integer, dense_rank_mod_p, dense_smith_invariants


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=5))
    nrows = draw(st.integers(min_value=0, max_value=5))
    entries = st.integers(min_value=-6, max_value=6)
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


def _image(result, row):
    image = [0] * len(result.invariants)
    for c, v in row.items():
        for g, x in result.expansions[c].items():
            image[g] += v * x
    return image


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_coker_normalize_matches_dense_smith(case):
    dense, ncols = case
    rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
    factors = dense_smith_invariants(dense)
    result = coker_normalize(rows, ncols)
    assert result.matrix_rank == len(factors)
    assert result.invariants.count(0) == ncols - len(factors)
    assert sorted(s for s in result.invariants if s > 1) == sorted(d for d in factors if d > 1)
    rational = rref_normalize(rows, ncols)
    assert rational.matrix_rank == len(factors)
    assert rational.invariants == [0] * (ncols - len(factors))
    # every relation row maps to zero in the described quotient
    for row in rows:
        image = _image(result, row)
        assert all(x % s == 0 if s else x == 0 for x, s in zip(image, result.invariants))
        assert not any(_image(rational, row))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_fraction_free_rank_matches_dense_smith(case):
    dense, _ = case
    elim = FractionFreeEliminator()
    raised = [elim.add_row({c: v for c, v in enumerate(r) if v}) for r in dense]
    assert elim.rank == len(dense_smith_invariants(dense)) == sum(raised)


@settings(max_examples=200, deadline=None)
@given(integer_matrices(), st.sampled_from([2, 3, 5, 7, 1_073_741_789]))
def test_fraction_free_rank_mod_p_matches_dense_rank(case, prime):
    dense, ncols = case
    rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
    elim = FractionFreeEliminator(prime)
    raised = [elim.add_row(row) for row in rows]
    assert elim.rank == dense_rank_mod_p(rows, ncols, prime) == sum(raised)
    # a rank mod p never exceeds the rank over Q
    assert elim.rank <= len(dense_smith_invariants(dense))


@st.composite
def rational_rows(draw):
    """Sparse rows mixing ints with Fractions, so pivots need not be units."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
    )
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    dense = draw(st.lists(row, min_size=0, max_size=5))
    return [{c: v for c, v in enumerate(r) if v} for r in dense], ncols


def _exact_scalar(value):
    """An int, or a Fraction that is not an integer; never a float."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


@settings(max_examples=200, deadline=None)
@given(rational_rows())
@example(([{0: 2, 1: 3}, {0: Fraction(1, 2), 1: 1, 2: Fraction(4, 3)}], 3))
def test_fraction_rref_matches_dense_smith_on_rational_rows(case):
    rows, ncols = case
    rank = len(dense_smith_invariants(dense_integer(rows, ncols)))
    rref = FractionRREF()
    raised = [rref.add_row(row) for row in rows]
    assert rref.rank == sum(raised) == rank
    result = rref_normalize(rows, ncols)
    assert result.matrix_rank == rank
    assert result.invariants == [0] * (ncols - rank)
    assert all(_exact_scalar(v) for e in result.expansions for v in e.values())
    for row in rows:
        assert not any(_image(result, row))
