"""Degreewise elimination against the oracles' dense Smith normal form."""

from hypothesis import given, settings, strategies as st

from loopalg.linalg import FractionFreeEliminator, coker_normalize, rref_normalize

from oracles import dense_smith_invariants


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
