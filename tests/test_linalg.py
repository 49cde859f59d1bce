"""Degreewise elimination against the oracles' dense Smith normal form."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from loopalg.linalg import (
    FractionFreeEliminator,
    FractionRREF,
    add_multiple,
    coker_normalize,
    rref_normalize,
)

from oracles import dense_integer, dense_rank, dense_rank_mod_p, dense_smith_invariants


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


# built once, as _ENTRY below is: hypothesis validates each new strategy
# object on its first draw
_SCALAR = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)
_SPARSE = st.dictionaries(st.integers(0, 5), _SCALAR.filter(bool), max_size=6)


@st.composite
def multiply_adds(draw):
    """``out``, ``c`` and ``terms`` on keys 0..5, ints and Fractions mixed.

    Unless ``c`` is 0, some keys of ``out`` are set to cancel ``c`` times
    ``terms`` exactly.
    """
    out = draw(_SPARSE)
    terms = draw(_SPARSE)
    c = draw(_SCALAR)
    for k in draw(st.sets(st.sampled_from(sorted(terms)))) if terms else ():
        out[k] = -c * terms[k] or out.get(k, 1)
    return out, c, terms


@settings(max_examples=300, deadline=None)
@given(multiply_adds())
@example(({0: 1, 1: Fraction(1, 2)}, Fraction(-1, 2), {1: 1, 2: 3}))
def test_add_multiple_is_the_dense_sum_and_stores_no_zero(case):
    out, c, terms = case
    want = [out.get(k, 0) + c * terms.get(k, 0) for k in range(6)]
    before = dict(terms)
    add_multiple(out, c, terms)
    assert [out.get(k, 0) for k in range(6)] == want
    assert all(out.values())
    assert terms == before


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


# built once: hypothesis validates each new strategy object on its first
# draw, which made drawing most of the test's time
_ENTRY = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
).filter(bool)
_EARLIER = st.integers(min_value=0, max_value=19)


@st.composite
def sparse_rows(draw):
    """Up to 20 sparse rows in up to 12 columns, ints and Fractions mixed.

    Leads are often not units, and some rows are combinations of earlier
    ones (picked by index modulo the rows so far), so back-substitution
    fills rows in and cancels entries.
    """
    ncols = draw(st.integers(min_value=1, max_value=12))
    fresh = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1), _ENTRY, max_size=5)
    rows: list[dict] = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        if rows and draw(st.booleans()):
            a, b = rows[draw(_EARLIER) % len(rows)], rows[draw(_EARLIER) % len(rows)]
            s, t = draw(_ENTRY), draw(_ENTRY)
            combined = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in combined.items() if v})
        else:
            rows.append(draw(fresh))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_fraction_rref_keeps_reduced_rows_and_its_column_index(case):
    rows, ncols = case
    rref = FractionRREF()
    for k, row in enumerate(rows):
        rref.add_row(row)
        stored = rref._pivot_rows
        holders: dict[int, set[int]] = {}
        for pivot, r in stored.items():
            assert r[pivot] == 1
            assert all(v and _exact_scalar(v) for v in r.values())
            assert not (r.keys() & stored.keys()) - {pivot}
            for c in r.keys() - {pivot}:
                holders.setdefault(c, set()).add(pivot)
        assert {c: h for c, h in rref._holders.items() if h} == holders
        assert all(rref.reduce(r) == {} for r in rows[: k + 1])
    assert rref.rank == dense_rank(rows, ncols)
    # the integer cokernel of the same rows, denominators cleared, has that rank too
    scaled = [{c: v for c, v in enumerate(r) if v} for r in dense_integer(rows, ncols)]
    assert coker_normalize(scaled, ncols).matrix_rank == rref.rank


def test_coker_normalize_reduces_only_the_rows_a_new_pivot_touches(monkeypatch):
    """A row that meets no pivot column is kept as it is, not reduced again.

    ``2 x0 + 2 x1`` meets no pivot in either pass, ``x2`` becomes the only
    unit pivot, and ``4 x0 + 3 x2`` meets it once; the second pass, run
    because a pivot was inserted, reduces nothing.
    """
    calls = []
    reduce = FractionRREF.reduce

    def spy(self, row):
        calls.append(dict(row))
        return reduce(self, row)

    monkeypatch.setattr(FractionRREF, "reduce", spy)
    result = coker_normalize([{0: 2, 1: 2}, {2: 1}, {0: 4, 2: 3}], 3)
    assert calls == [{0: 4, 2: 3}]
    assert result.invariants == [2, 4] and result.matrix_rank == 3
    assert result.expansions == [{0: 1, 1: 3}, {1: 1}, {}]
