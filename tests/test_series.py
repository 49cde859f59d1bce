"""The PBW series fold: one binomial row per distinct odd degree."""

from hypothesis import given, settings, strategies as st

from loopalg import series
from loopalg.series import pbw_coefficients

from oracles import pbw_by_generator


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([1, 1, 1, 3, 5, 7, 9, 11]), max_size=60),
    st.lists(st.sampled_from([2, 4, 6, 8]), max_size=8),
    st.integers(0, 24),
)
def test_the_binomial_fold_equals_the_fold_by_generator(odd, even, max_degree):
    assert pbw_coefficients(odd, even, max_degree) == pbw_by_generator(odd, even, max_degree)


def test_a_large_rank_folds_as_its_binomial_row():
    """su100000's degree-1 generators give (1 + t)^100000: C(100000, i) in degree i."""
    odd, even = [1] * 100_000, []
    assert pbw_coefficients(odd, even, 6) == pbw_by_generator(odd, even, 6)


def test_one_product_per_distinct_odd_degree(monkeypatch):
    """The cost of the odd factors grows with their distinct degrees, not their number."""
    original = series.poly_mul_trunc
    calls = []

    def spy(a, b, max_degree):
        calls.append(max_degree)
        return original(a, b, max_degree)

    monkeypatch.setattr(series, "poly_mul_trunc", spy)
    odd = [1] * 500 + [3] * 7 + [5] + [13]
    pbw_coefficients(odd, [2, 4, 4], 10)
    assert len(calls) == len(set(odd)) == 4
