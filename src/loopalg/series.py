"""Truncated integer power series used for graded dimension bookkeeping."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PoincareSeries:
    """A truncated sequence of graded dimensions/ranks, index = degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a series needs at least the degree-0 coefficient")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("graded dimensions cannot be negative")

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> int:
        if degree < 0:
            raise ValueError("negative degree")
        if degree > self.max_degree:
            raise ValueError(f"series truncated at degree {self.max_degree}")
        return self.coefficients[degree]

    def prefix(self, n: int) -> tuple[int, ...]:
        if n > self.max_degree:
            raise ValueError(f"series truncated at degree {self.max_degree}")
        return self.coefficients[: n + 1]

    def total(self) -> int:
        return sum(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)


def poly_mul_trunc(a: Sequence[int], b: Sequence[int], max_degree: int) -> list[int]:
    out = [0] * (max_degree + 1)
    for i, ai in enumerate(a):
        if i > max_degree or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > max_degree:
                break
            out[i + j] += ai * bj
    return out


def divide_by_one_minus(coeffs: Sequence[int], k: int, max_degree: int) -> list[int]:
    """Multiply a truncated series by 1/(1 - t^k)."""
    out = list(coeffs[: max_degree + 1]) + [0] * (max_degree + 1 - len(coeffs))
    for i in range(k, max_degree + 1):
        out[i] += out[i - k]
    return out


def multiply_by_one_minus(coeffs: Sequence[int], k: int, max_degree: int) -> list[int]:
    """Multiply a truncated series by (1 - t^k)."""
    out = list(coeffs[: max_degree + 1]) + [0] * (max_degree + 1 - len(coeffs))
    for i in range(max_degree, k - 1, -1):
        out[i] -= out[i - k]
    return out


def pbw_coefficients(
    odd_degrees: Iterable[int], even_degrees: Iterable[int], max_degree: int
) -> list[int]:
    """Coefficients of prod (1 + t^odd) * prod 1/(1 - t^even), truncated.

    The ``k`` odd generators of one degree ``d`` give ``(1 + t^d)^k``, whose
    coefficient of ``t^(d i)`` is ``C(k, i)``: one product per distinct odd
    degree, so the cost does not grow with how many generators share it.
    """
    out = [1] + [0] * max_degree
    for d, k in Counter(odd_degrees).items():
        row = [0] * (max_degree + 1)
        for i in range(min(k, max_degree // d) + 1):
            row[d * i] = math.comb(k, i)
        out = poly_mul_trunc(row, out, max_degree)
    for d in even_degrees:
        out = divide_by_one_minus(out, d, max_degree)
    return out


def complete_intersection_coefficients(
    relation_degrees: Iterable[int], n_vars: int, max_degree: int
) -> list[int]:
    """Coefficients of prod (1 - t^{deg P_j}) / (1 - t^2)^n, truncated.

    May contain negative entries when the input is not a regular sequence;
    callers compare against actual quotient dimensions.
    """
    out = [1] + [0] * max_degree
    for d in relation_degrees:
        out = multiply_by_one_minus(out, d, max_degree)
    for _ in range(n_vars):
        out = divide_by_one_minus(out, 2, max_degree)
    return out
