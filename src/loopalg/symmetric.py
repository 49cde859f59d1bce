"""Symmetric-function identities and the Weyl-invariant forms per family.

``newton_sigma`` and ``recursion_p`` are the two classical recursions tying
power sums to elementary symmetric functions; under the substitution
``y_i = e_i(t_1..t_m)`` both produce the power sum ``t_1^k + ... + t_m^k``.

``invariant_polynomials`` transcribes, for each Lie family, the invariant
forms whose vanishing presents the rational cohomology of the complete flag
manifold (in the reduced variable set, after eliminating the linear
relation where one exists).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from .families import EXCEPTIONAL_EXPONENTS, LieFamily, validate_rank
from .gca import GcaElement, GradedAlgebra


def elementary_symmetric(k: int, variables: list[GcaElement]) -> GcaElement:
    """The k-th elementary symmetric polynomial of the given elements."""
    if not variables:
        raise ValueError("need at least one variable")
    if k < 1 or k > len(variables):
        raise ValueError(f"k = {k} out of range for {len(variables)} variables")
    algebra = variables[0].algebra
    total = algebra.zero()
    for subset in combinations(variables, k):
        term = algebra.one()
        for v in subset:
            term = term * v
        total = total + term
    return total


def newton_sigma(k: int, y: list[GcaElement]) -> GcaElement:
    """sigma_k from sigma_k = sum_{i<k} (-1)^{i-1} sigma_{k-i} y_i + (-1)^{k-1} k y_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(y) < k:
        raise ValueError(f"missing y entries: need y_1..y_{k}, got {len(y)}")
    algebra = y[0].algebra
    sigma: list[GcaElement] = [algebra.one()]
    for m in range(1, k + 1):
        total = algebra.zero()
        for i in range(1, m):
            sign = 1 if (i - 1) % 2 == 0 else -1
            total = total + sign * (sigma[m - i] * y[i - 1])
        sign = 1 if (m - 1) % 2 == 0 else -1
        total = total + (sign * m) * y[m - 1]
        sigma.append(total)
    return sigma[k]


def recursion_p(k: int, y: list[GcaElement]) -> GcaElement:
    """p_k solved from p_k - p_{k-1} y_1 + ... +- k y_k = 0 with p_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        if not y:
            raise ValueError("need at least one y entry to know the ambient algebra")
        return y[0].algebra.one()
    if len(y) < k:
        raise ValueError(f"missing y entries: need y_1..y_{k}, got {len(y)}")
    algebra = y[0].algebra
    p: list[GcaElement] = [algebra.one()]
    for m in range(1, k + 1):
        total = algebra.zero()
        for i in range(1, m):
            sign = 1 if (i - 1) % 2 == 0 else -1
            total = total + sign * (y[i - 1] * p[m - i])
        sign = 1 if (m - 1) % 2 == 0 else -1
        total = total + (sign * m) * y[m - 1]
        p.append(total)
    return p[k]


def linear_form_power(
    algebra: GradedAlgebra, coefficients: dict[str, int], k: int
) -> GcaElement:
    """(sum c_i u_i)^k expanded by the multinomial theorem (all u_i even)."""
    names = [n for n, c in coefficients.items() if c]
    coeffs = [coefficients[n] for n in names]
    terms: dict[tuple[int, ...], Fraction] = {}
    n = len(names)
    if n == 0:
        return algebra.zero() if k > 0 else algebra.one()

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    base = factorial(k)
    for expo in compositions(k, n):
        coeff = base
        for e in expo:
            coeff //= factorial(e)
        for c, e in zip(coeffs, expo):
            coeff *= c**e
        mono = [0] * len(algebra)
        for name, e in zip(names, expo):
            mono[algebra.index(name)] = e
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return algebra.element(terms)


def variable_algebra(family: LieFamily, rank: int) -> GradedAlgebra:
    """The degree-2 variable set of the reduced cohomology presentation."""
    validate_rank(family, rank)
    if family is LieFamily.G2:
        names = ["u1", "u2"]
    elif family is LieFamily.E6:
        names = ["u1", "u2", "u3", "u4", "u5", "u"]
    else:
        names = [f"u{i}" for i in range(1, rank + 1)]
    return GradedAlgebra([(n, 2) for n in names])


def invariant_indices(family: LieFamily, rank: int) -> tuple[int, ...]:
    validate_rank(family, rank)
    if family in EXCEPTIONAL_EXPONENTS:
        return EXCEPTIONAL_EXPONENTS[family]
    return tuple(range(1, rank + 1))


def invariant_polynomials(
    family: LieFamily, rank: int, k: int, algebra: GradedAlgebra | None = None
) -> GcaElement:
    """The invariant form P_k of the family, in reduced variables.

    Index conventions: classical families use k = 1..n (type D's k = n is the
    product of all variables); the exceptional families use the invariant
    degrees listed by ``invariant_indices``.
    """
    validate_rank(family, rank)
    if k not in invariant_indices(family, rank):
        raise ValueError(f"invalid invariant index {k} for {family.slug} rank {rank}")
    alg = algebra if algebra is not None else variable_algebra(family, rank)

    if family is LieFamily.SU:
        # power sum of u_1..u_n, u_{n+1} with u_{n+1} = -(u_1 + ... + u_n)
        total = alg.zero()
        for i in range(1, rank + 1):
            total = total + alg.gen(f"u{i}") ** (k + 1)
        everything = linear_form_power(alg, {f"u{i}": 1 for i in range(1, rank + 1)}, k + 1)
        sign = 1 if (k + 1) % 2 == 0 else -1
        return total + sign * everything

    if family in (LieFamily.SP, LieFamily.SO_ODD) or (
        family is LieFamily.SO_EVEN and k <= rank - 1
    ):
        total = alg.zero()
        for i in range(1, rank + 1):
            total = total + alg.gen(f"u{i}") ** (2 * k)
        return total

    if family is LieFamily.SO_EVEN:  # k == rank
        return elementary_symmetric(rank, [alg.gen(f"u{i}") for i in range(1, rank + 1)])

    if family is LieFamily.G2:
        # three-variable power sum with u3 = -(u1 + u2); k is even
        return (
            alg.gen("u1") ** k
            + alg.gen("u2") ** k
            + linear_form_power(alg, {"u1": 1, "u2": 1}, k)
        )

    if family is LieFamily.F4:
        total = alg.zero()
        for i in range(1, 5):
            total = total + alg.gen(f"u{i}") ** k
        signed = alg.zero()
        for signs in product((1, -1), repeat=4):
            signed = signed + linear_form_power(
                alg, {f"u{i}": s for i, s in zip(range(1, 5), signs)}, k
            )
        return total + Fraction(1, 2 ** (k + 1)) * signed

    # E6: variables u1..u5, u with u6 = -(u1 + ... + u5) substituted
    u6 = {f"u{i}": -1 for i in range(1, 6)}
    total = alg.zero()
    for i in range(1, 7):
        base = {f"u{i}": 1} if i <= 5 else dict(u6)
        for s in (1, -1):
            form = dict(base)
            form["u"] = form.get("u", 0) + s
            total = total + linear_form_power(alg, form, k)
    pair_sign = 1 if k % 2 == 0 else -1
    for i in range(1, 7):
        for j in range(i + 1, 7):
            form: dict[str, int] = {}
            for idx in (i, j):
                base = {f"u{idx}": 1} if idx <= 5 else dict(u6)
                for name, c in base.items():
                    form[name] = form.get(name, 0) + c
            total = total + pair_sign * linear_form_power(alg, form, k)
    return total
