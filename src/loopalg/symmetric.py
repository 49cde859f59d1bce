"""The Weyl-invariant forms per family.

``invariant_polynomials`` gives, for each Lie family, the invariant forms
whose vanishing presents the rational cohomology of the complete flag
manifold (in the reduced variable set, after eliminating the linear
relation where one exists).  Type D's Euler class is the single monomial
``u_1 ... u_n``.  Every other form is a weighted power sum ``sum of w *
l^e`` over one Weyl orbit of linear forms: a per-family table lists the
``(w, l)``, and one kernel expands the sum by the multinomial theorem on
int coefficients.  No form is built from products of elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm

from .families import EXCEPTIONAL_EXPONENTS, LieFamily, validate_rank
from .gca import GcaElement, GradedAlgebra, Monomial, Scalar


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
    if family is LieFamily.SO_EVEN and k == rank:
        return alg.element({alg.key_of([alg.index(f"u{i}") for i in range(1, rank + 1)]): 1})
    return _power_sum(alg, *_weights(family, rank, k))


# (weight, {variable: coefficient}) pairs
WeightedForms = list[tuple[Scalar, dict[str, int]]]


def _weights(family: LieFamily, rank: int, k: int) -> tuple[int, WeightedForms]:
    """``(e, [(w, l), ...])`` with ``P_k = sum of w * l^e``, the l one Weyl orbit of weights."""
    units = [{f"u{i}": 1} for i in range(1, rank + 1)]
    if family is LieFamily.SU:
        # the n+1 weights of the standard representation, u_{n+1} = -(u_1 + ... + u_n)
        return k + 1, [(1, u) for u in units + [{n: -1 for u in units for n in u}]]
    if family is LieFamily.G2:
        return k, [(1, {"u1": 1}), (1, {"u2": 1}), (1, {"u1": 1, "u2": 1})]
    if family is LieFamily.F4:
        signed = [dict(zip(("u1", "u2", "u3", "u4"), s)) for s in product((1, -1), repeat=4)]
        return k, [(1, u) for u in units] + [(Fraction(1, 2 ** (k + 1)), s) for s in signed]
    if family is LieFamily.E6:
        # the 27 minuscule weights in u1..u5, u with u6 = -(u1 + ... + u5)
        coords = units[:5] + [{n: -1 for u in units[:5] for n in u}]
        forms = [{**c, "u": s} for c in coords for s in (1, -1)]
        for a, b in combinations(coords, 2):
            forms.append({n: -a.get(n, 0) - b.get(n, 0) for n in {**a, **b}})
        return k, [(1, form) for form in forms]
    # sp, so-odd, and so-even below its top index
    return 2 * k, [(1, u) for u in units]


def _power_sum(algebra: GradedAlgebra, exponent: int, forms: WeightedForms) -> GcaElement:
    """The sum of ``w * l^exponent``, each power expanded by the multinomial theorem.

    The variables have degree 2.  The weights are brought to one denominator,
    so the expansion adds ints and divides once, when the element is built.
    """
    scale = lcm(*(Fraction(w).denominator for w, _ in forms))
    terms: dict[Monomial, int] = {}
    for weight, form in forms:
        support = sorted((algebra.index(n), c) for n, c in form.items() if c)
        local = GradedAlgebra([algebra.generators[i] for i, _ in support])
        top = int(weight * scale) * factorial(exponent)
        for expo in local.monomials_of_degree(2 * exponent):
            coeff = top
            mono = [0] * len(algebra)
            for (i, c), e in zip(support, expo):
                coeff = coeff // factorial(e) * c**e
                mono[i] = e
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + coeff
    return algebra.element({m: Fraction(c, scale) for m, c in terms.items()})
