"""Exact graded polynomial algebras on named generators.

Two algebras share one core here.  A :class:`GeneratorSet` holds the
ordered ``(name, degree)`` generators; a :class:`Polynomial` is a map from
keys to exact coefficients, each an ``int`` while integral and a
`fractions.Fraction` otherwise (:func:`loopalg.linalg.exact`; no floating
point appears anywhere in this package), with the linear structure and the
grading.  A concrete algebra fixes only its keys and how two keys multiply:

* :class:`GradedAlgebra` / :class:`GcaElement` -- the free graded-commutative
  algebra.  A key is an exponent tuple over the generator list; even-degree
  generators commute and carry arbitrary exponents, odd-degree generators
  square to zero and anticommute among themselves (Koszul signs).
* the free associative algebra of :mod:`loopalg.enveloping`, whose keys are
  words of generator indices and whose product is concatenation.

The declaration order of the generators fixes the canonical key of every
monomial, so every operation is deterministic and elements can be compared
literally.  No path of the package multiplies two :class:`GcaElement`
objects: the invariant forms are expanded term by term and the minimal
model is checked by its shape, so the graded-commutative product serves the
tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .linalg import Scalar, exact

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# the shared core
# ---------------------------------------------------------------------------


class Polynomial:
    """A key-to-coefficient map over a :class:`GeneratorSet`.

    Immutable by convention; all operations return fresh elements of the same
    class.  Zero coefficients are never stored, integral ones are ``int``s.
    Subclasses define the product of two elements in ``__mul__``, which
    hands scalars to :meth:`_scaled`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "GeneratorSet", terms: Mapping[Hashable, Scalar]):
        self.algebra = algebra
        self.terms = {k: exact(c) for k, c in terms.items() if c}

    def _check_compatible(self, other: "Polynomial") -> None:
        if not self.algebra.same_generators(other.algebra):
            raise ValueError("mismatched generator sets")

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return type(self)(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.terms.items()})

    def _scaled(self, c: Scalar):
        return type(self)(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, scalar: Scalar):
        return self * scalar

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        out = self.algebra.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.algebra.same_generators(other.algebra)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- grading ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Degree of a homogeneous element; None for zero."""
        degrees = self.algebra.key_degrees(self.terms)
        first = next(degrees, None)
        for d in degrees:
            if d != first:
                raise ValueError("element is not homogeneous")
        return first

    def content_normalized(self):
        """Scale to primitive integer coefficients with a positive leading term.

        The leading term is the one of the smallest key.  The scale is found
        on integers: clear the denominators, then divide by the content of
        the numerators, each coefficient an ``int``.
        """
        if not self.terms:
            return self
        den = lcm(*(c.denominator for c in self.terms.values()))
        cleared = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
        content = gcd(*cleared.values())
        if cleared[min(cleared)] < 0:
            content = -content
        return type(self)(self.algebra, {k: n // content for k, n in cleared.items()})


class GeneratorSet:
    """Named generators with positive integer degrees; names must be unique.

    The instance only carries the generator data -- elements are instances of
    ``element_class`` pointing back at it.  Subclasses fix the keys through
    :meth:`key_of` and their degrees through :meth:`key_degrees`.
    """

    __slots__ = ("_gens", "_names", "_index", "_degrees")
    element_class: type[Polynomial]

    def __init__(self, generators: Iterable[tuple[str, int]]):
        gens = tuple((str(name), int(degree)) for name, degree in generators)
        names = [g[0] for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, degree in gens:
            if degree <= 0:
                raise ValueError(f"generator {name!r} has non-positive degree {degree}")
        self._gens = gens
        self._names = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}
        self._degrees = tuple(d for _, d in gens)

    @property
    def generators(self) -> tuple[tuple[str, int], ...]:
        return self._gens

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def same_generators(self, other: "GeneratorSet") -> bool:
        return self is other or (type(self) is type(other) and self._gens == other._gens)

    def key_of(self, letters: Sequence[int]) -> Hashable:
        """Key of the monomial with the given generator indices, in order."""
        raise NotImplementedError

    def key_degrees(self, keys: Iterable[Hashable]) -> Iterator[int]:
        """The degree of each key, in order, each in one expression (no call per key)."""
        raise NotImplementedError

    # -- element constructors ------------------------------------------------

    def zero(self):
        return self.element_class(self, {})

    def one(self):
        return self.element_class(self, {self.key_of(()): 1})

    def gen(self, name: str):
        return self.element_class(self, {self.key_of((self.index(name),)): 1})

    def element(self, terms: Mapping[Hashable, Scalar]):
        if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
            raise TypeError("coefficients must be int or Fraction")
        return self.element_class(self, {tuple(k): c for k, c in terms.items()})


# ---------------------------------------------------------------------------
# the graded-commutative algebra
# ---------------------------------------------------------------------------


class GcaElement(Polynomial):
    """An element of a :class:`GradedAlgebra`: a monomial-to-coefficient map."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check_compatible(other)
        acc: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = self.algebra._mul_monomials(m1, m2)
                if hit is None:
                    continue
                sign, mono = hit
                acc[mono] = acc.get(mono, 0) + sign * c1 * c2
        return GcaElement(self.algebra, acc)

    def letters(self, mono: Monomial) -> list[int]:
        """Expand a monomial into its generator indices, canonical order."""
        out: list[int] = []
        for i, e in enumerate(mono):
            out.extend([i] * e)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.algebra.names
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)


class GradedAlgebra(GeneratorSet):
    """A free graded-commutative algebra; monomials are exponent tuples."""

    __slots__ = ("_odd",)
    element_class = GcaElement

    def __init__(self, generators: Iterable[tuple[str, int]]):
        super().__init__(generators)
        self._odd = tuple(i for i, d in enumerate(self._degrees) if d % 2 == 1)

    def key_of(self, letters: Sequence[int]) -> Monomial:
        mono = [0] * len(self._gens)
        for g in letters:
            mono[g] += 1
        return tuple(mono)

    def key_degrees(self, monos: Iterable[Monomial]) -> Iterator[int]:
        degrees = self._degrees
        return (sum(map(mul, mono, degrees)) for mono in monos)

    def monomials_of_degree(self, degree: int) -> list[Monomial]:
        """All canonical monomials of the given total degree (lex order)."""
        degrees = self._degrees
        if degree < 0 or not degrees:
            return [()] if degree == 0 else []
        # one generator at a time, each exponent ascending, so the prefixes
        # stay in lex order; the last exponent is whatever degree is left
        *head, last = degrees
        layer: list[tuple[Monomial, int]] = [((), degree)]
        for d in head:
            layer = [
                (prefix + (e,), left - e * d)
                for prefix, left in layer
                for e in range((min(left // d, 1) if d % 2 else left // d) + 1)
            ]
        cap = 1 if last % 2 else degree
        return [
            prefix + (left // last,)
            for prefix, left in layer
            if left % last == 0 and left // last <= cap
        ]

    def _mul_monomials(self, m1: Monomial, m2: Monomial):
        """Return ``(sign, product)`` or ``None`` when an odd square occurs."""
        sign = 1
        for j in self._odd:
            if m2[j]:
                if m1[j]:
                    return None
                crossings = 0
                for i in self._odd:
                    if i > j and m1[i]:
                        crossings += 1
                if crossings % 2:
                    sign = -sign
        return sign, tuple(a + b for a, b in zip(m1, m2))

