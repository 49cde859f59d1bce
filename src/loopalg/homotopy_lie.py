"""The homotopy Lie algebra dual to a minimal model.

The basis is dual to the model's generators with degrees shifted down by
one.  Structure constants come from d1, the quadratic part of the
differential and the only part a :class:`~loopalg.minimal_model.MinimalModel`
carries, through the pairing

    < v_1 ^ ... ^ v_k ; s x_1, ..., s x_k >
        = sum over permutations s of eps_s * prod < v_{s(i)} ; s x_i >

where the dual basis is normalized so that a generator pairs to +1 against
its own dual (this fixes the signs of all structure constants; the
catalog's expected bracket tables pin them).  The bracket is then read off
from

    < v ; s [x, y] > = (-1)^{deg y + 1} < d1 v ; s x, s y >.

For k = 2 the pairing is sparse: a term ``c p q`` of ``d1 v`` (letters
``p <= q``) pairs to ``c`` against ``(s p*, s q*)``, to ``c`` times the
Koszul sign of the swap (-1 when both letters are odd) against
``(s q*, s p*)``, and to ``2c`` against ``(s p*, s p*)`` when ``p = q``.
So :func:`brackets_from_d1` reads every bracket in one pass over the
terms of d1; higher word lengths of the differential pair to zero against
two arguments, and the model does not build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .linalg import Scalar, exact
from .minimal_model import MinimalModel


@dataclass(frozen=True)
class LieBasisElement:
    name: str
    degree: int
    dual_to: str


Bracket = dict[str, Scalar]


class HomotopyLieAlgebra:
    """A graded vector space with sparsely stored brackets.

    ``brackets[(x, y)]`` maps basis names to coefficients, each an ``int``
    while it is integral; a missing pair means the bracket vanishes.
    """

    def __init__(
        self,
        basis: Sequence[LieBasisElement],
        brackets: Mapping[tuple[str, str], Bracket],
    ):
        self.basis = tuple(basis)
        self._degree = {b.name: b.degree for b in self.basis}
        if len(self._degree) != len(self.basis):
            raise ValueError("basis names must be unique")
        cleaned: dict[tuple[str, str], Bracket] = {}
        for (x, y), combo in brackets.items():
            if x not in self._degree or y not in self._degree:
                raise ValueError(f"bracket on unknown basis elements ({x}, {y})")
            kept = {z: exact(c) for z, c in combo.items() if c}
            for z in kept:
                if z not in self._degree:
                    raise ValueError(f"bracket value on unknown basis element {z}")
            if kept:
                cleaned[(x, y)] = kept
        self.brackets = cleaned

    def degree(self, name: str) -> int:
        return self._degree[name]


def dual_basis(m: MinimalModel, names: Mapping[str, str]) -> tuple[LieBasisElement, ...]:
    """One basis element per model generator, named by ``names``, degree shifted down by one."""
    return tuple(
        LieBasisElement(name=names[gen_name], degree=degree - 1, dual_to=gen_name)
        for gen_name, degree in m.algebra.generators
    )


def brackets_from_d1(m: MinimalModel, dual_names: Mapping[str, str]) -> HomotopyLieAlgebra:
    """Lie algebra on the dual basis with brackets read off the model's d1.

    ``dual_names`` names the dual of each model generator.  One pass over
    the terms of d1 (see the module docstring); brackets not forced by d1
    are zero.  Pairs come in basis order and each bracket's values in the
    order of d1, which the model builds in generator order.
    """
    basis = dual_basis(m, dual_names)
    odd = [d % 2 for _, d in m.algebra.generators]
    pairs: dict[tuple[int, int], Bracket] = {}
    for gen_name, image in m.d1.items():
        target = basis[m.algebra.index(gen_name)].name
        for mono, c in image.terms.items():
            p, q = image.letters(mono)
            swap = -1 if odd[p] and odd[q] else 1
            # a square lands on (p*, p*) twice
            for x, y, value in ((p, q, c), (q, p, swap * c)):
                combo = pairs.setdefault((x, y), {})
                combo[target] = combo.get(target, 0) + (-value if odd[y] else value)
    names = [b.name for b in basis]
    return HomotopyLieAlgebra(basis, {(names[x], names[y]): pairs[x, y] for x, y in sorted(pairs)})


def graded_lie_axioms_check(L: HomotopyLieAlgebra) -> bool:
    """Graded antisymmetry and degree additivity, which ``uea_presentation`` cannot see.

    It reads one order of each pair; its normal-word certificate proves Jacobi.
    """
    brackets = L.brackets
    # every stored bracket is nonzero, so a pair stored one way only fails
    for (x, y), xy in brackets.items():
        dx, dy = L.degree(x), L.degree(y)
        if any(L.degree(z) != dx + dy for z in xy):
            return False
        sign = 1 if dx * dy % 2 else -1
        if brackets.get((y, x)) != {z: sign * c for z, c in xy.items()}:
            return False
    return True
