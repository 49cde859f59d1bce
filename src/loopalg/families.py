"""The simple compact Lie group families handled by the catalog."""

from __future__ import annotations

from enum import Enum


class LieFamily(Enum):
    SU = "su"            # type A: SU(n+1)
    SP = "sp"            # type C: Sp(n)
    SO_ODD = "so-odd"    # type B: SO(2n+1)
    SO_EVEN = "so-even"  # type D: SO(2n)
    G2 = "g2"
    F4 = "f4"
    E6 = "e6"

    @property
    def slug(self) -> str:
        return self.value

    @classmethod
    def from_slug(cls, slug: str) -> "LieFamily":
        for member in cls:
            if member.value == slug:
                return member
        raise ValueError(f"unknown family {slug!r}")


# the exponents of the exceptional groups; the rank is their number
EXCEPTIONAL_EXPONENTS = {
    LieFamily.G2: (2, 6),
    LieFamily.F4: (2, 6, 8, 12),
    LieFamily.E6: (2, 5, 6, 8, 9, 12),
}
FIXED_RANK = {family: len(e) for family, e in EXCEPTIONAL_EXPONENTS.items()}


def validate_rank(family: LieFamily, rank: int) -> None:
    if family in FIXED_RANK:
        if rank != FIXED_RANK[family]:
            raise ValueError(f"{family.slug} has rank {FIXED_RANK[family]}, got {rank}")
        return
    if family is LieFamily.SO_EVEN:
        if rank <= 2:
            raise ValueError("so-even needs rank n > 2")
        return
    if rank < 1:
        raise ValueError(f"{family.slug} needs rank n >= 1, got {rank}")
