"""The full rational pipeline for one catalog entry.

cohomology presentation -> minimal model -> quadratic part -> homotopy Lie
algebra -> enveloping presentation, reading only the degree-4 invariant
forms, which make up d1.  No step of it checks that the cohomology
relations form a regular sequence: ``verify`` checks that from the
commutative quotient it builds anyway (when that quotient fits the budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .catalog import CatalogEntry
from .enveloping import RingPresentation, uea_pair_degrees, uea_presentation
from .homotopy_lie import HomotopyLieAlgebra, brackets_from_d1
from .minimal_model import MinimalModel, build_minimal_model


@dataclass(frozen=True)
class PipelineResult:
    model: MinimalModel
    lie_algebra: HomotopyLieAlgebra
    presentation: RingPresentation


def rational_pipeline(entry: CatalogEntry) -> PipelineResult:
    model = build_minimal_model(entry.cohomology, entry.odd_names)
    lie = brackets_from_d1(model, entry.dual_names)
    return PipelineResult(
        model=model,
        lie_algebra=lie,
        presentation=uea_presentation(lie),
    )


def presentation_degrees(
    rank: int, exponents: Sequence[int], max_degree: int
) -> tuple[list[int], dict[int, int]]:
    """The pipeline presentation's generator degrees and relations per degree, before any build.

    The minimal model has ``rank`` even generators of degree 2 and one odd
    generator of degree 2e - 1 per exponent e (its relation has degree 2e);
    the Lie basis is dual to them one degree lower, in that order, and
    :func:`~loopalg.enveloping.uea_pairs` names the pairs that carry a
    relation.  Relations are counted per degree up to ``max_degree`` by
    :func:`~loopalg.enveloping.uea_pair_degrees`, which lists no pair, so
    the count costs O(degrees²), not O(rank²).
    """
    gens = [1] * rank + [2 * e - 2 for e in exponents]
    return gens, uea_pair_degrees(gens, max_degree)
