"""The full rational pipeline for one catalog entry.

cohomology presentation -> minimal model -> quadratic part -> homotopy Lie
algebra -> enveloping presentation.  The regular-sequence precondition of
the cohomology presentation is not checked here: ``verify`` checks it from
the commutative quotient it builds anyway (when that quotient fits the
budget), and ``build_minimal_model`` checks it when called on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import CatalogEntry
from .enveloping import RingPresentation, uea_presentation
from .homotopy_lie import HomotopyLieAlgebra, brackets_from_d1
from .minimal_model import MinimalModel, build_minimal_model


@dataclass(frozen=True)
class PipelineResult:
    model: MinimalModel
    lie_algebra: HomotopyLieAlgebra
    presentation: RingPresentation


def rational_pipeline(entry: CatalogEntry) -> PipelineResult:
    model = build_minimal_model(
        entry.cohomology, odd_names=list(entry.odd_names), check_regular=False
    )
    lie = brackets_from_d1(model, entry.dual_names)
    return PipelineResult(
        model=model,
        lie_algebra=lie,
        presentation=uea_presentation(lie),
    )
