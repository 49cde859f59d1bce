"""Exact Pontrjagin-ring computations for loop spaces on complete flag manifolds.

The pipeline: a cohomology presentation by Weyl-invariant forms, its minimal
model, the homotopy Lie algebra read off the quadratic part of the
differential, and the enveloping-algebra presentation of the loop homology,
verified degreewise against independent dimension and Smith-normal-form
oracles over exact rationals and integers.
"""

from .catalog import (
    CatalogEntry,
    catalog_entry,
    expected_integral_presentation,
    expected_rational_presentation,
    splitting_series,
)
from .enveloping import (
    BudgetExceededError,
    FreeGradedAlgebra,
    GradedSmithReport,
    NcElement,
    PoincareSeries,
    RingPresentation,
    SmithEntry,
    graded_dimensions,
    graded_smith_report,
    pbw_series,
    relation_string,
    series_equal,
    uea_presentation,
)
from .families import LieFamily
from .gca import GcaElement, GradedAlgebra
from .homotopy_lie import (
    HomotopyLieAlgebra,
    LieBasisElement,
    brackets_from_d1,
    dual_basis,
    graded_lie_axioms_check,
)
from .minimal_model import (
    CohomologyPresentation,
    MinimalModel,
    build_minimal_model,
    derivation_square_check,
    quotient_dimensions,
    regular_sequence_check,
)
from .pipeline import PipelineResult, rational_pipeline
from .symmetric import invariant_polynomials

__version__ = "0.1.0"
