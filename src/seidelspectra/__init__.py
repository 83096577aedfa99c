"""Exact Seidel spectra of signed complete graphs built from overlapping cliques.

The family: k cliques of order h sharing a common clique of order h - p,
whose union forms the negative edges of a signed complete graph on
n = h + (k - 1) * p vertices.  The package constructs these graphs,
evaluates every spectral closed form with exact integer, rational, and
polynomial arithmetic, and verifies each against oracles that only see
matrix entries.
"""

from .closedform import (
    CubicRoot,
    FactoredCharPoly,
    ScalarMatrixSpec,
    Spectrum,
    adjugate_negK_closed,
    charpoly_closed,
    cubic_s,
    sandwich_closed,
    spectrum_aI_bJ,
    spectrum_closed,
    spectrum_uniform_blocks,
    uniform_block_matrix,
)
from .errors import (
    ComplexRoots,
    DegenerateFamily,
    InternalError,
    InvalidParams,
    NotSymmetric,
    SingularBlock,
    SingularInput,
    UnsupportedShape,
)
from .family import (
    FamilyParams,
    adjacency_matrix,
    clique_vertices,
    make_params,
    seidel_matrix,
    signed_edges,
    vertex_labels,
    x_prime_matrix,
)
from .linalg import (
    Matrix,
    adjugate_exact,
    assemble_blocks,
    char_matrix,
    charpoly_oracle,
    complete_adjacency,
    det_exact,
    exact_matrix,
    identity_matrix,
    schur_block_det,
    schur_block_det_adjugate,
)
from .polynomial import UniPoly, constant
from .verify import (
    InvariantResults,
    SweepSummary,
    VerificationReport,
    discrepancy_notes,
    eig_numeric,
    sweep,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [
    "CubicRoot",
    "FactoredCharPoly",
    "ScalarMatrixSpec",
    "Spectrum",
    "adjugate_negK_closed",
    "charpoly_closed",
    "cubic_s",
    "sandwich_closed",
    "spectrum_aI_bJ",
    "spectrum_closed",
    "spectrum_uniform_blocks",
    "uniform_block_matrix",
    "ComplexRoots",
    "DegenerateFamily",
    "InternalError",
    "InvalidParams",
    "NotSymmetric",
    "SingularBlock",
    "SingularInput",
    "UnsupportedShape",
    "FamilyParams",
    "adjacency_matrix",
    "clique_vertices",
    "make_params",
    "seidel_matrix",
    "signed_edges",
    "vertex_labels",
    "x_prime_matrix",
    "Matrix",
    "adjugate_exact",
    "assemble_blocks",
    "char_matrix",
    "charpoly_oracle",
    "complete_adjacency",
    "det_exact",
    "exact_matrix",
    "identity_matrix",
    "schur_block_det",
    "schur_block_det_adjugate",
    "UniPoly",
    "constant",
    "InvariantResults",
    "SweepSummary",
    "VerificationReport",
    "discrepancy_notes",
    "eig_numeric",
    "sweep",
    "verify_instance",
    "__version__",
]
