"""Exact Seidel spectra of signed complete graphs built from overlapping cliques.

The family: k cliques of order h sharing a common clique of order h - p,
whose union forms the negative edges of a signed complete graph on
n = h + (k - 1) * p vertices.  The package constructs these graphs,
evaluates every spectral closed form with exact integer, rational, and
polynomial arithmetic, and verifies each against oracles that only see
matrix entries.
"""

from .closedform import charpoly_closed, spectrum_closed
from .family import make_params, seidel_matrix
from .linalg import charpoly_oracle
from .verify import verify_instance

__version__ = "0.1.0"

__all__ = [
    "make_params",
    "seidel_matrix",
    "charpoly_closed",
    "spectrum_closed",
    "charpoly_oracle",
    "verify_instance",
    "__version__",
]
