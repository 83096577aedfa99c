"""The clique-overlap family of signed complete graphs.

A member is built from k cliques of order h that all share one common
clique of order h - p, each clique keeping p private vertices.  The
negative edges of the signed complete graph are exactly the edges of that
union; every other pair is a positive edge.  Total order n = h + (k-1)*p.

Vertex ordering is fixed so matrix identities hold entrywise, not merely
up to permutation: first k-1 private blocks of p vertices (cliques 1..k-1),
then one block of h "hub" vertices made of the h-p common vertices followed
by clique k's private vertices.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateFamily, InvalidParams
from .linalg import Matrix

__all__ = [
    "FamilyParams",
    "VertexLabel",
    "make_params",
    "vertex_labels",
    "clique_vertices",
    "adjacency_matrix",
    "seidel_matrix",
    "x_prime_matrix",
    "signed_edges",
]


class FamilyParams(NamedTuple):
    """Validated parameters (h, p, k) with the derived order n = h + (k-1)*p."""

    h: int
    p: int
    k: int
    n: int


class VertexLabel(NamedTuple):
    """Block-layout label of one vertex.

    kind "private": vertex ``slot`` (1-based, up to p) of clique ``clique``
    (1-based, up to k-1).  kind "hub": vertex ``slot`` (1-based, up to h) of
    the final h-block, whose first h-p slots are the common clique and whose
    last p slots are clique k's private vertices; ``clique`` is None.
    """

    kind: str
    clique: int | None
    slot: int


def make_params(h: int, p: int, k: int) -> FamilyParams:
    if h < 2:
        raise InvalidParams(f"h must be at least 2 (got h={h})")
    if not 1 <= p <= h:
        raise InvalidParams(f"p must satisfy 1 <= p <= h (got p={p}, h={h})")
    if k < 1:
        raise InvalidParams(f"k must be at least 1 (got k={k})")
    return FamilyParams(h=h, p=p, k=k, n=h + (k - 1) * p)


def vertex_labels(params: FamilyParams) -> tuple[VertexLabel, ...]:
    """Labels for vertices 0..n-1 in the fixed block order."""
    labels = [
        VertexLabel("private", j, i)
        for j in range(1, params.k)
        for i in range(1, params.p + 1)
    ]
    labels.extend(VertexLabel("hub", None, i) for i in range(1, params.h + 1))
    return tuple(labels)


def clique_vertices(params: FamilyParams, j: int) -> tuple[int, ...]:
    """Vertex indices of clique j (1-based), common clique included."""
    h, p, k, n = params
    if not 1 <= j <= k:
        raise InvalidParams(f"clique index must satisfy 1 <= j <= k (got j={j}, k={k})")
    common = range((k - 1) * p, (k - 1) * p + h - p)
    private = range((j - 1) * p, j * p) if j < k else range(n - p, n)
    return tuple(sorted([*common, *private]))


def _block_matrix(params: FamilyParams, inside: int, outside: int) -> Matrix:
    """int8 matrix, zero diagonal: ``inside`` within a clique, ``outside`` elsewhere.

    Filled by block slicing in the fixed vertex order: private blocks,
    their coupling to the hub's common slice, the hub, then the diagonal.
    """
    h, p, k, n = params
    hub = (k - 1) * p
    common = slice(hub, n - p)
    out = np.full((n, n), outside, dtype=np.int8)
    private = np.arange(k - 1)  # the diagonal p x p blocks, through a view that splits axes
    out[:hub, :hub].reshape(k - 1, p, k - 1, p)[private, :, private, :] = inside
    out[:hub, common] = inside
    out[common, :hub] = inside
    out[hub:, hub:] = inside
    np.fill_diagonal(out, 0)
    return out


def adjacency_matrix(params: FamilyParams) -> Matrix:
    """0/1 adjacency matrix of the union of the k overlapping cliques, as int8.

    Block structure under the fixed ordering: k-1 diagonal K_p blocks for
    the private vertices, zero blocks between different cliques' private
    vertices, all-ones coupling of each private block to the common
    columns of the hub block, and one K_h block for the hub.
    """
    return _block_matrix(params, 1, 0)


def seidel_matrix(params: FamilyParams) -> Matrix:
    """S = J - I - 2*A in int8: zero diagonal, -1 on edges of the union, +1 elsewhere."""
    return _block_matrix(params, -1, 1)


def x_prime_matrix(params: FamilyParams) -> Matrix:
    """The (k-1)p x h int8 coupling block of the Seidel matrix.

    Rows are identical: -1 in the h-p common-clique columns (those pairs
    are negative edges), +1 in the p columns of clique k's private
    vertices.  Requires k >= 2, otherwise there are no private blocks and
    the matrix would have no rows.
    """
    if params.k < 2:
        raise DegenerateFamily(f"k = {params.k}: no coupling block exists for k < 2")
    out = np.ones(((params.k - 1) * params.p, params.h), dtype=np.int8)
    out[:, : params.h - params.p] = -1
    return out


def signed_edges(params: FamilyParams) -> tuple[tuple[int, int, int], ...]:
    """All unordered pairs (i, j, sign) with i < j; sign -1 on clique edges."""
    rows, cols = np.triu_indices(params.n, 1)
    signs = seidel_matrix(params)[rows, cols]
    return tuple(zip(rows.tolist(), cols.tolist(), signs.tolist()))
