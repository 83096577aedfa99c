"""Answers computed apart from the program, used to check its outputs.

Nothing here imports seidelspectra.  The Seidel matrix is rebuilt from the
clique-union definition with numpy int64 (its own vertex order, common
clique first), its eigenvalues come from numpy, and the residual cubic is
rebuilt as the characteristic polynomial of the 3x3 quotient of S over
the equitable partition {private vertices of cliques 1..k-1, common
clique, private vertices of clique k}.
"""

from __future__ import annotations

import numpy as np

# Bound before a tracer can wrap numpy.linalg.eigvalsh, so reference
# eigenvalues never show up as program time.
_eigvalsh = np.linalg.eigvalsh


def family_n(h: int, p: int, k: int) -> int:
    return h + (k - 1) * p


def seidel_int64(h: int, p: int, k: int) -> np.ndarray:
    """S = J - I - 2A for the union of k cliques of order h sharing h - p vertices."""
    n = family_n(h, p, k)
    common = np.arange(h - p)
    adj = np.zeros((n, n), dtype=np.int64)
    for j in range(k):
        start = h - p + j * p
        members = np.concatenate([common, np.arange(start, start + p)])
        adj[np.ix_(members, members)] = 1
    np.fill_diagonal(adj, 0)
    return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - 2 * adj


def eigenvalues(h: int, p: int, k: int) -> np.ndarray:
    """All eigenvalues of S, descending."""
    return _eigvalsh(seidel_int64(h, p, k).astype(float))[::-1]


def grid_points(h_max: int, k_max: int, n_cap: int) -> set[tuple[int, int, int, int]]:
    """(h, p, k, n) for h in [2, h_max], p in [1, h], k in [2, k_max], n <= n_cap."""
    return {
        (h, p, k, family_n(h, p, k))
        for h in range(2, h_max + 1)
        for p in range(1, h + 1)
        for k in range(2, k_max + 1)
        if family_n(h, p, k) <= n_cap
    }


def quotient_cubic(h: int, p: int, k: int) -> tuple[int, int, int, int]:
    """Ascending coefficients of det(Q - x I), Q the 3x3 quotient of S.

    Row r of Q holds the sums of S over each class for one vertex of
    class r; the three eigenvalues of S that are not 1 or 1 - 2p are the
    eigenvalues of Q.
    """
    m = (k - 1) * p
    c = h - p
    (a, b, e), (d, f, g), (u, v, w) = (
        (-(p - 1) + (k - 2) * p, -c, p),
        (-m, -(c - 1), -p),
        (m, -c, -(p - 1)),
    )
    trace = a + f + w
    minors = (a * f - b * d) + (a * w - e * u) + (f * w - g * v)
    det = a * (f * w - g * v) - b * (d * w - g * u) + e * (d * v - f * u)
    return det, -minors, trace, -1


def trace_identities_hold(h: int, p: int, k: int, cubic: list[int]) -> bool:
    """The two exact identities that tr S = 0 and tr S^2 = n(n-1) force.

    With eigenvalue 1 - 2p of multiplicity k - 2, eigenvalue 1 of
    multiplicity n - k - 1 and cubic roots summing to -c2/c3 with square
    sum (c2/c3)^2 - 2 c1/c3, both sides are multiplied through by c3 and
    c3^2 so the comparison stays in integers.
    """
    c0, c1, c2, c3 = cubic
    n = family_n(h, p, k)
    if c3 == 0:
        return False
    first = c3 * ((1 - 2 * p) * (k - 2) + (n - k - 1)) - c2
    second = (
        c3 * c3 * ((1 - 2 * p) ** 2 * (k - 2) + (n - k - 1) - n * (n - 1))
        + c2 * c2
        - 2 * c1 * c3
    )
    return first == 0 and second == 0


def spectra_agree(reported: list[float], expected: np.ndarray, rel: float = 1e-8) -> bool:
    """Same multiset within rel * max(1, largest |eigenvalue|)."""
    if len(reported) != len(expected):
        return False
    got = np.sort(np.asarray(reported, dtype=float))
    want = np.sort(expected)
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(got - want)) <= rel * scale)
