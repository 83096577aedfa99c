"""Exact dense linear algebra on numpy arrays.

Integer matrices that fit in 64 bits, such as the family's int8 Seidel
matrices and the oracle's twin quotients, are signed-integer arrays, never
widened whole, which :func:`charpoly_oracle` and :func:`trace_exact` take
after a dtype check alone.  Other matrices are object arrays of Python
ints, ``fractions.Fraction`` values or
:class:`~seidelspectra.polynomial.UniPoly`, made by :func:`exact_matrix`
where big-int, rational or polynomial arithmetic needs them; nothing in
this module touches floating point.  Bareiss elimination gives integer
and rational determinants (rows scaled to integers), Gauss-Jordan over
Fraction gives inverses, and cofactor expansion gives adjugates and
polynomial-entried determinants.  Characteristic polynomials of integer
matrices deflate classes of twin vertices (any integer entry between twins;
found by exact byte keys when small, else by an exactly checked row hash)
until none merge (Godsil and Royle, *Algebraic Graph Theory*, Sec. 9.3).
``_charpoly_factored`` reads a quotient of at most 2 rows off its entries
and takes a larger one to Hessenberg reduction modulo 31-bit primes in int64
and Chinese remaindering up to a proven Hadamard bound (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9; Dumas, Pernet and Wan,
ISSAC 2005), leaving the linear factors unexpanded.

Characteristic polynomial convention: :func:`charpoly_oracle` returns
det(M - x*I), whose leading coefficient is (-1)^n.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import InternalError, SingularBlock, SingularInput
from .polynomial import UniPoly, X, _exact, _times_linear_powers

#: Matrices in this package are 2-d numpy arrays: signed integers (int8 for
#: the family's block layout), dtype=object with exact entries everywhere else.
Matrix = np.ndarray

Entry = Union[int, Fraction, UniPoly]

__all__ = [
    "Matrix",
    "exact_matrix",
    "identity_matrix",
    "ones_matrix",
    "zeros_matrix",
    "complete_adjacency",
    "assemble_blocks",
    "char_matrix",
    "trace_exact",
    "det_exact",
    "charpoly_oracle",
    "adjugate_exact",
    "inverse_exact",
    "schur_block_det",
    "schur_block_det_adjugate",
]


def _exact_entry(value: object) -> Entry:
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value)  # bool and np.bool_ become 0 or 1
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, UniPoly):
        return value
    raise TypeError(
        f"matrix entries must be int, Fraction, or UniPoly, got {type(value).__name__}"
    )


def exact_matrix(rows: object) -> Matrix:
    """Copy ``rows`` into a fresh numpy object array of exact entries.

    Accepts nested sequences or numpy arrays of any integer dtype.  Integer
    entries (including numpy scalars) become Python ints so later
    arithmetic is arbitrary precision; an integral Fraction becomes an int,
    other Fractions and UniPoly entries pass through.  Floats are rejected.
    """
    arr = np.asarray(rows, dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {arr.shape}")
    return np.frompyfunc(_exact_entry, 1, 1)(arr)


def _checked_matrix(m: object) -> Matrix:
    """m itself when it is a signed-integer array, else :func:`exact_matrix` of m."""
    if isinstance(m, np.ndarray) and m.dtype.kind == "i":
        return m
    return exact_matrix(m)


def zeros_matrix(rows: int, cols: int | None = None) -> Matrix:
    return exact_matrix(np.zeros((rows, rows if cols is None else cols), dtype=np.int64))


def ones_matrix(rows: int, cols: int | None = None) -> Matrix:
    """All-ones matrix J, rectangular when ``cols`` differs from ``rows``."""
    return exact_matrix(np.ones((rows, rows if cols is None else cols), dtype=np.int64))


def identity_matrix(n: int) -> Matrix:
    return exact_matrix(np.eye(n, dtype=np.int64))


def complete_adjacency(n: int) -> Matrix:
    """Adjacency matrix of the complete graph K_n: zero diagonal, ones elsewhere."""
    return exact_matrix(1 - np.eye(n, dtype=np.int64))


def assemble_blocks(grid: Sequence[Sequence[object]]) -> Matrix:
    """Assemble a block matrix from a 2-d grid of exact matrices."""
    return np.block([[exact_matrix(b) for b in row] for row in grid])


def char_matrix(m: object) -> Matrix:
    """Return m - x*I with polynomial entries, ready for symbolic determinants."""
    a = exact_matrix(m)
    _require_square(a, "char_matrix")
    out = a.copy()
    for i in range(a.shape[0]):
        out[i, i] = a[i, i] - X
    return out


def trace_exact(m: object) -> Entry:
    """Exact sum of the diagonal; a signed-integer array is read only there."""
    a = _checked_matrix(m)
    _require_square(a, "trace")
    return sum(np.diagonal(a).tolist(), 0)


def _require_square(a: Matrix, what: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} needs a square matrix, got shape {a.shape}")
    return a.shape[0]


def _det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free elimination; every interior division is exact."""
    n = len(m)
    sign = 1
    prev = 1
    for r in range(n - 1):
        if m[r][r] == 0:
            for rr in range(r + 1, n):
                if m[rr][r] != 0:
                    m[r], m[rr] = m[rr], m[r]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[i][j] * m[r][r] - m[i][r] * m[r][j]) // prev
            m[i][r] = 0
        prev = m[r][r]
    return sign * m[n - 1][n - 1]


def _det_ring(m: list[list[Entry]]) -> Entry:
    """Determinant over any exact commutative ring.

    Subset dynamic program over column sets: f[S] is the determinant of the
    first |S| rows restricted to the columns in S, built by expansion along
    the last of those rows.  O(n * 2^n) ring operations, fine for the n <= 8
    symbolic matrices this package needs.
    """
    n = len(m)
    f: list[Entry] = [0] * (1 << n)
    f[0] = 1
    for mask in range(1, 1 << n):
        t = mask.bit_count()
        row = m[t - 1]
        sgn = 1 if (t - 1) % 2 == 0 else -1
        acc: Entry = 0
        for j in range(n):
            if mask >> j & 1:
                entry = row[j]
                if entry != 0:
                    acc = acc + sgn * entry * f[mask ^ (1 << j)]
                sgn = -sgn
        f[mask] = acc
    return f[(1 << n) - 1]


def det_exact(m: object) -> Entry:
    """Exact determinant of a square matrix with int/Fraction/UniPoly entries."""
    a = exact_matrix(m)
    n = _require_square(a, "determinant")
    if n == 0:
        return 1
    entries = [[a[i, j] for j in range(n)] for i in range(n)]
    flat = [e for row in entries for e in row]
    if any(isinstance(e, UniPoly) for e in flat):
        return _det_ring(entries)
    if any(isinstance(e, Fraction) for e in flat):
        # scaling each row by the lcm of its denominators keeps one elimination
        rows = [[Fraction(e) for e in row] for row in entries]
        scales = [math.lcm(*(e.denominator for e in row)) for row in rows]
        ints = [[int(e * s) for e in row] for row, s in zip(rows, scales)]
        return _exact(Fraction(_det_bareiss(ints), math.prod(scales)))
    return _det_bareiss(entries)


#: Dimension limit of the modular oracle: a dot product of n terms below
#: 2^31 * 2^16 stays under 2^63 only while n < 2^16.
_MAX_ORACLE_DIM = 1 << 16


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 7, 61 decide every m < 2^32."""
    if m < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 61):
        if m % small == 0:
            return m == small
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime(i: int) -> int:
    """The i-th odd prime below 2^31, descending, each searched for once per process."""
    start = (1 << 31) - 1 if i == 0 else _prime(i - 1) - 2
    return next(filter(_is_prime, range(start, 1, -2)))


def _matvec_mod(a: np.ndarray, v: np.ndarray, prime: int) -> np.ndarray:
    """a @ v mod prime for int64 a, v with entries in [0, prime), prime < 2^31.

    v is split into 16-bit limbs so each dot product sums fewer than 2^16
    terms below 2^47, which keeps every intermediate under 2^63.
    """
    low = a @ (v & 0xFFFF)
    high = a @ (v >> 16)
    return (low % prime + ((high % prime) << 16)) % prime


def _hessenberg_mod(h: np.ndarray, prime: int) -> np.ndarray:
    """Reduce h in place to an upper Hessenberg matrix similar over F_prime.

    Gaussian elimination below the subdiagonal, each row operation paired
    with the inverse column operation so the characteristic polynomial is
    kept.  A zero pivot is replaced by a row swap and the matching column
    swap; a column with nothing to eliminate is skipped.  Cohen, Alg. 2.2.9.
    """
    n = h.shape[0]
    for j in range(n - 2):
        nonzero = np.flatnonzero(h[j + 1:, j])
        if nonzero.size == 0:
            continue
        pivot = j + 1 + int(nonzero[0])
        if pivot != j + 1:
            h[[j + 1, pivot], :] = h[[pivot, j + 1], :]
            h[:, [j + 1, pivot]] = h[:, [pivot, j + 1]]
        inv = pow(int(h[j + 1, j]), -1, prime)
        u = h[j + 2:, j] * inv % prime
        # rows i > j+1 lose u_i * row j+1; entries left of column j are already 0
        h[j + 2:, j:] = (h[j + 2:, j:] - np.outer(u, h[j + 1, j:]) % prime) % prime
        # column j+1 gains sum_i u_i * column i, which undoes the row operations
        h[:, j + 1] = (h[:, j + 1] + _matvec_mod(h[:, j + 2:], u, prime)) % prime
    return h


def _charpoly_hessenberg_mod(h: np.ndarray, prime: int) -> np.ndarray:
    """Ascending coefficients of det(x*I - h) mod prime for upper Hessenberg h.

    Row m of ``polys`` is the characteristic polynomial p_m of the leading
    m x m block, by expansion along its last column:
    p_m = (x - h[m-1, m-1]) p_{m-1} - sum_{i < m-1} h[i, m-1] q_i p_i,
    where q_i is the product of the subdiagonal entries h[i+1, i] ..
    h[m-1, m-2].
    """
    n = h.shape[0]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    chain = np.zeros(n, dtype=np.int64)  # q_0 .. q_{m-2} for the current m
    for m in range(1, n + 1):
        prev = polys[m - 1]
        row = polys[m]
        row[1:] = prev[:-1]
        row -= h[m - 1, m - 1] * prev % prime
        if m > 1:
            chain[m - 2] = 1
            chain[: m - 1] = chain[: m - 1] * h[m - 1, m - 2] % prime
            weights = h[: m - 1, m - 1] * chain[: m - 1] % prime
            row -= _matvec_mod(polys[: m - 1].T, weights, prime)
        row %= prime
    return polys[n]


def _integer_matrix(m: object) -> Matrix:
    """m as a square signed-integer array, or as an object array of Python ints.

    Signed-integer arrays pass on a dtype check alone, unwidened.  Other input
    goes through :func:`exact_matrix` into the narrowest signed dtype, or stays
    Python ints past int64 (uint64 from 2^63 up, large Python ints): no wrap.
    """
    a = _checked_matrix(m)
    if a.dtype.kind != "i":
        if not all(isinstance(e, int) for e in a.flat):
            raise TypeError("charpoly_oracle expects integer entries")
        a = _narrowest(a, max(-a.min(initial=0), a.max(initial=0)))
    _require_square(a, "characteristic polynomial")
    return a


def _narrowest(a: Matrix, bound: int) -> Matrix:
    """a in the narrowest signed dtype that holds -bound .. bound, else as Python ints."""
    return a.astype(np.min_scalar_type(-bound - 1), copy=False)


def _twin_weights(n: int) -> np.ndarray:
    """Fixed hash weights for grouping rows; they set speed, never the answer."""
    return np.arange(1, n + 1, dtype=np.int64) * 2654435761 % ((1 << 20) - 3) + 1


#: Twin detection reads the matrix in blocks of about this many entries.
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(a: Matrix) -> list[Matrix]:
    """Views of whole rows of a, about _BLOCK_ENTRIES entries and at least one row each."""
    if a.size <= _BLOCK_ENTRIES:
        return [a]
    step = max(1, _BLOCK_ENTRIES // a.shape[1])
    return [a[start:start + step] for start in range(0, a.shape[0], step)]


def _twin_values(a: Matrix, low: int, high: int) -> Sequence[int]:
    """Candidate twin entries t, for speed only: low .. high (a's extremes) when at most 2
    apart, else the distinct a[u, v], u != v, d_u = d_v; -1, 0, 1 past len(a) of them."""
    if high - low <= 2:
        return range(low, high + 1)
    diagonal = a.diagonal()
    values: set[int] = set()
    start = 0
    for rows in _row_blocks(a):
        paired = diagonal[start:start + len(rows), None] == diagonal
        paired.flat[start::len(a) + 1] = False  # the block's own diagonal entries
        ordered = np.sort(rows[paired])  # np.unique would import numpy.ma, 15 ms and 1 MB
        values.update(ordered[:1].tolist() + ordered[1:][ordered[1:] != ordered[:-1]].tolist())
        if len(values) > len(a):
            return (-1, 0, 1)
        start += len(rows)
    return sorted(values)


#: Most bytes of exact twin keys, candidates x n x (2n + 1) entries: on the family's
#: int8 matrices (3 candidates) they cost about what the row hash does near n = 150.
_EXACT_KEY_BYTES = 1 << 17


def _exact_twins(a: Matrix, values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Classes by exact keys: per candidate t, each vertex's diagonal, row and column
    with t on the diagonal, as bytes.  Equal keys are twins, and keys for two values
    of t never tie (the entries between the two vertices would be both)."""
    n, width = a.shape[0], 2 * a.shape[0] + 1
    ts = np.asarray(values, dtype=a.dtype)
    keys = np.empty((ts.size, n, width), dtype=a.dtype)
    keys[:, :, 0], keys[:, :, 1:n + 1], keys[:, :, n + 1:] = a.diagonal(), a, a.T
    flat = keys.reshape(ts.size, n * width)  # entries (u, 1 + u) and (u, n + 1 + u):
    flat[:, 1::width + 1] = flat[:, n + 1::width + 1] = ts[:, None]
    keys = keys.view(np.dtype((np.void, width * a.itemsize))).ravel()
    order = keys.argsort(kind="stable")  # a class's first is its lowest vertex
    ranked = keys[order]
    tied = ranked[1:] == ranked[:-1]  # key i + 1 equals key i
    starts = np.arange(1, ranked.size)  # its own index where a run starts, else 0, so the
    starts[tied] = 0  # running maximum is each key's run start (0 for the first run)
    lead = order[np.maximum.accumulate(starts)[tied]]
    head, twin = np.arange(n), np.zeros(n, dtype=a.dtype)  # a cell's lowest vertex and t
    head[order[1:][tied] % n] = lead % n
    twin[lead % n] = ts[lead // n]
    return head, twin


def _hashed_twins(a: Matrix, values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Classes by a row hash (int64, it may wrap) symmetric in a twin pair; each run of
    ties is checked exactly against its first in row blocks, what is left of it again."""
    n = a.shape[0]
    diagonal = a.diagonal()
    weights = _twin_weights(n).astype(object if a.dtype == object else np.int64, copy=False)
    # adding t * weights puts t on the diagonal; einsum widens a in buffers, not whole
    off_diagonal = np.einsum("ij,j->i", a, weights) - diagonal * weights
    head, twin = np.arange(n), np.zeros(n, dtype=a.dtype)  # as in _exact_twins
    for value in values:
        keys = off_diagonal + value * weights
        chain = np.lexsort((diagonal, keys))  # by key, then diagonal, then index
        ranked = keys[chain]
        same = np.concatenate(([False], ranked[1:] == ranked[:-1]))  # tied with the one before
        while same.any():
            in_run = same.copy()
            in_run[:-1] |= same[1:]
            chain, same = chain[in_run], same[in_run]
            lead = np.maximum.accumulate(np.where(same, 0, np.arange(chain.size)))
            u = chain[lead]  # the run's first vertex
            linked = same & (a[u, chain] == value) & (a[chain, u] == value)
            linked &= diagonal[u] == diagonal[chain]
            # then twins' columns, and rows, differ in their own two rows alone, where d != t
            expected = 2 * (diagonal[chain] != value)
            for view in (a, a.T):
                differ = 0
                for rows in _row_blocks(view):
                    b = rows[:, chain]
                    differ = differ + (b != b[:, lead]).sum(axis=0)
                linked &= differ == expected
            head[chain[linked]] = u[linked]
            twin[u[linked]] = value
            # what is left of a run is checked again against its own first
            left = same & ~linked
            if not left.any():
                break
            chain, lead = chain[left], lead[left]
            same = np.concatenate(([False], lead[1:] == lead[:-1]))
    return head, twin


def _twin_quotient(a: Matrix) -> tuple[Matrix, dict[int, int]] | None:
    """One deflation pass: a's twin quotient B and {root: exponent}, or None.

    Twins u, v have equal diagonals d, the entry t both ways between them
    and equal rows and columns outside {u, v}; for one t that is an
    equivalence, and no vertex is a twin for two values of t (u ~ v for t
    and u ~ w for t' make a[w, v] both t and t').  Classes, each headed by
    its lowest vertex, come from :func:`_exact_twins`, or on object input and
    above _EXACT_KEY_BYTES of keys from :func:`_hashed_twins`.
    B[i, j] = a[rep_i, rep_j] * |C_j| and B[i, i] = d_i + t_i * (|C_i| - 1)
    are built in the narrowest dtype that holds max |a| * max |C|, and so d - t.
    """
    n = a.shape[0]
    diagonal = a.diagonal()
    if len(set(diagonal.tolist())) == n:  # twins share a diagonal entry
        return None
    low, high = int(np.minimum.reduce(a, None)), int(np.maximum.reduce(a, None))
    values = _twin_values(a, low, high)
    exact = a.dtype != object and len(values) * n * (2 * n + 1) * a.itemsize <= _EXACT_KEY_BYTES
    head, twin = (_exact_twins if exact else _hashed_twins)(a, values)
    counts = np.bincount(head)  # a class's size at its head, 0 elsewhere
    reps = np.flatnonzero(counts)
    if reps.size == n:
        return None
    sizes = counts[reps]
    quotient = _narrowest(a[reps[:, None], reps], max(-low, high) * int(sizes.max()))
    quotient *= sizes
    d, t = diagonal[reps].astype(quotient.dtype), twin[reps].astype(quotient.dtype)
    quotient.flat[::reps.size + 1] = d + t * (sizes - 1)
    factors: dict[int, int] = {}
    for root, exponent in zip((d - t).tolist(), (sizes - 1).tolist()):
        if exponent:
            factors[root] = factors.get(root, 0) + exponent
    return quotient, factors


def _coefficient_bound(a: Matrix) -> int:
    """B = prod over rows of (1 + ceil(||row||_2)), exact on Python ints.

    The coefficient of x^(n-i) in det(x*I - a) is a signed sum of the i x i
    principal minors.  Hadamard bounds each minor by the product of its
    rows' norms, and those are at most the full rows' norms r_1 .. r_n, so
    every coefficient is at most e_i(r_1, .., r_n) <= prod (1 + r_j) <= B.
    """
    bound = 1
    for row in a.tolist():
        squares = sum(e * e for e in row)
        root = math.isqrt(squares)
        bound *= 1 + root + (root * root < squares)
    return bound


def _charpoly_multimodular(a: Matrix) -> UniPoly:
    """det(a - x*I) of a square integer array, dimension >= 1, with no deflation."""
    n = a.shape[0]
    bound = _coefficient_bound(a)
    coeffs = [0] * (n + 1)
    modulus = 1
    # a 31-bit prime fits no narrower dtype than int64
    wide = a if a.dtype == object else a.astype(np.int64, copy=False)
    for prime in map(_prime, itertools.count()):
        # object entries beyond int64 are reduced as Python ints
        reduced = (wide % prime).astype(np.int64, copy=False)
        residues = _charpoly_hessenberg_mod(_hessenberg_mod(reduced, prime), prime)
        # Garner step: lift each coefficient from mod modulus to mod modulus*prime
        lift = pow(modulus, -1, prime)
        for i, r in enumerate(residues.tolist()):
            coeffs[i] += modulus * ((r - coeffs[i]) * lift % prime)
        modulus *= prime
        if modulus > 2 * bound:
            break
    half = modulus // 2
    coeffs = [c - modulus if c > half else c for c in coeffs]
    # the recurrence yields det(x*I - a); flip to det(a - x*I)
    if n % 2:
        coeffs = [-c for c in coeffs]
    return UniPoly(coeffs)


def _charpoly_factored(m: object) -> tuple[UniPoly, dict[int, int]]:
    """:func:`charpoly_oracle` as a residual and {root: exponent}, the
    residual being the characteristic polynomial of the quotient left when
    :func:`_twin_quotient` merges nothing more."""
    a = _integer_matrix(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("characteristic polynomial needs dimension >= 1")
    if n >= _MAX_ORACLE_DIM:
        raise ValueError(
            f"charpoly_oracle supports dimension below {_MAX_ORACLE_DIM}, got {n}"
        )
    roots: dict[int, int] = {}
    while (deflated := _twin_quotient(a)) is not None:
        a, factors = deflated
        for root, exponent in factors.items():
            roots[root] = roots.get(root, 0) + exponent
    if len(a) > 2:
        return _charpoly_multimodular(a), roots
    # 1 or 2 rows: det(a - x*I) off the entries, as Python ints so that no product wraps
    if len(a) == 1:
        return UniPoly([a.item(0), -1]), roots
    (a00, a01), (a10, a11) = a.tolist()
    return UniPoly([a00 * a11 - a01 * a10, -(a00 + a11), 1]), roots


def charpoly_oracle(m: object) -> UniPoly:
    """Characteristic polynomial det(m - x*I) of an integer matrix, exactly.

    Twin classes are deflated first: u and v with m[u, u] = m[v, v] = d,
    m[u, v] = m[v, u] = t for any integer t, and rows and columns that
    agree outside {u, v}.  They are cells of an equitable partition, so
    det(m - x*I) is det(B - x*I) for the quotient B of :func:`_twin_quotient`
    times (d - t - x)^(|C| - 1) per class C (Godsil and Royle, *Algebraic
    Graph Theory*, Sec. 9.3), and B is deflated again until nothing merges:
    to at most 2 rows for the family, whose det(B - x*I) is read off its
    entries as Python ints.  A larger B is reduced mod 31-bit primes p to
    upper Hessenberg form in int64, det(x*I - H) mod p read off the
    Hessenberg recurrence, and the residues combined by the Chinese
    remainder theorem until the primes' product exceeds 2*N, where
    N = prod (1 + ceil(||row||_2)) bounds every coefficient (Hadamard on the
    principal minors): proven exact, not merely stable (Cohen, Alg. 2.2.9;
    Dumas, Pernet and Wan, ISSAC 2005).

    It sees only the matrix entries, never a closed form, which makes it an
    oracle.  A signed-integer array is used as it is, other input is checked
    entry by entry; TypeError for non-integer entries, ValueError for
    dimension 0 or at least 2^16.
    """
    residual, roots = _charpoly_factored(m)
    return _times_linear_powers(residual, roots.items())


def _minor(entries: list[list[Entry]], drop_row: int, drop_col: int) -> list[list[Entry]]:
    return [
        [e for j, e in enumerate(row) if j != drop_col]
        for i, row in enumerate(entries)
        if i != drop_row
    ]


def adjugate_exact(m: object) -> Matrix:
    """Adjugate (transposed cofactor matrix): m @ adj(m) = det(m) * I.

    That identity holds for singular m too, which is why the adjugate and
    not the inverse is the right tool for symbolic block eliminations.
    Works entrywise over int, Fraction, or UniPoly.
    """
    a = exact_matrix(m)
    n = _require_square(a, "adjugate")
    if n == 0:
        return a.copy()
    out = np.empty((n, n), dtype=object)
    if n == 1:
        out[0, 0] = 1
        return out
    entries = [[a[i, j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            sign = 1 if (i + j) % 2 == 0 else -1
            out[j, i] = sign * det_exact(_minor(entries, i, j))
    return out


def inverse_exact(m: object) -> Matrix:
    """Exact inverse with Fraction entries, by Gauss-Jordan elimination."""
    a = exact_matrix(m)
    n = _require_square(a, "inverse")
    rows: list[list[Fraction]] = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = a[i, j]
            if isinstance(entry, UniPoly):
                raise TypeError("inverse_exact supports int and Fraction entries only")
            row.append(Fraction(entry))
        row.extend(Fraction(1 if j == i else 0) for j in range(n))
        rows.append(row)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise SingularInput("matrix is singular, no exact inverse")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(n):
            if r == col or rows[r][col] == 0:
                continue
            factor = rows[r][col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = _exact(rows[i][n + j])
    return out


def _check_blocks(A: Matrix, B: Matrix, C: Matrix, D: Matrix) -> tuple[int, int]:
    na = _require_square(A, "top-left block")
    nd = _require_square(D, "bottom-right block")
    if B.shape != (na, nd):
        raise ValueError(f"top-right block must be {na}x{nd}, got {B.shape}")
    if C.shape != (nd, na):
        raise ValueError(f"bottom-left block must be {nd}x{na}, got {C.shape}")
    return na, nd


def schur_block_det(A: object, B: object, C: object, D: object) -> Entry:
    """det [[A, B], [C, D]] as det(D) * det(A - B @ D^-1 @ C).

    The complement is taken with B on the left and C on the right; the
    opposite ordering A - C @ D^-1 @ B gives a different determinant for
    general (non-symmetric) blocks.
    """
    A, B, C, D = (exact_matrix(x) for x in (A, B, C, D))
    na, _ = _check_blocks(A, B, C, D)
    det_d = det_exact(D)
    if det_d == 0:
        raise SingularBlock("det(D) = 0: Schur complement of D undefined")
    if na == 0:
        return det_d
    schur = A - B @ inverse_exact(D) @ C
    return _exact(Fraction(det_d) * Fraction(det_exact(schur)))


def schur_block_det_adjugate(A: object, B: object, C: object, D: object) -> Entry:
    """Same determinant via det(det(D)*A - B @ adj(D) @ C) / det(D)^(na - 1).

    Stays in integers until the one final division.  For integer blocks
    that division must come out exact; a remainder means the implementation
    is broken, not the input.
    """
    A, B, C, D = (exact_matrix(x) for x in (A, B, C, D))
    na, _ = _check_blocks(A, B, C, D)
    det_d = det_exact(D)
    if det_d == 0:
        raise SingularBlock("det(D) = 0: Schur complement of D undefined")
    if na == 0:
        return det_d
    inner = det_d * A - B @ adjugate_exact(D) @ C
    value = det_exact(inner)
    if na == 1:
        return value
    divisor = det_d ** (na - 1)
    if isinstance(value, int) and isinstance(divisor, int):
        quot, rem = divmod(value, divisor)
        if rem:
            raise InternalError(
                f"adjugate-route division not exact: {value} / {divisor}"
            )
        return quot
    return _exact(Fraction(value) / Fraction(divisor))
