"""Closed-form spectra and characteristic polynomials for the family.

Everything here is a formula: spectra of a*I + b*J matrices, spectra of
uniform block matrices, the characteristic polynomial and adjugate of the
negated complete graph, the sandwich product of the coupling block against
that adjugate, and finally the factored characteristic polynomial of the
family's Seidel matrix with its residual cubic.  The verify module checks
each formula against oracles that never look at these functions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import ComplexRoots, DegenerateFamily, UnsupportedShape
from .family import FamilyParams
from .linalg import Matrix, assemble_blocks, exact_matrix, identity_matrix, ones_matrix
from .polynomial import UniPoly, X, _exact, _times_linear_powers

ExactValue = Union[int, Fraction]

__all__ = [
    "ScalarMatrixSpec",
    "CubicRoot",
    "Spectrum",
    "FactoredCharPoly",
    "spectrum_aI_bJ",
    "spectrum_uniform_blocks",
    "uniform_block_matrix",
    "adjugate_negK_closed",
    "sandwich_closed",
    "cubic_s",
    "charpoly_closed",
    "spectrum_closed",
]


class ScalarMatrixSpec(NamedTuple):
    """The matrix a*I_n + b*J_n, kept as its two coefficients."""

    a: ExactValue
    b: ExactValue
    n: int

    def realize(self) -> Matrix:
        return exact_matrix(_exact(self.a) * identity_matrix(self.n) + _exact(self.b))


class CubicRoot(NamedTuple):
    """One irrational root of the family's cubic, carried symbolically.

    ``value`` is the correctly rounded float of the root; ``float()`` reads
    it, so nothing solves the cubic again.  As a tuple it never equals an
    exact int or Fraction, so a spectrum never merges it with one.
    """

    value: float

    def __float__(self) -> float:
        return self.value


SpectrumValue = Union[int, Fraction, CubicRoot]


class Spectrum(NamedTuple):
    """Eigenvalues with multiplicities, sorted descending by value."""

    entries: tuple[tuple[SpectrumValue, int], ...]

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def approx(self) -> tuple[float, ...]:
        """The full multiset as floats, descending, one entry per eigenvalue."""
        return tuple(itertools.chain(*(itertools.repeat(float(v), m) for v, m in self.entries)))


def _canonical_spectrum(entries: Sequence[tuple[SpectrumValue, int]]) -> Spectrum:
    bag: dict[SpectrumValue, int] = {}
    for value, mult in entries:
        if mult == 0:
            continue
        if not isinstance(value, (int, CubicRoot)):  # ints are already exact
            value = _exact(value)
        bag[value] = bag.get(value, 0) + mult
    return Spectrum(tuple(sorted(bag.items(), key=lambda kv: float(kv[0]), reverse=True)))


def spectrum_aI_bJ(spec: ScalarMatrixSpec) -> Spectrum:
    """Eigenvalues of a*I_n + b*J_n: a + b*n once, a with multiplicity n - 1."""
    a, b, n = map(_exact, spec)  # before any arithmetic, so that no numpy integer wraps
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _canonical_spectrum([(a + b * n, 1), (a, n - 1)])


def spectrum_uniform_blocks(
    r: int | Fraction,
    d: int | Fraction,
    b: int | Fraction,
    m: int,
    t: int,
) -> Spectrum:
    """Spectrum of the t x t block matrix with diagonal blocks A and b*J_m off it.

    A is any order-m matrix of the form a'*I + b'*J with row sum r and
    secondary eigenvalue d.  Eigenvalues: r + b*m*(t-1) once, r - b*m with
    multiplicity t - 1, and d with multiplicity t*(m-1).  The d-count is
    t*(m-1) and not the swapped m*(t-1): each block contributes its m - 1
    within-block eigenvectors in each of the t block positions, and only
    t*(m-1) makes the multiplicities sum to the dimension m*t.
    """
    r, d, b, m, t = map(_exact, (r, d, b, m, t))
    if m < 1 or t < 1:
        raise ValueError(f"block order and count must be positive, got m={m}, t={t}")
    return _canonical_spectrum(
        [
            (r + b * m * (t - 1), 1),
            (r - b * m, t - 1),
            (d, t * (m - 1)),
        ]
    )


def uniform_block_matrix(
    r: int | Fraction,
    d: int | Fraction,
    b: int | Fraction,
    m: int,
    t: int,
) -> Matrix:
    """Realize the block matrix of :func:`spectrum_uniform_blocks`.

    The diagonal block is the unique a'*I + b'*J of order m with row sum r
    and secondary eigenvalue d, namely d*I + ((r - d)/m)*J.
    """
    r, d, b, m, t = map(_exact, (r, d, b, m, t))
    if m < 1 or t < 1:
        raise ValueError(f"block order and count must be positive, got m={m}, t={t}")
    diag = ScalarMatrixSpec(d, _exact(Fraction(r - d, m)), m).realize()
    off = b * ones_matrix(m)
    return assemble_blocks(
        [[diag if i == j else off for j in range(t)] for i in range(t)]
    )


def adjugate_negK_closed(n: int) -> tuple[UniPoly, UniPoly]:
    """Diagonal and off-diagonal entries of adj(-K_n - x*I).

    diag = (1 - x)^(n-2) * (2 - n - x), which is det(-K_(n-1) - x*I); the
    off-diagonal entry is (1 - x)^(n-2) everywhere, with the same sign in
    every position.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    shared = (1 - X) ** (n - 2)
    return shared * (2 - n - X), shared


def sandwich_closed(params: FamilyParams) -> UniPoly:
    """Scalar c(x) with X' @ adj(-K_h - x*I) @ X'^T = c(x) * J.

    All rows of the coupling block are identical, so the product collapses
    to a multiple of the all-ones matrix; with (diag, off) the adjugate
    entries, c = (diag - off)*h + (2p - h)^2 * off, using row sum 2p - h.
    """
    if params.k < 2:
        raise DegenerateFamily(f"k = {params.k}: no coupling block exists for k < 2")
    diag, off = adjugate_negK_closed(params.h)
    return (diag - off) * params.h + (2 * params.p - params.h) ** 2 * off


def cubic_s(params: FamilyParams) -> tuple[int, int, int, int]:
    """Ascending coefficients of the residual cubic s; leading term is -1."""
    if params.k < 2:
        raise DegenerateFamily(f"k = {params.k}: the factored form needs k >= 2")
    h, p, n = params.h, params.p, params.n
    c3 = -1
    c2 = -(2 * h - n + 2 * p - 3)
    c1 = -(2 * h * h - 2 * (h - 1) * n + 2 * (h - 2) * p - 4 * h + 3)
    c0 = (
        2 * h * h
        - (2 * h - 1) * n
        - 2 * (2 * h * h - 2 * h * n - h + 1) * p
        - 2 * h
        + 4 * (h - n) * p * p
        + 1
    )
    return c0, c1, c2, c3


class FactoredCharPoly(NamedTuple):
    """det(S - x*I) = (root1 - x)^e1 * (root2 - x)^e2 * s(x)."""

    root1: int
    e1: int
    root2: int
    e2: int
    cubic: tuple[int, int, int, int]

    @property
    def degree(self) -> int:
        return self.e1 + self.e2 + 3

    def expand(self) -> UniPoly:
        return _times_linear_powers(
            UniPoly(self.cubic), ((self.root1, self.e1), (self.root2, self.e2)))


def charpoly_closed(params: FamilyParams) -> FactoredCharPoly:
    """Factored characteristic polynomial of the family's Seidel matrix.

    The linear factors contribute eigenvalue 1 - 2p with multiplicity
    k - 2 = (n - h)/p - 1 and eigenvalue 1 with multiplicity n - k - 1 =
    n - 2 - (n - h)/p; the remaining three eigenvalues are the roots of the
    cubic s.  Note the first eigenvalue really is 1 - 2p: the factor
    (1 - 2p - x) vanishes there, and the sign-flipped label 2p - 1 is a
    different number for every p >= 1.
    """
    cubic = cubic_s(params)  # raises DegenerateFamily for k < 2
    return FactoredCharPoly(root1=1 - 2 * params.p, e1=params.k - 2,
                            root2=1, e2=params.n - params.k - 1, cubic=cubic)


def _rounded_root(a1: int, disc: int, sign: int) -> float:
    """The float nearest (a1 + sign*sqrt(disc)) / 2, for disc > 0 not a square.

    With t = isqrt(disc * 4^k) the root lies strictly inside (N, N + 1) /
    2^(k+1), for N = a1 * 2^k + t or a1 * 2^k - t - 1.  Rounding is
    monotone, so once both ends round to one float the root rounds to it
    too; k grows until they do.  Raises OverflowError beyond the float range.
    """
    k = max(0, 64 - disc.bit_length() // 2)
    while True:
        t = math.isqrt(disc << 2 * k)
        low = (a1 << k) + (t if sign > 0 else -t - 1)
        den = 1 << (k + 1)
        value = low / den  # int / int rounds correctly
        if value == (low + 1) / den:
            return value
        k = 2 * k + 32


def spectrum_closed(params: FamilyParams) -> Spectrum:
    """Full eigenvalue multiset from the factored form.

    The cubic s always has the root 1 - 2p, so s = (x - (1 - 2p)) * q with
    q = -x^2 + a1*x + a0, whose discriminant a1^2 + 4*a0 is (h - m)^2 +
    8m(h - p) >= 0, where m = n - h.  q's roots (a1 +- sqrt(disc))/2 come
    from math.isqrt: exact ints or Fractions when the discriminant is a
    square, which merge exactly with the linear factors' eigenvalues, and
    otherwise CubicRoot descriptors carrying the correctly rounded float.
    Raises ComplexRoots when the cubic does not split that way, and
    UnsupportedShape when an eigenvalue is beyond the float range.
    """
    fac = charpoly_closed(params)
    root = fac.root1
    c0, c1, c2, c3 = fac.cubic
    # synthetic division: s = (x - root) * (-x^2 + a1*x + a0) + rest
    a1 = c2 - root
    a0 = c1 + root * a1
    rest = c0 + root * a0
    disc = a1 * a1 + 4 * a0
    if c3 != -1 or rest or disc < 0:
        raise ComplexRoots(
            f"cubic {fac.cubic} is not ({root} - x) times x^2 + bx + c with real roots"
        )
    entries: list[tuple[SpectrumValue, int]] = [(root, fac.e1 + 1), (fac.root2, fac.e2)]
    floor_sqrt = math.isqrt(disc)
    try:
        if floor_sqrt * floor_sqrt == disc:
            entries += [(Fraction(a1 + sign * floor_sqrt, 2), 1) for sign in (1, -1)]
        else:
            entries += [(CubicRoot(_rounded_root(a1, disc, sign)), 1) for sign in (1, -1)]
        # ordering the spectrum takes every eigenvalue's float
        return _canonical_spectrum(entries)
    except OverflowError:
        raise UnsupportedShape(
            f"an eigenvalue for params {params} is beyond the float range"
        ) from None
