"""Real roots of cubics with exact integer preprocessing.

The cubics of interest come from symmetric matrices, so all three roots
are real; the solver checks that claim through the exact discriminant
rather than assuming it.  Rational roots are peeled off exactly (for
integer-coefficient cubics they are found by divisor trial), and only the
genuinely irrational leftovers go through floating point, polished by
Newton iteration against the exact coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import ComplexRoots, DegenerateLeading, InternalError
from .polynomial import _exact

RootValue = Union[int, Fraction, float]

__all__ = ["cubic_discriminant", "cubic_root_values", "cubic_roots"]

#: Distinct integer cubics whose roots are kept between calls.
_SOLVE_CACHE_SIZE = 1024


def cubic_discriminant(coeffs: Sequence[int | Fraction]) -> int | Fraction:
    """Discriminant of c3*x^3 + c2*x^2 + c1*x + c0; >= 0 means all roots real."""
    c0, c1, c2, c3 = (Fraction(c) for c in coeffs)
    disc = (
        18 * c3 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c3 * c1**3
        - 27 * c3**2 * c0**2
    )
    return _exact(disc)


def _clear_denominators(coeffs: Sequence[int | Fraction]) -> list[int]:
    if all(isinstance(c, int) for c in coeffs):
        return list(coeffs)
    fracs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def _divisors(m: int) -> list[int]:
    m = abs(m)
    found = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            found.add(d)
            found.add(m // d)
        d += 1
    return sorted(found)


def _eval_frac(ints: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _one_rational_root(ints: Sequence[int]) -> Fraction | None:
    if ints[0] == 0:
        return Fraction(0)
    for den in _divisors(ints[-1]):
        for num in _divisors(ints[0]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if _eval_frac(ints, cand) == 0:
                    return cand
    return None


def _deflate(ints: Sequence[int], root: Fraction) -> list[int]:
    """Divide by (x - root); the remainder is zero by construction."""
    top = len(ints) - 1
    quotient = [Fraction(ints[top])]
    for i in range(top - 1, 0, -1):
        quotient.append(ints[i] + root * quotient[-1])
    quotient.reverse()
    return _clear_denominators(quotient)


def _scaled_value(ints: Sequence[int], x: RootValue) -> int:
    """s(x) * den^deg for x = num/den, den > 0, in exact integer arithmetic.

    Its sign is the sign of s(x).  Floats enter through their exact binary
    value, so a sign change between two float endpoints proves a root
    between them.
    """
    num, den = x.as_integer_ratio()
    acc = 0
    scale = 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _horner_float(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _newton_polish(ints: Sequence[int], x: float) -> float:
    poly = [float(c) for c in ints]
    deriv = [i * float(c) for i, c in enumerate(ints)][1:]
    for _ in range(60):
        slope = _horner_float(deriv, x)
        if slope == 0.0:
            break
        step = _horner_float(poly, x) / slope
        nxt = x - step
        if nxt == x:
            break
        x = nxt
    return x


@lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve_cached(ints: tuple[int, ...]) -> tuple[RootValue, ...]:
    disc = cubic_discriminant(ints)
    if disc < 0:
        raise ComplexRoots(
            f"discriminant {disc} < 0: one real root and a complex pair, "
            "which a symmetric-matrix spectrum cannot produce"
        )
    roots: list[RootValue] = []
    current = list(ints)
    while len(current) > 2:
        rational = _one_rational_root(current)
        if rational is None:
            break
        roots.append(_exact(rational))
        current = _deflate(current, rational)
    if len(current) == 2:
        roots.append(_exact(Fraction(-current[0], current[1])))
        current = current[1:]
    if len(current) == 3:
        a0, a1, a2 = current
        quad_disc = a1 * a1 - 4 * a2 * a0
        if quad_disc < 0:
            raise ComplexRoots(f"quadratic factor discriminant {quad_disc} < 0")
        sq = math.sqrt(quad_disc)
        for sign in (1, -1):
            roots.append(_newton_polish(ints, (-a1 + sign * sq) / (2 * a2)))
    elif len(current) == 4:
        # no rational root at all; disc >= 0 so all three are irrational reals
        numeric = np.roots(list(reversed(current)))
        roots.extend(_newton_polish(ints, float(z.real)) for z in numeric)
    roots.sort(key=float, reverse=True)
    return tuple(roots)


def cubic_root_values(
    coeffs: Sequence[int | Fraction], tol: float = 1e-9
) -> tuple[RootValue, ...]:
    """The three real roots, descending; rational roots come back exact.

    Entries are int or Fraction where the root is rational and float
    otherwise.  Every root is certified in exact integer arithmetic before
    it is returned: a rational root r satisfies s(r) = 0, and a float root
    r sees s change sign over [r - d, r + d] with d = tol * max(1, |r|).
    A failed certificate raises InternalError.  Raises ComplexRoots on a
    negative discriminant and DegenerateLeading when the cubic coefficient
    vanishes.
    """
    if len(coeffs) != 4:
        raise ValueError(f"expected 4 coefficients (ascending), got {len(coeffs)}")
    if coeffs[3] == 0:
        raise DegenerateLeading("leading coefficient is zero, not a cubic")
    ints = tuple(_clear_denominators(coeffs))
    values = _solve_cached(ints)
    for value in values:
        if isinstance(value, float):
            delta = tol * max(1.0, abs(value))
            low = _scaled_value(ints, value - delta)
            high = _scaled_value(ints, value + delta)
            certified = low * high <= 0
        else:
            certified = _scaled_value(ints, value) == 0
        if not certified:
            raise InternalError(
                f"root {value!r} not certified within tolerance {tol:.3e}"
            )
    return values


def cubic_roots(
    coeffs: Sequence[int | Fraction], tol: float = 1e-9
) -> tuple[float, float, float]:
    """The three real roots as floats, sorted descending, residual-checked."""
    a, b, c = (float(v) for v in cubic_root_values(coeffs, tol))
    return a, b, c
