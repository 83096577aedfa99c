"""Real roots of cubics in exact integer arithmetic.

The cubics of interest come from symmetric matrices, so all three roots
are real; the solver checks that claim through the exact discriminant
rather than assuming it.  With y = c3*x an integer cubic s becomes the
monic t(y) = c3^2 * s(y/c3), whose rational roots are integers.  Each root
of t lies on a stretch where t is monotone, between the zeros of t' and
the Cauchy bound, and an exact integer search finds its floor: a floor
that is a root gives the rational root, and otherwise the search goes on
over dyadic rationals until the bracket is below 2^-56 of the root, about
1 ulp.  Every decision is the exact sign of t at an integer or dyadic
point.  Floats only choose where to evaluate: a float estimate of the
roots seeds a safeguarded Newton search, which near simple roots takes
O(log bits) evaluations; a poor seed costs evaluations, never the answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import ComplexRoots, DegenerateLeading, InternalError
from .polynomial import _exact

RootValue = Union[int, Fraction, float]
Monic = tuple[int, int, int]  # (a0, a1, a2) of y^3 + a2*y^2 + a1*y + a0

__all__ = ["cubic_discriminant", "cubic_root_values"]

#: Distinct integer cubics whose roots are kept between calls.
_SOLVE_CACHE_SIZE = 1024
#: An irrational root is refined until its bracket is below 2^-56 of it.
_FLOAT_BITS = 56


def cubic_discriminant(coeffs: Sequence[int | Fraction]) -> int | Fraction:
    """Discriminant of c3*x^3 + c2*x^2 + c1*x + c0; >= 0 means all roots real."""
    ints = all(isinstance(c, int) for c in coeffs)
    c0, c1, c2, c3 = coeffs if ints else (Fraction(c) for c in coeffs)
    disc = (
        18 * c3 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c3 * c1**3
        - 27 * c3**2 * c0**2
    )
    return disc if ints else _exact(disc)


def _clear_denominators(coeffs: Sequence[int | Fraction]) -> list[int]:
    if all(isinstance(c, int) for c in coeffs):
        return list(coeffs)
    fracs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


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


def _value(t: Monic, y: int) -> int:
    a0, a1, a2 = t
    return ((y + a2) * y + a1) * y + a0


def _slope(t: Monic, y: int) -> int:
    _, a1, a2 = t
    return (3 * y + 2 * a2) * y + a1


def _estimate(t: Monic) -> list[tuple[float, int]]:
    """Pairs (u, e), ascending, with t's roots near u * 2^e: seeds, not results.

    The trigonometric method on 2^(-3e) t(2^e u), whose coefficients are
    below 1 however large t's are, finds the root R of largest magnitude.
    The other two, which that scale can lose, solve z^2 - S z + P with
    P = -a0/R and S = (a1 - P)/R, formed exactly and scaled to their size.
    """
    a0, a1, a2 = t
    e = max(a2.bit_length(), (a1.bit_length() + 1) // 2, (a0.bit_length() + 2) // 3)
    b2, b1, b0 = a2 / (1 << e), a1 / (1 << 2 * e), a0 / (1 << 3 * e)
    shift = b2 / 3  # u = w - shift gives w^3 + p*w + q
    p = b1 - b2 * shift
    q = (2 * shift * shift - b1) * shift + b0
    scale, big = 2 * math.sqrt(max(-p, 0.0) / 3), -shift
    if scale > 0:  # of the largest and the smallest w, one is farthest from shift
        angle = math.acos(max(-1.0, min(1.0, 3 * q / p / scale))) / 3
        big = max(scale * math.cos(angle) - shift,
                  scale * math.cos(angle + 2 * math.pi / 3) - shift, key=abs)
    if big == 0:
        return [(0.0, 0)] * 3
    num, den = big.as_integer_ratio()  # R = num * 2^e / den
    pn, pd = -a0 * den, num << e
    sn, sd = ((a1 * num << e) + a0 * den) * den, num * num << 2 * e
    f = max(0, (pn.bit_length() - pd.bit_length()) // 2, sn.bit_length() - sd.bit_length())
    pf, sf = pn / (pd << 2 * f), sn / (sd << f)
    root = (sf + math.copysign(math.sqrt(max(sf * sf - 4 * pf, 0.0)), sf)) / 2
    pair = sorted([(root, f), (pf / root if root else 0.0, f)])
    return pair + [(big, e)] if big > 0 else [(big, e)] + pair  # R is largest in size


def _seed(u: float, e: int, m: int) -> int | None:
    """floor(u * 2^(e + m)) exactly, or None when u is nan or infinite."""
    if not math.isfinite(u):
        return None
    num, den = u.as_integer_ratio()
    shift = e + m
    return (num << shift) // den if shift >= 0 else num // (den << -shift)


def _stretches(t: Monic, bound: int) -> list[tuple[int, int, bool]]:
    """The integers (lo, hi, rising) of the three stretches where t is monotone.

    t' vanishes at (-a2 -+ sqrt(d0))/3 with d0 = a2^2 - 3*a1 >= 0 (zero
    only for a triple root); the floors and ceilings of those points are
    exact through math.isqrt.  ``bound`` exceeds every root's absolute
    value.
    """
    _, a1, a2 = t
    d0 = a2 * a2 - 3 * a1
    low = math.isqrt(d0)
    high = low + (low * low < d0)  # ceil(sqrt(d0))
    return [
        (-bound, (-a2 - high) // 3, True),
        (-((a2 + low) // 3), (low - a2) // 3, False),
        (-((a2 - high) // 3), bound, True),
    ]


def _root_floor(t: Monic, lo: int, hi: int, rising: bool, seed: int | None) -> tuple[int, bool]:
    """(floor(r), t(floor(r)) == 0) for the root r of t whose floor lies in [lo - 1, hi].

    t must be monotone over [lo, hi], rising or falling as given, so each
    integer z there has z <= r exactly when t(z) has the sign t has below
    r, and t(z) = 0 only at z = r.  Only those exact signs narrow the
    bracket, so where t is evaluated changes the cost, not the floor:
    first at ``seed``, then at the floor of the Newton step from the last
    point, clamped into the bracket.  As in rtsafe, the midpoint replaces
    a missing seed, a zero slope, or a move longer than 1 and than half
    the move before.
    """
    lo, hi = lo - 1, hi + 1  # lo is at most r, hi is above it
    z, last, stride = seed, None, hi - lo
    while hi - lo > 1:
        if z is not None:
            z = lo + 1 if z <= lo else hi - 1 if z >= hi else z
        if z is None or last is not None and 1 < abs(z - last) > stride // 2:
            z = (lo + hi) // 2
        value = _value(t, z)
        if value == 0:
            return z, True
        if (value < 0) == rising:
            lo = z
        else:
            hi = z
        if last is not None:
            stride = abs(z - last)
        last = z
        slope = _slope(t, z) if hi - lo > 1 else 0
        z = z + -value // slope if slope else None
    return lo, False


def _irrational_root(t: Monic, bound: int, index: int, floor: int, c3: int,
                     u: float, e: int) -> float:
    """The float of the irrational root of t on stretch ``index``, divided by c3.

    The root lies in (F, F + 1) / 2^m, starting from m = 0 and F = floor.
    Each round rescales to the monic t_m(z) = 2^(3m) t(z / 2^m), whose
    stretches are t's times 2^m, and searches for the next floor, seeded
    by u * 2^(e + m), until the bracket is below 2^-_FLOAT_BITS of the
    root; the float is the correctly rounded midpoint, within about 1 ulp
    of the root.  Raises OverflowError beyond the float range.
    """
    a0, a1, a2 = t
    top, m = floor, 0
    while abs(2 * top + 1) >> _FLOAT_BITS == 0:
        shift = _FLOAT_BITS + 1 - abs(2 * top + 1).bit_length()
        m += shift
        scaled = (a0 << 3 * m, a1 << 2 * m, a2 << m)
        lo, hi, rising = _stretches(scaled, bound << m)[index]
        lo, hi = max(lo, top << shift), min(hi, ((top + 1) << shift) - 1)
        top, _ = _root_floor(scaled, lo, hi, rising, _seed(u, e, m))
    return (2 * top + 1) / (c3 << (m + 1))


@lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve_cached(ints: tuple[int, ...]) -> tuple[RootValue, ...]:
    c0, c1, c2, c3 = ints
    disc = cubic_discriminant(ints)
    if disc < 0:
        raise ComplexRoots(
            f"discriminant {disc} < 0: one real root and a complex pair, "
            "which a symmetric-matrix spectrum cannot produce"
        )
    t = (c0 * c3 * c3, c1 * c3, c2)
    bound = 1 + max(map(abs, t))
    roots: list[int | float] = []  # integer roots of t, or floats of s's roots
    for index, ((lo, hi, rising), (u, e)) in enumerate(zip(_stretches(t, bound), _estimate(t))):
        # a repeated root is a zero of t' too, so it ends two stretches and
        # each of their searches returns it
        floor, rational = _root_floor(t, lo, hi, rising, _seed(u, e, 0))
        roots.append(floor if rational else _irrational_root(t, bound, index, floor, c3, u, e))
    values = [y if isinstance(y, float) else y // c3 if y % c3 == 0 else Fraction(y, c3)
              for y in roots]
    # roots of t ascend, so x = y/c3 descends exactly when c3 > 0
    return tuple(reversed(values) if c3 > 0 else values)


def cubic_root_values(
    coeffs: Sequence[int | Fraction], tol: float = 1e-9
) -> tuple[RootValue, ...]:
    """The three real roots, descending; rational roots come back exact.

    Entries are int or Fraction where the root is rational and float
    otherwise.  Every root is certified in exact integer arithmetic before
    it is returned: a rational root r satisfies s(r) = 0, and a float root
    r sees s change sign over [r - d, r + d] with d = tol * max(1, |r|).
    A failed certificate raises InternalError.  Raises ComplexRoots on a
    negative discriminant, DegenerateLeading when the cubic coefficient
    vanishes, and OverflowError when an irrational root is beyond the
    float range.
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

