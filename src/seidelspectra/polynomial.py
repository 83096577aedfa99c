"""Univariate polynomials with exact coefficients.

Coefficients are Python ints or ``fractions.Fraction`` values indexed by
power of the variable, so every operation is arbitrary precision.  The zero
polynomial stores no coefficients and reports degree -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

Scalar = Union[int, Fraction]

__all__ = ["UniPoly", "X"]


class UniPoly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``x**i``.

    Instances are immutable; arithmetic returns new polynomials.  Mixed
    arithmetic with plain scalars works in both operand orders, which lets
    polynomial-entried numpy object matrices go through ``@`` unchanged.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and (self.coeffs[0] if self.coeffs else 0) == other
        return NotImplemented

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        elif not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (UniPoly, int, Fraction)):
            return self + (-other if isinstance(other, UniPoly) else UniPoly((-other,)))
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "UniPoly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative int, got {exp!r}")
        result = UniPoly((1,))
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[tuple[str, str]] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def _linear_power(c: Scalar, e: int) -> UniPoly:
    """(c - x)^e by the binomial theorem, with C(e, j + 1) = C(e, j) * (e - j) / (j + 1).

    At e = 2000 this is far cheaper than a ``math.comb`` call per coefficient.
    """
    if not isinstance(e, int) or e < 0:
        raise ValueError(f"polynomial exponent must be a nonnegative int, got {e!r}")
    coeffs, binomial, power = [], 1, 1  # coeffs[j] multiplies x^(e - j)
    for j in range(e + 1):
        coeffs.append((-1) ** (e - j) * binomial * power)
        binomial, power = binomial * (e - j) // (j + 1), power * c
    return UniPoly(reversed(coeffs))


def _times_linear_powers(poly: UniPoly, factors: Iterable[tuple[Scalar, int]]) -> UniPoly:
    """poly * prod (r - x)^e over the (r, e) pairs: a factored form, expanded."""
    return math.prod((_linear_power(r, e) for r, e in factors), start=poly)


def _exact(value: object) -> Union[Scalar, UniPoly]:
    """The one normalizer of exact values.  Python and numpy integers and bools
    become an int, a Fraction an int when it is integral (else it stays, reduced),
    and a UniPoly passes through; anything else, floats included, is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, UniPoly):
        return value
    raise TypeError(f"exact values are int, Fraction or UniPoly, got {type(value).__name__}")


#: The variable itself, for building polynomials expression-style.
X = UniPoly((0, 1))
