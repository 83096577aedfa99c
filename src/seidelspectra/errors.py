"""Exception types shared across the package."""


class InvalidParams(ValueError):
    """Family parameters violate a documented bound."""


class DegenerateFamily(ValueError):
    """Operation needs at least two cliques (k >= 2)."""


class UnsupportedShape(ValueError):
    """An eigenvalue beyond floats, or n over verify.N_MAX, or over DENSE_N_MAX to expand."""


class SingularInput(ZeroDivisionError):
    """Matrix to invert is singular."""


class SingularBlock(ZeroDivisionError):
    """Block determinant needs an invertible trailing block."""


class NotSymmetric(ValueError):
    """Numeric eigensolver requires an exactly symmetric matrix."""


class ComplexRoots(ArithmeticError):
    """The closed cubic does not split into (1 - 2p - x) times a real-rooted x^2 + bx + c.

    Either its leading coefficient is not -1, division by (1 - 2p - x)
    leaves a remainder, or the quotient's discriminant is negative.
    """


class InternalError(RuntimeError):
    """An exactness invariant failed; indicates a bug, not bad input."""
