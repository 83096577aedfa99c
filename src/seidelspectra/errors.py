"""Exception types shared across the package."""


class InvalidParams(ValueError):
    """Family parameters violate a documented bound."""


class DegenerateFamily(ValueError):
    """Operation needs at least two cliques (k >= 2)."""


class UnsupportedShape(ValueError):
    """A negative factored exponent, an eigenvalue beyond floats, or n over verify.N_MAX."""


class SingularInput(ZeroDivisionError):
    """Matrix to invert is singular."""


class SingularBlock(ZeroDivisionError):
    """Block determinant needs an invertible trailing block."""


class NotSymmetric(ValueError):
    """Numeric eigensolver requires an exactly symmetric matrix."""


class ComplexRoots(ArithmeticError):
    """The closed cubic does not split into (1 - 2p - x) times a real-rooted quadratic.

    Either division by (1 - 2p - x) leaves a remainder or the quotient's
    discriminant is negative.
    """


class InternalError(RuntimeError):
    """An exactness invariant failed; indicates a bug, not bad input."""
