from fractions import Fraction

import pytest
from hypothesis import given, seed, strategies as st

from seidelspectra.errors import InternalError
from seidelspectra.polynomial import UniPoly, X, _exact_quotient, _linear_power

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)
sample_points = st.integers(min_value=-10, max_value=10)


@seed(402653189)
@given(coeff_lists, coeff_lists, sample_points)
def test_addition_evaluates_pointwise(a, b, x):
    f, g = UniPoly(a), UniPoly(b)
    assert (f + g)(x) == f(x) + g(x)


@seed(402653189)
@given(coeff_lists, coeff_lists, sample_points)
def test_multiplication_evaluates_pointwise(a, b, x):
    f, g = UniPoly(a), UniPoly(b)
    assert (f * g)(x) == f(x) * g(x)


@seed(402653189)
@given(coeff_lists, coeff_lists)
def test_ring_commutativity(a, b):
    f, g = UniPoly(a), UniPoly(b)
    assert f + g == g + f
    assert f * g == g * f


@seed(402653189)
@given(coeff_lists)
def test_no_trailing_zero_coefficients(a):
    p = UniPoly(a)
    assert not p.coeffs or p.coeffs[-1] != 0


def test_zero_polynomial():
    zero = UniPoly()
    assert zero.degree == -1
    assert zero.coeffs == ()
    assert not zero
    assert UniPoly([0, 0, 0]) == zero == 0
    assert str(zero) == "0"


def test_degree_and_coeff_access():
    p = 5 * X**3 - 2
    assert p.degree == 3
    assert p.coeffs[-1] == 5
    assert p.coeff(0) == -2
    assert p.coeff(1) == 0
    assert p.coeff(99) == 0


def test_evaluation_uses_exact_arithmetic():
    p = UniPoly([1, 2, 3])
    assert p(2) == 17
    assert p(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)


def test_subtraction_and_negation():
    assert (1 - X) == UniPoly([1, -1])
    assert (X - 1) == UniPoly([-1, 1])
    assert -(X**2 - 1) == UniPoly([1, 0, -1])
    assert X - X == 0


def test_power_matches_repeated_multiplication():
    base = 1 - X
    assert base**0 == 1
    assert base**3 == base * base * base
    with pytest.raises(ValueError):
        X ** (-1)


def test_scalar_arithmetic_in_both_orders():
    assert 2 * X == X * 2 == UniPoly([0, 2])
    assert 3 + X == X + 3
    assert Fraction(1, 2) * (2 * X) == X
    assert UniPoly([7]) == 7
    assert 7 - X == UniPoly([7, -1])


def test_constant_equality_and_hash_agree():
    assert UniPoly([5]) == 5
    assert UniPoly([0, 1]) != 1
    # a constant equals its scalar, so a polynomial has no hash that could disagree
    with pytest.raises(TypeError):
        hash(UniPoly([5]))


def test_str_descending_terms():
    p = -(X**3) + X**2 + 5 * X + 3
    assert str(p) == "-x^3 + x^2 + 5*x + 3"
    assert str(X) == "x"
    assert str(-2 * X) == "-2*x"
    assert str(X**2 - 1) == "x^2 - 1"


def test_repr_round_trip():
    p = UniPoly([3, 0, -1])
    assert eval(repr(p)) == p


def test_linear_power_matches_repeated_squaring():
    # the oracle's deflated factors and the closed form's expansion both
    # rest on this helper, so it is checked against an independent route
    for c in range(-3, 4):
        for e in range(41):
            assert _linear_power(c, e) == (c - X) ** e
    assert _linear_power(Fraction(1, 2), 5) == (Fraction(1, 2) - X) ** 5
    with pytest.raises(ValueError):
        _linear_power(1, -1)


def test_exact_quotient_divides_and_refuses_a_remainder():
    a, b = (X - 1) * (3 * X + Fraction(1, 2)), 2 * X - 2
    assert _exact_quotient(a, b) == Fraction(3, 2) * X + Fraction(1, 4)
    assert _exact_quotient(UniPoly(), b) == UniPoly()
    assert _exact_quotient(UniPoly([6]), UniPoly([3])).coeffs == (2,)
    for num, den in ((X**2 + 1, X), (UniPoly([1]), X), (a + 1, b)):
        with pytest.raises(InternalError):
            _exact_quotient(num, den)
