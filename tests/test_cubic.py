import importlib
import itertools
import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from seidelspectra import cubic
from seidelspectra.cli import main
from seidelspectra.closedform import cubic_s
from seidelspectra.cubic import cubic_discriminant, cubic_root_values
from seidelspectra.errors import ComplexRoots, DegenerateLeading, InternalError
from seidelspectra.family import make_params
from seidelspectra.polynomial import UniPoly, X


def test_mixed_rational_and_irrational_roots():
    values = cubic_root_values((5, 5, -1, -1))
    assert values[1] == -1 and isinstance(values[1], int)
    assert abs(values[0] - math.sqrt(5)) < 1e-12
    assert abs(values[2] + math.sqrt(5)) < 1e-12


def test_all_rational_roots():
    assert cubic_root_values((3, 5, 1, -1)) == (3, -1, -1)
    assert cubic_root_values((-3, 5, -1, -1)) == (1, 1, -3)


def float_roots(coeffs):
    """The three roots as floats, descending, as an eigensolver would give them."""
    return tuple(float(v) for v in cubic_root_values(coeffs))


def test_triple_root():
    assert cubic_root_values((0, 0, 0, -1)) == (0, 0, 0)
    assert cubic_root_values((-8, 12, -6, 1)) == (2, 2, 2)


def test_roots_sorted_descending():
    a, b, c = float_roots((3, 5, 1, -1))
    assert a >= b >= c
    assert (a, b, c) == (3.0, -1.0, -1.0)


def test_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeading):
        float_roots((1, 2, 3, 0))


def test_complex_pair_detected():
    # x^3 + x + 1 has discriminant -31
    assert cubic_discriminant((1, 1, 0, 1)) == -31
    with pytest.raises(ComplexRoots):
        float_roots((1, 1, 0, 1))


def test_discriminant_values():
    assert cubic_discriminant((5, 5, -1, -1)) == 320
    assert cubic_discriminant((0, 0, 0, -1)) == 0
    assert cubic_discriminant((3, 5, 1, -1)) == 0


def test_fraction_coefficients_share_roots():
    scaled = tuple(Fraction(c, 7) for c in (5, 5, -1, -1))
    assert float_roots(scaled) == float_roots((5, 5, -1, -1))


def test_wrong_coefficient_count_rejected():
    with pytest.raises(ValueError):
        cubic_root_values((1, 2, 3))


def test_seeded_integer_roots_recovered(rng):
    for _ in range(50):
        roots = sorted((rng.randint(-30, 30) for _ in range(3)), reverse=True)
        poly = -1 * (X - roots[0]) * (X - roots[1]) * (X - roots[2])
        coeffs = tuple(poly.coeff(i) for i in range(4))
        assert cubic_root_values(coeffs) == tuple(roots)


def test_seeded_irrational_residuals(rng):
    for _ in range(30):
        a = rng.randint(-20, 20)
        b = rng.choice([2, 3, 5, 7, 11, 13])
        # -(x - a)(x^2 - b): roots a, +/-sqrt(b), discriminant positive
        poly = -1 * (X - a) * (X**2 - b)
        coeffs = tuple(poly.coeff(i) for i in range(4))
        for root in float_roots(coeffs):
            assert abs(poly(root)) <= 1e-9
        exact = [v for v in cubic_root_values(coeffs) if isinstance(v, int)]
        assert exact == [a]


@pytest.mark.parametrize("h, p, k", [(44, 43, 1000), (8326, 1, 2)])
def test_large_roots_pass_the_exact_certificate(h, p, k, capsys):
    # the largest root is large against the coefficients, so a float
    # residual test would reject these correct roots
    assert main(["spectrum", "--h", str(h), "--p", str(p), "--k", str(k),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = payload["cubic"]
    reference = sorted(np.roots(coeffs[::-1]).real, reverse=True)
    values = cubic_root_values(coeffs)
    assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, reference)) < 1e-9
    assert sum(e["multiplicity"] for e in payload["eigenvalues"]) == payload["n"]


def test_moved_root_is_rejected(monkeypatch):
    coeffs = (5, 5, -1, -1)
    good = cubic_root_values(coeffs)
    assert isinstance(good[0], float)
    monkeypatch.setattr(cubic, "_solve_cached",
                        lambda ints: (good[0] + 1e-3, good[1], good[2]))
    with pytest.raises(InternalError):
        cubic_root_values(coeffs)
    monkeypatch.setattr(cubic, "_solve_cached",
                        lambda ints: (good[0], 0, good[2]))
    with pytest.raises(InternalError):
        cubic_root_values(coeffs)


def test_integer_coefficients_skip_fractions_and_the_cache_is_bounded(monkeypatch):
    mixed = [Fraction(1, 2), 1, 0, Fraction(-1, 3)]
    assert cubic._clear_denominators(mixed) == [3, 6, 0, -2]
    monkeypatch.setattr(cubic, "Fraction", None)  # any use of Fraction now raises
    ints = [5, 5, -1, -1]
    assert cubic._clear_denominators(ints) == ints
    assert cubic._solve_cached.cache_info().maxsize == cubic._SOLVE_CACHE_SIZE


# (c3, denominators): the roots n_i/d_i of sign * prod(d_i x - n_i) make a
# cubic with integer coefficients and leading coefficient c3
_LEADS = [
    (sign * math.prod(dens), dens)
    for sign in (1, -1)
    for dens in itertools.product((1, 2, 3, 6), repeat=3)
    if math.prod(dens) in (1, 2, 6)
]


def _cubic_from_roots(scale, dens, nums):
    poly = UniPoly((scale,))
    for d, num in zip(dens, nums):
        poly = poly * (d * X - num)
    return tuple(poly.coeff(i) for i in range(4))


@seed(20261018)
@given(
    st.sampled_from(_LEADS),
    st.lists(st.integers(-2**100, 2**100), min_size=3, max_size=3),
)
def test_rational_roots_come_back_exact_property(lead, nums):
    c3, dens = lead
    coeffs = _cubic_from_roots(1 if c3 > 0 else -1, dens, nums)
    assert coeffs[3] == c3
    roots = sorted((Fraction(n, d) for n, d in zip(nums, dens)), reverse=True)
    values = cubic_root_values(coeffs)
    assert values == tuple(roots)
    for value, root in zip(values, roots):
        assert type(value) is (int if root.denominator == 1 else Fraction)


@pytest.mark.parametrize("c3", [1, -1, 2, -6])
def test_adjacent_integer_roots(c3):
    coeffs = _cubic_from_roots(c3, (1, 1, 1), (18, 19, 25))
    assert cubic_root_values(coeffs) == (25, 19, 18)


def test_irrational_root_next_to_an_integer_root():
    # sqrt(250001) = 500.000999999...; the integer root 500 shares its floor
    poly = -1 * (X - 500) * (X**2 - 250001)
    coeffs = tuple(poly.coeff(i) for i in range(4))
    top, middle, bottom = cubic_root_values(coeffs)
    assert middle == 500 and isinstance(middle, int)
    ulp = math.ulp(math.sqrt(250001))
    assert abs(top - math.sqrt(250001)) <= ulp and abs(bottom + math.sqrt(250001)) <= ulp
    assert 0 < top - 500 < 1e-3


@pytest.mark.parametrize("coeffs", [(-2, -10, -12, 1), (-2, 10, -12, -1)])
def test_two_irrational_roots_in_one_unit_interval(coeffs):
    # roots near -0.432 and -0.362 (mirrored for c3 = -1) share their floor,
    # so refining one must stay on its own side of the critical point
    values = cubic_root_values(coeffs)
    reference = sorted(np.roots(coeffs[::-1]).real, reverse=True)
    assert all(isinstance(v, float) for v in values)
    assert max(abs(a - b) for a, b in zip(values, reference)) < 1e-12
    assert math.floor(values[1]) == math.floor(values[2 if coeffs[3] > 0 else 0])


def test_double_and_triple_roots():
    # 2(x - 3)^2 (x + 5), (2x - 1)^2 (x + 1) and (2x + 3)^3
    assert cubic_root_values(_cubic_from_roots(2, (1, 1, 1), (3, 3, -5))) == (3, 3, -5)
    half = Fraction(1, 2)
    assert cubic_root_values(_cubic_from_roots(1, (2, 2, 1), (1, 1, -1))) == (half, half, -1)
    assert cubic_root_values(_cubic_from_roots(1, (2, 2, 2), (-3, -3, -3))) == (
        (Fraction(-3, 2),) * 3
    )
    assert cubic_discriminant(_cubic_from_roots(-1, (1, 1, 1), (2**70, 2**70, 1))) == 0
    assert cubic_root_values(_cubic_from_roots(-1, (1, 1, 1), (2**70, 2**70, 1))) == (
        2**70, 2**70, 1
    )


@pytest.mark.parametrize("big", [3 * 2**100 + 12345, 2**160 + 7])
def test_irrational_roots_with_coefficients_beyond_2_53(big):
    # -(x - 7)(x^2 - big): c0 = -7 * big is far past float precision
    poly = -1 * (X - 7) * (X**2 - big)
    coeffs = tuple(poly.coeff(i) for i in range(4))
    top, middle, bottom = cubic_root_values(coeffs)
    assert middle == 7 and bottom == -top
    exact = Fraction(math.isqrt(big << 400), 1 << 200)  # sqrt(big) to 2^-200
    assert abs(Fraction(top) - exact) <= Fraction(top) * 2**-52


@pytest.fixture
def evaluations(monkeypatch):
    """A function that solves a cubic afresh and returns how many exact
    evaluations of t, t', t_m and t_m' the solve made."""
    calls = []
    for name in ("_value", "_slope"):
        real = getattr(cubic, name)
        monkeypatch.setattr(cubic, name, lambda t, y, real=real: calls.append(y) or real(t, y))

    def count(coeffs):
        calls.clear()
        cubic._solve_cached.cache_clear()
        cubic_root_values(coeffs)
        return len(calls)

    return count


# wide coefficients: up to 2^80, 2^100-sized rational roots, and
# -(x - 2^b - 1)(x^2 - 3 * 2^b) for b up to 1024
_WIDE_CUBICS = [
    (609563274996962308817466, 24689950597310074067, 11344962968, -1),
    _cubic_from_roots(6, (2, 3, 1), (2**100 + 1, -(2**99), 3)),
] + [
    tuple((-1 * (X - 2**bits - 1) * (X**2 - 3 * 2**bits)).coeff(i) for i in range(4))
    for bits in (64, 256, 1024)
]


def test_exact_evaluations_are_logarithmic_in_bit_length(evaluations):
    # bisection took 2.5 to 3 evaluations per bit of the largest
    # coefficient, from 241 to 5127 on these cubics
    for coeffs in _WIDE_CUBICS:
        assert 0 < evaluations(coeffs) <= 64


@pytest.fixture(scope="module")
def closed_form_cubics():
    """The cubics of perfbench's closed-form queries for seed 1."""
    perfbench = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(perfbench)
    return [cubic_s(make_params(*query)) for query in workloads.closed_form_queries(1)]


def test_closed_form_solves_take_few_evaluations(evaluations, closed_form_cubics):
    counts = [evaluations(coeffs) for coeffs in closed_form_cubics]
    assert len(counts) >= 200 and sum(counts) <= 24 * len(counts)
    assert evaluations(cubic_s(make_params(10**300, 3, 7))) <= 64


_POOR_ESTIMATES = {
    "nan": lambda good: [(math.nan, 0)] * 3,
    "inf": lambda good: [(math.inf, 0), (-math.inf, 0), (math.inf, 0)],
    "zero": lambda good: [(0.0, 0)] * 3,
    "up_1e6": lambda good: [(u + math.ldexp(1e6, -e), e) for u, e in good],
    "down_1e6": lambda good: [(u - math.ldexp(1e6, -e), e) for u, e in good],
    "times_1e6": lambda good: [(u * 1e6, e) for u, e in good],
    "wrong_stretch": lambda good: good[1:] + good[:1],
    "reversed": lambda good: good[::-1],
}


def test_estimates_only_steer(monkeypatch, closed_form_cubics):
    cases = closed_form_cubics + _WIDE_CUBICS + [
        _cubic_from_roots(2, (1, 1, 1), (3, 3, -5)),
        _cubic_from_roots(1, (2, 2, 1), (1, 1, -1)),
        _cubic_from_roots(1, (2, 2, 2), (-3, -3, -3)),
        _cubic_from_roots(-1, (1, 1, 1), (2**70, 2**70, 1)),
        (-2, -10, -12, 1),
        (-2, 10, -12, -1),
        tuple((-1 * (X - 7) * (X**2 - 2**160 - 7)).coeff(i) for i in range(4)),
        cubic_s(make_params(10**105, 7, 3)),
        cubic_s(make_params(10**300, 3, 7)),
    ]
    cubic._solve_cached.cache_clear()
    expected = [repr(cubic_root_values(coeffs)) for coeffs in cases]
    good = cubic._estimate
    for name, poor in _POOR_ESTIMATES.items():
        monkeypatch.setattr(cubic, "_estimate", lambda t, poor=poor: poor(good(t)))
        cubic._solve_cached.cache_clear()
        assert [repr(cubic_root_values(coeffs)) for coeffs in cases] == expected, name
    cubic._solve_cached.cache_clear()


def test_gate_query_agrees_with_numpy(capsys):
    argv = ["spectrum", "--h", "1000000000", "--p", "12345", "--k", "1000000",
            "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = payload["cubic"]
    reference = sorted(np.roots([float(c) for c in coeffs[::-1]]).real, reverse=True)
    values = cubic_root_values(coeffs)
    assert max(abs(a - b) / abs(b) for a, b in zip(values, reference)) < 1e-9
    assert sum(e["multiplicity"] for e in payload["eigenvalues"]) == payload["n"]


def test_eigenvalues_beyond_floats_are_refused(capsys):
    assert main(["spectrum", "--h", str(10**400), "--p", "1", "--k", "2"]) == 2
    assert "beyond the float range" in capsys.readouterr().err


def test_integer_discriminant_stays_integer(monkeypatch):
    monkeypatch.setattr(cubic, "Fraction", None)  # any use of Fraction now raises
    assert cubic_discriminant((5, 5, -1, -1)) == 320
    assert cubic_root_values((3, 5, 1, -1)) == (3, -1, -1)
