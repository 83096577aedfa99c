import json
import math
from fractions import Fraction

import numpy as np
import pytest

from seidelspectra import cubic
from seidelspectra.cli import main
from seidelspectra.cubic import cubic_discriminant, cubic_root_values, cubic_roots
from seidelspectra.errors import ComplexRoots, DegenerateLeading, InternalError
from seidelspectra.polynomial import UniPoly, X


def test_mixed_rational_and_irrational_roots():
    values = cubic_root_values((5, 5, -1, -1))
    assert values[1] == -1 and isinstance(values[1], int)
    assert abs(values[0] - math.sqrt(5)) < 1e-12
    assert abs(values[2] + math.sqrt(5)) < 1e-12


def test_all_rational_roots():
    assert cubic_root_values((3, 5, 1, -1)) == (3, -1, -1)
    assert cubic_root_values((-3, 5, -1, -1)) == (1, 1, -3)


def test_triple_root():
    assert cubic_root_values((0, 0, 0, -1)) == (0, 0, 0)
    assert cubic_root_values((-8, 12, -6, 1)) == (2, 2, 2)


def test_roots_sorted_descending():
    a, b, c = cubic_roots((3, 5, 1, -1))
    assert a >= b >= c
    assert (a, b, c) == (3.0, -1.0, -1.0)


def test_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeading):
        cubic_roots((1, 2, 3, 0))


def test_complex_pair_detected():
    # x^3 + x + 1 has discriminant -31
    assert cubic_discriminant((1, 1, 0, 1)) == -31
    with pytest.raises(ComplexRoots):
        cubic_roots((1, 1, 0, 1))


def test_discriminant_values():
    assert cubic_discriminant((5, 5, -1, -1)) == 320
    assert cubic_discriminant((0, 0, 0, -1)) == 0
    assert cubic_discriminant((3, 5, 1, -1)) == 0


def test_fraction_coefficients_share_roots():
    scaled = tuple(Fraction(c, 7) for c in (5, 5, -1, -1))
    assert cubic_roots(scaled) == cubic_roots((5, 5, -1, -1))


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
        for root in cubic_roots(coeffs):
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
