"""The family's cubic s = (x - (1 - 2p)) * q and the roots spectrum_closed takes from it."""

import importlib
import itertools
import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from seidelspectra import closedform, verify
from seidelspectra.cli import main
from seidelspectra.closedform import CubicRoot, cubic_s, spectrum_closed
from seidelspectra.errors import ComplexRoots
from seidelspectra.family import make_params
from seidelspectra.polynomial import UniPoly, X


def _quotient(params):
    """(a0, a1, a2) of q with cubic_s = (x - (1 - 2p)) * q, by long division."""
    c0, c1, c2, c3 = cubic_s(params)
    r = 1 - 2 * params.p
    a2 = c3
    a1 = c2 + r * a2
    a0 = c1 + r * a1
    assert c0 + r * a0 == 0, params
    return a0, a1, a2


def _discriminant(params):
    a0, a1, a2 = _quotient(params)
    return a1 * a1 - 4 * a2 * a0


def _rational_roots(params):
    """q's two roots as Fractions, descending, or None when they are irrational."""
    a0, a1, a2 = _quotient(params)
    disc = a1 * a1 - 4 * a2 * a0
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    return sorted((Fraction(-a1 + sign * root, 2 * a2) for sign in (1, -1)), reverse=True)


def _cubic_roots(params):
    return [v for v, _ in spectrum_closed(params).entries if isinstance(v, CubicRoot)]


def _numpy_roots_of_q(cubic, p):
    """numpy's roots of the cubic, descending, less the one nearest 1 - 2p."""
    roots = sorted(np.roots([float(c) for c in cubic[::-1]]).real, reverse=True)
    roots.remove(min(roots, key=lambda root: abs(root - (1 - 2 * p))))
    return roots


def _perfbench_queries():
    """perfbench's closed-form queries for seed 1."""
    perfbench = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(perfbench)
    return workloads.closed_form_queries(1)


def _sweep_grid():
    return [(h, p, k) for h in range(2, 8) for p in range(1, h + 1)
            for k in range(2, 6) if h + (k - 1) * p <= 40]


def test_cubic_always_has_the_root_one_minus_two_p():
    # Once n = h + (k - 1)p is substituted, s(1 - 2p) is a polynomial of
    # degree <= 1 in h, <= 3 in p and <= 1 in k.  By Alon's Combinatorial
    # Nullstellensatz, Lemma 2.1 (Combin. Probab. Comput. 8, 1999), such a
    # polynomial that vanishes on a 2 x 4 x 2 product grid is zero, so this
    # grid proves s(1 - 2p) = 0 for every (h, p, k).
    for h, p, k in itertools.product((5, 6), range(1, 5), (2, 3)):
        assert UniPoly(cubic_s(make_params(h, p, k)))(1 - 2 * p) == 0


def test_quotient_discriminant_is_a_sum_of_nonnegative_terms():
    # q's discriminant, from the long division above, and the closed form
    # (h - m)^2 + 8m(h - p) with m = n - h both have degree <= 2 in h, p
    # and k, so agreeing on a 3 x 3 x 3 grid makes them equal (Lemma 2.1
    # as above); as p <= h the closed form is never negative
    for h, p, k in itertools.product((5, 6, 7), (1, 2, 3), (2, 3, 4)):
        params = make_params(h, p, k)
        m = params.n - h
        assert _discriminant(params) == (h - m) ** 2 + 8 * m * (h - p)


def test_discriminant_values():
    # (3, 1, 2): s = -(x + 1)(x^2 - 5); (2, 2, 2): q = -(x - 1)^2;
    # (2, 1, 3): s = -(x - 3)(x + 1)^2; (7, 7, 5): q = -(x - 22)(x - 1)
    for query, disc in [((3, 1, 2), 20), ((2, 2, 2), 0), ((2, 1, 3), 16), ((7, 7, 5), 441)]:
        params = make_params(*query)
        assert _discriminant(params) == disc
        assert (_rational_roots(params) is None) == bool(_cubic_roots(params))


def test_mixed_rational_and_irrational_roots():
    # (3, 1, 2): s = 5 + 5x - x^2 - x^3 = -(x + 1)(x^2 - 5)
    top, one, minus_one, bottom = (v for v, _ in spectrum_closed(make_params(3, 1, 2)).entries)
    assert one == 1 and minus_one == -1 and type(minus_one) is int
    # math.sqrt rounds correctly, so the two floats must equal it exactly
    assert top.value == math.sqrt(5) and bottom.value == -math.sqrt(5)


def test_all_rational_roots():
    # whenever q's discriminant is a square, every eigenvalue comes back exact
    rational = 0
    for query in _sweep_grid():
        params = make_params(*query)
        roots = _rational_roots(params)
        if roots is None:
            continue
        rational += 1
        s = UniPoly(cubic_s(params))
        entries = dict(spectrum_closed(params).entries)
        assert all(isinstance(v, (int, Fraction)) for v in entries)
        assert all(root in entries and s(root) == 0 for root in roots)
    assert rational >= 10


def test_double_and_triple_roots():
    # with p = h and k = 2, m = h and q = -(x - 1)^2; its double root merges
    # with the eigenvalue 1 of the linear factors
    for h in range(2, 30):
        params = make_params(h, h, 2)
        assert _quotient(params) == (-1, 2, -1)
        entries = spectrum_closed(params).entries
        assert entries == ((1, 2 * h - 1), (1 - 2 * h, 1))
        assert all(type(v) is int for v, _ in entries)


def test_seeded_integer_roots_recovered(rng):
    # with p = h the discriminant (h - m)^2 + 8m(h - p) is a square
    for _ in range(50):
        h = rng.randint(2, 2**80)
        params = make_params(h, h, rng.randint(2, 2**40))
        s = UniPoly(cubic_s(params))
        entries = dict(spectrum_closed(params).entries)
        assert all(type(v) is int for v in entries)
        for root in _rational_roots(params):
            assert root.denominator == 1 and root in entries and s(root) == 0


def test_seeded_irrational_residuals(rng):
    # each float lies within one ulp of its root: q changes sign across it
    checked = 0
    for _ in range(30):
        h = rng.randint(2, 10**12)
        p = rng.randint(1, h)
        params = make_params(h, p, rng.randint(2, 10**6))
        a0, a1, a2 = _quotient(params)
        assert type(dict(spectrum_closed(params).entries).get(1 - 2 * p)) is int
        for root in _cubic_roots(params):
            below, above = (Fraction(math.nextafter(root.value, end))
                            for end in (-math.inf, math.inf))
            assert (a0 + a1 * below + a2 * below * below) * (
                a0 + a1 * above + a2 * above * above) < 0
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("big", [3 * 2**100 + 12345, 2**160 + 7])
def test_irrational_roots_with_coefficients_beyond_2_53(big):
    # h = big puts the cubic's coefficients far past float precision
    params = make_params(big, 3, 7)
    a0, a1, a2 = _quotient(params)
    sqrt_disc = Fraction(math.isqrt(_discriminant(params) << 400), 1 << 200)  # to 2^-200
    exact = sorted(((-a1 + sign * sqrt_disc) / (2 * a2) for sign in (1, -1)), reverse=True)
    roots = _cubic_roots(params)
    assert len(roots) == 2 and -5 in dict(spectrum_closed(params).entries)
    for root, value in zip(roots, exact):
        assert abs(Fraction(root.value) - value) <= abs(value) * 2**-53


def test_irrational_roots_are_correctly_rounded():
    queries = _sweep_grid() + _perfbench_queries() + [
        (10**300, 3, 7), (10**105, 7, 3), (10**9, 12345, 10**6),
    ]
    assert len(queries) >= 108 + 200 + 3
    checked = 0
    for query in queries:
        a0, a1, a2 = _quotient(make_params(*query))
        for root in _cubic_roots(make_params(*query)):
            # q changes sign between the midpoints to the float's neighbours,
            # so no other float lies nearer the root
            low, high = ((Fraction(root.value) + Fraction(math.nextafter(root.value, end))) / 2
                         for end in (-math.inf, math.inf))
            assert (a0 + a1 * low + a2 * low * low) * (a0 + a1 * high + a2 * high * high) < 0
            checked += 1
    assert checked > 400


def test_roots_sorted_descending():
    for query in _sweep_grid() + _perfbench_queries():
        params = make_params(*query)
        values = [float(v) for v, _ in spectrum_closed(params).entries]
        assert values == sorted(values, reverse=True)
        roots = [root.value for root in _cubic_roots(params)]
        if roots:
            # q's two roots, strictly descending; 1 - 2p is the cubic's third root
            assert len(roots) == 2 and roots[0] > roots[1]
            assert 1 - 2 * params.p not in roots


def test_integer_discriminant_stays_integer(monkeypatch):
    # irrational roots come from integer square roots alone
    monkeypatch.setattr(closedform, "Fraction", None)  # any use of Fraction now raises
    assert [r.value for r in _cubic_roots(make_params(3, 1, 2))] == [
        math.sqrt(5), -math.sqrt(5)
    ]
    assert len(_cubic_roots(make_params(10**300, 3, 7))) == 2


def test_complex_pair_detected(monkeypatch):
    # -(x - (1 - 2p))(x^2 + 1) splits off 1 - 2p, but q = -(x^2 + 1) has
    # discriminant -4
    def split_complex(params):
        poly = -1 * (X - (1 - 2 * params.p)) * (X**2 + 1)
        return tuple(poly.coeff(i) for i in range(4))

    monkeypatch.setattr(closedform, "cubic_s", split_complex)
    with pytest.raises(ComplexRoots):
        spectrum_closed(make_params(3, 1, 2))


def test_cubic_with_leading_coefficient_other_than_minus_one_is_rejected(monkeypatch):
    # 2s splits as (1 - 2p - x) times a real-rooted quadratic too, so only
    # the c3 = -1 check refuses it: the family's cubic always leads with -1
    real = closedform.cubic_s

    def doubled(params):
        return tuple(2 * c for c in real(params))

    monkeypatch.setattr(closedform, "cubic_s", doubled)
    for query in [(3, 1, 2), (2, 1, 3), (7, 7, 5), (10**9, 12345, 10**6)]:
        params = make_params(*query)
        c0, c1, c2, c3 = doubled(params)
        r = 1 - 2 * params.p
        a1 = c2 + r * c3
        a0 = c1 + r * a1
        assert c0 + r * a0 == 0 and a1 * a1 - 4 * c3 * a0 >= 0
        with pytest.raises(ComplexRoots):
            spectrum_closed(params)
    report = verify.verify_instance(make_params(3, 1, 2))
    assert report.spectrum is None and not report.passed()


def test_moved_root_is_rejected(monkeypatch):
    # shifting c_i by +-1 moves s(1 - 2p) by +-(1 - 2p)^i, odd and never 0,
    # so s no longer splits off the factor (1 - 2p - x)
    real = closedform.cubic_s
    for index, shift in itertools.product(range(4), (-1, 1)):
        def moved(params, index=index, shift=shift):
            coeffs = list(real(params))
            coeffs[index] += shift
            return tuple(coeffs)

        monkeypatch.setattr(closedform, "cubic_s", moved)
        for query in [(3, 1, 2), (2, 1, 3), (7, 7, 5), (10**9, 12345, 10**6)]:
            with pytest.raises(ComplexRoots):
                spectrum_closed(make_params(*query))


@pytest.mark.parametrize("h, p, k", [(44, 43, 1000), (8326, 1, 2)])
def test_large_roots_pass_the_exact_certificate(h, p, k, capsys):
    # the largest root is large against the coefficients, so a float
    # residual test would reject these correct roots
    assert main(["spectrum", "--h", str(h), "--p", str(p), "--k", str(k),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(e["multiplicity"] for e in payload["eigenvalues"]) == payload["n"]
    roots = _cubic_roots(make_params(h, p, k))
    assert len(roots) == 2
    for root, reference in zip(roots, _numpy_roots_of_q(payload["cubic"], p)):
        assert abs(root.value - reference) / max(1.0, abs(root.value)) < 1e-9


def test_gate_query_agrees_with_numpy(capsys):
    argv = ["spectrum", "--h", "1000000000", "--p", "12345", "--k", "1000000",
            "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(e["multiplicity"] for e in payload["eigenvalues"]) == payload["n"]
    roots = _cubic_roots(make_params(10**9, 12345, 10**6))
    assert len(roots) == 2
    for root, reference in zip(roots, _numpy_roots_of_q(payload["cubic"], 12345)):
        assert abs(root.value - reference) / abs(root.value) < 1e-9


def test_eigenvalues_beyond_floats_are_refused(capsys):
    assert main(["spectrum", "--h", str(10**400), "--p", "1", "--k", "2"]) == 2
    assert "beyond the float range" in capsys.readouterr().err
