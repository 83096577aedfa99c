import math
from fractions import Fraction

import numpy as np
import pytest

from seidelspectra.closedform import (
    CubicRoot,
    FactoredCharPoly,
    adjugate_negK_closed,
    charpoly_closed,
    cubic_s,
    sandwich_closed,
    spectrum_aI_bJ,
    spectrum_closed,
    spectrum_uniform_blocks,
    uniform_block_matrix,
)
from seidelspectra.errors import DegenerateFamily
from seidelspectra.family import make_params, seidel_matrix, x_prime_matrix
from seidelspectra.linalg import (
    adjugate_exact,
    char_matrix,
    charpoly_oracle,
    complete_adjacency,
    exact_matrix,
    identity_matrix,
)
from seidelspectra.polynomial import UniPoly, X
from seidelspectra.verify import eig_numeric


def grid(h_max=6, k_max=5):
    for h in range(2, h_max + 1):
        for p in range(1, h + 1):
            for k in range(2, k_max + 1):
                yield make_params(h, p, k)


def test_scalar_matrix_spectrum_examples():
    assert spectrum_aI_bJ(0, 1, 3).entries == ((3, 1), (0, 2))
    assert spectrum_aI_bJ(2, 0, 4).entries == ((2, 4),)
    assert spectrum_aI_bJ(1, -1, 2).entries == ((1, 1), (-1, 1))
    assert spectrum_aI_bJ(2, 3, 1).entries == ((5, 1),)


def test_scalar_matrix_eigenvector_identity():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for n in range(1, 7):
                m = a * identity_matrix(n) + b
                # t = 1: the block matrix is its own diagonal block d*I + ((r - d)/m)*J
                assert (uniform_block_matrix(a + b * n, a, 0, n, 1) == m).all()
                assert spectrum_aI_bJ(a, b, n).approx() == pytest.approx(eig_numeric(m))
                ones = np.full((n, 1), 1, dtype=object)
                assert ((m @ ones) == (a + b * n) * ones).all()
                for i in range(1, n):
                    diff = np.full((n, 1), 0, dtype=object)
                    diff[0, 0], diff[i, 0] = 1, -1
                    assert ((m @ diff) == a * diff).all()


def test_uniform_block_spectrum_examples():
    sp = spectrum_uniform_blocks(-1, 1, 1, 2, 2)
    assert sp.entries == ((1, 3), (-3, 1))
    flat = sp.approx()
    assert sum(flat) == 0 and sum(v * v for v in flat) == 12
    decoupled = spectrum_uniform_blocks(2, 5, 0, 3, 4)
    assert dict(decoupled.entries) == {2: 4, 5: 8}
    assert decoupled.dimension == 12


def test_uniform_block_matrix_realization():
    m = uniform_block_matrix(-1, 1, 1, 2, 2)
    assert m.tolist() == [
        [0, -1, 1, 1],
        [-1, 0, 1, 1],
        [1, 1, 0, -1],
        [1, 1, -1, 0],
    ]
    frac = uniform_block_matrix(2, 1, 0, 3, 1)
    assert frac[0, 1] == Fraction(1, 3)


def test_uniform_block_spectrum_matches_numeric():
    for m in range(1, 5):
        for t in range(1, 5):
            for r, d, b in ((-1, 1, 1), (2, 0, -1), (3, -2, 2)):
                matrix = uniform_block_matrix(r, d, b, m, t)
                predicted = spectrum_uniform_blocks(r, d, b, m, t)
                assert predicted.dimension == m * t
                numeric = eig_numeric(matrix)
                dev = max(
                    abs(x - y) for x, y in zip(predicted.approx(), numeric)
                )
                assert dev <= 1e-9


def test_uniform_block_multiplicity_bookkeeping():
    # the swapped secondary count m*(t-1) cannot be right: at (m, t) = (2, 3)
    # it makes the multiplicities total 7 in dimension 6
    m, t = 2, 3
    assert 1 + (t - 1) + m * (t - 1) == 7
    assert 1 + (t - 1) + t * (m - 1) == m * t == 6
    sp = spectrum_uniform_blocks(-1, 1, 1, m, t)
    assert sp.dimension == 6


def test_adjugate_closed_small_entries():
    diag, off = adjugate_negK_closed(2)
    assert diag == -X and off == 1
    diag, off = adjugate_negK_closed(3)
    assert diag == X**2 - 1 and off == 1 - X
    for n in range(3, 8):
        diag, off = adjugate_negK_closed(n)
        assert diag(1) == 0 and off(1) == 0


def test_adjugate_closed_matches_exact_adjugate():
    for n in range(2, 6):
        diag, off = adjugate_negK_closed(n)
        expected = exact_matrix([[diag if i == j else off for j in range(n)]
                                 for i in range(n)])
        actual = adjugate_exact(char_matrix(-1 * complete_adjacency(n)))
        assert (actual == expected).all()


def test_sandwich_examples():
    assert sandwich_closed(make_params(3, 1, 2)) == 3 * X**2 + 2 * X - 5
    assert sandwich_closed(make_params(2, 2, 2)) == -2 * X + 2
    assert sandwich_closed(make_params(2, 1, 3)) == -2 * X - 2
    with pytest.raises(DegenerateFamily):
        sandwich_closed(make_params(3, 1, 1))


def test_sandwich_matches_explicit_product():
    for params in (make_params(3, 1, 2), make_params(2, 1, 3), make_params(4, 2, 2)):
        xp = x_prime_matrix(params)
        adj = adjugate_exact(char_matrix(-1 * complete_adjacency(params.h)))
        product = xp @ adj @ xp.T
        c = sandwich_closed(params)
        rows = (params.k - 1) * params.p
        expected = exact_matrix([[c] * rows for _ in range(rows)])
        assert (product == expected).all()


def test_cubic_coefficients_hand_values():
    assert cubic_s(make_params(3, 1, 2)) == (5, 5, -1, -1)
    assert cubic_s(make_params(2, 1, 3)) == (3, 5, 1, -1)
    assert cubic_s(make_params(2, 2, 2)) == (-3, 5, -1, -1)
    with pytest.raises(DegenerateFamily):
        cubic_s(make_params(2, 2, 1))


def test_cubic_vieta_identities():
    for params in grid():
        c0, c1, c2, c3 = cubic_s(params)
        assert c3 == -1
        h, p, _, n = params
        # root sum and squared-root sum read off the coefficients
        assert c2 == n + 3 - 2 * h - 2 * p
        e1, e2 = params.k - 2, n - params.k - 1
        assert (1 - 2 * p) * e1 + e2 + c2 == 0
        assert (1 - 2 * p) ** 2 * e1 + e2 + (c2 * c2 + 2 * c1) == n * (n - 1)


def test_factored_charpoly_hand_instances():
    fac = charpoly_closed(make_params(3, 1, 2))
    assert fac == FactoredCharPoly(-1, 0, 1, 1, (5, 5, -1, -1))
    assert fac.degree == 4
    assert fac.expand() == UniPoly([5, 0, -6, 0, 1])
    star = charpoly_closed(make_params(2, 1, 3))
    assert star == FactoredCharPoly(-1, 1, 1, 0, (3, 5, 1, -1))
    assert star.expand() == (-1 - X) * UniPoly([3, 5, 1, -1])
    # the degree counts the cubic's actual degree, as the expansion does
    quadratic = star._replace(cubic=(3, 5, 1, 0))
    assert quadratic.degree == quadratic.expand().degree == 3


def test_factored_charpoly_bookkeeping():
    for params in grid():
        fac = charpoly_closed(params)
        assert fac.e1 == params.k - 2 >= 0
        assert fac.e2 == params.n - params.k - 1 >= 0
        assert fac.degree == params.n
        assert fac.expand().coeffs[-1] == (-1) ** params.n
        assert fac.root1 == 1 - 2 * params.p
        assert fac.root2 == 1
    with pytest.raises(DegenerateFamily):
        charpoly_closed(make_params(3, 2, 1))


def test_k_one_is_refused_by_the_factored_form_and_the_spectrum():
    # cubic_s raises for k < 2, and charpoly_closed and spectrum_closed reach it first
    for query in [(3, 1, 1), (3, 2, 1)]:
        for closed_form in (charpoly_closed, spectrum_closed):
            with pytest.raises(DegenerateFamily) as caught:
                closed_form(make_params(*query))
            assert str(caught.value) == "k = 1: the factored form needs k >= 2"


def test_factored_matches_oracle_on_hand_instances():
    for params in (make_params(3, 1, 2), make_params(2, 1, 3)):
        assert charpoly_closed(params).expand() == charpoly_oracle(
            seidel_matrix(params)
        )


def test_spectrum_closed_irrational_instance():
    sp = spectrum_closed(make_params(3, 1, 2))
    assert sp.dimension == 4
    values = sp.approx()
    expected = (math.sqrt(5), 1.0, -1.0, -math.sqrt(5))
    assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9
    kinds = [type(v) for v, _ in sp.entries]
    assert kinds == [CubicRoot, int, int, CubicRoot]


def test_spectrum_closed_merges_repeated_rational_roots():
    sp = spectrum_closed(make_params(2, 1, 3))
    assert sp.entries == ((3, 1), (-1, 3))
    two_cliques = spectrum_closed(make_params(2, 2, 2))
    assert two_cliques.entries == ((1, 3), (-3, 1))


def test_spectrum_closed_dimension_accounting():
    for params in grid(5, 4):
        assert spectrum_closed(params).dimension == params.n
