import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from seidelspectra import linalg
from seidelspectra.errors import SingularBlock, SingularInput
from seidelspectra.family import make_params, seidel_matrix
from seidelspectra.linalg import (
    adjugate_exact,
    assemble_blocks,
    char_matrix,
    charpoly_oracle,
    complete_adjacency,
    det_exact,
    exact_matrix,
    identity_matrix,
    inverse_exact,
    ones_matrix,
    schur_block_det,
    schur_block_det_adjugate,
    trace_exact,
    zeros_matrix,
)
from seidelspectra.polynomial import UniPoly, X


def cofactor_det(rows):
    """Reference determinant by first-row cofactor expansion: slow, obviously right."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (1 if j % 2 == 0 else -1) * entry * cofactor_det(minor)
    return total


def random_matrix(rng, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def same_matrix(a, b):
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return a.shape == b.shape and bool((a == b).all())


def test_constructors():
    assert identity_matrix(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert ones_matrix(2, 3).tolist() == [[1, 1, 1], [1, 1, 1]]
    assert zeros_matrix(2).tolist() == [[0, 0], [0, 0]]
    assert complete_adjacency(3).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_exact_matrix_coerces_numpy_ints_and_rejects_floats():
    out = exact_matrix(np.arange(4, dtype=np.int64).reshape(2, 2))
    assert all(type(out[i, j]) is int for i in range(2) for j in range(2))
    with pytest.raises(TypeError):
        exact_matrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        exact_matrix([1, 2, 3])


def test_assemble_blocks():
    m = assemble_blocks([
        [identity_matrix(2), zeros_matrix(2, 1)],
        [ones_matrix(1, 2), [[5]]],
    ])
    assert m.tolist() == [[1, 0, 0], [0, 1, 0], [1, 1, 5]]


def test_det_known_values():
    assert det_exact(identity_matrix(3)) == 1
    assert det_exact(ones_matrix(3)) == 0
    assert det_exact(complete_adjacency(4)) == -3
    # adjacency of K_n has determinant (-1)^(n-1) * (n-1)
    for n in range(2, 7):
        assert det_exact(complete_adjacency(n)) == (-1) ** (n - 1) * (n - 1)
    assert det_exact(zeros_matrix(0)) == 1


def test_det_matches_cofactor_reference(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        assert det_exact(m) == cofactor_det(m)


def test_det_product_rule(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        a = exact_matrix(random_matrix(rng, n))
        b = exact_matrix(random_matrix(rng, n))
        assert det_exact(a @ b) == det_exact(a) * det_exact(b)


def test_det_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert det_exact(m) == Fraction(1, 60)


def test_det_polynomial_entries():
    assert det_exact([[X, 1], [1, X]]) == X**2 - 1
    neg_k3 = -1 * complete_adjacency(3)
    assert det_exact(char_matrix(neg_k3)) == charpoly_oracle(neg_k3)


def test_charpoly_small_cases():
    assert charpoly_oracle(-1 * complete_adjacency(2)) == UniPoly([-1, 0, 1])
    assert charpoly_oracle(-1 * complete_adjacency(3)) == UniPoly([-2, 3, 0, -1])
    assert charpoly_oracle(identity_matrix(2)) == (1 - X) ** 2


def test_charpoly_structure(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        m = exact_matrix(random_matrix(rng, n))
        p = charpoly_oracle(m)
        assert p.degree == n
        assert p.coeffs[-1] == (-1) ** n
        assert p(0) == det_exact(m)
        assert p.coeff(n - 1) == (-1) ** (n - 1) * trace_exact(m)


def test_charpoly_agrees_with_symbolic_determinant(rng):
    # two fully independent routes to det(m - x*I)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = exact_matrix(random_matrix(rng, n))
        assert charpoly_oracle(m) == det_exact(char_matrix(m))


# the modular oracle's first prime; an entry equal to it reduces to 0 there
FIRST_PRIME = 2**31 - 1


@st.composite
def integer_matrices(draw, max_dim=5, bits=80):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**bits), max_value=2**bits),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@seed(402653189)
@given(integer_matrices())
def test_charpoly_matches_symbolic_determinant_property(m):
    assert charpoly_oracle(m) == det_exact(char_matrix(m))


def test_charpoly_entries_above_2_64(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        m = [[rng.choice((-1, 1)) * rng.randint(2**64, 2**70) for _ in range(n)]
             for _ in range(n)]
        assert charpoly_oracle(m) == det_exact(char_matrix(m))


def primes_below_2_31():
    """Odd primes below 2^31, descending from 2^31 - 1: the reference for linalg._prime."""
    return filter(linalg._is_prime, range((1 << 31) - 1, 1, -2))


def test_charpoly_pivot_swaps_and_empty_columns():
    assert next(primes_below_2_31()) == FIRST_PRIME
    for n in (1, 2, 5):
        assert charpoly_oracle(zeros_matrix(n)) == (-X) ** n
    for n in (2, 3, 6):
        jordan = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        assert charpoly_oracle(jordan) == (-X) ** n
        # cyclic shift: det(P - x*I) = (-1)^n (x^n - 1)
        cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        assert charpoly_oracle(cycle) == (-1) ** n * (X**n - 1)
    swapped = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert charpoly_oracle(swapped) == det_exact(char_matrix(swapped))
    for m in (
        [[1, 2, 3], [FIRST_PRIME, 4, 5], [6, 7, 8]],
        [[1, 2, 3, 4], [FIRST_PRIME, 0, 1, 2], [FIRST_PRIME, 1, 0, 2], [5, 6, 7, 8]],
        [[FIRST_PRIME, 1], [1, -FIRST_PRIME]],
    ):
        assert charpoly_oracle(m) == det_exact(char_matrix(m))


def test_charpoly_dimension_one():
    assert charpoly_oracle([[0]]) == -X
    assert charpoly_oracle([[7]]) == 7 - X
    assert charpoly_oracle([[-(2**90)]]) == -(2**90) - X


def test_charpoly_needing_several_primes(rng):
    # coefficients beyond 2^62 cannot be recovered from one 31-bit prime
    m = [[rng.randint(-(2**40), 2**40) for _ in range(4)] for _ in range(4)]
    p = charpoly_oracle(m)
    assert max(abs(c) for c in p.coeffs) > 2**62
    assert p == det_exact(char_matrix(m))


def test_prime_cache_matches_the_generator():
    expected = list(itertools.islice(primes_below_2_31(), 600))
    linalg._prime.cache_clear()
    assert [linalg._prime(i) for i in range(600)] == expected


def test_oracle_generates_its_primes_once(rng, monkeypatch):
    m = [[rng.randint(-(2**40), 2**40) for _ in range(4)] for _ in range(4)]
    linalg._prime.cache_clear()
    first = charpoly_oracle(m)
    tested = []
    real = linalg._is_prime

    def counted(candidate):
        tested.append(candidate)
        return real(candidate)

    monkeypatch.setattr(linalg, "_is_prime", counted)
    assert charpoly_oracle(m) == first
    assert tested == []
    linalg._prime.cache_clear()
    assert charpoly_oracle(m) == first
    assert tested  # the patch does see a search that is not served from the cache


def test_charpoly_interpolates_bareiss_determinants(rng):
    # at n = 30 the modular dot products have enough terms to overflow int64
    # unless they are split; degree n plus agreement at n + 1 points pins p
    n = 30
    m = exact_matrix(random_matrix(rng, n, -5, 5))
    p = charpoly_oracle(m)
    assert p.degree == n
    for t in range(-n // 2, n // 2 + 1):
        assert p(t) == det_exact(m - t * identity_matrix(n))


def test_charpoly_takes_an_integral_fraction_as_an_int():
    m = exact_matrix([[Fraction(4, 2), 1], [1, 0]])
    assert type(m[0, 0]) is int
    assert charpoly_oracle(m) == X**2 - 2 * X - 1
    assert det_exact(m) == -1


def test_charpoly_rejects_non_integer_and_oversized_input(monkeypatch):
    with pytest.raises(TypeError):
        charpoly_oracle([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        charpoly_oracle(zeros_matrix(0))
    # the real limit is 2^16; a 2^16-dimensional input is too large to build here
    monkeypatch.setattr(linalg, "_MAX_ORACLE_DIM", 3)
    assert charpoly_oracle(identity_matrix(2)) == (1 - X) ** 2
    with pytest.raises(ValueError):
        charpoly_oracle(identity_matrix(3))


def test_adjugate_known_values():
    assert same_matrix(adjugate_exact(identity_matrix(3)), identity_matrix(3))
    adj = adjugate_exact([[0, -1], [-1, 0]])
    assert adj.tolist() == [[0, 1], [1, 0]]
    sym = adjugate_exact(char_matrix(-1 * complete_adjacency(2)))
    assert same_matrix(sym, [[-X, UniPoly([1])], [UniPoly([1]), -X]])
    adj_j2 = adjugate_exact(ones_matrix(2))
    assert adj_j2.tolist() == [[1, -1], [-1, 1]]
    assert same_matrix(ones_matrix(2) @ adj_j2, zeros_matrix(2))


def test_adjugate_identity_random_including_singular(rng):
    for trial in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if trial % 3 == 0 and n >= 2:
            m[-1] = list(m[0])  # force singular
        a = exact_matrix(m)
        d = det_exact(a)
        assert same_matrix(a @ adjugate_exact(a), d * identity_matrix(n))


def test_inverse_exact():
    m = [[2, 1], [1, 2]]
    inv = inverse_exact(m)
    assert same_matrix(exact_matrix(m) @ inv, identity_matrix(2))
    assert inv[0, 0] == Fraction(2, 3)
    with pytest.raises(SingularInput):
        inverse_exact(ones_matrix(3))


def test_schur_block_det_examples():
    assert schur_block_det(identity_matrix(2), zeros_matrix(2),
                           zeros_matrix(2), identity_matrix(2)) == 1
    direct = det_exact([[0, 1, 1], [1, 0, -1], [1, -1, 0]])
    assert direct == -2
    assert schur_block_det([[0]], [[1, 1]], [[1], [1]],
                           -1 * complete_adjacency(2)) == direct


def test_schur_adjugate_route_examples():
    assert schur_block_det_adjugate([[1]], [[0, 0]], [[0], [0]],
                                    3 * identity_matrix(2)) == 9
    assert det_exact([[1, 0, 0], [0, 3, 0], [0, 0, 3]]) == 9
    assert schur_block_det_adjugate([[0]], [[1, 1]], [[1], [1]],
                                    -1 * complete_adjacency(2)) == -2


def test_schur_both_routes_match_direct(rng):
    count = 0
    while count < 40:
        total = rng.randint(2, 6)
        na = rng.randint(1, total - 1)
        nd = total - na
        a = exact_matrix(random_matrix(rng, na))
        d = exact_matrix(random_matrix(rng, nd))
        if det_exact(d) == 0:
            continue
        b = exact_matrix([[rng.randint(-3, 3) for _ in range(nd)] for _ in range(na)])
        c = exact_matrix([[rng.randint(-3, 3) for _ in range(na)] for _ in range(nd)])
        whole = det_exact(assemble_blocks([[a, b], [c, d]]))
        assert schur_block_det(a, b, c, d) == whole
        assert schur_block_det_adjugate(a, b, c, d) == whole
        count += 1


def test_schur_singular_pivot_block():
    with pytest.raises(SingularBlock):
        schur_block_det(identity_matrix(1), zeros_matrix(1, 2),
                        zeros_matrix(2, 1), ones_matrix(2))
    with pytest.raises(SingularBlock):
        schur_block_det_adjugate(identity_matrix(1), zeros_matrix(1, 2),
                                 zeros_matrix(2, 1), ones_matrix(2))


def test_schur_complement_ordering_matters():
    """A - B@Dinv@C and A - C@Dinv@B give different determinants in general.

    Equality holds for the symmetric matrices this package cares about, and
    also whenever A = I (Sylvester), so the witness needs a non-identity A
    and non-symmetric coupling.
    """
    a = exact_matrix([[1, 0], [0, 2]])
    b = exact_matrix([[1, 2], [3, 4]])
    c = exact_matrix([[5, 6], [7, 8]])
    d = identity_matrix(2)
    correct = det_exact(assemble_blocks([[a, b], [c, d]]))
    assert schur_block_det(a, b, c, d) == correct == -82
    swapped = det_exact(d) * det_exact(a - c @ inverse_exact(d) @ b)
    assert swapped == -86
    assert swapped != correct


def test_block_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        schur_block_det(identity_matrix(2), zeros_matrix(2, 1),
                        zeros_matrix(1, 1), identity_matrix(1))


def test_charpoly_same_on_int64_object_and_wide_uint64():
    s = [[0, -1, 1, 2], [-1, 0, 3, -1], [1, 3, 0, 1], [2, -1, 1, 5]]
    as_int64 = charpoly_oracle(np.array(s, dtype=np.int64))
    assert as_int64 == charpoly_oracle(np.array(s, dtype=object))
    assert as_int64 == charpoly_oracle(np.array(s, dtype=np.int8))
    assert as_int64 == det_exact(char_matrix(s))
    # an entry of 2^63 and up would wrap to a negative int64
    wide = [[2**63 + 5, 1], [3, 2**64 - 1]]
    expected = det_exact(char_matrix(wide))
    assert charpoly_oracle(np.array(wide, dtype=np.uint64)) == expected
    assert charpoly_oracle(np.array(wide, dtype=object)) == expected
    # int64 entries whose squares overflow still give an exact bound
    extreme = np.array([[-(2**63), 2**62], [2**62, 2**63 - 1]], dtype=np.int64)
    assert charpoly_oracle(extreme) == det_exact(char_matrix(extreme.tolist()))


def test_trace_reads_int64_and_exact_entries():
    assert trace_exact(np.array([[2**62, 1], [0, 2**62]], dtype=np.int64)) == 2**63
    assert trace_exact([[Fraction(1, 2), 0], [0, 2**70]]) == Fraction(1, 2) + 2**70
    with pytest.raises(TypeError):
        trace_exact(np.eye(2))
    with pytest.raises(ValueError):
        trace_exact([[1, 2, 3]])


@st.composite
def planted_twin_matrices(draw, max_dim=12):
    """Matrices whose vertices fall into classes of twins, in shuffled order.

    Each class has its own diagonal d and twin value t = +-1, and the
    entries between two classes are one constant +-1, so every class is a
    twin class; a flipped symmetric pair or one non-symmetric entry may
    then break some of them.
    """
    n = draw(st.integers(min_value=1, max_value=max_dim))
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(min_value=1, max_value=n - sum(sizes))))
    cells = range(len(sizes))
    diag = [draw(st.integers(min_value=-3, max_value=3)) for _ in cells]
    twin = [draw(st.sampled_from((-1, 1))) for _ in cells]
    between = [[draw(st.sampled_from((-1, 1))) for _ in cells] for _ in cells]
    cell = draw(st.permutations([i for i in cells for _ in range(sizes[i])]))
    m = [
        [
            diag[cell[u]] if u == v
            else twin[cell[u]] if cell[u] == cell[v]
            else between[min(cell[u], cell[v])][max(cell[u], cell[v])]
            for v in range(n)
        ]
        for u in range(n)
    ]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if n >= 2 and draw(st.booleans()):
        u, v = draw(pair.filter(lambda uv: uv[0] != uv[1]))
        m[u][v] = m[v][u] = -m[u][v]
    if draw(st.booleans()):
        u, v = draw(pair)
        m[u][v] += draw(st.sampled_from((-2, -1, 1, 2)))
    return m


@seed(20260418)
@settings(max_examples=120, deadline=None)
@given(planted_twin_matrices())
def test_deflation_matches_symbolic_determinant_property(m):
    assert charpoly_oracle(m) == det_exact(char_matrix(m))
    assert charpoly_oracle(np.array(m, dtype=np.int64)) == det_exact(char_matrix(m))


def residual_dimension(m):
    """Rows of the quotient the oracle's deflation ends at: its residual's degree."""
    return linalg._charpoly_factored(m)[0].degree


def hashed_only(monkeypatch):
    """Send every twin pass of the oracle through the row hash; the returned list
    grows by one per hash pass, so a test can see that the hash ran."""
    calls = []
    real = linalg._hashed_twins

    def counting(a, values):
        calls.append(a.shape[0])
        return real(a, values)

    monkeypatch.setattr(linalg, "_EXACT_KEY_BYTES", -1)
    monkeypatch.setattr(linalg, "_hashed_twins", counting)
    return calls


def hessenberg_dimensions(monkeypatch):
    """Record the dimension of every matrix the Hessenberg reduction sees."""
    seen = []
    real = linalg._hessenberg_mod

    def counting(h, prime):
        seen.append(h.shape[0])
        return real(h, prime)

    monkeypatch.setattr(linalg, "_hessenberg_mod", counting)
    return seen


def test_twin_rows_with_different_columns_do_not_deflate():
    # with the diagonal set to 1, rows 0 and 1 agree but columns 0 and 1 differ
    rows_only = [[0, 1, 2], [1, 0, 2], [3, 4, 5]]
    for m in (rows_only, [list(col) for col in zip(*rows_only)]):
        assert charpoly_oracle(m) == det_exact(char_matrix(m))
        assert residual_dimension(m) == 3
    # unequal diagonals do not deflate either
    m = [[0, 1, 2], [1, 1, 2], [2, 2, 5]]
    assert charpoly_oracle(m) == det_exact(char_matrix(m))
    assert residual_dimension(m) == 3
    # a real twin pair does
    m = [[0, 1, 2], [1, 0, 2], [2, 2, 5]]
    assert charpoly_oracle(m) == det_exact(char_matrix(m))
    assert residual_dimension(m) == 2


def test_deflation_with_a_constant_hash_key(monkeypatch):
    matrices = [seidel_matrix(make_params(h, p, k))
                for h, p, k in ((3, 1, 2), (5, 2, 4), (7, 3, 5), (6, 1, 6))]
    matrices.append(np.array([[0, 1, 2], [1, 0, 2], [2, 2, 5]], dtype=np.int64))
    expected = [charpoly_oracle(m) for m in matrices]
    # every vertex lands in one group: only exact checks separate the classes
    hashed = hashed_only(monkeypatch)
    monkeypatch.setattr(linalg, "_twin_weights", lambda n: np.zeros(n, dtype=np.int64))
    assert [charpoly_oracle(m) for m in matrices] == expected
    assert [charpoly_oracle(m.tolist()) for m in matrices] == expected
    assert len(hashed) >= 2 * len(matrices)


def test_deflation_does_not_wrap_near_2_62():
    big = 2**62
    # classes {0, 1, 2} (t = 1) and {3, 4} (t = -1) with entries near 2^62,
    # so the quotient's weighted entries and diagonal leave int64
    m = [
        [big, 1, 1, big - 5, big - 5],
        [1, big, 1, big - 5, big - 5],
        [1, 1, big, big - 5, big - 5],
        [-big + 7, -big + 7, -big + 7, -big, -1],
        [-big + 7, -big + 7, -big + 7, -1, -big],
    ]
    quotient, factors = linalg._twin_quotient(np.array(m, dtype=np.int64))
    assert quotient.shape == (2, 2) and quotient.dtype == object
    assert factors == {big - 1: 2, -big + 1: 1}
    expected = det_exact(char_matrix(m))
    assert charpoly_oracle(m) == expected
    assert charpoly_oracle(np.array(m, dtype=np.int64)) == expected


def test_deflation_matches_the_undeflated_path():
    params = [
        make_params(h, p, k)
        for h in range(2, 8) for p in range(1, h + 1) for k in range(2, 6)
        if h + (k - 1) * p <= 40
    ]
    assert len(params) == 108
    params += [make_params(30, 10, 8), make_params(100, 20, 11)]  # n = 100, 300
    for point in params:
        s = seidel_matrix(point)
        assert charpoly_oracle(s) == linalg._charpoly_multimodular(s), point


def test_pivot_swap_and_empty_column_cases_reach_full_dimension(monkeypatch):
    # the matrices of test_charpoly_pivot_swaps_and_empty_columns; the
    # oracle may deflate them first (a zero matrix is one class with t = 0),
    # so the undeflated path takes their pivot swaps and empty columns whole
    cycles = [[[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
              for n in (2, 3, 6)]
    swapped = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    whole = [zeros_matrix(n).tolist() for n in (1, 2, 5)]
    whole += [[[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
              for n in (2, 3, 6)]
    whole += cycles + [
        swapped,
        [[1, 2, 3], [FIRST_PRIME, 4, 5], [6, 7, 8]],
        [[1, 2, 3, 4], [FIRST_PRIME, 0, 1, 2], [FIRST_PRIME, 1, 0, 2], [5, 6, 7, 8]],
        [[FIRST_PRIME, 1], [1, -FIRST_PRIME]],
    ]
    seen = hessenberg_dimensions(monkeypatch)
    for m in whole:
        expected = det_exact(char_matrix(m))
        seen.clear()
        assert linalg._charpoly_multimodular(np.array(m)) == expected
        assert seen and set(seen) == {len(m)}
        assert charpoly_oracle(m) == expected
    # a zero matrix deflates to one cell, with t = 0
    assert charpoly_oracle(zeros_matrix(5)) == (-X) ** 5
    assert residual_dimension(zeros_matrix(5)) == 1


def deflated_dimension(m):
    """The dimension of the quotient the oracle ends at on m, after checking
    its result against the undeflated path on the whole matrix."""
    expected = linalg._charpoly_multimodular(linalg._integer_matrix(m))
    assert charpoly_oracle(m) == expected
    residual, roots = linalg._charpoly_factored(m)
    assert sum(roots.values()) + residual.degree == len(m)
    return residual.degree


def planted(diag, twin, between, sizes, order=None):
    """Classes of the given sizes, each with its diagonal and twin entry t,
    between[i][j] from every vertex of class i to every vertex of class j
    (not necessarily symmetric), vertices listed in ``order``."""
    cell = [i for i, size in enumerate(sizes) for _ in range(size)]
    if order is not None:
        cell = [cell[i] for i in order]
    return [
        [diag[cell[u]] if u == v else twin[cell[u]] if cell[u] == cell[v]
         else between[cell[u]][cell[v]] for v in range(len(cell))]
        for u in range(len(cell))
    ]


@st.composite
def planted_general_twins(draw, max_dim=12, scale=1):
    """Matrices of planted classes with t in {-3, 0, 2, 5}, non-symmetric
    entries between classes, in shuffled order; one entry may then move."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(min_value=1, max_value=n - sum(sizes))))
    cells = range(len(sizes))
    entry = st.integers(min_value=-4, max_value=4).map(lambda e: e * scale)
    diag = [draw(entry) for _ in cells]
    twin = [draw(st.sampled_from((-3, 0, 2, 5))) * scale for _ in cells]
    between = [[draw(entry) for _ in cells] for _ in cells]
    m = planted(diag, twin, between, sizes, draw(st.permutations(range(n))))
    if draw(st.booleans()):
        u, v = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        m[u][v] += draw(st.sampled_from((-2, -1, 1, 2)))
    return m


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(planted_general_twins())
def test_fixed_point_deflation_matches_the_undeflated_path_property(m):
    expected = linalg._charpoly_multimodular(np.array(m))
    assert charpoly_oracle(m) == expected
    assert charpoly_oracle(np.array(m, dtype=np.int64)) == expected


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(planted_general_twins(max_dim=9, scale=2**66))
def test_fixed_point_deflation_beyond_2_63_property(m):
    # Python-int entries stay Python ints: nothing wraps in the keys, the
    # checks or the quotients
    wide = np.array(m, dtype=object)
    assert charpoly_oracle(wide) == linalg._charpoly_multimodular(wide)


def deflation_passes(a):
    """Every twin pass from a, as (quotient, factors), until one merges nothing."""
    passes = []
    while (deflated := linalg._twin_quotient(a)) is not None:
        passes.append(deflated)
        a = deflated[0]
    return passes


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(st.one_of(planted_general_twins(), planted_twin_matrices()))
def test_exact_keys_and_the_row_hash_deflate_alike_property(m):
    for a in (linalg._integer_matrix(m), np.array(m, dtype=np.int64)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_hashed_twins", None)  # exact keys alone
            exact = deflation_passes(a)
        with pytest.MonkeyPatch.context() as patch:
            hashed = hashed_only(patch)
            by_hash = deflation_passes(a)
        assert len(exact) == len(by_hash)
        assert len(hashed) >= len(exact)
        for (quotient, factors), (hash_quotient, hash_factors) in zip(exact, by_hash):
            assert quotient.dtype == hash_quotient.dtype
            assert np.array_equal(quotient, hash_quotient)
            assert factors == hash_factors


def test_one_and_two_rows_are_read_off_their_entries(monkeypatch):
    # no primes and no Hessenberg form below 3 rows, and no int8 product wraps
    int8 = [[[-128]], [[127]], [[-128, 127], [127, -128]], [[-128, -128], [127, -128]],
            [[127, -128], [-128, -128]]]
    wide = [[[2**70]], [[2**63, -(2**65) - 1], [3, -(2**64)]], [[2**63, 5], [5, 2**63]]]
    monkeypatch.setattr(linalg, "_charpoly_multimodular", None)
    cases = [np.array(m, dtype=np.int8) for m in int8]
    for m in cases + [np.array(m, dtype=object) for m in wide]:
        expected = det_exact(char_matrix(m.tolist()))
        assert charpoly_oracle(m) == expected
        assert charpoly_oracle(m.tolist()) == expected


@pytest.mark.parametrize("t", [-3, 0, 2, 5])
def test_planted_classes_deflate_for_any_twin_entry(t):
    # three classes of 3, 2 and 1 vertices, interleaved, non-symmetric
    between = [[0, 7, -2], [1, 0, 7], [-2, 1, 0]]
    m = planted([1, -2, 6], [t, t, t], between, [3, 2, 1], [5, 0, 3, 1, 4, 2])
    assert deflated_dimension(m) == 3
    residual, roots = linalg._charpoly_factored(m)
    assert roots == ({1 - t: 2, -2 - t: 1} if 1 - t != -2 - t else {1 - t: 3})
    # entries beyond 2^63, as Python ints and on the object path
    big = [[e * 2**64 + 3 for e in row] for row in m]
    assert deflated_dimension(big) == 3
    assert deflated_dimension(np.array(big, dtype=object)) == 3


def test_classes_that_appear_only_in_the_quotients(monkeypatch):
    # three groups of three cells of two vertices: cells are twins (t = 1);
    # the cells of a group become twins only in the first quotient (t = 2*3
    # from an entry of 3), and groups 0 and 1 only in the second (t = -2*2*3
    # from an entry of -2 between them; both see group 2 alike, one way 5
    # and the other way -1)
    top = [[0, -2, 5], [-2, 0, 5], [-1, -1, 0]]
    cells = [(g, c) for g in range(3) for c in range(3)]
    between = [[3 if g == h else top[g][h] for h, _ in cells] for g, _ in cells]
    m = planted([4] * 9, [1] * 9, between, [2] * 9)
    assert deflated_dimension(m) == 2
    residual, roots = linalg._charpoly_factored(m)
    # per cell 4 - 1; per group 5 - 6 (diagonal 4 + 1); groups 0 and 1 give
    # 4 + 1 + 6*2 - (-12)
    assert roots == {3: 9, -1: 6, 29: 1}
    assert residual.degree == 2
    # a constant hash key makes every vertex a candidate of every other
    hashed = hashed_only(monkeypatch)
    monkeypatch.setattr(linalg, "_twin_weights", lambda n: np.zeros(n, dtype=np.int64))
    assert charpoly_oracle(m) == linalg._charpoly_multimodular(np.array(m))
    assert linalg._charpoly_factored(m)[1] == roots
    assert set(hashed) == {18, 9, 3}  # the passes that merge


def test_near_twins_do_not_deflate():
    # at most n distinct off-diagonal entries, so t = 5 is a candidate
    base = [[2, 5, 1, 5], [5, 2, 1, 5], [1, 1, 0, 5], [5, 5, 1, -3]]
    assert deflated_dimension(base) == 3
    twin_entry = [row[:] for row in base]
    twin_entry[0][1] = 4  # t differs between the two directions
    diagonal = [row[:] for row in base]
    diagonal[1][1] = 3
    rows_only = [row[:] for row in base]
    rows_only[2][1] = 4  # columns 0 and 1 differ outside the pair
    for m in (twin_entry, diagonal, rows_only, [list(c) for c in zip(*rows_only)]):
        assert deflated_dimension(m) == 4


def test_sweep_grid_matrices_deflate_to_two_rows():
    # the quotient ends at 2 x 2: the k private classes are twins with t = p
    # in the first quotient; with no common clique (p = h) at 1 x 1
    for h in range(2, 8):
        for p in range(1, h + 1):
            for k in range(2, 6):
                if h + (k - 1) * p > 40:
                    continue
                s = seidel_matrix(make_params(h, p, k))
                residual, roots = linalg._charpoly_factored(s)
                assert residual.degree == (1 if p == h else 2), (h, p, k)
                assert roots.get(1 - 2 * p) == k - 1


def test_oracle_on_3000_rows_copies_row_blocks_only():
    # the hash, the checks and the sums read the int8 matrix in blocks of
    # rows, widened to int64 one block at a time: never an n x n copy
    for shape, expected in (((2999, 1, 2), {1: 2997, -1: 1}),
                            ((1000, 300, 31), {1: 9968, -599: 30})):  # n = 10^4
        s = seidel_matrix(make_params(*shape))
        assert s.dtype == np.int8
        tracemalloc.start()
        residual, roots = linalg._charpoly_factored(s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del s
        assert roots == expected and residual.degree == 2
        assert peak < 4 * 2**20, shape


def test_oracle_on_1500_cliques_of_two_keeps_an_int8_quotient():
    # n = 3000 in classes of 2: the first quotient is 1500 x 1500 with
    # entries up to 2 in size, narrowed to int8 and scaled in place, never
    # held as Python ints or int64
    s = seidel_matrix(make_params(2, 2, 1500))
    quotient, _ = linalg._twin_quotient(s)
    assert quotient.shape == (1500, 1500) and quotient.dtype == np.int8
    del quotient
    tracemalloc.start()
    residual, roots = linalg._charpoly_factored(s)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert roots == {1: 1500, -3: 1499} and residual.degree == 1
    assert peak < 8 * 2**20


def unshared_diagonal_first(n, unshared, seed):
    """Random +-1 entries with diagonal 0 .. unshared - 1 on the first rows
    and 1000 on the rest, of which all but the first copy it as twins, t = 1."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([-1, 1], size=(unshared + 1, unshared + 1)), 1)
    index = np.minimum(np.arange(n), unshared)
    m = (upper + upper.T)[index[:, None], index]
    m[unshared:, unshared:] = 1
    np.fill_diagonal(m, np.r_[np.arange(unshared), np.full(n - unshared, 1000)])
    return m


def test_a_row_block_without_shared_diagonals_proposes_no_twin_entry(monkeypatch):
    # n = 600 reads in blocks of 436 rows; the first block's diagonal entries
    # 0 .. 435 are shared with no other vertex, so it proposes nothing
    m = unshared_diagonal_first(600, 436, seed=600)
    assert len(linalg._row_blocks(m)[0]) == 436
    assert 1 in linalg._twin_values(m, int(m.min()), int(m.max()))
    quotient, roots = linalg._twin_quotient(m)
    assert quotient.shape == (437, 437) and roots == {999: 163}
    # the same shape small enough for the undeflated path: blocks of 5 rows
    monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 64)
    m = unshared_diagonal_first(12, 5, seed=12)
    assert len(linalg._row_blocks(m)[0]) == 5
    assert charpoly_oracle(m) == linalg._charpoly_multimodular(m)
    assert linalg._charpoly_factored(m)[1] == {999: 6}


def test_int8_matrix_without_twins_matches_int64():
    # no twins, so the whole int8 matrix reaches the modular reduction,
    # where a 31-bit prime does not fit int8
    rng = np.random.default_rng(20261018)
    upper = np.triu(rng.integers(-1, 2, size=(40, 40)), 1)
    m = upper + upper.T
    assert linalg._twin_quotient(m.astype(np.int8)) is None
    expected = charpoly_oracle(m.astype(np.int64))
    assert charpoly_oracle(m.astype(np.int8)) == expected
    assert charpoly_oracle(m.tolist()) == expected


def test_a_vertex_with_another_diagonal_does_not_split_a_class():
    # vertices 0, 2, 3 and 4 are twins with t = -2; vertex 1 ties with them
    # on every entry but its diagonal
    m = [[0, -2, -2, -2, -2], [-2, 2, -2, -2, -2], [-2, -2, 0, -2, -2],
         [-2, -2, -2, 0, -2], [-2, -2, -2, -2, 0]]
    assert deflated_dimension(m) == 2
    assert linalg._charpoly_factored(m)[1] == {2: 3}
    assert charpoly_oracle(m) == det_exact(char_matrix(m))


def test_interleaved_classes_under_a_constant_hash_key(monkeypatch):
    # classes {0, 2, 4} and {1, 3} share d and t, so with a constant hash key
    # all five vertices tie in one run: the class of its first vertex leaves
    # and the rest is checked again against vertex 1
    between = [[0, 5], [-4, 0]]
    m = planted([1, 1], [2, 2], between, [3, 2], [0, 3, 1, 4, 2])
    hashed = hashed_only(monkeypatch)
    monkeypatch.setattr(linalg, "_twin_weights", lambda n: np.zeros(n, dtype=np.int64))
    assert deflated_dimension(m) == 2
    assert linalg._charpoly_factored(m)[1] == {-1: 3}
    assert charpoly_oracle(m) == det_exact(char_matrix(m))
    assert hashed and set(hashed) == {5}


def test_a_row_that_collides_on_the_hash_does_not_split_a_class(monkeypatch):
    # {1, 3, 8, 12} are twins with d = 3 and t = -1; row 9 has d = 3 too and
    # was solved so that its hash key for t = -1 equals theirs
    m = [
        [-1, -3, 0, -3, -3, -2, -3, 1, -3, -349153, -3, 3, -3],
        [-3, 3, -1, -1, 1, -3, 1, -2, -1, -3, -3, 0, -1],
        [0, -1, -2, -1, 1, -3, -2, 2, -1, 2, 1, -3, -1],
        [-3, -1, -1, 3, 1, -3, 1, -2, -1, -3, -3, 0, -1],
        [-3, 1, 1, 1, 0, 1, 1, 0, 1, -3, -2, -3, 1],
        [-2, -3, -3, -3, 1, 2, 1, 3, -3, 195645, -1, 0, -3],
        [-3, 1, -2, 1, 1, 1, -3, -2, 1, 1, -3, 1, 1],
        [1, -2, 2, -2, 0, 3, -2, -3, -2, -1, 1, 3, -2],
        [-3, -1, -1, -1, 1, -3, 1, -2, 3, -3, -3, 0, -1],
        [-349153, -3, 2, -3, -3, 195645, 1, -1, -3, 3, 2, -2, -3],
        [-3, -3, 1, -3, -2, -1, -3, 1, -3, 2, 3, -3, -3],
        [3, 0, -3, 0, -3, 0, 1, 3, 0, -2, -3, 1, 0],
        [-3, -1, -1, -1, 1, -3, 1, -2, -1, -3, -3, 0, 3],
    ]
    a = np.array(m, dtype=np.int64)
    w = linalg._twin_weights(13)
    keys = a @ w - np.diagonal(a) * w - w  # the row hash with t = -1
    assert len({keys[v] for v in (1, 3, 8, 9, 12)}) == 1
    hashed = hashed_only(monkeypatch)
    assert deflated_dimension(m) == 10
    assert 13 in hashed
    assert linalg._charpoly_factored(m)[1] == {4: 3}
    assert charpoly_oracle(m) == det_exact(char_matrix(m))
