from math import comb

import numpy as np
import pytest

from seidelspectra.errors import DegenerateFamily, InvalidParams
from seidelspectra.family import (
    adjacency_matrix,
    clique_vertices,
    make_params,
    seidel_matrix,
    signed_edges,
    vertex_labels,
    x_prime_matrix,
)
from seidelspectra.linalg import complete_adjacency, identity_matrix, ones_matrix


def grid(h_max=6, k_max=5):
    for h in range(2, h_max + 1):
        for p in range(1, h + 1):
            for k in range(2, k_max + 1):
                yield make_params(h, p, k)


def test_make_params_values():
    assert make_params(3, 1, 2).n == 4
    assert make_params(2, 1, 3).n == 4
    assert make_params(2, 2, 1).n == 2
    assert tuple(make_params(4, 2, 3)) == (4, 2, 3, 8)


def test_make_params_rejects_bad_bounds():
    with pytest.raises(InvalidParams, match="p must satisfy 1 <= p <= h"):
        make_params(3, 4, 2)
    with pytest.raises(InvalidParams, match="p must satisfy"):
        make_params(3, 0, 2)
    with pytest.raises(InvalidParams, match="h must be at least 2"):
        make_params(1, 1, 2)
    with pytest.raises(InvalidParams, match="k must be at least 1"):
        make_params(3, 1, 0)


def test_derived_order_divides_evenly():
    for params in grid():
        assert params.n == params.h + (params.k - 1) * params.p
        assert (params.n - params.h) % params.p == 0
        assert (params.n - params.h) // params.p == params.k - 1


def test_vertex_labels_layout():
    labels = vertex_labels(make_params(3, 2, 3))
    assert len(labels) == 7
    assert labels[0] == ("private", 1, 1)
    assert labels[3] == ("private", 2, 2)
    assert labels[4] == ("hub", None, 1)
    assert labels[6] == ("hub", None, 3)
    for params in grid(5, 4):
        labs = vertex_labels(params)
        assert len(labs) == params.n
        assert sum(1 for l in labs if l.kind == "hub") == params.h


def test_clique_vertices():
    params = make_params(3, 1, 2)
    assert clique_vertices(params, 1) == (0, 1, 2)
    assert clique_vertices(params, 2) == (1, 2, 3)
    with pytest.raises(InvalidParams):
        clique_vertices(params, 3)


def test_adjacency_complete_minus_one_edge():
    a = adjacency_matrix(make_params(3, 1, 2))
    expected = complete_adjacency(4)
    expected[0, 3] = expected[3, 0] = 0  # the two private vertices
    assert a.tolist() == expected.tolist()


def test_adjacency_star():
    a = adjacency_matrix(make_params(2, 1, 3))
    assert a.tolist() == [
        [0, 0, 1, 0],
        [0, 0, 1, 0],
        [1, 1, 0, 1],
        [0, 0, 1, 0],
    ]


def test_adjacency_single_clique():
    assert adjacency_matrix(make_params(2, 2, 1)).tolist() == [[0, 1], [1, 0]]


def test_adjacency_symmetric_zero_diagonal():
    for params in grid(5, 4):
        a = adjacency_matrix(params)
        assert all(a[i, i] == 0 for i in range(params.n))
        assert (a == a.T).all()


def test_adjacency_edge_count_by_inclusion_exclusion():
    for params in grid():
        a = adjacency_matrix(params)
        above = sum(
            int(a[i, j]) for i in range(params.n) for j in range(i + 1, params.n)
        )
        expected = params.k * comb(params.h, 2) - (params.k - 1) * comb(
            params.h - params.p, 2
        )
        assert above == expected


def test_seidel_matrix_definition():
    for params in grid(5, 4):
        s = seidel_matrix(params)
        j = ones_matrix(params.n)
        i = identity_matrix(params.n)
        a = adjacency_matrix(params)
        assert (s == j - i - 2 * a).all()


def test_seidel_single_negative_edge():
    assert seidel_matrix(make_params(2, 2, 1)).tolist() == [[0, -1], [-1, 0]]


def test_seidel_sign_structure():
    s = seidel_matrix(make_params(3, 1, 2))
    assert s[0, 3] == s[3, 0] == 1
    off = [s[i, j] for i in range(4) for j in range(4) if i != j]
    assert off.count(1) == 2 and off.count(-1) == 10
    for params in grid(5, 4):
        m = seidel_matrix(params)
        n = params.n
        assert sum(m[i, i] for i in range(n)) == 0
        assert sum(int(m[i, j]) ** 2 for i in range(n) for j in range(n)) == n * (n - 1)


def test_negative_degree_counts():
    for params in grid():
        a = adjacency_matrix(params)
        h, p, k, n = params
        common = range((k - 1) * p, (k - 1) * p + h - p)
        for v in range(n):
            degree = sum(int(x) for x in a[v])
            if v in common:
                assert degree == (h - p - 1) + k * p
            else:
                assert degree == h - 1


def test_x_prime_examples():
    assert x_prime_matrix(make_params(3, 1, 2)).tolist() == [[-1, -1, 1]]
    assert x_prime_matrix(make_params(2, 2, 2)).tolist() == [[1, 1], [1, 1]]
    assert x_prime_matrix(make_params(2, 1, 3)).tolist() == [[-1, 1], [-1, 1]]
    with pytest.raises(DegenerateFamily):
        x_prime_matrix(make_params(2, 2, 1))


def test_x_prime_is_the_seidel_coupling_block():
    for params in grid(5, 4):
        s = seidel_matrix(params)
        xp = x_prime_matrix(params)
        rows = (params.k - 1) * params.p
        block = s[:rows, params.n - params.h:]
        assert (xp == block).all()


def test_signed_edges():
    edges = signed_edges(make_params(3, 1, 2))
    assert len(edges) == 6
    negatives = [(i, j) for i, j, sign in edges if sign == -1]
    assert len(negatives) == 5
    assert (0, 3) not in negatives
    star = signed_edges(make_params(2, 1, 3))
    assert [(i, j) for i, j, s in star if s == -1] == [(0, 2), (1, 2), (2, 3)]


def test_int8_matrices_match_the_clique_union_definition():
    for params in grid():
        n = params.n
        adjacency = np.zeros((n, n), dtype=np.int64)
        for j in range(1, params.k + 1):
            members = list(clique_vertices(params, j))
            adjacency[np.ix_(members, members)] = 1
        np.fill_diagonal(adjacency, 0)
        a = adjacency_matrix(params)
        s = seidel_matrix(params)
        assert a.dtype == s.dtype == np.int8
        assert np.array_equal(a, adjacency)
        definition = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - 2 * adjacency
        assert np.array_equal(s, definition)
    assert x_prime_matrix(make_params(4, 1, 3)).dtype == np.int8


def test_the_build_allocates_little_beyond_the_matrix():
    import tracemalloc

    # 13 private blocks of 100: a (k-1)p x (k-1)p mask would add 1.69 MB
    params = make_params(200, 100, 14)
    n = params.n
    tracemalloc.start()
    s = seidel_matrix(params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert s.nbytes == n * n
    assert peak < n * n + 2**18
    definition = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    for j in range(1, params.k + 1):
        members = list(clique_vertices(params, j))
        definition[np.ix_(members, members)] = -1
    np.fill_diagonal(definition, 0)
    assert np.array_equal(s, definition)
