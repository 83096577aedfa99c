"""The one exact-value normalizer, and the entry points that go through it."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from seidelspectra import linalg
from seidelspectra.cli import main
from seidelspectra.closedform import (
    ScalarMatrixSpec,
    adjugate_negK_closed,
    charpoly_closed,
    spectrum_aI_bJ,
    spectrum_closed,
    spectrum_uniform_blocks,
    uniform_block_matrix,
)
from seidelspectra.errors import InvalidParams, UnsupportedShape
from seidelspectra.family import make_params
from seidelspectra.linalg import (
    adjugate_exact,
    det_exact,
    exact_matrix,
    inverse_exact,
    schur_block_det,
    schur_block_det_adjugate,
    zeros_matrix,
)
from seidelspectra.polynomial import X, _exact

FLOAT_CALLS = {
    "exact_matrix": lambda: exact_matrix([[0.5, 0], [0, 1]]),
    "det_exact": lambda: det_exact([[1, 0.5], [0, 1]]),
    "schur_block_det": lambda: schur_block_det([[1]], [[0]], [[0]], [[0.5]]),
    "spectrum_aI_bJ": lambda: spectrum_aI_bJ(ScalarMatrixSpec(0.1, 0, 2)),
    "spectrum_uniform_blocks": lambda: spectrum_uniform_blocks(0.5, 0.25, 1, 2, 2),
    "uniform_block_matrix": lambda: uniform_block_matrix(0.5, 1, 1, 2, 2),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS.keys())
def test_a_float_never_enters_an_exact_result(call):
    with pytest.raises(TypeError):
        call()


def test_numpy_integers_and_bools_become_python_ints():
    values = [np.bool_(True), np.int64(-2), np.uint64(2**63), True, np.int8(-128)]
    assert [_exact(v) for v in values] == [1, -2, 2**63, 1, -128]
    assert all(type(_exact(v)) is int for v in values)
    out = exact_matrix(np.array([values[:2], values[2:4]], dtype=object))
    assert out.tolist() == [[1, -2], [2**63, 1]]
    assert all(type(e) is int for e in out.flat)
    assert type(exact_matrix(np.array([[2**63]], dtype=np.uint64))[0, 0]) is int


def test_fractions_are_reduced_and_integral_ones_become_ints():
    assert _exact(Fraction(6, 3)) == 2 and type(_exact(Fraction(6, 3))) is int
    assert _exact(Fraction(2, 4)) == Fraction(1, 2)
    assert _exact(X) is X
    with pytest.raises(TypeError):
        _exact("1")


@st.composite
def rational_matrices(draw, max_dim=7):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        m[-1] = list(m[0])  # singular
    return m


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_det_matches_the_subset_expansion_property(m):
    value = det_exact(m)
    assert value == linalg._det_ring(m)
    assert type(value) is int or value.denominator != 1


def test_adjugate_of_order_0_and_1():
    empty = adjugate_exact(zeros_matrix(0))
    assert empty.shape == (0, 0) and empty.dtype == object
    for value in (5, Fraction(2, 3), X):
        adj = adjugate_exact(np.full((1, 1), value, dtype=object))
        assert adj.tolist() == [[1]] and type(adj[0, 0]) is int


def test_make_params_takes_numpy_integers_and_refuses_floats():
    params = make_params(np.int64(10**10), np.int32(1), np.uint8(3))
    assert params == (10**10, 1, 3, 10**10 + 2)
    assert all(type(v) is int for v in params)
    for bad in ((3.0, 1, 2), (3, 1.0, 2), (3, 1, 2.5), (3, 1, "2")):
        with pytest.raises(InvalidParams, match="must be integers"):
            make_params(*bad)


def test_closed_forms_take_numpy_integers_and_refuse_float_params():
    wide = spectrum_closed(make_params(np.int64(10**10), 1, 3))
    assert wide == spectrum_closed(make_params(10**10, 1, 3))
    with pytest.raises(InvalidParams):
        charpoly_closed(make_params(3.0, 1, 2))


def test_numpy_integer_inputs_are_normalized_before_any_arithmetic():
    wide = spectrum_aI_bJ(ScalarMatrixSpec(1, np.int64(2**62), np.int64(4)))
    assert wide.entries == ((1 + 2**64, 1), (1, 3))
    blocks = spectrum_uniform_blocks(np.int64(2**62), 0, np.int64(2**62), np.int64(4), 2)
    assert blocks.entries == ((2**62 + 2**64, 1), (0, 6), (2**62 - 2**64, 1))
    assert uniform_block_matrix(0, 0, np.int64(2**62), np.int64(4), 2)[0, 4] == 2**62


def test_spectrum_entries_are_ordered_by_exact_value():
    # 10^20 - 2 and 10^20 round to one float, and 10^400 to none
    assert spectrum_aI_bJ(ScalarMatrixSpec(10**20, -1, 2)).entries == (
        (10**20, 1), (10**20 - 2, 1))
    assert spectrum_aI_bJ(ScalarMatrixSpec(10**400, 1, 2)).entries == (
        (10**400 + 2, 1), (10**400, 1))
    # p = h gives a square discriminant, so every eigenvalue here is exact
    with pytest.raises(UnsupportedShape, match="beyond the float range"):
        spectrum_closed(make_params(10**400, 10**400, 2))


NOT_AN_INTEGER = "cannot be interpreted as an integer"

REFUSALS = {
    "verify --tol abc": (
        lambda: main(["verify", "--h", "5", "--p", "2", "--k", "3", "--tol", "abc"]),
        SystemExit, "^2$"),
    "ScalarMatrixSpec n = 5/2": (
        lambda: spectrum_aI_bJ(ScalarMatrixSpec(1, 1, Fraction(5, 2))), TypeError, NOT_AN_INTEGER),
    "spectrum_uniform_blocks m = 3/2": (
        lambda: spectrum_uniform_blocks(1, 0, 0, Fraction(3, 2), 2), TypeError, NOT_AN_INTEGER),
    "spectrum_uniform_blocks t = Fraction(2)": (
        lambda: spectrum_uniform_blocks(1, 0, 0, 2, Fraction(2)), TypeError, NOT_AN_INTEGER),
    "uniform_block_matrix m = Fraction(2)": (
        lambda: uniform_block_matrix(1, 0, 0, Fraction(2), 2), TypeError, NOT_AN_INTEGER),
    "ScalarMatrixSpec n = 0": (
        lambda: spectrum_aI_bJ(ScalarMatrixSpec(1, 1, 0)), ValueError, "n must be positive"),
    "spectrum_uniform_blocks m = 0": (
        lambda: spectrum_uniform_blocks(1, 0, 0, 0, 2), ValueError, "m=0, t=2"),
    "spectrum_uniform_blocks t = 0": (
        lambda: spectrum_uniform_blocks(1, 0, 0, 2, 0), ValueError, "m=2, t=0"),
    "uniform_block_matrix m = 0": (
        lambda: uniform_block_matrix(1, 0, 0, 0, 2), ValueError, "m=0, t=2"),
    "uniform_block_matrix t = 0": (
        lambda: uniform_block_matrix(1, 0, 0, 2, 0), ValueError, "m=2, t=0"),
    "adjugate_negK_closed(1)": (
        lambda: adjugate_negK_closed(1), ValueError, "at least 2"),
    "inverse_exact([[X]])": (
        lambda: inverse_exact([[X]]), TypeError, "int and Fraction entries only"),
    "schur_block_det top-right shape": (
        lambda: schur_block_det([[1]], [[0, 0]], [[0]], [[1]]), ValueError,
        r"top-right block must be 1x1, got \(1, 2\)"),
    "X + 'a'": (lambda: X + "a", TypeError, "unsupported operand"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_fires(call, error, match, capsys):
    with pytest.raises(error, match=match):
        call()
    if error is SystemExit:
        assert "invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("route", [schur_block_det, schur_block_det_adjugate])
def test_schur_routes_give_det_d_for_an_empty_top_left_block(route):
    assert route(zeros_matrix(0), zeros_matrix(0, 2), zeros_matrix(2, 0), [[2, 1], [1, 3]]) == 5
