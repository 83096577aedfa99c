import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from seidelspectra.errors import InvalidParams, NotSymmetric, UnsupportedShape
from seidelspectra.family import make_params, seidel_matrix
from seidelspectra.linalg import identity_matrix, ones_matrix
from seidelspectra.cli import main
from seidelspectra.closedform import FactoredCharPoly, Spectrum
from seidelspectra.polynomial import UniPoly, _times_linear_powers
from seidelspectra.verify import (
    DENSE_N_MAX,
    N_MAX,
    SWEEP_COST_MAX,
    SWEEP_POINTS_MAX,
    InvariantResults,
    VerificationReport,
    discrepancy_notes,
    eig_numeric,
    sweep,
    verify_instance,
)


def test_eig_numeric_known_matrices():
    assert eig_numeric(identity_matrix(3)) == (1.0, 1.0, 1.0)
    j = eig_numeric(ones_matrix(4))
    assert abs(j[0] - 4) <= 1e-9
    assert all(abs(v) <= 1e-9 for v in j[1:])


def test_eig_numeric_seidel_instance():
    values = eig_numeric(seidel_matrix(make_params(3, 1, 2)))
    root5 = math.sqrt(5.0)
    expected = (root5, 1.0, -1.0, -root5)
    assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9


def test_eig_numeric_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        eig_numeric([[0, 1], [0, 0]])
    with pytest.raises(NotSymmetric):
        eig_numeric([[0, 1, 0], [1, 0, 1]])


def test_eig_numeric_trace_identities():
    for h, p, k in ((2, 1, 4), (3, 2, 2), (4, 2, 3)):
        params = make_params(h, p, k)
        values = eig_numeric(seidel_matrix(params))
        n = params.n
        assert abs(sum(values)) <= 1e-9 * n
        assert abs(sum(v * v for v in values) - n * (n - 1)) <= 1e-6


@pytest.mark.parametrize("kind", ["int8", "int64", "object"])
def test_eig_numeric_reverses_eigvalsh_order(kind):
    # == and not bytes: a -0.0 and a 0.0 may trade places, and nothing prints them
    gen = np.random.default_rng(20261020)
    matrices = [np.ones((4, 4), dtype=np.int64), np.eye(5, dtype=np.int64),
                np.zeros((3, 3), dtype=np.int64), 2 * np.eye(6, dtype=np.int64) - 1]
    for n in range(1, 13):
        upper = np.triu(gen.integers(-3, 4, (n, n)))
        matrices.append(upper + np.triu(upper, 1).T)
    for m in matrices:
        a = m.astype(kind)
        expected = tuple(sorted(np.linalg.eigvalsh(m.astype(float)).tolist(), reverse=True))
        assert eig_numeric(a) == expected, m


def test_verify_instance_hand_case():
    report = verify_instance(make_params(3, 1, 2))
    assert report.params == (3, 1, 2, 4)
    assert report.charpoly_exact_match
    assert report.coefficient_diffs == ()
    assert report.spectrum_max_deviation <= 1e-9
    assert report.invariant_results.all_pass()
    assert report.passed()
    assert report.elapsed >= 0.0


def test_verify_instance_larger_cases():
    # cross-checks two independent computations made in this run
    for h, p, k in ((4, 2, 3), (5, 3, 4), (2, 2, 5)):
        report = verify_instance(make_params(h, p, k))
        assert report.passed(), report.coefficient_diffs


@pytest.mark.parametrize("shift", [-1, 1])
def test_vieta_trace_reads_the_closed_cubic(shift, monkeypatch):
    from seidelspectra import verify

    real = verify.charpoly_closed

    def perturbed(params):
        fac = real(params)
        c0, c1, c2, c3 = fac.cubic
        return fac._replace(cubic=(c0, c1, c2 + shift, c3))

    params = make_params(4, 2, 3)
    assert verify_instance(params).invariant_results.vieta_trace
    monkeypatch.setattr(verify, "charpoly_closed", perturbed)
    report = verify_instance(params)
    assert not report.invariant_results.vieta_trace
    assert report.invariant_results.trace_zero
    assert not report.passed()


def _one_fewer(spectrum):
    *head, (value, mult) = spectrum.entries
    return Spectrum(tuple(head) + (((value, mult - 1),) if mult > 1 else ()))


def _one_more(spectrum):
    *head, (value, mult) = spectrum.entries
    return Spectrum(tuple(head) + ((value, mult + 1),))


@pytest.mark.parametrize("change, dimension_shift", [(_one_fewer, -1), (_one_more, 1)],
                         ids=["short", "long"])
@pytest.mark.parametrize("h, p, k", [(5, 2, 3), (1000, 300, 31)], ids=["n=9", "n=10^4"])
def test_a_spectrum_of_the_wrong_length_fails_verify(h, p, k, change, dimension_shift,
                                                      capsys, monkeypatch):
    # the numeric referee zips the spectrum with eigvalsh's values, so it cannot see
    # a missing or extra eigenvalue; above DENSE_N_MAX it does not run at all
    from seidelspectra import verify

    real = verify.spectrum_closed
    monkeypatch.setattr(verify, "spectrum_closed", lambda params: change(real(params)))
    code = main(["verify", "--h", str(h), "--p", str(p), "--k", str(k), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["charpoly_exact_match"] is True
    assert payload["invariants"] == {"trace_zero": True, "sum_squares": True,
                                     "degree": False, "vieta_trace": True}
    dimension = sum(e["multiplicity"] for e in payload["eigenvalues"])
    assert dimension == payload["params"]["n"] + dimension_shift


@pytest.mark.parametrize("index, shift, holds", [
    (1, -1, False), (1, 1, False), (0, -1, True), (0, 1, True),
])
def test_sum_squares_reads_c1_of_the_closed_cubic(index, shift, holds, monkeypatch):
    from seidelspectra import verify

    real = verify.charpoly_closed

    def perturbed(params):
        fac = real(params)
        coeffs = list(fac.cubic)
        coeffs[index] += shift
        return fac._replace(cubic=tuple(coeffs))

    params = make_params(5, 3, 4)
    assert verify_instance(params).invariant_results.sum_squares
    monkeypatch.setattr(verify, "charpoly_closed", perturbed)
    report = verify_instance(params)
    assert report.invariant_results.sum_squares is holds
    assert not report.passed()


def test_numeric_sum_squares_allows_eigvalsh_rounding_at_n_1500(monkeypatch):
    # the bound grows like n^3 and passes the old fixed 1e-6 only near n = 1000;
    # at n = 500 the rounding model gives about 1e-7, below that floor
    from seidelspectra import verify
    from seidelspectra.closedform import spectrum_closed

    params = make_params(15, 15, 100)
    n, values = params.n, spectrum_closed(params).approx()
    half = n * max(map(abs, values)) * 2.0**-53  # half of passed()'s rounding bound
    outward = tuple(v + math.copysign(half, v) for v in values)
    # every value moved away from 0 moves sum lambda^2 by about 2.8e-6
    assert abs(sum(v * v for v in outward) - n * (n - 1)) > 2e-6
    monkeypatch.setattr(verify, "eig_numeric", lambda m: outward)
    report = verify_instance(params)
    assert report.invariant_results.sum_squares and report.passed()
    moved = list(values)
    moved[values.index(1.0)] += 1e-3
    monkeypatch.setattr(verify, "eig_numeric", lambda m: tuple(moved))
    assert not verify_instance(params).invariant_results.sum_squares


def test_report_passed_thresholds():
    good = InvariantResults(True, True, True, True)
    r = VerificationReport(make_params(2, 1, 2), True, (), 0.5, good, 0.0)
    assert not r.passed()
    assert r.passed(tol=1.0)
    mismatch = r._replace(charpoly_exact_match=False, spectrum_max_deviation=0.0)
    assert not mismatch.passed(tol=1.0)
    bad_invariant = r._replace(
        spectrum_max_deviation=0.0,
        invariant_results=good._replace(sum_squares=False),
    )
    assert not bad_invariant.passed(tol=1.0)
    assert not bad_invariant.invariant_results.all_pass()


def test_a_tol_below_eigvalsh_rounding_fails_no_correct_instance(monkeypatch):
    # the deviation bound is never below n * max |lambda| * 2^-52, so even the
    # smallest --tol (2^-50) passes correct instances; (200, 50, 37) deviates
    # by about 1.6e-11 and (10, 3, 5) by about 1.1e-14
    from seidelspectra import closedform

    tiny = 2.0**-50
    for shape in ((200, 50, 37), (10, 3, 5), (40, 7, 9)):
        report = verify_instance(make_params(*shape))
        assert report.spectrum_max_deviation > tiny and report.passed(tiny), shape
    # a doubled closed-form root still fails, at that tol and at the default
    real = closedform._rounded_root
    monkeypatch.setattr(closedform, "_rounded_root", lambda *args: 2 * real(*args))
    report = verify_instance(make_params(40, 7, 9))
    assert report.charpoly_exact_match and report.spectrum_max_deviation > 50
    assert not report.passed(tiny) and not report.passed()


def test_sweep_small_grid():
    summary = sweep(3, 3)
    expected_points = [
        (h, p, k) for h in (2, 3) for p in range(1, h + 1) for k in (2, 3)
    ]
    assert [r.params[:3] for r in summary.reports] == expected_points
    assert summary.passed == 10
    assert summary.failed == 0
    assert summary.skipped == ()
    assert summary.errors == ()
    assert "h in [2,3]" in summary.grid


def test_sweep_respects_n_cap():
    summary = sweep(3, 3, n_cap=4)
    assert len(summary.reports) == 4
    assert len(summary.skipped) == 6
    assert all(r.params.n <= 4 for r in summary.reports)
    assert all(params.n > 4 for params in summary.skipped)
    assert summary.passed == 4 and summary.failed == 0


def test_sweep_deterministic_modulo_timing():
    first = sweep(3, 3)
    second = sweep(3, 3)
    strip = lambda r: r._replace(elapsed=0.0)
    assert tuple(map(strip, first.reports)) == tuple(map(strip, second.reports))
    assert first.skipped == second.skipped
    assert first.errors == second.errors


def test_sweep_rejects_bad_bounds():
    with pytest.raises(InvalidParams):
        sweep(1, 3)
    with pytest.raises(InvalidParams):
        sweep(3, 1)


def grid_points(h_max, k_max):
    return (k_max - 1) * (h_max * (h_max + 1) // 2 - 1)


def test_sweep_refuses_a_grid_above_sweep_points_max_at_once():
    assert grid_points(1414, 2) > SWEEP_POINTS_MAX >= grid_points(1413, 2)
    start = time.perf_counter()
    with pytest.raises(InvalidParams, match="SWEEP_POINTS_MAX"):
        sweep(1414, 2)
    with pytest.raises(InvalidParams, match="SWEEP_POINTS_MAX"):
        sweep(100_000, 2)
    assert time.perf_counter() - start < 0.1


def sweep_cost(h_max, k_max, n_cap):
    """The cost of a sweep's verified points, one by one: n^3 each."""
    ns = [h + (k - 1) * p for h in range(2, h_max + 1) for p in range(1, h + 1)
          for k in range(2, k_max + 1)]
    return sum(n ** 3 for n in ns if n <= n_cap)


def test_sweep_refuses_a_grid_above_sweep_cost_max_before_any_point(monkeypatch):
    from seidelspectra import verify

    def must_not_run(params):
        raise AssertionError(f"{params} ran before the refusal")

    monkeypatch.setattr(verify, "verify_instance", must_not_run)
    # within SWEEP_POINTS_MAX, but every point is verified and (1413, 700, 3)
    # alone takes seconds: the whole grid would run for days
    assert grid_points(1413, 2) <= SWEEP_POINTS_MAX
    start = time.perf_counter()
    with pytest.raises(InvalidParams, match="above SWEEP_COST_MAX = 1000000000000"):
        sweep(1413, 2, n_cap=3000)
    assert time.perf_counter() - start < 2
    # the bound is inclusive and counts the points up to n_cap alone: n =
    # 2 + (k - 1) * p is 1200 at p = 2, k = 600 and nowhere else
    cost = sweep_cost(2, 1000, 1200)
    assert cost - sweep_cost(2, 1000, 1199) == 1200**3
    monkeypatch.setattr(verify, "SWEEP_COST_MAX", cost - 1)
    with pytest.raises(InvalidParams, match=f"cost {cost} "):
        sweep(2, 1000, n_cap=1200)
    monkeypatch.setattr(verify, "SWEEP_COST_MAX", cost)
    monkeypatch.setattr(verify, "verify_instance", lambda params: 1 / 0)
    assert len(sweep(2, 1000, n_cap=1200).errors) == 999 + 599  # p = 1, p = 2


def test_sweep_cost_max_lets_a_large_grid_through(monkeypatch):
    from seidelspectra import verify

    assert sweep_cost(30, 30, 3000) <= SWEEP_COST_MAX  # about 3.2e11
    monkeypatch.setattr(verify, "verify_instance", lambda params: 1 / 0)
    summary = sweep(30, 30, n_cap=3000)
    assert len(summary.errors) + len(summary.skipped) == grid_points(30, 30)
    assert all(params.n <= 3000 for params, _ in summary.errors)
    assert sweep_cost(7, 5, 40) <= SWEEP_COST_MAX  # perfbench's sweep-grid, about 4.4e5


def test_sweep_point_count_matches_the_grid():
    summary = sweep(4, 3, n_cap=6)
    assert summary.skipped
    assert grid_points(4, 3) == (len(summary.reports) + len(summary.skipped)
                                 + len(summary.errors))


def test_discrepancy_notes_cover_known_slips():
    notes = discrepancy_notes()
    assert len(notes) == 3
    assert "1 - 2p" in notes[0] and "2p - 1" in notes[0]
    assert "t*(m - 1)" in notes[1] and "m*(t - 1)" in notes[1]
    assert "(m, t) = (2, 3)" in notes[1]
    assert "n - 2 - (n - h)/p" in notes[2]


def test_eig_numeric_int64_boundary():
    a = np.array([[0, 1, 2], [1, 0, 3], [2, 4, 0]], dtype=np.int64)
    with pytest.raises(NotSymmetric, match=r"entry \(1,2\) = 3 differs from \(2,1\) = 4"):
        eig_numeric(a)
    with pytest.raises(TypeError):
        eig_numeric(np.zeros((3, 3)))
    s = seidel_matrix(make_params(5, 2, 4))
    assert eig_numeric(s) == eig_numeric(s.tolist())


def test_verify_instance_copies_no_matrix(monkeypatch):
    from seidelspectra import linalg

    calls = []
    real = linalg.exact_matrix

    def counting(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(linalg, "exact_matrix", counting)
    assert verify_instance(make_params(20, 5, 7)).passed()
    assert calls == []


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("shift", [-1, 1])
def test_sweep_catches_every_cubic_coefficient_moved_by_one(index, shift, monkeypatch):
    from seidelspectra import closedform

    real = closedform.cubic_s

    def moved(params):
        coeffs = list(real(params))
        coeffs[index] += shift
        return tuple(coeffs)

    monkeypatch.setattr(closedform, "cubic_s", moved)
    summary = sweep(4, 3)
    assert summary.errors == () and summary.skipped == ()
    assert len(summary.reports) == summary.failed == 18 and summary.passed == 0
    for report in summary.reports:
        assert not report.charpoly_exact_match
        assert min(deg for deg, _, _ in report.coefficient_diffs) == index


@pytest.mark.parametrize("field", ["root1", "e1", "e2", "root2"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_sweep_catches_every_linear_factor_moved_by_one(field, shift, monkeypatch):
    from seidelspectra import verify

    real = verify.charpoly_closed

    def moved(params):
        fac = real(params)
        return fac._replace(**{field: getattr(fac, field) + shift})

    monkeypatch.setattr(verify, "charpoly_closed", moved)
    summary = sweep(4, 3)
    assert summary.skipped == ()
    # a root whose exponent is 0 leaves the polynomial as it is when it moves:
    # (1 - 2p - x) has exponent k - 2, and (1 - x) has n - k - 1 = 0 at h = 2, p = 1;
    # every other point must fail, and the invariants must see the move too
    exponent = {"root1": "e1", "root2": "e2"}.get(field)
    for report in summary.reports:
        unchanged = exponent is not None and getattr(real(report.params), exponent) == 0
        assert report.charpoly_exact_match is unchanged
        assert report.passed() is unchanged
        assert report.invariant_results.vieta_trace is unchanged
        assert report.invariant_results.sum_squares is unchanged
    # an exponent moved below 0 cannot be expanded: that point is an error
    for params, message in summary.errors:
        assert exponent is None and shift == -1
        assert message.startswith("ValueError: polynomial exponent")
    if field == "root1":
        assert summary.passed == summary.failed == 9
    elif field == "root2":
        assert summary.passed == 2 and summary.failed == 16
    else:
        assert summary.failed == 18 and summary.passed == 0


@pytest.mark.parametrize("h", [N_MAX, 10**400], ids=["n_max_plus_1", "huge"])
def test_verify_refuses_n_above_n_max_before_building(h, monkeypatch):
    from seidelspectra import verify

    def no_matrix(params):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(verify, "seidel_matrix", no_matrix)
    params = make_params(h, 1, 2)
    assert params.n > N_MAX
    with pytest.raises(UnsupportedShape, match="N_MAX"):
        verify_instance(params)
    # n = N_MAX itself gets as far as building its matrix
    with pytest.raises(AssertionError, match="a matrix was built"):
        verify_instance(make_params(N_MAX - 1, 1, 2))


def test_numeric_referee_is_skipped_above_dense_n_max(monkeypatch):
    from seidelspectra import verify

    def no_numeric(*args):
        raise AssertionError("the numeric referee ran")

    monkeypatch.setattr(verify, "eig_numeric", no_numeric)
    report = verify_instance(make_params(DENSE_N_MAX, 1, 2))
    assert report.params.n == DENSE_N_MAX + 1
    assert report.numeric_skipped and math.isnan(report.spectrum_max_deviation)
    assert report.charpoly_exact_match and report.invariant_results.all_pass()
    assert report.spectrum is not None and report.passed()
    # a report that says the referee ran is judged by its deviation, and a
    # closed form with no real spectrum fails with the referee skipped
    assert not report._replace(numeric_skipped=False).passed()
    assert not report._replace(spectrum=None).passed()
    # at n = DENSE_N_MAX the numeric referee runs
    with pytest.raises(AssertionError, match="the numeric referee ran"):
        verify_instance(make_params(DENSE_N_MAX - 1, 1, 2))


@pytest.mark.parametrize("index", range(4))
def test_a_moved_cubic_coefficient_above_dense_n_max_fails_unexpanded(index, monkeypatch):
    import time

    from seidelspectra import closedform

    real = closedform.cubic_s

    def moved(params):
        coeffs = list(real(params))
        coeffs[index] += 1
        return tuple(coeffs)

    def no_expansion(*args):
        raise AssertionError("a polynomial was expanded")

    monkeypatch.setattr(closedform, "cubic_s", moved)
    monkeypatch.setattr(closedform.FactoredCharPoly, "expand", no_expansion)
    start = time.perf_counter()
    report = verify_instance(make_params(DENSE_N_MAX, 1, 2))
    assert time.perf_counter() - start < 5.0
    assert report.numeric_skipped and not report.passed()
    assert not report.charpoly_exact_match and report.coefficient_diffs == ()


@pytest.mark.parametrize("field, shift", [
    ("root1", 1), ("root2", 1), ("root2", -1), ("e1", 1), ("e2", 1), ("e2", -1),
])
def test_a_moved_linear_factor_above_dense_n_max_fails_unexpanded(field, shift, monkeypatch):
    from seidelspectra import closedform, polynomial, verify

    real = verify.charpoly_closed
    powers = []

    def no_expansion(*args):
        raise AssertionError("a polynomial was expanded")

    def small_power(root, exponent):
        powers.append(exponent)
        return real_power(root, exponent)

    real_power = polynomial._linear_power
    monkeypatch.setattr(verify, "charpoly_closed",
                        lambda params: real(params)._replace(
                            **{field: getattr(real(params), field) + shift}))
    monkeypatch.setattr(closedform.FactoredCharPoly, "expand", no_expansion)
    monkeypatch.setattr(polynomial, "_linear_power", small_power)
    report = verify_instance(make_params(DENSE_N_MAX, 2, 3))
    assert report.numeric_skipped and not report.passed()
    assert not report.charpoly_exact_match and report.coefficient_diffs == ()
    # the invariants read the moved factor too, not one of their own
    assert not report.invariant_results.vieta_trace
    assert not report.invariant_results.sum_squares
    # only factors of degree up to the cubic's were expanded, never (r - x)^n
    assert max(powers, default=0) <= 3


def sweep_grid():
    return [make_params(h, p, k) for h in range(2, 8) for p in range(1, h + 1)
            for k in range(2, 6) if h + (k - 1) * p <= 40]


def expanded_diffs(closed, oracle):
    """The coefficient diff as the expanded comparison computes it."""
    top = max(closed.degree, oracle.degree)
    return tuple((deg, closed.coeff(deg), oracle.coeff(deg)) for deg in range(top + 1)
                 if closed.coeff(deg) != oracle.coeff(deg))


@pytest.mark.parametrize("shift", [0, 1])
def test_factored_comparison_agrees_with_the_expanded_one(shift):
    from seidelspectra import verify
    from seidelspectra.closedform import charpoly_closed
    from seidelspectra.linalg import _charpoly_factored, charpoly_oracle

    grid = sweep_grid()
    assert len(grid) == 108
    for params in grid:
        fac = charpoly_closed(params)
        c0, c1, c2, c3 = fac.cubic
        # shift 1 moves the cubic's constant: every verdict becomes a mismatch
        fac = fac._replace(cubic=(c0 + shift, c1, c2, c3))
        s = seidel_matrix(params)
        residual, roots = _charpoly_factored(s)
        oracle = charpoly_oracle(s)
        same = verify._same_product(fac, residual, roots)
        assert same is (fac.expand() == oracle) is (shift == 0), params
        degree, third = verify._degree_and_third(residual, roots)
        assert degree == oracle.degree == params.n
        assert third == oracle.coeff(params.n - 2)


def test_factored_comparison_cancels_roots_split_between_factors():
    from seidelspectra.closedform import FactoredCharPoly, charpoly_closed
    from seidelspectra.linalg import _charpoly_factored
    from seidelspectra.polynomial import X
    from seidelspectra.verify import _same_product

    q = X * X - 3 * X + 7  # no integer root
    # (2 - x)^3 (1 - x)^4 q: the closed side holds one root 2 in its cubic
    fac = FactoredCharPoly(2, 2, 1, 4, ((2 - X) * q).coeffs)
    assert _same_product(fac, q, {1: 4, 2: 3})
    assert _same_product(fac._replace(e1=3, cubic=(q * (1 - X)).coeffs), q, {1: 5, 2: 3})
    assert not _same_product(fac, q, {1: 4, 2: 2})
    assert not _same_product(fac, q * (2 - X), {1: 4, 2: 3})
    assert not _same_product(fac, q * 2, {1: 4, 2: 3})
    # the family's own case: s(1 - 2p) = 0, so the closed side keeps one
    # (1 - 2p - x) in its cubic that the oracle holds as a linear factor
    params = make_params(15, 3, 11)
    fac = charpoly_closed(params)
    residual, roots = _charpoly_factored(seidel_matrix(params))
    assert UniPoly(fac.cubic)(fac.root1) == 0 and residual.degree == 2
    assert roots == {fac.root1: fac.e1 + 1, fac.root2: fac.e2}
    assert _same_product(fac, residual, roots)


@pytest.mark.parametrize("field, shift", [
    ("cubic", (1, 0, 0, 0)), ("cubic", (0, 0, -1, 0)), ("cubic", (0, 0, 0, 1)),
    ("root1", 1), ("root2", -1), ("e1", 1), ("e2", 1), ("e2", -1),
])
def test_failing_reports_keep_the_expanded_diff(field, shift, monkeypatch):
    from seidelspectra import verify
    from seidelspectra.linalg import charpoly_oracle

    real = verify.charpoly_closed

    def moved(params):
        fac = real(params)
        if field == "cubic":
            return fac._replace(cubic=tuple(c + d for c, d in zip(fac.cubic, shift)))
        return fac._replace(**{field: getattr(fac, field) + shift})

    monkeypatch.setattr(verify, "charpoly_closed", moved)
    for params in [make_params(h, p, k) for h in range(2, 5)
                   for p in range(1, h + 1) for k in range(2, 4)]:
        fac = moved(params)
        if min(fac.e1, fac.e2) < 0:
            with pytest.raises(ValueError, match="polynomial exponent"):
                verify_instance(params)
            continue
        expected = expanded_diffs(fac.expand(), charpoly_oracle(seidel_matrix(params)))
        report = verify_instance(params)
        assert report.coefficient_diffs == expected
        assert report.charpoly_exact_match is (expected == ())


small_roots = st.integers(-2, 2)
small_exponents = st.integers(0, 3)
nonzero_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(UniPoly)


@st.composite
def factored_products(draw):
    """(closed form, residual, roots) over one multiset of small integer roots: the
    oracle's residual holds the closed form's linear factors, its cubic the oracle's,
    both times the same base and extra roots; then one side may move."""
    root1, root2 = draw(small_roots), draw(small_roots)
    e1, e2 = draw(small_exponents), draw(small_exponents)
    roots = draw(st.dictionaries(small_roots, small_exponents, max_size=3))
    extra = [(root, 1) for root in draw(st.lists(small_roots, max_size=2))]
    base = draw(nonzero_polys)
    cubic = _times_linear_powers(base, [*roots.items(), *extra])
    residual = _times_linear_powers(base, [(root1, e1), (root2, e2), *extra])
    move = draw(st.sampled_from(["none", "drop linear", "constant", "exponent"]))
    if move == "drop linear":  # the closed side's leftovers may outnumber the residual's degree
        residual = _times_linear_powers(base, extra)
    elif move == "constant":
        cubic = cubic + 1
    elif move == "exponent" and roots:
        root = next(iter(roots))
        roots = {**roots, root: roots[root] + 1}
    return FactoredCharPoly(root1, e1, root2, e2, cubic.coeffs), residual, roots


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(factored_products())
@example((FactoredCharPoly(1, 0, 2, 0, (5,)), UniPoly([5]), {3: 0}))  # zero exponents
@example((FactoredCharPoly(1, 2, 1, 1, (1,)), UniPoly([1]), {1: 3}))  # root1 == root2
# roots shared with the oracle, one of them also inside the cubic
@example((FactoredCharPoly(-1, 2, 1, 3, (3, 1, -2)), UniPoly([-3, 2]), {-1: 3, 1: 3}))
@example((FactoredCharPoly(2, 3, 1, 0, (1, 1)), UniPoly([1, 1]), {}))  # 3 leftovers, degree 1
@example((FactoredCharPoly(0, 1, 0, 1, (1,)), UniPoly([0, 0, 1]), {0: 1}))  # x^2 split 2 ways
def test_factored_comparison_equals_the_expanded_one_property(case):
    from seidelspectra.verify import _same_product

    fac, residual, roots = case
    expected = fac.expand() == _times_linear_powers(residual, roots.items())
    assert _same_product(fac, residual, roots) is expected
