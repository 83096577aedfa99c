"""End-to-end acceptance checks for the family's closed-form spectra.

One test per promised behavior, in order: the two hand-checked instances,
the exact grid comparison against the oracle, the structural invariants,
the adjugate and sandwich closed forms, the block determinant routes, the
uniform block spectra with the corrected multiplicity count, the sign-slip
flag in reports, and sweep determinism.  Each test prints a single
[PASS] line with the measured numbers when it succeeds.
"""

import math
import random
import time
from functools import lru_cache

from seidelspectra.cli import main
from seidelspectra.closedform import (
    FactoredCharPoly,
    adjugate_negK_closed,
    charpoly_closed,
    sandwich_closed,
    spectrum_closed,
    spectrum_uniform_blocks,
    uniform_block_matrix,
)
from seidelspectra.family import make_params, seidel_matrix, x_prime_matrix
from seidelspectra.linalg import (
    adjugate_exact,
    assemble_blocks,
    char_matrix,
    charpoly_oracle,
    complete_adjacency,
    det_exact,
    exact_matrix,
    identity_matrix,
    schur_block_det,
    schur_block_det_adjugate,
)
from seidelspectra.polynomial import UniPoly
from seidelspectra.verify import (
    discrepancy_notes,
    eig_numeric,
    sweep,
    verify_instance,
)

TOL = 1e-9


@lru_cache(maxsize=1)
def _grid_summary():
    start = time.perf_counter()
    summary = sweep(7, 5)
    return summary, time.perf_counter() - start


def _timed_instance(params):
    verify_instance(params)  # warmup
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        report = verify_instance(params)
        best = min(best, time.perf_counter() - start)
    return report, best


def test_two_triangles_sharing_an_edge():
    params = make_params(3, 1, 2)
    report, elapsed = _timed_instance(params)
    root5 = math.sqrt(5.0)
    numeric = eig_numeric(seidel_matrix(params))
    dev = max(
        abs(a - b) for a, b in zip(numeric, (root5, 1.0, -1.0, -root5))
    )
    assert dev <= TOL
    fac = charpoly_closed(params)
    assert fac == FactoredCharPoly(-1, 0, 1, 1, (5, 5, -1, -1))
    assert fac.expand() == charpoly_oracle(seidel_matrix(params))
    assert report.charpoly_exact_match and report.spectrum_max_deviation <= TOL
    assert elapsed < 0.010
    print(f"[PASS] two triangles sharing an edge: spectrum dev {dev:.2e}, "
          f"exact charpoly match, {elapsed * 1000:.2f} ms")


def test_three_edges_sharing_a_vertex():
    params = make_params(2, 1, 3)
    report, elapsed = _timed_instance(params)
    assert spectrum_closed(params).entries == ((3, 1), (-1, 3))
    fac = charpoly_closed(params)
    assert fac == FactoredCharPoly(-1, 1, 1, 0, (3, 5, 1, -1))
    assert fac.expand() == (-1 - UniPoly((0, 1))) * UniPoly((3, 5, 1, -1))
    assert fac.expand() == charpoly_oracle(seidel_matrix(params))
    assert report.charpoly_exact_match and report.spectrum_max_deviation <= TOL
    assert elapsed < 0.010
    print(f"[PASS] three edges sharing a vertex: spectrum (3, -1, -1, -1), "
          f"exact charpoly match, {elapsed * 1000:.2f} ms")


def test_factored_charpoly_matches_oracle_across_grid():
    summary, elapsed = _grid_summary()
    assert summary.skipped == () and summary.errors == ()
    assert len(summary.reports) == 108
    mismatches = [
        (r.params, r.coefficient_diffs)
        for r in summary.reports
        if not r.charpoly_exact_match
    ]
    assert not mismatches, f"coefficient diffs (degree, closed, oracle): {mismatches}"
    assert elapsed < 60.0
    assert summary.failed == 0
    print(f"[PASS] grid h<=7, k<=5: {len(summary.reports)} instances, all "
          f"coefficient-exact, {elapsed:.2f} s")


def test_factored_charpoly_matches_oracle_at_n_100():
    for h, p, k in ((30, 10, 8), (40, 10, 7)):
        params = make_params(h, p, k)
        assert params.n == 100
        start = time.perf_counter()
        oracle = charpoly_oracle(seidel_matrix(params))
        elapsed = time.perf_counter() - start
        assert oracle == charpoly_closed(params).expand(), params
        print(f"[PASS] ({h},{p},{k}) n=100: all 101 coefficients exact, "
              f"oracle {elapsed * 1000:.0f} ms")


def test_oracle_sees_a_single_flipped_sign():
    params = make_params(5, 2, 4)
    n = params.n
    seidel = seidel_matrix(params)
    original = charpoly_oracle(seidel)
    flipped = seidel.copy()
    flipped[0, n - 1] *= -1
    flipped[n - 1, 0] *= -1
    changed = charpoly_oracle(flipped)
    assert original == charpoly_closed(params).expand()
    assert changed != original
    # a sign flip keeps the entries' squares, hence the top three coefficients
    assert all(changed.coeff(d) == original.coeff(d) for d in (n, n - 1, n - 2))
    # degree n and agreement with Bareiss at n + 1 points pin the polynomial
    assert all(
        changed(t) == det_exact(flipped - t * identity_matrix(n))
        for t in range(n + 1)
    )
    print(f"[PASS] flipping the sign of edge (0, {n - 1}) changes the "
          f"oracle's charpoly at n={n}")


def test_trace_and_sum_of_squares_invariants_across_grid():
    summary, _ = _grid_summary()
    worst = max(r.spectrum_max_deviation for r in summary.reports)
    for report in summary.reports:
        assert report.invariant_results.trace_zero, report.params
        assert report.invariant_results.sum_squares, report.params
    assert worst <= TOL
    print(f"[PASS] trace 0 and sum of squares n(n-1) at all "
          f"{len(summary.reports)} grid points; worst spectrum deviation "
          f"{worst:.2e}")


def test_adjugate_closed_form_is_exact():
    for n in range(2, 9):
        diag, off = adjugate_negK_closed(n)
        actual = adjugate_exact(char_matrix(-1 * complete_adjacency(n)))
        expected = exact_matrix(
            [[diag if i == j else off for j in range(n)] for i in range(n)]
        )
        assert (actual == expected).all(), f"n={n}"
    print("[PASS] adjugate closed form matches the cofactor adjugate "
          "entry-for-entry, n in [2,8]")


def test_coupling_sandwich_collapses_to_constant():
    checked = 0
    adjugates = {}
    for h in range(2, 7):
        for p in range(1, h + 1):
            for k in range(2, 6):
                params = make_params(h, p, k)
                if h not in adjugates:
                    adjugates[h] = adjugate_exact(
                        char_matrix(-1 * complete_adjacency(h))
                    )
                xp = x_prime_matrix(params)
                product = xp @ adjugates[h] @ xp.T
                c = sandwich_closed(params)
                rows = (params.k - 1) * params.p
                assert product.shape == (rows, rows)
                assert all(
                    product[i, j] == c
                    for i in range(rows)
                    for j in range(rows)
                ), params
                checked += 1
    assert checked == 80
    print(f"[PASS] coupling sandwich equals a constant polynomial times J "
          f"at all {checked} points with h <= 6")


def test_block_determinant_routes_agree():
    rng = random.Random(0xB10C)

    def draw(n):
        return exact_matrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )

    checked = 0
    while checked < 100:
        na, nd = rng.randint(1, 4), rng.randint(1, 4)
        a, d = draw(na), draw(nd)
        if det_exact(d) == 0:
            continue
        b = exact_matrix(
            [[rng.randint(-3, 3) for _ in range(nd)] for _ in range(na)]
        )
        c = exact_matrix(
            [[rng.randint(-3, 3) for _ in range(na)] for _ in range(nd)]
        )
        whole = det_exact(assemble_blocks([[a, b], [c, d]]))
        assert schur_block_det(a, b, c, d) == whole
        assert schur_block_det_adjugate(a, b, c, d) == whole
        checked += 1
    print(f"[PASS] Schur and adjugate block determinants equal det_exact on "
          f"{checked} random integer block matrices")


def test_uniform_block_spectra_with_corrected_count():
    worst = 0.0
    for m in range(1, 7):
        for t in range(1, 7):
            for r, d, b in ((-1, 1, 1), (2, 0, -1), (3, -2, 2)):
                predicted = spectrum_uniform_blocks(r, d, b, m, t)
                assert predicted.dimension == m * t
                numeric = eig_numeric(uniform_block_matrix(r, d, b, m, t))
                dev = max(
                    abs(x - y) for x, y in zip(predicted.approx(), numeric)
                )
                worst = max(worst, dev)
                assert dev <= TOL, (m, t, r, d, b)
    # the swapped secondary count overfills dimension 6 at (m, t) = (2, 3)
    m, t = 2, 3
    assert 1 + (t - 1) + m * (t - 1) == 7
    assert 1 + (t - 1) + t * (m - 1) == 6 == m * t
    assert "(m, t) = (2, 3)" in discrepancy_notes()[1]
    print(f"[PASS] uniform block spectra within {worst:.2e} over m, t in "
          f"[1,6]; swapped multiplicity count rejected by dimension check")


def test_report_flags_eigenvalue_sign_slip(capsys):
    code = main(["verify", "--h", "2", "--p", "1", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  -1  x3" in out
    assert "1 - 2p" in out and "2p - 1" in out
    print("[PASS] report shows eigenvalue -1 = 1 - 2p and flags the "
          "sign-flipped 2p - 1 label")


def test_sweep_runs_are_deterministic(tmp_path):
    paths = (tmp_path / "first.csv", tmp_path / "second.csv")
    for path in paths:
        code = main(["sweep", "--h-max", "4", "--k-max", "4",
                     "--out", str(path)])
        assert code == 0
    bodies = [
        [line.rsplit(",", 1)[0]
         for line in path.read_text(encoding="utf-8").splitlines()]
        for path in paths
    ]
    assert bodies[0] == bodies[1]
    assert bodies[0][0] == "h,p,k,n,exact_match,max_dev"
    print(f"[PASS] two sweep runs identical modulo elapsed_ms: "
          f"{len(bodies[0]) - 1} rows")
