"""Closed-form results checked against oracles that never see the formulas.

Two independent referees: an exact characteristic polynomial computed
straight from matrix entries, and a numeric symmetric eigensolver.  A
mismatch is data, not a crash; reports carry the full coefficient diff so
a formula error shows up as exactly the coefficients it breaks.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .errors import ComplexRoots, InvalidParams, NotSymmetric, UnsupportedShape
from .closedform import FactoredCharPoly, Spectrum, charpoly_closed, spectrum_closed
from .family import FamilyParams, make_params, seidel_matrix
from .linalg import _charpoly_factored, _checked_matrix, trace_exact
from .polynomial import UniPoly, _times_linear_powers

__all__ = [
    "InvariantResults",
    "VerificationReport",
    "SweepSummary",
    "eig_numeric",
    "verify_instance",
    "sweep",
    "discrepancy_notes",
]

DEFAULT_N_CAP = 40

#: Largest n that verify_instance takes: its int8 matrix and the exact referees
#: need at most about 150 MB and 2 s on 2 cores (many cliques of 2, k = 5000).
N_MAX = 10_000

#: Largest n for the numeric referee (two 8n^2 float copies), for expanding
#: a polynomial (``charpoly --expanded``, a mismatch's diff) and for ``export``.
DENSE_N_MAX = 3000

#: Most (h, p, k) points a sweep takes, skipped ones included.
SWEEP_POINTS_MAX = 10**6

#: Most summed cost of the points a sweep verifies, n^3 each (eigvalsh).  10^12
#: is 75-140 s of eigvalsh at n = 1000 (2 cores or 1); the grid h <= 1413,
#: k <= 2, n <= 3000, days of work, costs 4.2e15.
SWEEP_COST_MAX = 10**12


class InvariantResults(NamedTuple):
    """Named pass/fail flags for the per-instance structural identities."""

    trace_zero: bool
    sum_squares: bool
    degree: bool
    vieta_trace: bool

    def all_pass(self) -> bool:
        return all(self)


class VerificationReport(NamedTuple):
    params: FamilyParams
    charpoly_exact_match: bool
    coefficient_diffs: tuple[tuple[int, int, int], ...]
    spectrum_max_deviation: float
    invariant_results: InvariantResults
    elapsed: float
    #: closed-form spectrum; None when its cubic is not (1 - 2p - x) times a real-rooted q
    spectrum: Spectrum | None = None
    #: the numeric referee did not run (n > DENSE_N_MAX); the deviation is nan
    numeric_skipped: bool = False

    def passed(self, tol: float = 1e-9) -> bool:
        # tol bounds the deviation down to eigvalsh's rounding error, n * max |lambda| * 2^-52
        entries = self.spectrum.entries if self.spectrum is not None else ()
        top = max((abs(float(value)) for value, _ in entries), default=0.0)
        return (
            self.charpoly_exact_match
            and (self.spectrum_max_deviation <= max(tol, self.params.n * top * 2.0**-52)
                 or self.numeric_skipped and self.spectrum is not None)
            and self.invariant_results.all_pass()
        )


class SweepSummary(NamedTuple):
    grid: str
    reports: tuple[VerificationReport, ...]
    passed: int
    failed: int
    skipped: tuple[FamilyParams, ...]
    errors: tuple[tuple[FamilyParams, str], ...]


def eig_numeric(m: object) -> tuple[float, ...]:
    """All eigenvalues of an exactly symmetric matrix, sorted descending:
    ``eigvalsh``'s ascending output reversed, not sorted again.

    Signed-integer arrays are used as they are; other input goes through
    ``exact_matrix`` once, which rejects floats.  Symmetry is checked
    exactly, before any rounding.  The numeric path is advisory (the exact
    path is authoritative), so a standard dense symmetric solver is enough.
    """
    a = _checked_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is not square: shape {a.shape}")
    if not (a == a.T).all():
        # the first offending entry in row order lies above the diagonal
        i, j = np.argwhere(a != a.T)[0].tolist()
        raise NotSymmetric(
            f"entry ({i},{j}) = {a[i, j]} differs from ({j},{i}) = {a[j, i]}"
        )
    values = np.linalg.eigvalsh(a if a.dtype.kind == "i" else a.astype(float))
    return tuple(values[::-1].tolist())


def _same_product(factored: FactoredCharPoly, residual: UniPoly,
                  roots: dict[int, int]) -> bool:
    """Whether the closed form's product equals residual * prod (root - x)^e
    over the oracle's roots, unexpanded: the linear factors both sides hold
    cancel, and only what is left of each side is expanded and compared.
    Plain dicts: each side holds at most two roots, too few to pay for Counters."""
    closed = {factored.root1: factored.e1}
    closed[factored.root2] = closed.get(factored.root2, 0) + factored.e2
    oracle = dict(roots)
    for root in closed.keys() & oracle.keys():
        common = min(closed[root], oracle[root])
        closed[root] -= common
        oracle[root] -= common
    sides = ((UniPoly(factored.cubic), closed), (residual, oracle))
    # one side's leftover roots must divide the other's polynomial: at most its degree of them
    if any(sum(own.values()) > other.degree for (_, own), (other, _) in zip(sides, sides[::-1])):
        return False
    left = [_times_linear_powers(poly, [(r, e) for r, e in own.items() if e])
            for poly, own in sides]
    return left[0] == left[1]


def _degree_and_third(residual: UniPoly, roots: dict[int, int]) -> tuple[int, int]:
    """Degree and x^(degree - 2) coefficient of residual * prod (root - x)^e:
    (-1)^E (r0*s2 - r1*s1 + r2) for the residual's leading coefficients
    r0, r1, r2 and the elementary sums s1, s2 of the E linear roots."""
    exponent = sum(roots.values())
    s1 = sum(e * root for root, e in roots.items())
    s2 = (s1 * s1 - sum(e * root * root for root, e in roots.items())) // 2
    r0, r1, r2 = (residual.coeffs[::-1] + (0, 0))[:3]
    return residual.degree + exponent, (-1) ** exponent * (r0 * s2 - r1 * s1 + r2)


def verify_instance(params: FamilyParams) -> VerificationReport:
    """Compare the factored characteristic polynomial against both oracles (n <= N_MAX);
    above DENSE_N_MAX without the numeric one, and a mismatch without a diff.
    The report holds the numeric deviation; ``VerificationReport.passed(tol)`` judges it."""
    if params.n > N_MAX:
        raise UnsupportedShape(f"n = {params.n} is above N_MAX = {N_MAX}")
    start = time.perf_counter()
    n = params.n
    dense = n <= DENSE_N_MAX
    seidel = seidel_matrix(params)
    factored = charpoly_closed(params)
    # the factored match and the invariants read the closed form here, and nowhere else
    root1, e1, root2, e2, (_, c1, c2, c3) = factored
    residual, roots = _charpoly_factored(seidel)
    diffs: tuple[tuple[int, int, int], ...] = ()
    # a negative exponent is no polynomial, and the expansion refuses it
    match = min(e1, e2) >= 0 and _same_product(factored, residual, roots)
    if not match and dense:
        # only a mismatch pays for expanding both sides into a diff
        closed = factored.expand()
        oracle = _times_linear_powers(residual, roots.items())
        diffs = tuple((deg, closed.coeff(deg), oracle.coeff(deg))
                      for deg in range(max(closed.degree, oracle.degree) + 1)
                      if closed.coeff(deg) != oracle.coeff(deg))
    numeric = eig_numeric(seidel) if dense else ()
    try:
        spectrum = spectrum_closed(params)
        # nan: the referee was skipped
        max_dev = max((abs(a - b) for a, b in zip(spectrum.approx(), numeric)), default=math.nan)
    except ComplexRoots:
        # such a cubic gives the family no spectrum: the referee rejects it
        spectrum, max_dev = None, float("inf")

    sum_sq_coeff = (-1) ** n * (-(n * (n - 1)) // 2)
    # eigvalsh moves each value by at most e = n * max|lambda| * 2^-52, as in passed(), so
    # sum lambda^2 by 2e * sum|lambda| + n * e^2; the float sum rounds by n * sum * 2^-52
    squares = sum(v * v for v in numeric)
    e = n * max(map(abs, numeric[:1] + numeric[-1:]), default=0.0) * 2.0**-52
    squares_gate = max(1e-6, 2 * e * sum(map(abs, numeric)) + n * e * e + n * squares * 2.0**-52)
    trace = trace_exact(seidel)
    # tr S^2 for symmetric S is the sum of its squared entries; exact in
    # int64 (int8 would wrap), as the entries are -1, 0 or 1 and n^2 < 2^63
    trace_sq = int(np.einsum("ij,ij->", seidel, seidel, dtype=np.int64))
    oracle_degree, oracle_third = _degree_and_third(residual, roots)
    invariants = InvariantResults(
        trace_zero=trace == 0,
        # the cubic's roots' squares sum to (c2^2 - 2*c1*c3)/c3^2; with the
        # linear factors' e1*root1^2 + e2*root2^2 they must give tr S^2
        sum_squares=(
            oracle_third == sum_sq_coeff
            and (not dense or abs(squares - n * (n - 1)) <= squares_gate)
            and c3 * c3 * (e1 * root1 * root1 + e2 * root2 * root2 - trace_sq)
            + c2 * c2 - 2 * c1 * c3 == 0
        ),
        # a spectrum's dimension too: the numeric referee's zip stops at the shorter side
        degree=(oracle_degree == factored.degree == n
                and (spectrum is None or spectrum.dimension == n)),
        # the cubic's roots sum to -c2/c3, the linear factors' eigenvalues
        # to e1*root1 + e2*root2; together they must give tr S
        vieta_trace=c3 * (e1 * root1 + e2 * root2 - trace) == c2,
    )
    return VerificationReport(
        params=params, charpoly_exact_match=match, coefficient_diffs=diffs,
        spectrum_max_deviation=float(max_dev), invariant_results=invariants,
        elapsed=time.perf_counter() - start, spectrum=spectrum, numeric_skipped=not dense)


def sweep(
    h_max: int,
    k_max: int,
    tol: float = 1e-9,
    n_cap: int = DEFAULT_N_CAP,
) -> SweepSummary:
    """verify_instance over h in [2, h_max], p in [1, h], k in [2, k_max].

    Points with n above ``n_cap`` are skipped and listed.  Iteration order
    is (h, p, k) ascending and the summary is deterministic; per-point
    exceptions are recorded, never raised.  A grid of more than
    SWEEP_POINTS_MAX points, or whose verified points cost more than
    SWEEP_COST_MAX, is refused before any point runs.
    """
    if h_max < 2 or k_max < 2:
        raise InvalidParams(f"sweep bounds must be >= 2 (got h_max={h_max}, k_max={k_max})")
    points = (k_max - 1) * (h_max * (h_max + 1) // 2 - 1)
    if points > SWEEP_POINTS_MAX:
        raise InvalidParams(f"the grid has {points} points, above SWEEP_POINTS_MAX = "
                            f"{SWEEP_POINTS_MAX}")
    # n = h + (k - 1) * p for p = 1 .. h, up to n_cap
    cost = sum(n ** 3 for h in range(2, h_max + 1) for k in range(2, k_max + 1)
               for n in range(h + k - 1, min(h * k, n_cap) + 1, k - 1))
    if cost > SWEEP_COST_MAX:
        raise InvalidParams(f"the grid's verified points cost {cost} (n^3 each), above "
                            f"SWEEP_COST_MAX = {SWEEP_COST_MAX}")
    reports: list[VerificationReport] = []
    skipped: list[FamilyParams] = []
    errors: list[tuple[FamilyParams, str]] = []
    for h in range(2, h_max + 1):
        for p in range(1, h + 1):
            for k in range(2, k_max + 1):
                params = make_params(h, p, k)
                if params.n > n_cap:
                    skipped.append(params)
                    continue
                try:
                    report = verify_instance(params)
                except Exception as exc:
                    errors.append((params, f"{type(exc).__name__}: {exc}"))
                    continue
                reports.append(report)
    passed = sum(1 for r in reports if r.passed(tol))
    failed = len(reports) - passed + len(errors)
    grid = f"h in [2,{h_max}], p in [1,h], k in [2,{k_max}], n <= {n_cap}"
    return SweepSummary(grid=grid, reports=tuple(reports), passed=passed, failed=failed,
                        skipped=tuple(skipped), errors=tuple(errors))


def discrepancy_notes() -> tuple[str, ...]:
    """Corrections worth repeating with every report.

    These are easy sign and bookkeeping slips in quoted forms of these
    spectra; the package implements the corrected versions, and the notes
    keep the reasons attached to the numbers.
    """
    return (
        "the factor (1 - 2p - x) vanishes at x = 1 - 2p, so the eigenvalue it "
        "forces is 1 - 2p; the sign-flipped label 2p - 1 is wrong for every "
        "p >= 1 (p = 1 gives eigenvalue -1, not +1).",
        "uniform block matrices with t blocks of order m: the secondary "
        "eigenvalue has multiplicity t*(m - 1); the swapped count m*(t - 1) "
        "breaks the dimension total at (m, t) = (2, 3), where "
        "1 + (t - 1) + m*(t - 1) = 7 in dimension 6.",
        "the eigenvalue-1 exponent is n - 2 - (n - h)/p exactly; lower bounds "
        "of the form n - h - (n - h)/p understate it whenever h > 2.",
    )
