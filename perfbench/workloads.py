"""The four workloads: their inputs, their timed operation and its checks.

Each workload has a fixed list of inputs, one pass; the benchmark repeats
whole passes.  ``run`` is the timed operation and touches only the
program.  ``check`` runs after the timer stops and compares the output
with answers from ``reference``, which never calls the program.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import reference

SWEEP_ARGS = ["sweep", "--h-max", "7", "--k-max", "5", "--n-cap", "40", "--format", "json"]
SWEEP_GRID = reference.grid_points(7, 5, 40)

# Cycles have an odd length, so a run's median falls among the middle
# instance's latencies, not on the step between two instances of
# different cost.
# n between 45 and 55, from 6 cliques to 22.
VERIFY_CYCLE = ((15, 3, 11), (12, 4, 10), (20, 5, 7), (11, 2, 22), (25, 6, 6))

# n close to 1000 with similar block work (k * h^2 within 30 %).
NUMERIC_CYCLE = ((70, 10, 95), (50, 7, 136), (100, 20, 46))

H_MAX, K_MAX = 10_000, 1_000
QUERIES_PER_PASS = 200
POOL_PER_QUERY = 256
# The CLI's default --tol, which cubic_root_values also uses as its residual bound.
RESIDUAL_TOL = 1e-9
# Queries whose largest cubic root is so large against the coefficients
# that the float residual check rejects a correct root.  They fail on
# every run and keep their place in every pass, whatever the seed.
KNOWN_FAILING = ((44, 43, 1000), (8326, 1, 2))
EIGEN_CHECK_MAX_N = 300


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def family_argv(command: str, h: int, p: int, k: int) -> list[str]:
    return [command, "--h", str(h), "--p", str(p), "--k", str(k), "--format", "json"]


def expand_spectrum(entries: list[dict]) -> list[float]:
    return [e["value"] for e in entries for _ in range(e["multiplicity"])]


def rotate(cycle: tuple, seed: int) -> list:
    start = seed % len(cycle)
    return list(cycle[start:] + cycle[:start])


class Workload:
    """Base: subclasses set ``inputs`` and define ``run`` and ``check``."""

    def __init__(self, prog, seed: int) -> None:
        self.prog = prog
        self.inputs: list = []
        self._eigs: dict = {}

    def reference_eigenvalues(self, h: int, p: int, k: int) -> np.ndarray:
        key = (h, p, k)
        if key not in self._eigs:
            self._eigs[key] = reference.eigenvalues(h, p, k)
        return self._eigs[key]

    def warm_up(self) -> None:
        self.run(self.warm_up_input)

    def expected_failure(self, item, exc: Exception) -> bool:
        return False


class SweepGrid(Workload):
    """The fixed grid h <= 7, k <= 5, n <= 40; the seed has nothing to vary."""

    warm_up_input = ["sweep", "--h-max", "2", "--k-max", "2", "--n-cap", "40", "--format", "json"]

    def __init__(self, prog, seed: int) -> None:
        super().__init__(prog, seed)
        self.inputs = [SWEEP_ARGS]

    def run(self, argv):
        return call_cli(self.prog.cli, argv)

    def check(self, argv, output) -> str | None:
        code, out, err = output
        rows = json.loads(out)
        points = {(r["h"], r["p"], r["k"], r["n"]) for r in rows}
        if points != SWEEP_GRID or len(rows) != len(SWEEP_GRID):
            return f"sweep points differ from the grid ({len(rows)} rows)"
        bad = [r for r in rows if r.get("exact_match") is not True or not r["max_dev"] <= 1e-9]
        if bad:
            return f"sweep rows failed: {bad[:3]}"
        summary = f"{len(SWEEP_GRID)} passed, 0 failed, 0 skipped"
        if err.strip() != summary or code != 0:
            return f"sweep summary {err.strip()!r}, exit code {code}"
        return None


class VerifyLarge(Workload):
    """A fixed cycle of n = 45..55 instances; the seed picks where it starts."""

    warm_up_input = (3, 1, 2)

    def __init__(self, prog, seed: int) -> None:
        super().__init__(prog, seed)
        self.inputs = rotate(VERIFY_CYCLE, seed)

    def run(self, item):
        return call_cli(self.prog.cli, family_argv("verify", *item))

    def check(self, item, output) -> str | None:
        h, p, k = item
        n = reference.family_n(h, p, k)
        code, out, _ = output
        d = json.loads(out)
        if d["params"] != {"h": h, "p": p, "k": k, "n": n}:
            return f"{item}: params {d['params']}"
        if d["charpoly_exact_match"] is not True or d["coefficient_diffs"]:
            return f"{item}: charpoly mismatch {d['coefficient_diffs'][:3]}"
        if not d["invariants"] or not all(v is True for v in d["invariants"].values()):
            return f"{item}: invariants {d['invariants']}"
        if sum(e["multiplicity"] for e in d["eigenvalues"]) != n:
            return f"{item}: multiplicities do not sum to {n}"
        if not reference.spectra_agree(expand_spectrum(d["eigenvalues"]),
                                       self.reference_eigenvalues(h, p, k)):
            return f"{item}: closed-form eigenvalues differ from numpy's"
        if code != 0:
            return f"{item}: exit code {code}"
        return None


class NumericLarge(Workload):
    """The numeric referee alone at n near 1000; the seed picks where the cycle starts."""

    warm_up_input = (3, 1, 2)

    def __init__(self, prog, seed: int) -> None:
        super().__init__(prog, seed)
        self.inputs = rotate(NUMERIC_CYCLE, seed)

    def run(self, item):
        prog = self.prog
        params = prog.family.make_params(*item)
        matrix = prog.family.seidel_matrix(params)
        numeric = prog.verify.eig_numeric(matrix)
        closed = prog.closedform.spectrum_closed(params).approx()
        deviation = max(abs(a - b) for a, b in zip(closed, numeric))
        return numeric, closed, deviation

    def check(self, item, output) -> str | None:
        numeric, closed, deviation = output
        n = reference.family_n(*item)
        expected = self.reference_eigenvalues(*item)
        if not reference.spectra_agree(list(numeric), expected):
            return f"{item}: eig_numeric differs from numpy's eigenvalues"
        if not reference.spectra_agree(list(closed), expected):
            return f"{item}: closed-form spectrum differs from numpy's eigenvalues"
        if not deviation <= 1e-8 * max(1.0, float(np.max(np.abs(expected)))):
            return f"{item}: closed form and eig_numeric differ by {deviation}"
        values = np.asarray(numeric)
        total, squares = float(values.sum()), float(values @ values)
        if abs(total) > 1e-9 * n * (n - 1) or abs(squares - n * (n - 1)) > 1e-9 * n * (n - 1):
            return f"{item}: trace {total} or trace of S^2 {squares} is off"
        return None


def _log_uniform(rng: np.random.Generator, lo, hi, size: int) -> np.ndarray:
    draw = np.rint(np.exp(rng.uniform(np.log(lo), np.log(hi), size)))
    return np.clip(draw, lo, hi)


def _rounding_over_tolerance(c: np.ndarray) -> np.ndarray:
    """Bound on the float residual of each cubic at its roots, over the CLI's tolerance.

    The bound is 8 eps (sum |c_i| r^i + r |s'|(r)): Horner rounding plus a
    root a few ulps off.  Below 1 the residual check cannot fail.
    """
    companion = np.zeros((len(c), 3, 3))
    companion[:, 0, :] = -c[:, [2, 1, 0]] / c[:, [3]]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    r = np.abs(np.linalg.eigvals(companion))
    a = np.abs(c)[:, None, :]
    powers = r[:, :, None] ** np.arange(4)
    value = (a * powers).sum(axis=2)
    slope = (a[:, :, 1:] * np.arange(1, 4) * powers[:, :, :3]).sum(axis=2)
    bound = 8 * np.finfo(float).eps * (value + r * slope)
    scale = np.maximum(1.0, np.abs(c).max(axis=1))
    return bound.max(axis=1) / (RESIDUAL_TOL * scale)


def _safe_near_middle(cubics: np.ndarray, members: np.ndarray) -> int:
    """The member nearest the middle of its slice whose residual check cannot fail."""
    offsets = np.abs(np.arange(len(members)) - len(members) // 2)
    nearest = members[np.argsort(offsets, kind="stable")]
    for start in range(0, len(nearest), 16):
        block = nearest[start:start + 16]
        safe = block[_rounding_over_tolerance(cubics[block]) < 1.0]
        if len(safe):
            return int(safe[0])
    raise ValueError("no query in this slice passes the residual bound")


def closed_form_queries(seed: int) -> list[tuple[int, int, int]]:
    """QUERIES_PER_PASS seeded queries plus KNOWN_FAILING at fixed places.

    h, p and k are log-uniform on [2, 10^4], [1, h] and [2, 10^3].  A pool
    of POOL_PER_QUERY draws per query is sorted by |c0|, which sets the
    cost of the cubic's divisor search, and each of QUERIES_PER_PASS equal
    slices gives its middle query.  Every seed thus gets the same spread
    of costs, heavy tail included.  A middle draw whose residual check
    could reject a correct root gives way to the nearest one that cannot.
    """
    rng = np.random.default_rng(seed)
    size = QUERIES_PER_PASS * POOL_PER_QUERY
    h = _log_uniform(rng, 2, H_MAX, size)
    p = _log_uniform(rng, 1, h, size)
    k = _log_uniform(rng, 2, K_MAX, size)
    c0, c1, c2, _ = reference.quotient_cubic(h, p, k)
    cubics = np.stack([c0, c1, c2, np.full(size, -1.0)], axis=1)
    order = np.argsort(np.abs(c0), kind="stable")
    edges = np.linspace(0, size, QUERIES_PER_PASS + 1).astype(int)
    chosen = [_safe_near_middle(cubics, order[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    queries = [(int(h[i]), int(p[i]), int(k[i])) for i in rng.permutation(chosen)]
    for slot, query in enumerate(KNOWN_FAILING, start=1):
        queries.insert(slot * len(queries) // (len(KNOWN_FAILING) + 1), query)
    return queries


class ClosedForm(Workload):
    """spectrum then charpoly for each seeded query; no matrix is built."""

    warm_up_input = (3, 1, 2)

    def __init__(self, prog, seed: int) -> None:
        super().__init__(prog, seed)
        self.inputs = closed_form_queries(seed)

    def run(self, item):
        cli = self.prog.cli
        spectrum = call_cli(cli, family_argv("spectrum", *item))
        charpoly = call_cli(cli, family_argv("charpoly", *item))
        return spectrum, charpoly

    def expected_failure(self, item, exc: Exception) -> bool:
        return (
            item in KNOWN_FAILING
            and isinstance(exc, self.prog.errors.InternalError)
            and "root residual" in str(exc)
        )

    def check(self, item, output) -> str | None:
        h, p, k = item
        n = reference.family_n(h, p, k)
        (s_code, s_out, _), (c_code, c_out, _) = output
        if s_code != 0 or c_code != 0:
            return f"{item}: exit codes {s_code}, {c_code}"
        spec, poly = json.loads(s_out), json.loads(c_out)
        cubic = spec["cubic"]
        if spec["n"] != n or poly["n"] != n or poly["cubic"] != cubic:
            return f"{item}: n or cubic differ between spectrum and charpoly"
        if not reference.trace_identities_hold(h, p, k, cubic):
            return f"{item}: cubic {cubic} breaks the trace identities"
        if tuple(cubic) != reference.quotient_cubic(h, p, k):
            return f"{item}: cubic {cubic} is not the quotient's characteristic polynomial"
        factors = [{"root": 1 - 2 * p, "exponent": k - 2}, {"root": 1, "exponent": n - k - 1}]
        if poly["degree"] != n or poly["factors"] != factors:
            return f"{item}: degree {poly['degree']}, factors {poly['factors']}"
        if sum(e["multiplicity"] for e in spec["eigenvalues"]) != n:
            return f"{item}: multiplicities do not sum to {n}"
        if n <= EIGEN_CHECK_MAX_N and not reference.spectra_agree(
            expand_spectrum(spec["eigenvalues"]), self.reference_eigenvalues(h, p, k)
        ):
            return f"{item}: eigenvalues differ from numpy's"
        return None


WORKLOADS = {
    "sweep-grid": SweepGrid,
    "verify-large": VerifyLarge,
    "numeric-large": NumericLarge,
    "closed-form": ClosedForm,
}
