"""Tests of the benchmark itself: its reference answers, its checks and its quick mode.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("params", [(3, 1, 2), (2, 2, 3), (5, 2, 4), (7, 7, 2), (6, 3, 5)])
def test_quotient_cubic_gives_the_three_remaining_eigenvalues(params):
    h, p, k = params
    n = reference.family_n(h, p, k)
    rest = [1 - 2 * p] * (k - 2) + [1] * (n - k - 1)
    roots = np.roots(list(reversed(reference.quotient_cubic(h, p, k))))
    assert reference.spectra_agree(rest + list(roots.real), reference.eigenvalues(h, p, k))


def test_trace_identities_reject_a_perturbed_cubic():
    cubic = list(reference.quotient_cubic(20, 5, 7))
    assert reference.trace_identities_hold(20, 5, 7, cubic)
    for degree in (1, 2):
        bent = list(cubic)
        bent[degree] += 1
        assert not reference.trace_identities_hold(20, 5, 7, bent)


def test_closed_form_queries_repeat_and_keep_the_failing_share():
    first = workloads.closed_form_queries(3)
    assert first == workloads.closed_form_queries(3)
    assert first != workloads.closed_form_queries(4)
    for seed in (1, 2, 3):
        queries = workloads.closed_form_queries(seed)
        assert len(queries) == workloads.QUERIES_PER_PASS + len(workloads.KNOWN_FAILING)
        assert [q for q in queries if q in workloads.KNOWN_FAILING] == list(workloads.KNOWN_FAILING)


def test_closed_form_check_catches_a_wrong_constant_term():
    import seidelspectra
    import seidelspectra.cli  # noqa: F401

    work = workloads.ClosedForm(seidelspectra, 0)
    item = (20, 5, 7)
    spectrum, charpoly = work.run(item)
    assert work.check(item, (spectrum, charpoly)) is None
    payload = json.loads(spectrum[1])
    payload["cubic"][0] += 1
    bent = (spectrum[0], json.dumps(payload), spectrum[2])
    assert work.check(item, (bent, charpoly)) is not None


def test_quick_mode_passes_every_check():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    lines = dict(line.split(": ", 1) for line in done.stdout.strip().splitlines())
    assert set(lines) == set(workloads.WORKLOADS)
    closed = json.loads(lines["closed-form"])
    assert closed["failed"] == len(workloads.KNOWN_FAILING)
    assert all(json.loads(v)["failed"] == 0 for k, v in lines.items() if k != "closed-form")
