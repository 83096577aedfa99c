#!/usr/bin/env python3
"""Benchmark of the seidelspectra verification loop.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in a fresh single-process interpreter with BLAS pinned
to one thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--quick`` runs one pass of every workload with every check and exits 0
only if all of them are correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-grid", "verify-large", "numeric-large", "closed-form")
# Set-up is timed in this many fresh interpreters and reported as the median.
SETUP_SAMPLES = 7
# Together under the 180 s a run may take: 6 set-up samples and the timed run.
SETUP_TIMEOUT_S = 8
RUN_TIMEOUT_S = 120
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float,
               *extra: str) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON line."""
    spawned_at = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--spawned-at", repr(spawned_at), *extra]
    try:
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: worker stopped after {timeout} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def setup_sample(workload: str, seed: int) -> float:
    return run_worker(workload, seed, 0, 0, SETUP_TIMEOUT_S, "--setup-only")["setup_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: int, passes: int = 0) -> dict:
    OUT.mkdir(exist_ok=True)
    extra = ["--passes", str(passes)] if passes else []
    if trace:
        main = run_worker(workload, seed, seconds, 1, RUN_TIMEOUT_S, *extra)
        metrics = main["layers"]
        for name in main["absent"]:
            print(f"absent from the program: {name}", file=sys.stderr)
    else:
        # Half the set-up samples before the timed run and half after it.
        before = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES // 2)]
        main = run_worker(workload, seed, seconds, 0, RUN_TIMEOUT_S, *extra)
        after = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES // 2)]
        main["setup_s"] = statistics.median(before + [main["setup_s"]] + after)
        metrics = {name: {"value": main[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": main["correct"], "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    stem = f"result-{workload}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "passes": main["passes"]}) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of every workload, every check, no timing claims")
    args = parser.parse_args()
    if not (SRC / "seidelspectra" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'seidelspectra'}", file=sys.stderr)
        return 2
    if args.quick:
        results = {w: run_workload(w, args.seed, 0, args.trace, passes=1) for w in WORKLOADS}
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
