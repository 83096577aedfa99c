"""One workload in one fresh interpreter; run.py starts it.

Set-up is everything from the interpreter's start to the first timed
operation: importing numpy and the program, making the inputs and one
warm-up operation.  The timed loop then repeats whole passes over the
inputs, one operation in flight at a time, until ``--seconds`` have
passed.  Every pass starts with the program's caches empty, as a fresh
CLI process would find them.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--passes", type=int, default=0,
                        help="stop after this many passes instead of after --seconds")
    return parser.parse_args()


def load_program(src: Path):
    import seidelspectra
    import seidelspectra.cli  # noqa: F401  (not imported by the package itself)

    location = Path(seidelspectra.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"seidelspectra was imported from {location}, not from {src}")
    return seidelspectra


def clear_caches(prog) -> None:
    """Empty every functools cache that a program module holds."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith(prog.__name__):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def measure(workload, prog, seconds: float, passes: int, tracer=None) -> dict:
    latencies: list[float] = []
    ok_ops: set[int] = set()
    attempted = failed = 0
    timed = 0.0
    problems: list[str] = []
    op_id = 0
    done = 0
    started = time.monotonic()
    while True:
        clear_caches(prog)
        gc.collect()
        for item in workload.inputs:
            op_id += 1
            error = None
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                output = workload.run(item)
            except Exception as exc:  # an operation's failure is data
                error = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            attempted += 1
            timed += t1 - t0
            if error is not None:
                failed += 1
                if not workload.expected_failure(item, error):
                    problems.append(f"{item}: {type(error).__name__}: {error}")
                continue
            try:
                problem = workload.check(item, output)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"{item}: unreadable output ({type(exc).__name__}: {exc})"
            if problem is not None:
                failed += 1
                problems.append(problem)
                continue
            latencies.append(t1 - t0)
            ok_ops.add(op_id)
        done += 1
        if (passes and done >= passes) or (not passes and time.monotonic() - started >= seconds):
            break
    latencies.sort()
    ms = [x * 1000.0 for x in latencies]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": done,
        "ok_ops": ok_ops,
        "ops_per_s": len(latencies) / timed,
        "op_p50_ms": statistics.median(ms) if ms else 0.0,
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else max(ms, default=0.0),
    }


def main() -> int:
    args = parse_args()
    here = Path(__file__).resolve().parent
    prog = load_program(here.parent / "src")
    import workloads

    workload = workloads.WORKLOADS[args.workload](prog, args.seed)
    workload.warm_up()
    clear_caches(prog)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(prog)
    result = measure(workload, prog, args.seconds, args.passes, tracer)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    out = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": result["passes"],
        "setup_s": setup_s,
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"], out["absent"] = tracer.metrics(result["ok_ops"])
        trace_file = here / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "op_p50_ms": result["op_p50_ms"], "absent": out["absent"],
                       "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": tracer.spans}, handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
