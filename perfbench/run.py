"""memphase benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own process
(worker.py) against the checkout's src/.  With --trace 0 it first times
set-up SETUP_REPEATS times in fresh interpreters, then reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it is the run record (commit, versions, BLAS, seed, known faults).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from decks import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# one BLAS thread: the numbers then do not depend on how busy the other core is
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


def _source_digest() -> str:
    src = os.path.join(ROOT, "src", "memphase")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of the checkout, if it is a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MEMPHASE_WORKERS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, WORKER, *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "memphase", "__init__.py")):
        print(f"no memphase sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = _worker(common + ["--setup"], env, deadline)
            setup_times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print("set-up run failed", file=sys.stderr)
                return 1

    proc = _worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "versions": result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": result["blas"],
        "memphase_workers": None,
        "passes": result["passes"],
        "known_faults": result["known_faults"],
        "unexpected_failures": result["unexpected"],
        "setup_runs_s": setup_times,
    }
    if "trace_file" in result:
        record["trace_file"] = result["trace_file"]
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
