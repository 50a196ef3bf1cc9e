"""One workload in one process: warm up, run whole passes over the deck, check every output.

Started by run.py, which sets PYTHONPATH to the checkout's src/ and clears
MEMPHASE_WORKERS.  Prints one JSON object as its last line.

With --setup it only imports memphase and makes the deck's first call, so
that run.py can time interpreter start, import and first-call cost together.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import decks
import memphase
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Other tenants of the host only ever add time, and over 4 s windows they move
# the median of a fixed task by up to half; so each deck entry's latency is
# its fastest call over at least MIN_PASSES untraced passes, and a pass's time
# is the sum of those.
MIN_PASSES = 3


def _check_program_source() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(memphase.__file__).startswith(src + os.sep):
        sys.exit(f"memphase imported from {memphase.__file__}, not from {src}")


def _blas_info() -> dict:
    """BLAS library and the thread count it runs with."""
    import ctypes

    info = {"library": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({l.split()[-1] for l in fh if "openblas" in l and l.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    info["threads"] = None
    return info


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Counts and timings of one process's passes."""

    def __init__(self, deck, prepared):
        self.deck = deck
        self.prepared = prepared
        self.reports: dict = {}
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []
        # fastest untraced call of each deck entry
        self.best = [math.inf] * len(deck)

    def one_pass(self, tracer=None) -> float:
        """Run every deck entry once; returns the summed time of the calls."""
        wall = 0.0
        for i, (op, prepared) in enumerate(zip(self.deck, self.prepared)):
            error = None
            if tracer is not None:
                tracer.current_op = i
                root = tracer.begin(tracing.ROOT)
            t0 = time.perf_counter()
            try:
                output = workloads.run(op, prepared)
            except Exception as exc:  # a failing operation is counted, not fatal
                error = workloads.classify_exception(op, exc)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.finish(root)
                t0, t1 = tracer.start[root], tracer.end[root]
            wall += t1 - t0
            if tracer is None:
                self.best[i] = min(self.best[i], t1 - t0)
            self.attempted += 1
            if error is None:
                try:
                    error = workloads.check(op, prepared, output, self.reports)
                except Exception as exc:  # malformed output
                    error = f"{op['kind']}: check raised {exc!r}"
                del output
            if error is not None:
                self.failed += 1
                if isinstance(error, workloads.KnownFault):
                    self.known[error.name] = self.known.get(error.name, 0) + 1
                elif len(self.unexpected) < 20:
                    self.unexpected.append(error)
        if tracer is not None:
            tracer.end_pass()
        return wall


def per_layer_metrics(tracer, traced_walls, untraced_walls) -> dict:
    """Per-pass averages of the traced passes."""
    passes = len(traced_walls)
    totals = tracer.layer_totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / passes

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / passes

    m: dict[str, tuple[float, str]] = {}
    for name in (
        "spectrum.kernel_integral", "correlation.covariance_from_spectrum",
        "correlation.covariance_from_autocorrelation", "correlation.PhaseCovariance",
        "channel.apply_channel", "channel.DensityMatrix", "channel.decay_factor",
        "circuit.apply_gate", "circuit.gate_unitary", "codes.fe_tqc_via_circuit",
        "montecarlo.sample_phases_direct", "montecarlo.sample_phases_trajectory",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["spectrum.kernel_integral.raised"] = (
        tracer.raised.get("spectrum.kernel_integral", 0) / passes, "count")
    m["channel.apply_channel.weight_bytes_computed"] = (
        counters["channel.apply_channel.weight_bytes_computed"] / passes, "bytes")
    gate_calls = totals.get("circuit.gate_unitary", (0, 0.0))[0]
    m["circuit.gate_unitary.distinct_ratio"] = (
        tracer.distinct_gates / gate_calls if gate_calls else 0.0, "ratio")
    closed = [f"codes.{n}" for n in tracing.CLOSED_FORMS]
    m["codes.closed_form.calls"] = (sum(calls(n) for n in closed), "count")
    m["codes.closed_form.self_s"] = (sum(self_s(n) for n in closed), "s")
    m["montecarlo.sample_phases_direct.samples"] = (
        counters["montecarlo.sample_phases_direct.samples"] / passes, "count")
    m["montecarlo.sample_phases_trajectory.normal_draws"] = (
        counters["montecarlo.sample_phases_trajectory.normal_draws"] / passes, "count")
    for name in ("montecarlo.mc_tqc_fidelity", "montecarlo.mc_decay_factor"):
        m[f"{name}.samples"] = (counters[f"{name}.samples"] / passes, "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for cmd in ("decay", "fig2", "fig3", "validate"):
        m[f"cli.cmd_{cmd}.self_s"] = (self_s(f"cli.cmd_{cmd}"), "s")
    m["cli.rows"] = (counters["cli.rows"] / passes, "count")

    traced = sum(traced_walls) / passes
    untraced = sum(untraced_walls) / len(untraced_walls)
    layer_self = sum(t for name, (_, t) in totals.items() if name != tracing.ROOT) / passes
    all_self = sum(t for _, t in totals.values())
    if all_self > sum(traced_walls) * (1 + 1e-9):
        raise RuntimeError(f"span self times {all_self} exceed traced wall {sum(traced_walls)}")
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.self_total_s"] = (layer_self, "s")
    m["trace.spans"] = (len(tracer.start) / passes, "count")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()

    _check_program_source()
    deck = decks.make_deck(args.workload, args.seed)
    if args.setup:
        workloads.run(deck[0], workloads.prepare(deck[0]))
        return 0

    prepared = [workloads.prepare(op) for op in deck]
    run = Run(deck, prepared)
    # untimed warm-up call of the first operation; its output is checked too
    warm = workloads.run(deck[0], prepared[0])
    if workloads.check(deck[0], prepared[0], warm, run.reports) is not None:
        run.unexpected.append("warm-up call failed its check")
    del warm

    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(memphase)
    t_start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced_walls) > len(traced_walls):
            tracer.install()
            try:
                traced_walls.append(run.one_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced_walls.append(run.one_pass())
        balanced = tracer is None or len(traced_walls) == len(untraced_walls)
        enough = len(untraced_walls) >= MIN_PASSES
        if balanced and enough and time.perf_counter() - t_start >= args.seconds:
            break

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "known_faults": run.known,
        "unexpected": run.unexpected,
        "passes": len(untraced_walls) + len(traced_walls),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "memphase": memphase.__version__,
        },
        "blas": _blas_info(),
    }
    if tracer is None:
        lat_ms = [1e3 * x for x in run.best]
        result["metrics"] = {
            "wall_s": (sum(run.best), "s"),
            "op_p50_ms": (_quantile(lat_ms, 50), "ms"),
            "op_p90_ms": (_quantile(lat_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        result["metrics"] = per_layer_metrics(tracer, traced_walls, untraced_walls)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.npz")
        tracer.save(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
