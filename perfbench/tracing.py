"""Spans around memphase's layer boundaries, installed from outside the program.

``Tracer.install`` replaces each function named in ``LAYER_FUNCTIONS`` -- in
its own module and in every memphase module that imported it by name -- with
a wrapper that records a span: name, start, end, parent span and the id of
the benchmark operation it belongs to.  ``DensityMatrix`` (validated
constructions only) and ``PhaseCovariance`` are traced through their
constructors.  Helpers that are not layer boundaries (``spectral_density``,
``check_mu_feasible``, ...) are not wrapped, so their time is part of their
caller's self time.  ``uninstall`` puts the originals back.

Spans are kept in memory in flat arrays and written out once, at the end of
the run.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
LAYER_FUNCTIONS = [
    ("spectrum", "kernel_integral", "spectrum.kernel_integral"),
    ("correlation", "covariance_from_spectrum", "correlation.covariance_from_spectrum"),
    ("correlation", "covariance_from_autocorrelation", "correlation.covariance_from_autocorrelation"),
    ("channel", "apply_channel", "channel.apply_channel"),
    ("channel", "decay_factor", "channel.decay_factor"),
    ("circuit", "apply_gate", "circuit.apply_gate"),
    ("circuit", "gate_unitary", "circuit.gate_unitary"),
    ("codes", "fe_tqc_via_circuit", "codes.fe_tqc_via_circuit"),
    ("montecarlo", "sample_phases_direct", "montecarlo.sample_phases_direct"),
    ("montecarlo", "sample_phases_trajectory", "montecarlo.sample_phases_trajectory"),
    ("montecarlo", "mc_tqc_fidelity", "montecarlo.mc_tqc_fidelity"),
    ("montecarlo", "mc_decay_factor", "montecarlo.mc_decay_factor"),
    ("cli", "cmd_decay", "cli.cmd_decay"),
    ("cli", "cmd_fig2", "cli.cmd_fig2"),
    ("cli", "cmd_fig3", "cli.cmd_fig3"),
    ("cli", "cmd_validate", "cli.cmd_validate"),
]
# the paper's closed-form code formulas, reported together as codes.closed_form
CLOSED_FORMS = (
    "fe_single", "fe_tqc_general", "fe_tqc_memory", "pe_tqc_memory",
    "fe_tqc_approx", "pe_two_qubit",
)
LAYER_FUNCTIONS += [("codes", name, f"codes.{name}") for name in CLOSED_FORMS]

ROOT = "op"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.current_op = -1
        self._stack: list[int] = []
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.gate_keys: set = set()
        self.distinct_gates = 0
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "channel.apply_channel": self._count_apply,
            "circuit.gate_unitary": self._count_gate,
            "montecarlo.sample_phases_direct": self._count_direct,
            "montecarlo.sample_phases_trajectory": self._count_trajectory,
            "montecarlo.mc_tqc_fidelity": self._count_fidelity,
            "montecarlo.mc_decay_factor": self._count_decay,
            "cli.cmd_decay": self._count_rows,
            "cli.cmd_fig2": self._count_rows,
            "cli.cmd_fig3": self._count_rows,
        }

    # --- span recording ---------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self.finish(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- per-layer counts -----------------------------------------------------

    def _count_apply(self, args, kwargs, result):
        rho, cov = args[0], args[1]
        # (dim, dim, N) int64 weight tensor the decay-matrix build materialises
        self.counters["channel.apply_channel.weight_bytes_computed"] += (
            rho.dim * rho.dim * cov.n_uses * 8
        )

    def _count_gate(self, args, kwargs, result):
        self.gate_keys.add((args[0], args[1] if len(args) > 1 else kwargs["n_qubits"]))

    def _count_direct(self, args, kwargs, result):
        self.counters["montecarlo.sample_phases_direct.samples"] += result.shape[0]

    def _count_trajectory(self, args, kwargs, result):
        params, n, dt = args[1], args[3], args[4]
        steps = math.ceil(params.tau_p / dt)
        gaps = params.n_uses - 1 if params.tau > params.tau_p else 0
        self.counters["montecarlo.sample_phases_trajectory.normal_draws"] += (
            n * (1 + params.n_uses * steps + gaps)
        )

    def _count_fidelity(self, args, kwargs, result):
        self.counters["montecarlo.mc_tqc_fidelity.samples"] += result.n_samples

    def _count_decay(self, args, kwargs, result):
        self.counters["montecarlo.mc_decay_factor.samples"] += result.n_samples

    def _count_rows(self, args, kwargs, result):
        self.counters["cli.rows"] += sum(1 for l in result.splitlines() if l[:1].isdigit())

    def end_pass(self) -> None:
        """Close the per-pass distinct-gate tally."""
        self.distinct_gates += len(self.gate_keys)
        self.gate_keys = set()

    # --- install / uninstall ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, attr, span in LAYER_FUNCTIONS:
            home = sys.modules[f"{self.package.__name__}.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        channel = sys.modules[f"{self.package.__name__}.channel"]
        correlation = sys.modules[f"{self.package.__name__}.correlation"]
        self._patch_init(channel.DensityMatrix)
        self._patch_post_init(correlation.PhaseCovariance)

    def _patch_init(self, cls):
        original = cls.__init__
        name = "channel.DensityMatrix"

        @functools.wraps(original)
        def __init__(obj, matrix, *, validate=True):
            if not validate:
                return original(obj, matrix, validate=False)
            idx = self.begin(name)
            try:
                original(obj, matrix, validate=True)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self.finish(idx)

        self._saved.append((cls, "__init__", original))
        cls.__init__ = __init__

    def _patch_post_init(self, cls):
        original = cls.__post_init__
        self._saved.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap("correlation.PhaseCovariance", original)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._saved):
            setattr(obj, key, value)
        self._saved.clear()

    # --- results --------------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self time) of every span."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return np.frombuffer(self.name_id, dtype=np.int32), duration - child

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, summed self time)."""
        names, self_time = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
        )
