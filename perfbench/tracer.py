"""Per-layer counters and timers installed around nmflow from the outside.

`Tracer.install()` replaces each traced function at every place a caller looks
it up: module attributes in every loaded nmflow module (``witness`` and
``divisibility`` import ``apply_map`` by name, so patching
``channels.apply_map`` alone would miss their calls), the experiment table
``cli.RUNNERS``, methods on the channel and rate classes, and
``numpy.linalg.eigh``/``eigvalsh``, which every nmflow layer calls directly.
`Tracer.uninstall()` puts the originals back. Times are inclusive of callees;
a call nested inside another call of the same metric is neither counted nor
timed again.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

EXPERIMENTS = ("physicality", "divisibility-scan", "eb-time", "mi-scan", "gadc-scan",
               "probe-backflow", "hessian-check", "povm-bound", "pg-counterexample")

# Plain functions, as (module, function); the metric prefix is "module.function".
FUNCTIONS = (
    ("channels", "apply_map"),
    ("correlations", "mutual_information"),
    ("correlations", "negativity"),
    ("qmat", "partial_trace"),
    ("witness", "mi_series"),
    ("witness", "min_t_nm_scan"),
    ("witness", "scan_backflow"),
    ("witness", "gadc_epsilon_scan"),
    ("witness", "find_t_eb"),
    ("mepovm", "c2_A"),
    ("divisibility", "is_p_qubit"),
    ("divisibility", "classify_intervals"),
    ("cli", "write_csv"),
)

# Metrics the wrappers' after-hooks accumulate, rather than call counts or times.
COUNTED_EXTRAS = ("qmat.eigvalsh_matrices", "mepovm.c2_A_iterations", "cli.csv_bytes")

# Every per-layer metric, in the order BENCHMARK.json lists them, with its unit.
METRICS = (
    ("qmat.eigvalsh_calls", "count"),
    ("qmat.eigvalsh_matrices", "count"),
    ("qmat.eigvalsh_s", "s"),
    ("qmat.eigh_calls", "count"),
    ("qmat.eigh_s", "s"),
    ("qmat.partial_trace_calls", "count"),
    ("qmat.partial_trace_s", "s"),
    ("channels.as_affine_calls", "count"),
    ("channels.rate_integral_calls", "count"),
    ("channels.apply_map_calls", "count"),
    ("channels.apply_map_s", "s"),
    ("correlations.mutual_information_calls", "count"),
    ("correlations.mutual_information_s", "s"),
    ("correlations.negativity_calls", "count"),
    ("witness.mi_series_s", "s"),
    ("witness.mi_series_points_per_s", "1/s"),
    ("witness.min_t_nm_scan_s", "s"),
    ("witness.scan_backflow_s", "s"),
    ("witness.gadc_epsilon_scan_s", "s"),
    ("witness.find_t_eb_s", "s"),
    ("mepovm.c2_A_calls", "count"),
    ("mepovm.c2_A_s", "s"),
    ("mepovm.c2_A_iterations", "count"),
    ("divisibility.is_p_qubit_calls", "count"),
    ("divisibility.is_p_qubit_s", "s"),
    ("divisibility.classify_intervals_s", "s"),
) + tuple((f"cli.{name}_s", "s") for name in EXPERIMENTS) + (
    ("cli.write_csv_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Call counts, inclusive seconds and per-call extras, keyed by metric prefix."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn, after=None):
        depth, calls, seconds = self._depth, self.calls, self.seconds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start
                calls[key] += 1
                depth[key] -= 1
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_everywhere(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nmflow" or mod_name.startswith("nmflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        from nmflow import channels, cli

        def count_matrices(out, args, kwargs):
            shape = np.shape(args[0] if args else kwargs["a"])
            self.extra["qmat.eigvalsh_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))

        def count_points(out, args, kwargs):
            self.extra["witness.mi_series_points"] += int(np.size(out))

        def count_iterations(out, args, kwargs):
            self.extra["mepovm.c2_A_iterations"] += int(out.iterations)

        def count_bytes(out, args, kwargs):
            self.extra["cli.csv_bytes"] += Path(args[0]).stat().st_size

        afters = {"witness.mi_series": count_points, "mepovm.c2_A": count_iterations,
                  "cli.write_csv": count_bytes}
        self._set(np.linalg, "eigvalsh",
                  self._wrap("qmat.eigvalsh", np.linalg.eigvalsh, count_matrices))
        self._set(np.linalg, "eigh", self._wrap("qmat.eigh", np.linalg.eigh))
        for mod_name, fn_name in FUNCTIONS:
            key = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"nmflow.{mod_name}"], fn_name)
            self._patch_everywhere(original, self._wrap(key, original, afters.get(key)))
        for cls in (channels.RateChannel, channels.AmpDampChannel, channels.GadcChannel):
            self._set(cls, "as_affine", self._wrap("channels.as_affine", cls.as_affine))
        for cls in _subclasses(channels.RateSpec):
            if "integral" in vars(cls):
                self._set(cls, "integral", self._wrap("channels.rate_integral", cls.integral))
        for name in EXPERIMENTS:
            runner = cli.RUNNERS[name]
            self._patches.append((cli.RUNNERS, name, runner))
            cli.RUNNERS[name] = self._wrap(f"cli.{name}", runner)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def per_repetition(self, reps: int, overhead_s: float, untraced_s: float) -> dict:
        """Every per-layer metric, as totals divided by the traced repetitions."""
        values = {}
        for name, unit in METRICS:
            if name == "witness.mi_series_points_per_s":
                secs = self.seconds["witness.mi_series"]
                value = self.extra["witness.mi_series_points"] / secs if secs else 0.0
            elif name == "trace.overhead_s":
                value = overhead_s
            elif name == "trace.overhead_pct":
                value = 100.0 * overhead_s / untraced_s
            elif name in COUNTED_EXTRAS:
                value = self.extra[name] / reps
            elif name.endswith("_calls"):
                value = self.calls[name[: -len("_calls")]] / reps
            else:
                value = self.seconds[name[: -len("_s")]] / reps
            values[name] = {"value": float(value), "unit": unit}
        return values


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
