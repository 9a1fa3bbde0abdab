"""In-memory span tracer that wraps flsched's public functions from outside.

Each target is replaced at the name its caller looks up (a module global or
a module attribute), so the package itself is not edited. A span records
(name, start, end, parent index, run id); self time is a span's duration
minus the time its direct children cover. Counters are read only from public
return values and arguments. `Patch` restores every original on exit, even
when the traced code raises.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module that is looked up, attribute, span name). The span name is the
# module that defines the function; run_policy and itmcs are imported by
# name into harness and scheduler, so they are wrapped there.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("harness", "load_config", "harness.load_config"),
    ("harness", "build_scenario", "harness.build_scenario"),
    ("harness", "calibrate", "harness.calibrate"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "write_rounds_csv", "harness.write_rounds_csv"),
    ("harness", "run_policy", "scheduler.run_policy"),
    ("simenv", "generate_population", "simenv.generate_population"),
    ("simenv", "sample_round", "simenv.sample_round"),
    ("lyapunov", "drift_bound", "lyapunov.drift_bound"),
    ("lyapunov", "energy_prices", "lyapunov.energy_prices"),
    ("lyapunov", "update_queue", "lyapunov.update_queue"),
    ("lyapunov", "drift_gap", "lyapunov.drift_gap"),
    ("model", "rate_coefficients", "model.rate_coefficients"),
    ("model", "selected_totals", "model.selected_totals"),
    ("scheduler", "itmcs", "selection.itmcs"),
    ("bandwidth", "barrier_solve", "bandwidth.barrier_solve"),
    ("bandwidth", "smoothed_objective", "bandwidth.smoothed_objective"),
)
LAYER_NAMES = tuple(name for _, _, name in TARGETS)
UNIT_SPAN = "bench.unit"  # root span the benchmark opens around each unit of work


def _module(short: str):
    return importlib.import_module(f"flsched.{short}")


class Patch:
    """Replace module attributes for the duration of a `with` block."""

    def __init__(self, replacements):
        self._replacements = list(replacements)  # (module, attr, new value)
        self._saved = []

    def __enter__(self):
        for module, attr, value in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def originals() -> dict[str, object]:
    """The objects currently bound at every target's lookup site."""
    return {name: getattr(_module(mod), attr) for mod, attr, name in TARGETS}


class Tracer:
    """Collects spans and counters while its `installed()` block is active."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, run)
        self.run_id = -1
        self._stack: list[int] = []
        self._sums: Counter = Counter()

    # -- recording -------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _exit(self, name: str, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    @contextmanager
    def unit(self):
        """Root span around one unit of benchmark work; opens a new run id."""
        self.run_id += 1
        idx, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(UNIT_SPAN, idx, parent, start)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        sums = self._sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, idx, parent, start)
            if observe is not None:
                observe(sums, args, kwargs, result)
            return result

        return wrapper

    def installed(self) -> Patch:
        replacements = []
        for mod, attr, name in TARGETS:
            module = _module(mod)
            replacements.append((module, attr, self._wrap(name, getattr(module, attr))))
        return Patch(replacements)

    # -- aggregation -----------------------------------------------------

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), including the unit span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return {name: tuple(v) for name, v in stats.items()}

    def calibrate_probes(self) -> int:
        """run_policy spans nested (at any depth) inside a harness.calibrate span."""
        in_calibrate = [False] * len(self.spans)
        probes = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside = parent >= 0 and (in_calibrate[parent]
                                      or self.spans[parent][0] == "harness.calibrate")
            in_calibrate[i] = inside
            if inside and name == "scheduler.run_policy":
                probes += 1
        return probes

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls/total_s/self_s per target, the count ratios, traced time and span count."""
        stats = self.layer_stats()
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_NAMES:
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
        s = self._sums

        def ratio(num: str, den: str) -> float:
            return s[num] / s[den] if s[den] else 0.0

        out.update({
            "bandwidth.newton_steps_mean": (ratio("bw_newton", "bw_solved"), "count"),
            "bandwidth.m_mean": (ratio("bw_m", "bw_calls"), "count"),
            "bandwidth.forced_ratio": (ratio("bw_forced", "bw_calls"), "ratio"),
            "selection.k_mean": (ratio("sel_eligible", "sel_calls"), "count"),
            "selection.selected_mean": (ratio("sel_selected", "sel_calls"), "count"),
            "scheduler.alternations_mean": (ratio("alternations", "pedpc_rounds"), "count"),
            "scheduler.sel_halfstep_improved_ratio":
                (ratio("sel_improved", "alternations"), "ratio"),
            "scheduler.bw_halfstep_improved_ratio":
                (ratio("bw_improved", "alternations"), "ratio"),
            "harness.write_rounds_csv.bytes": (s["csv_bytes"], "B"),
            "harness.calibrate.probes": (self.calibrate_probes(), "count"),
            "trace.total_s": (stats.get(UNIT_SPAN, (0, 0.0, 0.0))[1], "s"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out

    def write_spans(self, path: Path) -> None:
        """Dump every span as CSV: name,start_s,end_s,parent,run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run}\n")


# -- counters read from public arguments and return values ----------------


def _observe_barrier(sums, args, kwargs, alloc):
    instance = args[0] if args else kwargs["instance"]
    sums["bw_calls"] += 1
    sums["bw_m"] += instance.size
    if abs(instance.size * instance.min_ratio - 1.0) <= 1e-12:
        sums["bw_forced"] += 1  # closed-form path: every client sits on the floor
    elif alloc.iterations:
        sums["bw_solved"] += 1
        sums["bw_newton"] += alloc.iterations


def _observe_itmcs(sums, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    sums["sel_calls"] += 1
    sums["sel_eligible"] += int(np.count_nonzero((instance.scores < 0)
                                                 & np.isfinite(instance.latencies)))
    sums["sel_selected"] += int(np.count_nonzero(result.selected))


def _observe_run(sums, args, kwargs, trace):
    for halves in trace.half_step_values:
        # halves = (start, sel_1, bw_1, sel_2, bw_2, ...)
        sums["pedpc_rounds"] += 1
        sums["alternations"] += (len(halves) - 1) // 2
        for j in range(1, len(halves), 2):
            sums["sel_improved"] += halves[j] < halves[j - 1]
            sums["bw_improved"] += halves[j + 1] < halves[j]


def _observe_csv(sums, args, kwargs, _):
    path = args[0] if args else kwargs["path"]
    sums["csv_bytes"] += Path(path).stat().st_size


_OBSERVERS = {
    "bandwidth.barrier_solve": _observe_barrier,
    "selection.itmcs": _observe_itmcs,
    "scheduler.run_policy": _observe_run,
    "harness.write_rounds_csv": _observe_csv,
}
