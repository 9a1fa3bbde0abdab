#!/usr/bin/env python3
"""flsched benchmark: run one workload for a fixed time, check its outputs, print metrics.

    python3 perfbench/run.py --workload pedpc_full --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: flsched is imported from ./src,
nothing is installed or built. `--trace 0` measures the end-to-end metrics
with a single per-round timestamp hook; `--trace 1` runs the same units
untraced and then traced, and reports per-layer metrics from the spans.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Run files (configs, CSVs, spans,
full results with the environment block) go to ./.bench_out/.
README.md next to this file documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
# One single-threaded load generator: BLAS gets one thread on the 2-core host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_p50_ms": "ms",
    "round_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_latency_s": "s",
    "neg_avg_cost": "cost",
    "energy_overflow_j": "J",
}


class RoundStamps:
    """(round index, perf_counter) of every channel draw, in compact arrays
    so that the samples barely show in the peak RSS they are measured with."""

    def __init__(self):
        self.rounds = array("q")
        self.times = array("d")

    def intervals_ms(self) -> list[float]:
        """Time between successive channel draws within one run_policy call."""
        r, t = self.rounds, self.times
        return [(t[i] - t[i - 1]) * 1e3 for i in range(1, len(r)) if r[i] == r[i - 1] + 1]


@dataclass
class Unit:
    """One unit of work: a `flsched run`, or one calibrated-baselines pass."""

    seed: int
    seconds: float
    rounds: int
    digest: str | None = None
    quality: dict | None = None
    error: str | None = None


def bootstrap() -> None:
    """Make ./src importable and pin BLAS threads, before numpy is imported."""
    if not (SRC / "flsched" / "__init__.py").is_file():
        sys.exit(f"error: no flsched sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import flsched
    if Path(flsched.__file__).resolve().parent != SRC / "flsched":
        sys.exit(f"error: imported flsched from {flsched.__file__}, not from {SRC}")


def measure(workload, cfg_path: Path, seeds: list[int], out_dir: Path, num_rounds: int,
            budget_s: float, min_units: int, tracer=None,
            stamps: RoundStamps | None = None) -> list[Unit]:
    """Start units, cycling through `seeds`, until `budget_s` has passed.

    Every run_policy result is checked as it returns (once per run); with
    `stamps`, every channel draw is time-stamped - the only per-round hook.
    """
    from flsched import harness, simenv
    from tracer import Patch
    from workloads import check_trace, csv_digest

    runs = 0

    def check(fn):
        @functools.wraps(fn)
        def run_policy(*args, **kwargs):
            nonlocal runs
            trace = fn(*args, **kwargs)
            check_trace(trace, num_rounds)
            runs += 1
            return trace
        return run_policy

    def stamp(fn):
        @functools.wraps(fn)
        def sample_round(spec, round_index, population):
            stamps.rounds.append(round_index)
            stamps.times.append(time.perf_counter())
            return fn(spec, round_index, population)
        return sample_round

    patches = [(harness, "run_policy", check(harness.run_policy))]
    if stamps is not None:
        patches.append((simenv, "sample_round", stamp(simenv.sample_round)))
    units: list[Unit] = []
    with Patch(patches):
        started = time.perf_counter()
        while len(units) < min_units or time.perf_counter() - started < budget_s:
            seed = seeds[len(units) % len(seeds)]
            runs = 0
            t0 = time.perf_counter()
            try:
                with tracer.unit() if tracer is not None else contextlib.nullcontext():
                    output = workload.run_unit(cfg_path, seed, out_dir)
                unit = Unit(seed, time.perf_counter() - t0, runs * num_rounds)
                unit.digest = csv_digest(output.csv_paths, num_rounds)
                unit.quality = output.quality
            except Exception as exc:  # a failed unit is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                unit = Unit(seed, time.perf_counter() - t0, 0,
                            error=f"{type(exc).__name__}: {exc}")
            units.append(unit)
    return units


def check_digests(units: list[Unit], store: dict, key_prefix: str) -> None:
    """Fail every unit whose CSV digest differs from an earlier one of its seed.

    Earlier means earlier in this process or recorded in `store` by a previous
    run of the same sources, config and seed; `store` is updated in place.
    """
    for unit in units:
        if unit.digest is None:
            continue
        key = f"{key_prefix}/{unit.seed}"
        expected = store.setdefault(key, unit.digest)
        if expected != unit.digest and unit.error is None:
            unit.error = f"csv_sha256 {unit.digest} differs from {expected} for seed {unit.seed}"


def setup_seconds(workload_name: str, cfg_path: Path, seed: int, out_dir: Path
                  ) -> list[float | None]:
    """Spawn-to-first-channel-draw times of fresh processes (None if one failed)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload_name,
                 str(cfg_path), str(seed), str(out_dir)],
                capture_output=True, text=True, timeout=120, check=True)
            times.append(float(proc.stdout.split()[-1]) - t0)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"setup probe failed: {exc}", file=sys.stderr)
            times.append(None)
    return times


def rate(units: list[Unit]) -> float:
    good = [u for u in units if u.error is None]
    seconds = sum(u.seconds for u in good)
    return sum(u.rounds for u in good) / seconds if seconds else 0.0


def quality_means(units: list[Unit]) -> dict[str, float]:
    """Mean schedule quality over the first passing unit of each scenario seed."""
    first = {}
    for unit in units:
        if unit.error is None:
            first.setdefault(unit.seed, unit.quality)
    if not first:
        return {}
    return {name: statistics.fmean(q[name] for q in first.values())
            for name in next(iter(first.values()))}


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flsched").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few clients and rounds, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from flsched import simenv
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT / ("tiny" if args.tiny else "full") / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = workload.config_doc(out_dir, tiny=args.tiny)
    cfg_path = out_dir / "config.json"
    cfg_text = json.dumps(doc, sort_keys=True)
    cfg_path.write_text(cfg_text + "\n", encoding="utf-8")
    num_rounds = int(doc.get("system", {}).get("num_rounds", simenv.DEFAULTS["num_rounds"]))
    seeds = workload.scenario_seeds(args.seed)
    env = environment(args)
    report = {"environment": env, "config": doc, "scenario_seeds": seeds}

    metrics: dict[str, tuple[float, str]] = {}
    setup = []
    if args.trace:
        # a third of the time untraced, for the overhead and the digest comparison
        started = time.perf_counter()
        plain = measure(workload, cfg_path, seeds, out_dir, num_rounds, args.seconds / 3, 1)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(workload, cfg_path, seeds, out_dir, num_rounds,
                             args.seconds - (time.perf_counter() - started), 1,
                             tracer=tracer)
        units = plain + traced
        metrics = tracer.metrics()
        metrics["trace.rounds_per_s"] = (rate(traced), "1/s")
        metrics["trace.untraced_rounds_per_s"] = (rate(plain), "1/s")
        metrics["trace.overhead_rounds_per_s"] = (rate(traced) - rate(plain), "1/s")
        tracer.write_spans(out_dir / "spans.csv")
    else:
        setup = setup_seconds(workload.name, cfg_path, seeds[0], out_dir / "setup")
        stamps = RoundStamps()
        units = measure(workload, cfg_path, seeds, out_dir, num_rounds, args.seconds,
                        len(seeds), stamps=stamps)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        intervals = stamps.intervals_ms()
        quality = quality_means(units)
        good_setup = [s for s in setup if s is not None]
        metrics = {
            "setup_s": statistics.median(good_setup) if good_setup else 0.0,
            "rounds_per_s": rate(units),
            "round_p50_ms": statistics.median(intervals) if intervals else 0.0,
            "round_p95_ms": (statistics.quantiles(intervals, n=20)[18]
                             if len(intervals) > 1 else 0.0),
            "peak_rss_mb": peak_rss_mb,
            **{name: quality.get(name, 0.0) for name in
               ("sim_latency_s", "neg_avg_cost", "energy_overflow_j")},
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        report["round_samples"] = len(intervals)
        report["setup_samples_s"] = setup

    # Every repetition of a scenario seed must reproduce its CSVs byte for byte:
    # within this run, traced against untraced, and against earlier runs of the
    # same sources and config.
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    config_sha = hashlib.sha256(cfg_text.encode()).hexdigest()[:16]
    check_digests(units, store, f"{workload.name}/{env['src_sha256'][:16]}/{config_sha}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)

    failed = sum(u.error is not None for u in units) + sum(s is None for s in setup)
    attempted = len(units) + len(setup)
    report.update(units=[asdict(u) for u in units], attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {workload.name} seed={args.seed} units={len(units)} "
          f"rounds={sum(u.rounds for u in units)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.3g}"
          + (f" round_samples={report['round_samples']}" if not args.trace else ""))
    for unit in units:
        if unit.error:
            print(f"# failed seed={unit.seed}: {unit.error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
