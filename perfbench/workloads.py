"""The benchmark's workloads: generated inputs, one unit of work each, output checks.

Why each workload exists, which layers it loads and which it bypasses is
written down in README.md next to this file. A workload turns the benchmark
seed into a config document plus a list of scenario seeds; flsched sees only
those. One *unit* is what a user would run once: `flsched run` for the PEDPC
workloads, calibrate-then-run-four-baselines for `baselines_calibrated`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from flsched import cli, harness
from flsched.scheduler import PolicySpec

# Share of the population the calibrated baselines aim for (40 of 100 clients).
TARGET_SHARE = 0.4
# harness.calibrate's default acceptance band around the target.
CALIBRATE_TOLERANCE = 2.0


class CheckFailed(Exception):
    """An output of flsched failed one of the benchmark's correctness checks."""


@dataclass(frozen=True)
class UnitOutput:
    csv_paths: list[Path]
    quality: dict[str, float]  # simulated schedule quality of the reported run


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # the config document flsched reads
    # Scenario seeds drawn per benchmark seed. Units cycle through them, and a
    # run makes at least one unit per seed; schedule quality is their mean.
    distinct_seeds: int
    run_unit: Callable[[Path, int, Path], UnitOutput]  # (config path, scenario seed, out dir)
    tiny: dict  # system overrides for the benchmark's own test

    def scenario_seeds(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}/{seed}")
        return rng.sample(range(1, 2 ** 31), self.distinct_seeds)

    def config_doc(self, out_dir: Path, tiny: bool = False) -> dict:
        doc = json.loads(json.dumps(self.config))
        if tiny:
            doc.setdefault("system", {}).update(self.tiny)
        doc["output"] = {"dir": str(out_dir)}
        return doc


def _quality(summary: dict) -> dict[str, float]:
    # The round cost (latency minus accuracy proxy) is negative on every
    # workload here; its negation keeps a relative bound meaningful.
    return {
        "sim_latency_s": float(summary["total_latency_s"]),
        "neg_avg_cost": -float(summary["avg_cost"]),
        "energy_overflow_j": float(summary["energy_overflow_j"]),
    }


def run_pedpc(cfg_path: Path, seed: int, out_dir: Path) -> UnitOutput:
    """`flsched run` with the config's policy (PEDPC), in process."""
    csv_path = out_dir / "PEDPC.csv"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(["run", "--config", str(cfg_path), "--seed", str(seed),
                       "--out", str(csv_path)])
    if rc != 0:
        raise CheckFailed(f"flsched run exited with {rc}")
    return UnitOutput([csv_path], _quality(json.loads(printed.getvalue())))


def run_baselines(cfg_path: Path, seed: int, out_dir: Path) -> UnitOutput:
    """Calibrate FedCS and Random to the target, then run the four baselines."""
    cfg = harness.load_config(cfg_path)
    target = TARGET_SHARE * cfg.overrides.get("num_clients", 100)
    latency_cap = harness.calibrate(cfg_path, "FedCS", target, seed=seed)
    fraction = harness.calibrate(cfg_path, "Random", target, seed=seed)
    policies = (PolicySpec("SelectAll"), PolicySpec("Random", random_fraction=fraction),
                PolicySpec("Greedy"), PolicySpec("FedCS", latency_cap=latency_cap))
    paths, summaries = [], {}
    for policy in policies:
        path = out_dir / f"{policy.kind}.csv"
        summaries[policy.kind] = harness.run_experiment(cfg_path, policy, seed=seed,
                                                        output_path=path)
        paths.append(path)
    for kind in ("FedCS", "Random"):
        if abs(summaries[kind].avg_selected - target) > CALIBRATE_TOLERANCE:
            raise CheckFailed(f"calibrated {kind} selects {summaries[kind].avg_selected}"
                              f" clients on average, target {target}")
    # FedCS is the calibrated reference point for the schedule-quality metrics
    return UnitOutput(paths, _quality(summaries["FedCS"].to_dict()))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pedpc_full",
            config={},
            distinct_seeds=3,
            run_unit=run_pedpc,
            tiny={"num_clients": 12, "num_rounds": 8, "frame_len": 4, "num_frames": 2},
        ),
        Workload(
            name="pedpc_floor",
            config={"system": {"min_ratio": 0.05}, "scenario": {"mode": "NONIID"}},
            distinct_seeds=48,
            run_unit=run_pedpc,
            tiny={"num_clients": 30, "num_rounds": 8, "frame_len": 4, "num_frames": 2},
        ),
        Workload(
            name="baselines_calibrated",
            config={},
            distinct_seeds=12,
            run_unit=run_baselines,
            tiny={"num_clients": 10, "num_rounds": 8, "frame_len": 4, "num_frames": 2},
        ),
    )
}


# -- output checks ----------------------------------------------------------


def check_trace(trace, num_rounds: int) -> None:
    """Round count, and a non-increasing PEDPC half-step trace in every round."""
    if len(trace.records) != num_rounds:
        raise CheckFailed(f"{trace.policy} ran {len(trace.records)} of {num_rounds} rounds")
    if trace.policy == "PEDPC" and len(trace.half_step_values) != num_rounds:
        raise CheckFailed("PEDPC half-step trace is missing rounds")
    for r, halves in enumerate(trace.half_step_values):
        if any(b > a for a, b in zip(halves, halves[1:])):
            raise CheckFailed(f"half-step trace increases in round {r}: {halves}")


def check_csv(path: Path, num_rounds: int) -> bytes:
    """One finite row per round under the documented header; returns the bytes."""
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != harness.CSV_HEADER:
        raise CheckFailed(f"{path.name}: unexpected header")
    rows = lines[1:]
    if len(rows) != num_rounds:
        raise CheckFailed(f"{path.name}: {len(rows)} rows for {num_rounds} rounds")
    width = len(harness.CSV_HEADER.split(","))
    for r, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != width or cells[0] != str(r):
            raise CheckFailed(f"{path.name}: malformed row {r}")
        numbers = [float(c) for i, c in enumerate(cells) if i != 1]  # cell 1 is the policy
        if not all(math.isfinite(x) for x in numbers):
            raise CheckFailed(f"{path.name}: non-finite value in row {r}")
    return data


def csv_digest(paths: list[Path], num_rounds: int) -> str:
    """sha256 over the unit's CSVs in order, after checking each of them."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(check_csv(path, num_rounds))
    return digest.hexdigest()
