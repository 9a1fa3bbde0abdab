"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they happen. The suite uses only frozen seeds; every expected value is either
computed by an independent oracle in this file or checked against a stated
tolerance.

Criterion 09 treats the Greedy baseline's energy overflow as zero up to
GREEDY_OVERFLOW_TOL = 1e-9 J, the slack the suite already allows elsewhere.
Greedy sizes each share so that round energy equals the per-round credit H_k/R,
so rounding can leave at most about one ulp of excess per round (1.7e-18 J at
the default 5 mJ credit); summed over R rounds that stays orders of magnitude
below 1e-9 J, while a Greedy that overspends by any real amount exceeds it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from flsched import bandwidth as bw
from flsched import harness
from flsched import scheduler as sched
from flsched.selection import SelectionInstance, itmcs
from flsched.simenv import Scenario, ScenarioSpec

from oracles import brute_force_selection, grid_oracle, smoothing_gap

SEED = 1
GREEDY_OVERFLOW_TOL = 1e-9  # J; see the module docstring
CRITERION_09_TARGET = 40.0  # average selected clients each calibrated policy is set to


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def table1_doc(mode: str, out_dir: Path) -> dict:
    """The full-scale config of criteria 08 and 09 in the given mode, writing to out_dir."""
    return {
        "system": {"num_clients": 100, "num_rounds": 300, "min_ratio": 0.01},
        "scenario": {"mode": mode},
        "policy": {"kind": "PEDPC", "penalty": 1.0},
        "output": {"dir": str(out_dir)},
    }


@pytest.fixture(scope="module")
def table1_config(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    path = base / "table1.json"
    path.write_text(json.dumps(table1_doc("IID", base / "out")))
    return path


@pytest.fixture(scope="module")
def full_run():
    """One full-scale drift-plus-penalty run, shared by several criteria."""
    scenario = Scenario(ScenarioSpec(seed=SEED, mode="IID"))
    start = time.perf_counter()
    trace = sched.run_policy(scenario, sched.PolicySpec("PEDPC", penalty=1.0))
    elapsed = time.perf_counter() - start
    return trace, elapsed


def test_criterion_01_selection_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        inst = SelectionInstance(rng.normal(-0.2, 1.0, 12), rng.uniform(0.0, 5.0, 12),
                                 10 ** rng.uniform(-2.0, 2.0), max_selected=12)
        fast = itmcs(inst)
        slow = brute_force_selection(inst)
        if abs(fast.objective - slow.objective) > 1e-12 or \
                not np.array_equal(fast.selected, slow.selected):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(1, "selection-solver-exactness",
            mismatches == 0 and elapsed < 5.0,
            f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_02_barrier_matches_grid_oracle():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_coord = 0.0
    worst_rel = 0.0
    for _ in range(50):
        inst = bw.AllocationInstance(rng.uniform(0.0, 0.5, 2), rng.uniform(0.01, 0.5, 2),
                                     rng.uniform(0.0, 0.5, 2), 10 ** rng.uniform(-1, 1),
                                     0.1)
        sol = bw.barrier_solve(inst)
        oracle = grid_oracle(inst, 1e-4)
        worst_coord = max(worst_coord, float(np.abs(sol.ratios - oracle.ratios).max()))
        worst_rel = max(worst_rel,
                        abs(sol.objective - oracle.objective) / abs(oracle.objective))
    elapsed = time.perf_counter() - start
    _report(2, "barrier-vs-grid-oracle",
            worst_coord <= 1e-3 and worst_rel <= 1e-6 and elapsed < 10.0,
            f"coord {worst_coord:.2e}, rel {worst_rel:.2e}, {elapsed:.2f}s")


def test_criterion_03_convexity_and_gradient():
    rng = np.random.default_rng(33)
    step = 1e-6
    bad_psd = 0
    bad_grad = 0
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        inst = bw.AllocationInstance(rng.uniform(0, 1, m), rng.uniform(1e-3, 1, m),
                                     rng.uniform(0, 1, m) * rng.integers(0, 2, m),
                                     10 ** rng.uniform(-2, 2), 0.01)
        b = rng.uniform(0.05, 1.0, m)
        _, grad, hess = bw.smoothed_objective(b, inst)
        eig = np.linalg.eigvalsh(hess)
        if eig.min() < -1e-9 * max(1.0, float(np.abs(eig).max())):
            bad_psd += 1
        scale = 1e-4 * (1.0 + float(np.abs(grad).max()))  # FD noise floor
        for j in range(m):
            hi = b.copy(); hi[j] += step
            lo = b.copy(); lo[j] -= step
            fd = (bw.smoothed_objective(hi, inst).value
                  - bw.smoothed_objective(lo, inst).value) / (2 * step)
            if abs(fd - grad[j]) > 1e-5 * max(scale, abs(grad[j])):
                bad_grad += 1
    _report(3, "hessian-psd-and-gradient",
            bad_psd == 0 and bad_grad == 0,
            f"{bad_psd} PSD / {bad_grad} gradient failures")


def test_criterion_04_smoothing_gap_bound():
    # barrier_solve asserts the bound internally on every invocation anywhere
    # in the suite; here a fresh batch of solves is checked explicitly
    rng = np.random.default_rng(44)
    violations = 0
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        inst = bw.AllocationInstance(rng.uniform(0, 1, m), rng.uniform(1e-3, 1, m),
                                     rng.uniform(0, 1, m) * rng.integers(0, 2, m),
                                     10 ** rng.uniform(-2, 2), 0.01)
        sol = bw.barrier_solve(inst)
        for ratios in (sol.ratios, np.full(m, 1.0 / m)):
            gap = smoothing_gap(ratios, inst)
            checked += 1
            if not (-1e-12 <= gap <= bw.lse_error_bound(m) + 1e-12):
                violations += 1
    _report(4, "log-sum-exp-gap-bound", violations == 0,
            f"{checked} allocations checked, {violations} violations")


def test_criterion_05_alternating_descent_full_scale(full_run):
    trace, elapsed = full_run
    violations = 0
    steps = 0
    for seq in trace.half_step_values:
        diffs = np.diff(np.array(seq))
        steps += diffs.size
        violations += int(np.sum(diffs > 1e-9))
    _report(5, "alternating-descent-full-run",
            violations == 0 and elapsed < 60.0,
            f"{steps} half-steps, {violations} increases, run {elapsed:.1f}s")


def test_criterion_06_drift_inequality(full_run):
    trace, _ = full_run
    # run_policy raises VerificationError on the first round that breaks the
    # inequality, so the fixture run completing is the check itself
    _report(6, "one-step-drift-inequality",
            len(trace.records) == 300 and trace.drift_min_slack >= -1e-9,
            f"min slack {trace.drift_min_slack:.3e}")


def test_criterion_07_tiny_scale_bounds():
    start = time.perf_counter()
    tiny = harness.HarnessConfig(overrides={"num_clients": 3, "num_rounds": 4,
                                            "min_ratio": 0.1})
    reports = harness.verify_bounds(tiny, 2, 0, (0.1, 1.0, 10.0), 0.05)  # frames of 2 rounds
    all_ok = all(report.all_ok for report in reports)
    details = [f"V={report.penalty_weight:g}:{'ok' if report.all_ok else 'FAIL'}"
               for report in reports]
    elapsed = time.perf_counter() - start
    _report(7, "cost-and-energy-bounds-tiny",
            all_ok and elapsed < 120.0,
            ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_penalty_sweep_trends(table1_config):
    grid = [1e-3, 1e-2, 1e-1, 1.0, 10.0]
    summaries = harness.sweep_v(table1_config, grid, seed=SEED)
    selected = [s.avg_selected for s in summaries]
    overflow = [s.energy_overflow_j for s in summaries]
    rho_sel = spearmanr(grid, selected).statistic
    rho_ovf = spearmanr(grid, overflow).statistic
    _report(8, "penalty-sweep-trends",
            rho_sel >= 0.9 and rho_ovf >= 0.9,
            f"rho_selected={rho_sel:.3f}, rho_overflow={rho_ovf:.3f}, "
            f"selected={np.round(selected, 1).tolist()}, "
            f"overflow={np.round(overflow, 2).tolist()}")


def _cost(row: harness.ExperimentSummary) -> float:
    """The paper's round cost, latency minus accuracy utility, summed over the run."""
    return row.total_latency_s - row.total_phi


def criterion_09_checks(rows: dict[str, harness.ExperimentSummary]) -> dict[str, bool]:
    """Criterion 09's clauses, by name, on one comparison's summaries keyed by policy."""
    pedpc = rows["PEDPC"]
    greedy = rows["Greedy"]
    rand = rows["Random"]
    fedcs = rows["FedCS"]
    # Greedy never spends beyond its credit, so its overflow is zero and cannot
    # be undercut; PEDPC is compared with it on the paper's cost instead.
    return {
        "latency<Greedy(2x)": pedpc.total_latency_s * 2 <= greedy.total_latency_s,
        "latency<Random(2x)": pedpc.total_latency_s * 2 <= rand.total_latency_s,
        "overflow(Greedy)=0": greedy.energy_overflow_j <= GREEDY_OVERFLOW_TOL,
        "cost<Greedy": _cost(pedpc) < _cost(greedy),
        "overflow<Random(2x)": pedpc.energy_overflow_j * 2 <= rand.energy_overflow_j
                               and pedpc.energy_overflow_j < rand.energy_overflow_j,
        "overflow<FedCS": pedpc.energy_overflow_j < fedcs.energy_overflow_j,
    }


def test_criterion_09_policy_comparison(table1_config):
    rows = {s.policy: s for _, s in
            harness.compare_policies(table1_config, seed=SEED, target_avg=CRITERION_09_TARGET)}
    greedy = rows["Greedy"]
    for row in rows.values():
        print(f"  {row.policy:<10} avg_sel={row.avg_selected:7.2f} "
              f"latency={row.total_latency_s:12.4f} overflow={row.energy_overflow_j:12.6f} "
              f"cost={_cost(row):12.4f}")
    checks = criterion_09_checks(rows)
    detail = ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    detail += (f"; Greedy overflow {greedy.energy_overflow_j:.3e} J "
               f"(tol {GREEDY_OVERFLOW_TOL:.0e} J)")
    _report(9, "policy-comparison-directions", all(checks.values()), detail)


def test_criterion_10_byte_identical_cli(table1_config, tmp_path):
    cmd = [sys.executable, "-m", "flsched.cli", "run", "--config", str(table1_config),
           "--seed", "7", "--policy", "SelectAll"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        proc = subprocess.run(cmd + ["--out", str(target)], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
    _report(10, "byte-identical-reruns", a.read_bytes() == b.read_bytes())


def test_criterion_11_long_horizon_stability():
    scenario = Scenario(ScenarioSpec(seed=SEED, mode="IID", overrides={"num_rounds": 3000}))
    trace = sched.run_policy(scenario, sched.PolicySpec("PEDPC", penalty=1.0))
    ratios = trace.backlog_trace[1:] / np.arange(1, trace.backlog_trace.shape[0])[:, None]
    early = float(ratios[299].max())   # max_k Z_k(300)/300
    late = float(ratios[2999].max())   # max_k Z_k(3000)/3000
    _report(11, "mean-rate-stability-trend", late < early,
            f"max Z/r: {early:.4e} at r=300 -> {late:.4e} at r=3000")
