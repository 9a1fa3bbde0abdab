"""Experiment harness: config files, policy runs, sweeps, calibration, bounds.

A single JSON document configures the system, scenario, policy (PEDPC's
penalty weight V included) and output location. Unknown keys and sections
anywhere are a hard ConfigError.
All outputs (per-round CSV, summary JSON, sweep and comparison tables) are
byte-identical across reruns with the same config and seed. Each aggregate
of a run is the `ExperimentSummary` field of the name that the summary JSON
and the sweep and comparison headers give it, so the tables list their
aggregates once, in their headers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import bandwidth as bw
from . import model
from .errors import ConfigError, Infeasible
from .scheduler import (PolicySpec, RunTrace, baseline_select_all, random_sample_size,
                        run_policy)
from .simenv import DEFAULTS, IID, NONIID, Scenario, ScenarioSpec, checked, number

CSV_HEADER = ("round,policy,seed,n_selected,latency_s,phi,cost,queue_l2,"
              "cum_latency_s,cum_cost,energy_overflow_j")
SWEEP_HEADER = "v,avg_selected,total_latency_s,avg_cost,energy_overflow_j,total_phi"
COMPARE_HEADER = "policy,knob,avg_selected,total_latency_s,energy_overflow_j,total_phi"
CALIBRATION_TOLERANCE = 2.0  # accepted distance of the average selected count from the target

_SYSTEM_KEYS = {f.name for f in fields(model.SystemConfig)}
# each section's keys; a system or scenario key's default fixes its JSON form
_SECTION_KEYS = {
    "system": _SYSTEM_KEYS,
    "scenario": (DEFAULTS.keys() - _SYSTEM_KEYS) | {"mode"},
    "policy": {f.name for f in fields(PolicySpec)},
    "output": {"dir"},
}


@dataclass(frozen=True)
class HarnessConfig:
    """Validated configuration document."""

    mode: str = IID
    overrides: Mapping[str, Any] = field(default_factory=dict)
    policy: PolicySpec = PolicySpec()
    output_dir: Path = Path("out")


def _check_section(name: str, content: Any) -> dict:
    if not isinstance(content, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(content) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    return content


def parse_config(doc: Mapping[str, Any]) -> HarnessConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    system = _check_section("system", doc.get("system", {}))
    scenario = _check_section("scenario", doc.get("scenario", {}))
    policy_raw = _check_section("policy", doc.get("policy", {}))
    output_raw = _check_section("output", doc.get("output", {}))

    # absent keys are left to the dataclasses' defaults
    present: dict[str, Any] = {}
    if "mode" in scenario:
        if scenario["mode"] not in (IID, NONIID):
            raise ConfigError(f"scenario mode must be {IID!r} or {NONIID!r}")
        present["mode"] = scenario["mode"]
    if "dir" in output_raw:
        if not isinstance(output_raw["dir"], str):
            raise ConfigError(f"output dir must be a string, got {output_raw['dir']!r}")
        if "\0" in output_raw["dir"]:  # no file system path holds one
            raise ConfigError("output dir must not contain a NUL character")
        try:  # a lone surrogate, which JSON's \ud800 escape gives, has no file system bytes
            os.fsencode(output_raw["dir"])
        except UnicodeEncodeError:
            raise ConfigError("output dir cannot be encoded as a file system path") from None
        present["output_dir"] = Path(output_raw["dir"])
    try:
        overrides = {key: checked(key, value)
                     for key, value in {**system, **scenario}.items() if key != "mode"}
        # a knob the config names is a number: JSON null does not unset it
        knobs = {key: value if key == "kind" else number(key, value)
                 for key, value in policy_raw.items()}
        return HarnessConfig(overrides=overrides, policy=PolicySpec(**knobs), **present)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> HarnessConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # not UTF-8 or not JSON, an integer past int's digit limit, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config(doc)


def build_scenario(cfg: HarnessConfig, seed: int) -> Scenario:
    try:
        return Scenario(ScenarioSpec(seed=seed, mode=cfg.mode, overrides=cfg.overrides))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# summaries and file output


@dataclass(frozen=True)
class ExperimentSummary:
    """End-of-run aggregates of one policy run."""

    policy: str
    seed: int
    avg_selected: float
    total_latency_s: float
    avg_cost: float
    energy_overflow_j: float
    total_phi: float
    per_client_totals_j: np.ndarray

    def to_dict(self) -> dict:
        """The fields by name, the per-client totals as a list."""
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in vars(self).items()}


def round_columns(trace: RunTrace, budgets: np.ndarray) -> dict[str, np.ndarray]:
    """The per-round columns of a run's CSV after `seed`, by header name, from its trace.

    The round cost is t0 - phi. Every running sum adds the rounds in order, as
    `np.cumsum` does, and each backlog norm is the square root of the squared
    norm the run recorded, `np.dot` of the row with itself, as `np.linalg.norm`
    takes it (a norm over axis 1 rounds differently).
    """
    records = trace.records
    latency, phi = records["latency"], records["phi"]
    cost = latency - phi
    return {
        "n_selected": records["n_selected"],
        "latency_s": latency,
        "phi": phi,
        "cost": cost,
        "queue_l2": np.sqrt(records["backlog_sq"]),
        "cum_latency_s": np.cumsum(latency),
        "cum_cost": np.cumsum(cost),
        "energy_overflow_j": model.energy_overflow(np.cumsum(trace.energies, axis=0), budgets),
    }


def summarize(trace: RunTrace, columns: Mapping[str, np.ndarray]) -> ExperimentSummary:
    """A run's aggregates, from its trace and its `round_columns`."""
    return ExperimentSummary(
        policy=trace.policy,
        seed=trace.seed,
        avg_selected=float(np.mean(columns["n_selected"])),
        total_latency_s=float(np.sum(columns["latency_s"])),
        avg_cost=float(np.mean(columns["cost"])),
        energy_overflow_j=float(columns["energy_overflow_j"][-1]),
        total_phi=float(np.sum(columns["phi"])),
        per_client_totals_j=trace.energies.sum(axis=0),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    """Write one output file, creating its directory; an unwritable path is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_rounds_csv(path: Path, trace: RunTrace, columns: Mapping[str, np.ndarray]) -> None:
    """One CSV row per round of the trace, numbered by position; columns from `round_columns`.

    Each row is one `%` format: "%.17g" writes a float as `_fmt` does.
    """
    names = CSV_HEADER.split(",")[3:]
    row = f"%d,{trace.policy},{trace.seed},%d" + ",%.17g" * (len(names) - 1)
    rows = zip(*(columns[name].tolist() for name in names))
    _write_lines(path, [CSV_HEADER, *(row % (r, *values) for r, values in enumerate(rows))])


def _summary(scenario: Scenario, policy: PolicySpec, csv_path: Path | None = None
             ) -> ExperimentSummary:
    """Run one policy and summarize it.

    Given a path, also write the per-round CSV there and the summary JSON next to it.
    """
    trace = run_policy(scenario, policy)
    columns = round_columns(trace, scenario.population.energy_budget)
    summary = summarize(trace, columns)
    if csv_path is not None:
        write_rounds_csv(csv_path, trace, columns)
        _write_lines(csv_path.with_suffix(".summary.json"),
                     [json.dumps(summary.to_dict(), indent=2, sort_keys=True)])
    return summary


def _run_file(policy: PolicySpec, seed: int) -> str:
    """A run's default CSV name, `{kind}_{seed}_{V}.csv`, V being its penalty in %g form."""
    return f"{policy.kind}_{seed}_{policy.penalty:g}.csv"


def run_experiment(config: str | Path | HarnessConfig, policy: PolicySpec | None = None,
                   *, seed: int, output_path: str | Path | None = None
                   ) -> ExperimentSummary:
    """Run one policy over the configured scenario; write CSV + summary JSON.

    `config` is a config file's path, or a config already loaded from one.
    """
    cfg = config if isinstance(config, HarnessConfig) else load_config(config)
    policy = policy if policy is not None else cfg.policy
    scenario = build_scenario(cfg, seed)
    csv_path = Path(output_path) if output_path is not None else \
        cfg.output_dir / _run_file(policy, seed)
    return _summary(scenario, policy, csv_path)


def sweep_v(config_path: str | Path, v_grid: Sequence[float], seed: int
            ) -> list[ExperimentSummary]:
    """One drift-plus-penalty run per penalty weight over an identical scenario.

    Every weight is checked before the first run: a ValueError if one is not
    finite and positive, a ConfigError if two would write the same run file.
    """
    if not len(v_grid):
        raise ValueError("empty penalty grid")
    policies = [PolicySpec("PEDPC", penalty=float(v)) for v in v_grid]
    names: dict[str, float] = {}
    for v, policy in zip(v_grid, policies):
        name = _run_file(policy, seed)
        if name in names:
            raise ConfigError(f"penalty weights {names[name]!r} and {v!r} both write "
                              f"the run file for V={policy.penalty:g}")
        names[name] = v
    cfg = load_config(config_path)
    scenario = build_scenario(cfg, seed)
    summaries = [_summary(scenario, policy, cfg.output_dir / _run_file(policy, seed))
                 for policy in policies]
    lines = [SWEEP_HEADER]
    for v, s in zip(v_grid, summaries):
        lines.append(",".join([_fmt(v), *(_fmt(getattr(s, name))
                                          for name in SWEEP_HEADER.split(",")[1:])]))
    _write_lines(cfg.output_dir / f"sweep_{seed}.csv", lines)
    return summaries


# ---------------------------------------------------------------------------
# calibration


def calibrate(config_path: str | Path, policy_kind: str, target_avg_selected: float,
              seed: int) -> float:
    """Bisect the policy's knob until the average selected count is CALIBRATION_TOLERANCE close.

    Knobs: penalty weight for PEDPC, selection fraction for Random, latency
    cap for FedCS. Raises Infeasible when the bracket cannot meet the target,
    or when the floor cannot admit Random's sample at it.
    """
    scenario = build_scenario(load_config(config_path), seed)
    return _calibrate(scenario, policy_kind, target_avg_selected)[0]


# The bisected knob of each calibrated policy: its PolicySpec field and bracket.
_CALIBRATION_KNOBS = {"PEDPC": ("penalty", 1e-6, 1e4), "FedCS": ("latency_cap", 1e-4, 1e3)}


def _calibrate(scenario: Scenario, policy_kind: str, target: float
               ) -> tuple[float, ExperimentSummary | None]:
    """The calibrated knob and the probe run's summary that met it (None for Random)."""
    if policy_kind == "Random":
        # exact by construction: floor(fraction * K) clients every round
        k = scenario.config.num_clients
        if not (1 <= target <= k):
            raise Infeasible("target outside [1, K]")
        fraction = float(target) / k
        random_sample_size(scenario.config, fraction)  # raises if the floor cannot admit it
        return fraction, None
    if policy_kind not in _CALIBRATION_KNOBS:
        raise ValueError(f"policy {policy_kind!r} has no calibration knob")
    knob, lo, hi = _CALIBRATION_KNOBS[policy_kind]

    def probe(value: float) -> ExperimentSummary:
        return _summary(scenario, PolicySpec(policy_kind, **{knob: value}))

    s_lo = probe(lo)
    if abs(s_lo.avg_selected - target) <= CALIBRATION_TOLERANCE:
        return lo, s_lo
    s_hi = probe(hi)
    if abs(s_hi.avg_selected - target) <= CALIBRATION_TOLERANCE:
        return hi, s_hi
    if s_lo.avg_selected > target or s_hi.avg_selected < target:
        raise Infeasible("target outside the achievable bracket")
    for _ in range(60):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        s_mid = probe(mid)
        if abs(s_mid.avg_selected - target) <= CALIBRATION_TOLERANCE:
            return mid, s_mid
        if s_mid.avg_selected < target:
            lo = mid
        else:
            hi = mid
    raise Infeasible("bisection failed to reach the target")


def compare_policies(config_path: str | Path, seed: int, target_avg: float
                     ) -> list[tuple[float | None, ExperimentSummary]]:
    """Calibrate where applicable, run all five policies on identical scenarios.

    One (knob, summary) pair per policy, the knob None for SelectAll and Greedy.
    PEDPC and FedCS reuse their accepted calibration runs: no pair runs twice.
    SelectAll's split and Random's sample, which run nothing, are checked first.
    """
    cfg = load_config(config_path)
    scenario = build_scenario(cfg, seed)
    baseline_select_all(scenario.config)
    fraction, _ = _calibrate(scenario, "Random", target_avg)
    v_star, pedpc_run = _calibrate(scenario, "PEDPC", target_avg)
    t_max, fedcs_run = _calibrate(scenario, "FedCS", target_avg)
    rows = [
        (v_star, pedpc_run),
        (None, _summary(scenario, PolicySpec("SelectAll"))),
        (fraction, _summary(scenario, PolicySpec("Random", random_fraction=fraction))),
        (None, _summary(scenario, PolicySpec("Greedy"))),
        (t_max, fedcs_run),
    ]
    lines = [COMPARE_HEADER]
    for knob, s in rows:
        lines.append(",".join([s.policy, "" if knob is None else _fmt(knob),
                               *(_fmt(getattr(s, name))
                                 for name in COMPARE_HEADER.split(",")[2:])]))
    _write_lines(cfg.output_dir / f"compare_{seed}.csv", lines)
    return rows


# ---------------------------------------------------------------------------
# tiny-scale verification of the performance and energy bounds


@dataclass(frozen=True)
class BoundsReport:
    penalty_weight: float
    lhs_cost: float
    lookahead_opt: float
    theorem2_rhs: float
    theorem2_ok: bool
    per_client_totals: np.ndarray
    energy_bound_rhs: np.ndarray
    energy_bound_ok: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.theorem2_ok and self.energy_bound_ok.all())


def _frame_lookahead(scenario: Scenario, frame_rounds: int, frame_index: int,
                     grid_step: float) -> float:
    """Exhaustive offline optimum of one frame of `frame_rounds` rounds' average cost.

    Each round's candidates are every selection set with every grid bandwidth
    vector, the empty round first, so a feasible plan exists. The frontier of
    plans that keep every client within its per-frame energy budget grows one
    round at a time; the sums run in round order from zero.
    """
    config, pop = scenario.config, scenario.population
    k = config.num_clients
    cap_energy = pop.energy_budget / (config.num_rounds // frame_rounds)
    per_round: list[tuple[np.ndarray, np.ndarray]] = []
    for r in range(frame_index * frame_rounds, (frame_index + 1) * frame_rounds):
        ctx = scenario.observe(r)
        ys = [np.zeros(1)]
        es = [np.zeros((1, k))]
        for mask in range(1, 2 ** k):
            idx = np.flatnonzero(mask >> np.arange(k) & 1)
            if idx.size > config.max_selectable or np.any(ctx.rate_coeff[idx] <= 0):
                continue
            grids = bw.simplex_grid(idx.size, config.min_ratio, grid_step)
            shares = np.zeros((grids.shape[0], k))
            shares[:, idx] = grids
            lat, energy = model.client_round(pop, ctx.rate_coeff, shares)
            ys.append(lat[:, idx].max(axis=1) - float(ctx.log_utility[idx].sum()))
            es.append(np.where(shares > 0, energy, 0.0))
        per_round.append((np.concatenate(ys), np.vstack(es)))
    sizes = math.prod(ys.size for ys, _ in per_round)
    if sizes > bw.GRID_LIMIT:
        raise Infeasible(f"lookahead product too large ({sizes} combinations)")

    acc_y = np.zeros(1)
    acc_e = np.zeros((1, k))
    for ys, es in per_round:
        acc_y = (acc_y[:, None] + ys).ravel()
        acc_e = (acc_e[:, None] + es).reshape(-1, k)
        keep = ~(acc_e > cap_energy + 1e-12).any(axis=1)
        acc_y, acc_e = acc_y[keep], acc_e[keep]
    return float(acc_y.min()) / frame_rounds


def verify_bounds(cfg: HarnessConfig, frame_rounds: int, seed: int,
                  penalty_weights: Sequence[float], grid_step: float) -> list[BoundsReport]:
    """Check the horizon cost bound and the per-client energy bound at tiny scale.

    The T-slot frames of the cost bound are the check's own, `frame_rounds`
    rounds each (the frame length T), and must split the configured horizon
    into whole frames (ConfigError); the config's frame keys are not read.
    Computes the frame-wise offline optimum of the configured realization by
    exhaustive search, once, then for each penalty weight runs the online
    policy on the same realization and evaluates both inequalities with the
    scenario's drift constant. The search bounds the case's size
    (Infeasible): the share grid takes at most 3 clients and 5e6 points,
    counted before it is built, and a frame at most 5e6 plans, which also
    caps the frontier.
    Raises ConfigError for a grid step that leaves the grid of some client
    count a single corner point, where the lookahead would have no bandwidth
    choice. Every error is raised before the first online run.
    """
    scenario = build_scenario(cfg, seed)
    config, pop = scenario.config, scenario.population
    if frame_rounds < 1 or config.num_rounds % frame_rounds:
        raise ConfigError(f"{config.num_rounds} rounds do not split into frames of "
                          f"{frame_rounds}")
    for m in range(2, config.num_clients + 1):
        if m * config.min_ratio < 1 - model.FEAS_TOL and \
                len(bw.simplex_grid(m, config.min_ratio, grid_step)) == 1:
            raise ConfigError(f"--grid-step {grid_step:g} leaves one grid point for {m} clients")
    c_stars = np.array([_frame_lookahead(scenario, frame_rounds, f, grid_step)
                        for f in range(config.num_rounds // frame_rounds)])
    lookahead = float(np.mean(c_stars))
    y0_min = -float(scenario.log_utility.sum())
    excess = float(np.sum(c_stars - y0_min))
    reports = []
    for v in penalty_weights:
        summary = _summary(scenario, PolicySpec("PEDPC", penalty=v))
        lhs, totals = summary.avg_cost, summary.per_client_totals_j
        rhs = lookahead + scenario.drift * frame_rounds / v
        slack = (2.0 * scenario.drift * config.num_rounds * frame_rounds
                 + 2.0 * v * frame_rounds * excess)
        energy_rhs = pop.energy_budget + math.sqrt(max(slack, 0.0))
        reports.append(BoundsReport(
            penalty_weight=v,
            lhs_cost=lhs,
            lookahead_opt=lookahead,
            theorem2_rhs=rhs,
            theorem2_ok=bool(lhs <= rhs + 1e-9),
            per_client_totals=totals,
            energy_bound_rhs=energy_rhs,
            energy_bound_ok=totals <= energy_rhs + 1e-9,
        ))
    return reports
