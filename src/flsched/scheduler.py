"""Round-by-round scheduling: the drift-plus-penalty policy and baselines.

The PEDPC policy prices each client by its energy-deficit backlog, then
alternates exact client selection with projected-Newton bandwidth allocation
(`bandwidth.barrier_solve`, which keeps the name of the log-barrier method it
replaced so that outside tooling still finds it), at most ITER_ROUNDS times
per round. Its penalty weight V, the price of the round cost
against the drift, is the policy's `penalty`, one constant for the run. Each
half-step is accepted only if it does not increase the true per-round
objective, so the objective trace is non-increasing by construction even
though the bandwidth subproblem is solved through a smoothed surrogate.
The allocator solves a bandwidth instance that depends only on the selected set,
so it runs only when the selection half-step has just moved that set: the
repeat on an unchanged set would return the same shares against the same
value and change nothing. Nor does it run when the moved set's floored
simplex is the single point 1/m that the candidate already holds (one
client, or m floors of exactly 1/m filling the band): it could only return
that split. `SolveResult` carries the outcome of the accepted shares, so
`run_policy` does not evaluate them again.

Every policy decides a round as one share vector, whose non-zero entries are
the selected clients. `run_policy` decides round r from its
`model.RoundContext`, `Scenario.observe(r)`, and row r of its backlog trace,
which `lyapunov.update_queue` fills in place. It checks every round's shares
with `model.check_shares`, and every run, whatever its policy or caller,
against the one-step drift inequality (a NaN slack fails it) and the
queue-implied deficit bound, and raises VerificationError on a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bandwidth as bw
from . import lyapunov as lyap
from . import model
from .errors import Infeasible, VerificationError
from .model import RoundContext, SystemConfig
from .selection import SelectionInstance, itmcs
from .simenv import Scenario, number, policy_rng

POLICY_KINDS = ("PEDPC", "SelectAll", "Random", "Greedy", "FedCS")
DESCENT_SLACK = 1e-9  # minimal per-iteration improvement to keep alternating
DRIFT_TOL = 1e-9  # rounding slack allowed in the one-step drift inequality
ITER_ROUNDS = 3  # selection/bandwidth alternations per PEDPC round, at most


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run and its knobs: PEDPC's penalty weight V, Random's and FedCS's."""

    kind: str = "PEDPC"
    random_fraction: float | None = None  # Random only
    latency_cap: float | None = None  # FedCS only
    penalty: float = 1.0  # PEDPC only: V, the weight of the round cost against the drift

    def __post_init__(self):
        # each knob is stored as a finite float; random_fraction and latency_cap may stay None
        object.__setattr__(self, "penalty", number("penalty", self.penalty))
        for name in ("random_fraction", "latency_cap"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, number(name, getattr(self, name)))
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not self.penalty > 0:
            raise ValueError(f"penalty must be finite and positive, got {self.penalty!r}")
        if self.kind == "Random":
            if self.random_fraction is None or not (0 < self.random_fraction <= 1):
                raise ValueError("Random requires random_fraction in (0, 1]")
        if self.kind == "FedCS":
            if self.latency_cap is None or not self.latency_cap > 0:
                raise ValueError("FedCS requires a positive latency_cap")


def _p3_value(shares: np.ndarray, backlog: np.ndarray, ctx: RoundContext,
              penalty_weight: float) -> tuple[float, tuple[np.ndarray, float, float]]:
    """Backlog-priced energy drift plus weighted round cost (constant term dropped).

    Returned with the shares' `RoundContext.outcome`, which it prices.
    """
    outcome = ctx.outcome(shares)
    energy, t0, phi = outcome
    drift_term = float(np.dot(backlog, energy - ctx.credit))
    return drift_term + penalty_weight * (t0 - phi), outcome


@dataclass(frozen=True)
class SolveResult:
    shares: np.ndarray  # the round's decision; its last half-step value is the objective
    half_step_values: tuple[float, ...]
    outcome: tuple[np.ndarray, float, float]  # the shares' RoundContext.outcome


def solve_round(backlog: np.ndarray, ctx: RoundContext, penalty_weight: float) -> SolveResult:
    """Alternating selection/allocation solve of one round's objective at the given backlogs.

    Raises ValueError unless every backlog is finite and non-negative. Starts
    from the always-feasible empty decision (all shares zero) and alternates
    at most ITER_ROUNDS times (read at each call); the returned half-step
    value trace is non-increasing. An all-infeasible round yields the empty
    decision (its objective is the budget credit term alone).
    """
    backlog = np.asarray(backlog, dtype=float)
    if not model.finite_non_negative(backlog):
        raise ValueError("backlogs must be finite and non-negative")
    pop, config = ctx.population, ctx.config
    k = len(pop)
    cap = config.max_selectable
    hyp_share = 1.0 / k  # scoring share for clients outside the current set
    b = np.zeros(k)
    value, outcome = _p3_value(b, backlog, ctx, penalty_weight)
    halves = [value]
    for _ in range(ITER_ROUNDS):
        start_value = value
        # selection half-step: rescore everyone, keep the change only if it helps
        shares = np.where(b != 0, b, hyp_share)
        latencies, energies = model.client_round(pop, ctx.rate_coeff, shares)
        scores = lyap.energy_prices(backlog, energies) - penalty_weight * ctx.log_utility
        proposal = itmcs(SelectionInstance(scores, latencies, penalty_weight,
                                           max_selected=cap)).selected
        solve = False
        if not np.array_equal(proposal, b != 0):
            m = int(proposal.sum())
            equal = 1.0 / m if m else 0.0
            b_cand = np.where(proposal, equal, 0.0)
            cand_val, cand_out = _p3_value(b_cand, backlog, ctx, penalty_weight)
            if cand_val <= value:
                b, value, outcome = b_cand, cand_val, cand_out
                # the allocator's answer is the equal split just evaluated when
                # the floored simplex is that single point
                solve = m > 0 and bw.fixed_share(m, config.min_ratio) != equal
        halves.append(value)
        # bandwidth half-step: allocator solve, kept only if the true value improves;
        # an unmoved set was solved by the previous half-step, whose outcome stands
        if solve:
            idx = np.flatnonzero(b)
            instance = bw.AllocationInstance(
                comp_latency=pop.comp_latency[idx],
                lat_coeff=pop.model_size[idx] / ctx.rate_coeff[idx],
                price_coeff=(pop.tx_power[idx] * backlog[idx] * pop.model_size[idx]
                             / ctx.rate_coeff[idx]),
                penalty_weight=penalty_weight,
                min_ratio=config.min_ratio,
            )
            alloc = bw.barrier_solve(instance)
            b_new = np.zeros(k)
            b_new[idx] = alloc.ratios
            new_val, new_out = _p3_value(b_new, backlog, ctx, penalty_weight)
            if new_val <= value:
                b, value, outcome = b_new, new_val, new_out
        halves.append(value)
        if start_value - value < DESCENT_SLACK:
            break
    return SolveResult(b, tuple(halves), outcome)


# ---------------------------------------------------------------------------
# baseline policies


def baseline_select_all(config: SystemConfig) -> np.ndarray:
    """Everyone selected, equal shares."""
    k = config.num_clients
    if k > config.max_selectable:
        raise Infeasible("equal split over all clients falls below the floor")
    return np.full(k, 1.0 / k)


def baseline_random(config: SystemConfig, fraction: float,
                    rng: np.random.Generator) -> np.ndarray:
    """A fixed-size uniform sample of clients, equal shares."""
    k = config.num_clients
    n = int(math.floor(fraction * k + 1e-9))  # guard against 0.29*100 = 28.999...
    if n < 1:
        raise Infeasible("fraction selects nobody")
    if n > config.max_selectable:
        raise Infeasible("equal split over the sample falls below the floor")
    shares = np.zeros(k)
    shares[rng.choice(k, size=n, replace=False)] = 1.0 / n
    return shares


def _fill(ctx: RoundContext, upload: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Shared body of the budget/latency-capped baselines.

    Each client with positive slack and a live link needs the share whose upload
    cost upload / (share * rate) uses up that slack, clamped up to the floor (a
    larger share only lowers the cost). In order of need, clients are admitted
    while the shares fit in the band; the last one is topped up to fill it.
    """
    eligible = (slack > 0) & (ctx.rate_coeff > 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        need = np.where(eligible, upload / (ctx.rate_coeff * np.where(eligible, slack, 1.0)),
                        np.inf)
    shares = np.maximum(need, ctx.config.min_ratio)
    idx = np.flatnonzero(eligible)
    order = idx[np.lexsort((idx, shares[idx]))]
    # every share is at least the floor, so the running totals rise: admission
    # stops at the first total past the band
    total = np.cumsum(shares[order])
    admitted = order[:np.searchsorted(total, 1.0 + model.FEAS_TOL, side="right")]
    out = np.zeros(shares.size)
    out[admitted] = shares[admitted]
    if admitted.size:
        out[admitted[-1]] += 1.0 - total[admitted.size - 1]
    return out


def baseline_greedy(ctx: RoundContext) -> np.ndarray:
    """As many clients as fit when each is given exactly its per-round energy budget.

    Each client's share is sized so its round energy equals its budget share;
    clients whose training alone busts the budget are excluded.
    """
    pop = ctx.population
    return _fill(ctx, pop.tx_power * pop.model_size, ctx.credit - pop.comp_energy)


def baseline_fedcs(ctx: RoundContext, latency_cap: float) -> np.ndarray:
    """As many clients as fit when each is given exactly its latency-cap share."""
    if not latency_cap > 0:
        raise ValueError("latency_cap must be positive")
    pop = ctx.population
    return _fill(ctx, pop.model_size, latency_cap - pop.comp_latency)


# ---------------------------------------------------------------------------
# run loop


@dataclass(frozen=True)
class RoundRecord:
    """What one round decided: how many clients, its latency t0 and accuracy utility phi."""

    round: int
    n_selected: int
    latency: float
    phi: float


@dataclass
class RunTrace:
    """What a finished run decided and spent; `harness.round_columns` derives the rest."""

    policy: str
    seed: int
    records: list[RoundRecord]
    backlog_trace: np.ndarray  # (R+1, K); row r is the backlog entering round r
    energies: np.ndarray  # (R, K) realized per-round energy of selected clients
    half_step_values: list[tuple[float, ...]]  # PEDPC objective traces, else empty
    drift_min_slack: float  # smallest one-step drift slack over the run

    @property
    def per_client_totals(self) -> np.ndarray:
        return self.energies.sum(axis=0)


def _decide(ctx: RoundContext, policy: PolicySpec, seed: int, round_index: int) -> np.ndarray:
    if policy.kind == "SelectAll":
        return baseline_select_all(ctx.config)
    if policy.kind == "Random":
        return baseline_random(ctx.config, policy.random_fraction, policy_rng(seed, round_index))
    if policy.kind == "Greedy":
        return baseline_greedy(ctx)
    if policy.kind == "FedCS":
        return baseline_fedcs(ctx, policy.latency_cap)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def run_policy(scenario: Scenario, policy: PolicySpec) -> RunTrace:
    """Run one policy across the scenario's horizon; deterministic in its inputs.

    Backlogs advance from zero for every policy (they are the metric of budget
    compliance even where the policy ignores them). Every round is checked
    against the one-step drift inequality with the scenario's envelope, and
    the end of the run against the queue-implied deficit lower bound; a
    violation of either raises VerificationError.
    """
    drift = scenario.drift
    population, config, seed = scenario.population, scenario.config, scenario.spec.seed
    k, r_total = config.num_clients, config.num_rounds
    backlog_trace = np.zeros((r_total + 1, k))
    energies = np.zeros((r_total, k))
    records: list[RoundRecord] = []
    halves: list[tuple[float, ...]] = []
    drift_min_slack = math.inf
    for r in range(r_total):
        ctx = scenario.observe(r)
        if policy.kind == "PEDPC":
            result = solve_round(backlog_trace[r], ctx, policy.penalty)
            shares, outcome = result.shares, result.outcome
            halves.append(result.half_step_values)
        else:
            shares, outcome = _decide(ctx, policy, seed, r), None
        model.check_shares(shares, config)
        energy_vec, t0, phi = outcome if outcome is not None else ctx.outcome(shares)
        backlog_trace[r + 1] = lyap.update_queue(backlog_trace[r], energy_vec, ctx.credit)
        slack = lyap.drift_gap(backlog_trace[r], backlog_trace[r + 1], energy_vec, ctx.credit,
                               drift)
        if not slack >= -DRIFT_TOL:  # a NaN slack (non-finite energy or backlog) fails too
            raise VerificationError(
                f"one-step drift inequality violated in round {r} (slack {slack:.3e})")
        drift_min_slack = min(drift_min_slack, slack)
        records.append(RoundRecord(r, int(np.count_nonzero(shares)), t0, phi))
        energies[r] = energy_vec
    deficit_ok = lyap.deficit_ok(backlog_trace, energies.sum(axis=0), population.energy_budget)
    if not deficit_ok.all():
        raise VerificationError("queue-implied deficit lower bound violated for clients "
                                f"{np.flatnonzero(~deficit_ok).tolist()}")
    return RunTrace(
        policy=policy.kind,
        seed=seed,
        records=records,
        backlog_trace=backlog_trace,
        energies=energies,
        half_step_values=halves,
        drift_min_slack=drift_min_slack,
    )
