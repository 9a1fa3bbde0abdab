"""Round-by-round scheduling: the drift-plus-penalty policy and baselines.

The PEDPC policy prices each client by its energy-deficit backlog, then
alternates exact client selection with projected-Newton bandwidth allocation
(`bandwidth.barrier_solve`, which keeps the name of the log-barrier method it
replaced so that outside tooling still finds it), at most ITER_ROUNDS times per
round, stopping after an alternation that did not lower the round value (a
strict comparison, the same in any energy unit). Its penalty weight V, the
price of the round cost against the drift, is the policy's `penalty`, one
constant for the run. Each half-step is accepted only if it does not increase
the true per-round objective, so the objective trace is non-increasing by
construction even though the allocator solves a smoothed surrogate.
The allocator solves a bandwidth instance that depends only on the selected set,
so it runs only when the selection half-step has just moved that set: the
repeat on an unchanged set would return the same shares against the same
value and change nothing. Nor does it run when the moved set's floored
simplex is the single point 1/m that the candidate already holds (one
client, or m floors of exactly 1/m filling the band): it could only return
that split. `SolveResult` carries the outcome of the accepted shares, so
`run_policy` does not evaluate them again. The round's objective, its
selection scores and its allocator instance come from one `_RoundProblem`,
built once per round. The held set is one ascending index array: the
selection half-step compares the proposal's indices with it, and the
candidate's outcome, the allocator's instance and its outcome take it as
given.

Every policy decides a round as one share vector, whose non-zero entries are
the selected clients. `run_policy` decides round r from its
`model.RoundContext`, `Scenario.observe(r)`, which the scenario's first run
draws and every later run on that scenario reads unchanged, and from row r
of its backlog trace, which `lyapunov.update_queue` fills in place; row r of
its record array holds the round's selected count, latency t0, utility phi
and the squared norm of the backlog after it, one `np.dot` that the drift
check also reads. It checks every round's shares with `model.check_shares`,
whose selected index set is the round's count and what a baseline's outcome
costs, and every run, whatever its policy or caller, against the one-step
drift inequality (a NaN slack fails it) and the queue-implied deficit bound,
and raises VerificationError on a violation. A baseline's run constants
(`greedy_terms`, `fedcs_terms`, Random's sample size, SelectAll's split)
are computed once, at run start, where an infeasible baseline raises, and
each round passes them to its rule (`_fill` for Greedy and FedCS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bandwidth as bw
from . import lyapunov as lyap
from . import model
from .errors import Infeasible, NoConverge, VerificationError
from .model import Population, RoundContext, SystemConfig
from .selection import SelectionInstance, itmcs
from .simenv import Scenario, number, policy_rng

POLICY_KINDS = ("PEDPC", "SelectAll", "Random", "Greedy", "FedCS")
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


class _RoundProblem:
    """One PEDPC round's objective, the backlog-priced energy drift plus V times
    the round cost, and its half-steps' instances. Nothing is priced twice in
    a round: every client's score and latency at the scoring share 1/K are
    priced once, here, the empty start from its zero outcome, and each later
    rescoring reprices only the held clients, from the outcome that accepted
    them, into a copy of those scores."""

    def __init__(self, backlog: np.ndarray, ctx: RoundContext, penalty_weight: float):
        backlog = np.asarray(backlog, dtype=float)
        if not model.finite_non_negative(backlog):
            raise ValueError("backlogs must be finite and non-negative")
        self.backlog, self.ctx, self.penalty_weight = backlog, ctx, penalty_weight
        self.latencies, energy = model.client_round(ctx.population, ctx.rate_coeff,
                                                    1.0 / len(ctx.population))
        self.utility = penalty_weight * ctx.log_utility
        self.scores = lyap.energy_prices(backlog, energy) - self.utility

    def value(self, outcome: tuple[np.ndarray, float, float, np.ndarray]) -> float:
        """The objective (constant term dropped) of a decision, from its `RoundContext.outcome`."""
        energy, t0, phi, _ = outcome
        drift_term = float(np.dot(self.backlog, energy - self.ctx.credit))
        return drift_term + self.penalty_weight * (t0 - phi)

    def rescored(self, held: np.ndarray, outcome: tuple[np.ndarray, float, float, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Scores and latencies: the held clients at their shares in `outcome`, the rest at 1/K."""
        scores, latencies = self.scores.copy(), self.latencies.copy()
        scores[held] = (lyap.energy_prices(self.backlog[held], outcome[0][held])
                        - self.utility[held])
        latencies[held] = outcome[3][held]
        return scores, latencies

    def allocation(self, held: np.ndarray) -> bw.AllocationInstance:
        """The allocator's instance over the held clients; NoConverge if a price overflows."""
        pop, rate = self.ctx.population, self.ctx.rate_coeff[held]
        lat_coeff = pop.model_size[held] / rate
        with np.errstate(over="ignore"):  # tx_power * backlog * model_size, before the division
            price_coeff = pop.tx_power[held] * self.backlog[held] * pop.model_size[held] / rate
        if not np.isfinite(price_coeff).all():
            raise NoConverge("allocator coefficients leave the float range")
        return bw.AllocationInstance(comp_latency=pop.comp_latency[held], lat_coeff=lat_coeff,
                                     price_coeff=price_coeff, penalty_weight=self.penalty_weight,
                                     min_ratio=self.ctx.config.min_ratio)


@dataclass(frozen=True)
class SolveResult:
    shares: np.ndarray  # the round's decision; its last half-step value is the objective
    half_step_values: tuple[float, ...]
    outcome: tuple[np.ndarray, float, float, np.ndarray]  # the shares' RoundContext.outcome


def solve_round(backlog: np.ndarray, ctx: RoundContext, penalty_weight: float) -> SolveResult:
    """Alternating selection/allocation solve of one round's objective at the given backlogs.

    Raises ValueError unless every backlog is finite and non-negative. Starts
    from the always-feasible empty decision (all shares zero) and alternates
    at most ITER_ROUNDS times (read at each call), stopping after the first
    alternation whose value is not below its start value (a NaN value stops
    it too). The returned half-step value trace is non-increasing. An
    all-infeasible round yields the empty decision (its objective is the
    budget credit term alone).
    """
    problem = _RoundProblem(backlog, ctx, penalty_weight)
    k, config, cap = len(ctx.population), ctx.config, ctx.config.max_selectable
    b = np.zeros(k)
    held = b.nonzero()[0]  # the decision's selected clients, ascending
    outcome = (np.zeros(k), 0.0, 0.0, np.zeros(k))  # the empty decision's, without a pass
    value = problem.value(outcome)
    halves = [value]
    scores, latencies = problem.scores, problem.latencies
    for alternation in range(ITER_ROUNDS):
        if alternation:
            scores, latencies = problem.rescored(held, outcome)
        start_value = value
        # selection half-step: keep the proposed set only if it helps
        chosen = itmcs(SelectionInstance(scores, latencies, penalty_weight,
                                         max_selected=cap)).selected.nonzero()[0]
        solve = False
        if chosen.size != held.size or (chosen != held).any():
            m = chosen.size
            equal = 1.0 / m if m else 0.0
            b_cand = np.zeros(k)
            b_cand[chosen] = equal
            cand_out = ctx.outcome(b_cand, chosen)
            cand_val = problem.value(cand_out)
            if cand_val <= value:
                b, value, outcome, held = b_cand, cand_val, cand_out, chosen
                # the allocator's answer is the equal split just evaluated when
                # the floored simplex is that single point
                solve = m > 0 and bw.fixed_share(m, config.min_ratio) != equal
        halves.append(value)
        # bandwidth half-step: allocator solve, kept only if the true value improves;
        # an unmoved set was solved by the previous half-step, whose outcome stands
        if solve:
            alloc = bw.barrier_solve(problem.allocation(held))
            b_new = np.zeros(k)
            b_new[held] = alloc.ratios
            new_out = ctx.outcome(b_new, held)
            new_val = problem.value(new_out)
            if new_val <= value:
                b, value, outcome = b_new, new_val, new_out
        halves.append(value)
        if not value < start_value:
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


def random_sample_size(config: SystemConfig, fraction: float) -> int:
    """How many clients Random samples in every round: floor(fraction * K).

    Raises Infeasible if that is nobody or more clients than the floor admits.
    """
    k = config.num_clients
    n = int(math.floor(fraction * k + 1e-9))  # guard against 0.29*100 = 28.999...
    if n < 1:
        raise Infeasible("fraction selects nobody")
    if n > config.max_selectable:
        raise Infeasible("equal split over the sample falls below the floor")
    return n


def baseline_random(num_clients: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform sample of `size` of the clients, equal shares.

    `size` is `random_sample_size(config, fraction)`, which a run computes once.
    """
    shares = np.zeros(num_clients)
    shares[rng.choice(num_clients, size=size, replace=False)] = 1.0 / size
    return shares


def _fill(ctx: RoundContext, upload: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """One round of Greedy or FedCS, from its run's `greedy_terms` or `fedcs_terms`.

    Each client with positive slack and a live link needs the share whose upload
    cost upload / (share * rate) uses up that slack, clamped up to the floor (a
    larger share only lowers the cost). In order of need, clients are admitted
    while the shares fit in the band; the last one is topped up to fill it.
    Only those eligible clients are computed.
    """
    idx = ((slack > 0) & (ctx.rate_coeff > 0)).nonzero()[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        need = upload[idx] / (ctx.rate_coeff[idx] * slack[idx])
    shares = np.maximum(need, ctx.config.min_ratio)
    order = shares.argsort(kind="stable")  # ties in index order, as idx ascends
    # every share is at least the floor, so the running totals rise: admission
    # stops at the first total past the band
    total = shares[order].cumsum()
    admitted = order[:total.searchsorted(1.0 + model.FEAS_TOL, side="right")]
    out = np.zeros(slack.size)
    out[idx[admitted]] = shares[admitted]
    if admitted.size:
        out[idx[admitted[-1]]] += 1.0 - total[admitted.size - 1]
    return out


def greedy_terms(population: Population, credit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy's (upload, slack) for `_fill`, constant over a run: each client's
    upload energy per unit of rate-time, tx_power * model_size, and the energy
    its round credit leaves after training, credit - comp_energy."""
    return population.tx_power * population.model_size, credit - population.comp_energy


def fedcs_terms(population: Population, latency_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """FedCS's (upload, slack) for `_fill`, constant over a run: each client's
    model size, and the time the latency cap leaves after training."""
    return population.model_size, latency_cap - population.comp_latency


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunTrace:
    """What a finished run decided and spent; `harness.round_columns` derives the rest."""

    policy: str
    seed: int
    # (R,) fields n_selected, latency (t0), phi and backlog_sq (squared norm of the
    # backlog after the round); row r is round r
    records: np.ndarray
    backlog_trace: np.ndarray  # (R+1, K); row r is the backlog entering round r
    energies: np.ndarray  # (R, K) realized per-round energy of selected clients
    half_step_values: list[tuple[float, ...]]  # PEDPC objective traces, else empty
    drift_min_slack: float  # smallest one-step drift slack over the run


def _baseline(scenario: Scenario, policy: PolicySpec
              ) -> Callable[[RoundContext, int], np.ndarray]:
    """A baseline's decision for (round context, round index).

    Its run constants are computed once, here, so a policy that no round
    can satisfy raises Infeasible at run start.
    """
    config, pop = scenario.config, scenario.population
    if policy.kind == "SelectAll":
        shares = baseline_select_all(config)
        return lambda ctx, r: shares
    if policy.kind == "Random":
        seed, k = scenario.spec.seed, config.num_clients
        size = random_sample_size(config, policy.random_fraction)
        return lambda ctx, r: baseline_random(k, size, policy_rng(seed, r))
    upload, slack = (greedy_terms(pop, scenario.credit) if policy.kind == "Greedy"
                     else fedcs_terms(pop, policy.latency_cap))
    return lambda ctx, r: _fill(ctx, upload, slack)


def run_policy(scenario: Scenario, policy: PolicySpec) -> RunTrace:
    """Run one policy across the scenario's horizon; deterministic in its inputs.

    Backlogs advance from zero for every policy (they are the metric of budget
    compliance even where the policy ignores them). Every round is checked
    against the one-step drift inequality with the scenario's envelope, and
    the end of the run against the queue-implied deficit lower bound; a
    violation of either raises VerificationError. A horizon too large for its
    per-round arrays raises Infeasible before the first round.
    """
    drift = scenario.drift
    population, config, seed = scenario.population, scenario.config, scenario.spec.seed
    k, r_total = config.num_clients, config.num_rounds
    decide = None if policy.kind == "PEDPC" else _baseline(scenario, policy)
    try:
        backlog_trace = np.zeros((r_total + 1, k))
        energies = np.zeros((r_total, k))
        records = np.zeros(r_total, dtype=[("n_selected", np.int64), ("latency", float),
                                           ("phi", float), ("backlog_sq", float)])
    except (ValueError, MemoryError) as exc:  # numpy's "array is too big", or no memory
        raise Infeasible(f"horizon of {r_total} rounds for {k} clients is too large to"
                         " allocate") from exc
    halves: list[tuple[float, ...]] = []
    drift_min_slack = math.inf
    backlog_sq = 0.0  # squared norm of the zero backlog entering round 0
    for r in range(r_total):
        ctx = scenario.observe(r)
        if decide is None:
            result = solve_round(backlog_trace[r], ctx, policy.penalty)
            shares, outcome = result.shares, result.outcome
            halves.append(result.half_step_values)
        else:
            shares, outcome = decide(ctx, r), None
        selected = model.check_shares(shares, config)
        energy_vec, t0, phi, _ = outcome if outcome is not None else ctx.outcome(shares, selected)
        after = lyap.update_queue(backlog_trace[r], energy_vec, ctx.credit,
                                  out=backlog_trace[r + 1])
        sq_before, backlog_sq = backlog_sq, float(np.dot(after, after))
        slack = lyap.drift_gap(backlog_trace[r], energy_vec, ctx.credit, drift, sq_before,
                               backlog_sq)
        if not slack >= -DRIFT_TOL:  # a NaN slack (non-finite energy or backlog) fails too
            raise VerificationError(
                f"one-step drift inequality violated in round {r} (slack {slack:.3e})")
        drift_min_slack = min(drift_min_slack, slack)
        records[r] = (selected.size, t0, phi, backlog_sq)
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
