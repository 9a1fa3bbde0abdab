"""Test-only oracles of the per-round subproblems.

`grid_oracle` checks the bandwidth allocator on at most 3 clients by an
exhaustive grid search (`barrier_oracle` covers larger instances),
`exact_objective` prices shares with the true, non-smoothed max latency, and
`smoothing_gap` measures how far the smoothed max lies above it.
`brute_force_selection` enumerates every selection set to check
`selection.itmcs` against `selection_objective` on at most 20 clients, and
`ceiling_selection` spells out the candidates itmcs scans, for any size;
`heap_selection` is itmcs's earlier one-loop scan, which it must match bit
for bit.
`lookahead_oracle` checks the frame lookahead of `harness.verify_bounds` by
enumerating every plan. `masked_selected_totals` and `masked_fill` compute
`model.selected_totals` and `scheduler._fill` as masked passes over every
client, the reference their passes over the clients concerned must match
bit for bit. `masked_baseline_run` runs a baseline policy as such a pass
per round, with every constant and check computed afresh in each round,
the reference `scheduler.run_policy` must match bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from flsched import model
from flsched.bandwidth import Allocation, AllocationInstance, simplex_grid
from flsched.errors import Infeasible, VerificationError
from flsched.model import FEAS_TOL, SUM_TOL, Population, RoundContext
from flsched.scheduler import PolicySpec
from flsched.selection import SelectionInstance, SelectionResult
from flsched.simenv import Scenario, policy_rng

BRUTE_FORCE_LIMIT = 20


def exact_objective(ratios: np.ndarray, instance: AllocationInstance) -> float:
    """Objective with the true (non-smoothed) max latency term."""
    b = np.asarray(ratios, dtype=float)
    u = instance.comp_latency + instance.lat_coeff / b
    return instance.penalty_weight * float(u.max()) + float((instance.price_coeff / b).sum())


def smoothing_gap(ratios: np.ndarray, instance: AllocationInstance) -> float:
    """LSE minus max of the latency terms; lies in [0, ln(m)]."""
    u = instance.comp_latency + instance.lat_coeff / np.asarray(ratios, dtype=float)
    return math.log(float(np.exp(u - u.max()).sum()))


def grid_oracle(instance: AllocationInstance, step: float) -> Allocation:
    """Exhaustive grid minimizer of the smoothed objective (small m only).

    The oracle is deliberately independent of the Newton path: it evaluates
    the objective formula directly on every feasible grid point.
    """
    if instance.size > 3:
        raise Infeasible("grid oracle limited to 3 clients")
    if step > 1e-3 + FEAS_TOL:
        raise ValueError("oracle grid step must be at most 1e-3")
    points = simplex_grid(instance.size, instance.min_ratio, step)
    u = instance.comp_latency[None, :] + instance.lat_coeff[None, :] / points
    lse = u[:, 0]
    for j in range(1, u.shape[1]):
        lse = np.logaddexp(lse, u[:, j])
    values = instance.penalty_weight * lse + (instance.price_coeff[None, :] / points).sum(axis=1)
    best = int(np.argmin(values))
    return Allocation(points[best], float(values[best]), 0, 0.0)


def selection_objective(subset: Iterable[int], instance: SelectionInstance) -> float:
    """W(S): penalty times the largest latency in S plus the score sum; W({}) = 0."""
    idx = list(subset)
    if not idx:
        return 0.0
    t_max = float(np.max(instance.latencies[idx]))
    return instance.penalty_weight * t_max + float(np.sum(instance.scores[idx]))


@lru_cache(maxsize=8)
def _subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^k selection masks as a bool matrix, plus per-row set sizes."""
    masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    masks = masks.astype(bool)
    return masks, masks.sum(axis=1)


def brute_force_selection(instance: SelectionInstance) -> SelectionResult:
    """Exhaustive minimizer of W; ties broken by smaller set, then lexicographic.

    Raises Infeasible beyond 20 clients.
    """
    k = len(instance.scores)
    if k > BRUTE_FORCE_LIMIT:
        raise Infeasible(f"brute force limited to {BRUTE_FORCE_LIMIT} clients")
    masks, sizes = _subset_masks(k)
    t_max = np.where(masks, instance.latencies[None, :], -np.inf).max(axis=1)
    t_max[0] = 0.0
    # where/sum instead of matmul so infinite scores cannot produce 0*inf NaNs
    score_sum = np.where(masks, instance.scores[None, :], 0.0).sum(axis=1)
    w = instance.penalty_weight * t_max + score_sum
    w[0] = 0.0
    w = np.where(sizes > instance.max_selected, np.inf, w)
    w_min = float(w.min())
    cand = np.flatnonzero(w == w_min)
    cand = cand[sizes[cand] == sizes[cand].min()]
    best = min(cand, key=lambda row: tuple(np.flatnonzero(masks[row])))
    return SelectionResult(masks[best].copy(), w_min)


def ceiling_selection(instance: SelectionInstance) -> SelectionResult:
    """The best of one candidate per latency ceiling, by definition.

    The clients that can help (negative score, finite latency) are taken in
    order of latency, then index. Each, as the slowest client selected, is a
    candidate together with the cap-1 most negative scores before it (ties by
    index), found by sorted(). The empty set is the first candidate, and the
    first candidate with the smallest W wins.
    """
    q, t = instance.scores.tolist(), instance.latencies.tolist()
    k = len(q)
    cap = instance.max_selected
    helpful = sorted((i for i in range(k) if q[i] < 0 and math.isfinite(t[i])),
                     key=lambda i: (t[i], i))
    best, best_w = [], 0.0
    for pos, ceil in enumerate(helpful if cap >= 1 else []):
        companions = sorted(helpful[:pos], key=lambda i: (q[i], i))[:cap - 1]
        w = instance.penalty_weight * t[ceil] + q[ceil] + math.fsum(q[i] for i in companions)
        if w < best_w:
            best, best_w = [ceil, *companions], w
    selected = np.zeros(k, dtype=bool)
    selected[best] = True
    return SelectionResult(selected, best_w)


def heap_selection(instance: SelectionInstance) -> SelectionResult:
    """`selection.itmcs` as it was before its scan split into two phases.

    One loop over the latency order (a lexsort on latency, then index) with
    a per-client cap test and heap push while the pool fills; the tail sorts
    the predecessors by score even when the cap does not bind. The reference
    the two-phase scan must match bit for bit, `objective` included.
    """
    q = instance.scores
    t = instance.latencies
    v = instance.penalty_weight
    k = len(q)
    eligible = np.flatnonzero((q < 0) & np.isfinite(t))
    cap = instance.max_selected
    best_w = 0.0
    best_pos = -1
    if cap >= 1 and eligible.size:
        order = eligible[np.lexsort((eligible, t[eligible]))]
        with np.errstate(over="ignore", invalid="ignore"):
            head = (v * t[order]).tolist()
        # max-heap of the most negative predecessor scores, at most cap-1 kept
        pool: list[float] = []
        pool_sum = 0.0
        for pos, (vt, qi) in enumerate(zip(head, q[order].tolist())):
            w = vt + qi + pool_sum
            if w < best_w:
                best_w, best_pos = w, pos
            if cap > 1:
                pool_sum += qi
                if len(pool) < cap - 1:
                    heapq.heappush(pool, -qi)
                else:  # a full pool drops its least negative score
                    pool_sum += heapq.heappushpop(pool, -qi)
    selected = np.zeros(k, dtype=bool)
    if best_pos >= 0:
        preds = order[:best_pos]
        take = min(cap - 1, len(preds))
        selected[order[best_pos]] = True
        if take:
            by_score = preds[np.lexsort((preds, q[preds]))][:take]
            selected[by_score] = True
    return SelectionResult(selected, best_w)


def lookahead_oracle(scenario: Scenario, frame_rounds: int, frame_index: int,
                     grid_step: float) -> float:
    """Best average cost of one frame over every plan, enumerated with itertools.product.

    The frame is rounds [frame_index, frame_index + 1) * frame_rounds. A
    round's candidate is the empty round or a selection set with one grid
    share vector, built row by row; a plan is one candidate per round and is
    kept if no client's energy over the frame exceeds its per-frame budget.
    """
    config, pop = scenario.config, scenario.population
    k = config.num_clients
    cap = pop.energy_budget / (config.num_rounds // frame_rounds)
    rounds = []
    for r in range(frame_index * frame_rounds, (frame_index + 1) * frame_rounds):
        ctx = scenario.observe(r)
        candidates = [(0.0, np.zeros(k))]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(k), size) for size in range(1, k + 1))
        for idx in map(list, subsets):
            if len(idx) > config.max_selectable or min(ctx.rate_coeff[idx]) <= 0:
                continue
            phi = sum(float(ctx.log_utility[i]) for i in idx)
            for row in simplex_grid(len(idx), config.min_ratio, grid_step):
                shares = np.zeros(k)
                shares[idx] = row
                lat, energy = model.client_round(pop, ctx.rate_coeff, shares)
                spent = np.where(shares > 0, energy, 0.0)
                candidates.append((float(max(lat[idx])) - phi, spent))
        rounds.append(candidates)
    best = np.inf
    for plan in itertools.product(*rounds):
        cost, spent = 0.0, np.zeros(k)
        for y, e in plan:
            cost, spent = cost + y, spent + e
        if (spent <= cap + 1e-12).all():
            best = min(best, cost)
    return best / frame_rounds


def masked_selected_totals(population: Population, rate_coeff: np.ndarray, shares: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """`model.selected_totals` costed for every client, the unselected masked to zero."""
    sel = shares != 0
    latency, energy = model.client_round(population, rate_coeff, shares)
    if np.isinf(latency[sel]).any():
        raise Infeasible("selected client with zero transmission rate")
    return np.where(sel, latency, 0.0), np.where(sel, energy, 0.0)


def masked_fill(ctx: RoundContext, upload: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """`scheduler._fill` with the need computed for every client, +inf where ineligible."""
    eligible = (slack > 0) & (ctx.rate_coeff > 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        need = np.where(eligible, upload / (ctx.rate_coeff * np.where(eligible, slack, 1.0)),
                        np.inf)
    shares = np.maximum(need, ctx.config.min_ratio)
    idx = np.flatnonzero(eligible)
    order = idx[np.lexsort((idx, shares[idx]))]
    total = np.cumsum(shares[order])
    admitted = order[:np.searchsorted(total, 1.0 + FEAS_TOL, side="right")]
    out = np.zeros(shares.size)
    out[admitted] = shares[admitted]
    if admitted.size:
        out[admitted[-1]] += 1.0 - total[admitted.size - 1]
    return out


def _masked_decision(ctx: RoundContext, policy: PolicySpec, seed: int, r: int) -> np.ndarray:
    """A baseline's round-r shares, its size, checks and terms computed in the round."""
    config, pop = ctx.config, ctx.population
    k = config.num_clients
    if policy.kind == "SelectAll":
        if k > config.max_selectable:
            raise Infeasible("equal split over all clients falls below the floor")
        return np.full(k, 1.0 / k)
    if policy.kind == "Random":
        n = int(math.floor(policy.random_fraction * k + 1e-9))
        if n < 1:
            raise Infeasible("fraction selects nobody")
        if n > config.max_selectable:
            raise Infeasible("equal split over the sample falls below the floor")
        shares = np.zeros(k)
        shares[policy_rng(seed, r).choice(k, size=n, replace=False)] = 1.0 / n
        return shares
    if policy.kind == "Greedy":
        return masked_fill(ctx, pop.tx_power * pop.model_size, ctx.credit - pop.comp_energy)
    if policy.kind == "FedCS":
        return masked_fill(ctx, pop.model_size, policy.latency_cap - pop.comp_latency)
    raise ValueError(f"{policy.kind} is not a baseline")


def _masked_check_shares(shares: np.ndarray, config: model.SystemConfig) -> None:
    """`model.check_shares` on the masked selected shares."""
    held = shares[shares != 0]
    if not held.size:
        return
    if not held.min() >= config.min_ratio - FEAS_TOL:
        raise VerificationError("selected client below the bandwidth floor")
    if not abs(held.sum() - 1.0) <= SUM_TOL:
        raise VerificationError("selected shares must sum to one")


def masked_baseline_run(scenario: Scenario, policy: PolicySpec
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """A baseline's (records, energies, backlog_trace, drift_min_slack) over the horizon.

    Each round decides, checks and costs its shares over every client, finds
    the selected ones by mask and counts them with count_nonzero, and
    advances the backlogs into a new row; the drift slack is taken from the
    round's two squared backlog norms, as `scheduler.run_policy` takes it.
    The deficit check at the end of a run is left out.
    """
    config, seed = scenario.config, scenario.spec.seed
    k, r_total = config.num_clients, config.num_rounds
    records = np.zeros(r_total, dtype=[("n_selected", np.int64), ("latency", float),
                                       ("phi", float), ("backlog_sq", float)])
    energies, backlog_trace = np.zeros((r_total, k)), np.zeros((r_total + 1, k))
    min_slack, y_after = math.inf, 0.0
    for r in range(r_total):
        ctx = scenario.observe(r)
        shares = _masked_decision(ctx, policy, seed, r)
        _masked_check_shares(shares, config)
        latency, energy = masked_selected_totals(ctx.population, ctx.rate_coeff, shares)
        phi = float(ctx.log_utility[shares != 0].sum())
        backlog_trace[r + 1] = np.maximum(backlog_trace[r] + energy - ctx.credit, 0.0)
        backlog_sq = float(np.dot(backlog_trace[r + 1], backlog_trace[r + 1]))
        y_before, y_after = y_after, 0.5 * backlog_sq
        slack = (scenario.drift + float(np.dot(backlog_trace[r], energy - ctx.credit))
                 - (y_after - y_before))
        min_slack = min(min_slack, slack)
        records[r] = (np.count_nonzero(shares), float(latency.max()), phi, backlog_sq)
        energies[r] = energy
    return records, energies, backlog_trace, min_slack
