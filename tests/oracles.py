"""Test-only oracles of the per-round subproblems.

`grid_oracle` checks the bandwidth allocator on at most 3 clients by an
exhaustive grid search (`barrier_oracle` covers larger instances),
`exact_objective` prices shares with the true, non-smoothed max latency, and
`smoothing_gap` measures how far the smoothed max lies above it.
`brute_force_selection` enumerates every selection set to check
`selection.itmcs` against `selection_objective` on at most 20 clients, and
`ceiling_selection` spells out the candidates itmcs scans, for any size.
`lookahead_oracle` checks the frame lookahead of `harness.verify_bounds` by
enumerating every plan.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from flsched import model
from flsched.bandwidth import Allocation, AllocationInstance, simplex_grid
from flsched.errors import Infeasible
from flsched.model import FEAS_TOL
from flsched.selection import SelectionInstance, SelectionResult
from flsched.simenv import Scenario

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
    if instance.max_selected is not None:
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
    cap = k if instance.max_selected is None else instance.max_selected
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


def lookahead_oracle(scenario: Scenario, frame_index: int, grid_step: float) -> float:
    """Best average cost of one frame over every plan, enumerated with itertools.product.

    A round's candidate is the empty round or a selection set with one grid
    share vector, built row by row; a plan is one candidate per round and is
    kept if no client's energy over the frame exceeds its per-frame budget.
    """
    config, pop = scenario.config, scenario.population
    k = config.num_clients
    cap = pop.energy_budget / config.num_frames
    rounds = []
    for r in range(frame_index * config.frame_len, (frame_index + 1) * config.frame_len):
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
    return best / config.frame_len
