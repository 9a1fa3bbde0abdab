"""Test-only oracles of the per-round subproblems.

`grid_oracle` checks the bandwidth allocator on at most 3 clients by an
exhaustive grid search (`barrier_oracle` covers larger instances), and
`exact_objective` prices shares with the true, non-smoothed max latency.
`brute_force_selection` enumerates every selection set to check
`selection.itmcs` against `selection_objective`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from flsched.bandwidth import Allocation, AllocationInstance, simplex_grid
from flsched.errors import TooLarge
from flsched.model import FEAS_TOL
from flsched.selection import SelectionInstance, SelectionResult

BRUTE_FORCE_LIMIT = 20


def exact_objective(ratios: np.ndarray, instance: AllocationInstance) -> float:
    """Objective with the true (non-smoothed) max latency term."""
    b = np.asarray(ratios, dtype=float)
    u = instance.comp_latency + instance.lat_coeff / b
    return instance.penalty_weight * float(u.max()) + float((instance.price_coeff / b).sum())


def grid_oracle(instance: AllocationInstance, step: float) -> Allocation:
    """Exhaustive grid minimizer of the smoothed objective (small m only).

    The oracle is deliberately independent of the Newton path: it evaluates
    the objective formula directly on every feasible grid point.
    """
    if instance.size > 3:
        raise TooLarge("grid oracle limited to 3 clients")
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

    Raises TooLarge beyond 20 clients.
    """
    k = len(instance.scores)
    if k > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force limited to {BRUTE_FORCE_LIMIT} clients")
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
