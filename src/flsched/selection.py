"""Exact client selection for the per-round mixed-integer subproblem.

The subproblem scores each client with q_k (backlog price minus weighted
utility) and charges the penalty weight times the slowest selected client.
Only negative-score clients can help; among them, for any latency ceiling the
best set is determined, so scanning ceilings in increasing latency order is
exact. The scan has two phases: plain prefix sums while every predecessor
fits under the cap, then a heap that keeps the cap-1 most negative scores.
A brute-force enumerator, a per-ceiling definition and the earlier one-loop
heap scan back the solver in tests.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SelectionInstance:
    """Scores q_k, predicted latencies T_k, penalty weight, set-size cap."""

    scores: np.ndarray
    latencies: np.ndarray
    penalty_weight: float
    max_selected: int

    def __post_init__(self):
        q = np.asarray(self.scores, dtype=float)
        t = np.asarray(self.latencies, dtype=float)
        object.__setattr__(self, "scores", q)
        object.__setattr__(self, "latencies", t)
        if q.shape != t.shape or q.ndim != 1:
            raise ValueError("scores and latencies must be 1-d and equal length")
        # min carries a NaN through: a NaN score makes q.min() NaN, and a NaN
        # or negative latency fails t.min() >= 0, which +inf passes
        if q.size and (math.isnan(q.min()) or not t.min() >= 0):
            raise ValueError("scores must not be NaN; latencies must be >= 0")
        if not self.penalty_weight > 0:
            raise ValueError("penalty_weight must be positive")
        cap = self.max_selected
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral):
            raise ValueError(f"max_selected must be an integer, got {cap!r}")
        if cap < 0:
            raise ValueError("max_selected must be non-negative")


@dataclass(frozen=True)
class SelectionResult:
    selected: np.ndarray  # bool per client
    objective: float


def itmcs(instance: SelectionInstance) -> SelectionResult:
    """Exact minimizer of W over selections of at most the cap in size.

    Candidates are, per negative-score client taken as the latency ceiling,
    that client plus the most negative predecessor scores that fit under the
    cap. The empty set is always a candidate, so the returned objective is
    never positive, and the first candidate with the smallest negative W
    wins. Infinite-latency clients are never eligible regardless of score.

    The scan runs on Python floats in latency order (ties by index), in two
    phases. The first cap-1 ceilings keep every predecessor, so their pool
    sum is the plain prefix sum. From there a min-heap of the negated scores
    keeps the cap-1 most negative predecessors, and each client pushes its
    score in and pops the least negative one out, its own under a cap of 1.
    A NaN W (an overflowing v*t next to a -inf score) is never chosen.
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
        order = eligible[t[eligible].argsort(kind="stable")]  # eligible ascends: ties by index
        with np.errstate(over="ignore", invalid="ignore"):
            head = (v * t[order]).tolist()
        clients = zip(head, q[order].tolist())
        pool: list[float] = []  # the negated predecessor scores in the sum
        pool_sum = 0.0
        # phase one: the first cap-1 ceilings, whose predecessors all fit
        for pos, (vt, qi) in zip(range(cap - 1), clients):
            w = vt + qi + pool_sum
            if w < best_w:
                best_w, best_pos = w, pos
            pool_sum += qi
            pool.append(-qi)
        # phase two: a full pool drops its least negative score per client
        heapq.heapify(pool)
        for pos, (vt, qi) in enumerate(clients, len(pool)):
            w = vt + qi + pool_sum
            if w < best_w:
                best_w, best_pos = w, pos
            pool_sum += qi
            pool_sum += heapq.heappushpop(pool, -qi)
    selected = np.zeros(k, dtype=bool)
    if best_pos >= 0:
        preds = order[:best_pos]
        selected[order[best_pos]] = True
        if cap - 1 >= len(preds):  # the cap does not bind
            selected[preds] = True
        else:
            selected[preds[np.lexsort((preds, q[preds]))[:cap - 1]]] = True
    return SelectionResult(selected, best_w)
