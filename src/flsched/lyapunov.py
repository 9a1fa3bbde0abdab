"""Virtual energy-deficit queues and the quadratic stability machinery.

Each client carries a backlog of energy spent beyond its per-round budget
share; the scheduler prices clients by backlog so long-term budgets are met
without lookahead. This module owns the queue update, the quadratic
congestion measure, the one-step drift constant and slack, and the deficit
check every run ends with. The congestion measure is the one in the drift
slack, which takes the squared norms of both backlogs and halves their
difference, so a run squares each backlog's norm once.

A backlog is a plain (K,) float array. Inside a run it is made by
`update_queue`'s clamp from the zero vector; `scheduler.solve_round` checks
every backlog it is given, in each PEDPC round too, and the run's drift
check fails on a non-finite backlog or energy (its slack is NaN).
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible


def update_queue(backlog: np.ndarray, spent: np.ndarray, credit: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Advance backlogs one round: add spent (0 if unselected), subtract the credit, clamp at 0.

    The result is written into `out` if given, a new array otherwise, and returned.
    """
    return np.maximum(np.subtract(np.add(backlog, spent, out=out), credit, out=out), 0.0,
                      out=out)


def drift_bound(credit: np.ndarray, max_energy: np.ndarray) -> float:
    """D = 0.5 * sum_k max(credit_k^2, (max_energy_k - credit_k)^2), the drift constant.

    max_energy[k] must upper-bound any realized round energy of client k
    (computed by the caller at the bandwidth floor and the worst channel the
    environment can draw). Raises Infeasible if any entry is infinite,
    or if D itself lies beyond the float range.
    """
    max_energy = np.asarray(max_energy, dtype=float)
    if np.any(max_energy < 0) or np.any(np.isnan(max_energy)):
        raise ValueError("max_energy must be non-negative")
    if np.any(np.isinf(max_energy)):
        raise Infeasible("worst-case round energy is unbounded")
    with np.errstate(over="ignore"):
        constant = 0.5 * float(np.maximum(credit ** 2, (max_energy - credit) ** 2).sum())
    if not np.isfinite(constant):
        raise Infeasible("drift constant overflows the float range")
    return constant


def drift_gap(before: np.ndarray, spent: np.ndarray, credit: np.ndarray, constant: float,
              sq_before: float, sq_after: float) -> float:
    """Slack of the one-step drift inequality (non-negative when it holds).

    Returns D + sum_k Z_k (spent_k - credit_k) - [Y(Z') - Y(Z)], given the
    backlogs Z entering the round and the squared norms of those and of the
    backlogs Z' after it; the Lyapunov value Y is half the squared norm.
    """
    rhs = constant + float(np.dot(before, spent - credit))
    return rhs - 0.5 * (sq_after - sq_before)


def energy_prices(backlog: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Backlog-weighted per-client round energies (see `model.client_round`).

    A zero backlog prices at zero, even on a dead link (infinite energy); a
    positive backlog on a dead link prices at +inf.
    """
    backlog = np.asarray(backlog, dtype=float)
    with np.errstate(invalid="ignore"):
        raw = backlog * energy  # 0 * inf -> nan, masked below
    return np.where(backlog > 0, raw, 0.0)


def deficit_ok(backlog_trace: np.ndarray, consumed: np.ndarray, budgets: np.ndarray
               ) -> np.ndarray:
    """Per client, whether Z_k(R) - Z_k(0) >= consumed_k - budget_k (row r: backlog entering r).

    The bound holds exactly, since each clamp can only raise a backlog. The
    allowance is 1e-9 J plus what rounding can cost in the R clamped updates,
    the R-term sum `consumed` and the budget's per-round split: at most
    4 R 2**-53 times consumed + budget + largest backlog, which bounds every
    partial sum they pass through.
    """
    rounds = backlog_trace.shape[0] - 1
    allowance = 1e-9 + 4 * rounds * 2.0 ** -53 * (consumed + budgets + backlog_trace.max(axis=0))
    final_gap = backlog_trace[-1] - backlog_trace[0]
    return final_gap >= consumed - budgets - allowance
