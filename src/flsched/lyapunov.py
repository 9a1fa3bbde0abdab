"""Virtual energy-deficit queues and the quadratic stability machinery.

Each client carries a backlog of energy spent beyond its per-round budget
share; the scheduler prices clients by backlog so long-term budgets are met
without lookahead. This module owns the queue update, the quadratic
congestion measure, the one-step drift constant, and run diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBound
from .model import Decision, Population, SystemConfig


@dataclass(frozen=True)
class QueueState:
    """Non-negative per-client energy-deficit backlogs at one round."""

    backlog: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.backlog, dtype=float)
        object.__setattr__(self, "backlog", z)
        if np.any(z < 0) or np.any(~np.isfinite(z)):
            raise ValueError("backlogs must be finite and non-negative")

    @classmethod
    def zero(cls, num_clients: int) -> "QueueState":
        return cls(np.zeros(num_clients))


@dataclass(frozen=True)
class DriftBound:
    """Envelope of the per-round queue increments and the drift constant.

    constant = 0.5 * sum_k max(y_min_k^2, y_max_k^2), valid whenever every
    realized increment x_k E_k - H_k/R stays inside [y_min_k, y_max_k].
    """

    y_min: np.ndarray
    y_max: np.ndarray
    constant: float

    def __post_init__(self):
        if np.any(self.y_min > self.y_max):
            raise ValueError("y_min must not exceed y_max")


def update_queue(state: QueueState, decision: Decision, energies: np.ndarray,
                 population: Population, config: SystemConfig) -> QueueState:
    """Advance backlogs one round: add spent energy, credit the budget share, clamp at 0."""
    spent = np.where(decision.selected, np.asarray(energies, dtype=float), 0.0)
    credit = population.energy_budget / config.num_rounds
    return QueueState(np.maximum(state.backlog + spent - credit, 0.0))


def lyapunov_value(state: QueueState) -> float:
    """Scalar congestion measure: half the squared backlog norm."""
    return 0.5 * float(np.dot(state.backlog, state.backlog))


def drift_bound(population: Population, config: SystemConfig, max_energy: np.ndarray) -> DriftBound:
    """Drift constant from per-client worst-case round energies.

    max_energy[k] must upper-bound any realized round energy of client k
    (computed by the caller at the bandwidth floor and the worst channel the
    environment can draw). Raises InfeasibleBound if any entry is infinite.
    """
    max_energy = np.asarray(max_energy, dtype=float)
    if np.any(max_energy < 0) or np.any(np.isnan(max_energy)):
        raise ValueError("max_energy must be non-negative")
    if np.any(np.isinf(max_energy)):
        raise InfeasibleBound("worst-case round energy is unbounded")
    credit = population.energy_budget / config.num_rounds
    y_min = -credit
    y_max = max_energy - credit
    constant = 0.5 * float(np.maximum(y_min ** 2, y_max ** 2).sum())
    return DriftBound(y_min, y_max, constant)


def drift_gap(before: QueueState, after: QueueState, decision: Decision,
              energies: np.ndarray, population: Population, config: SystemConfig,
              bound: DriftBound) -> float:
    """Slack of the one-step drift inequality (non-negative when it holds).

    Returns D + sum_k Z_k (x_k E_k - H_k/R) - [Y(Z') - Y(Z)].
    """
    spent = np.where(decision.selected, np.asarray(energies, dtype=float), 0.0)
    increments = spent - population.energy_budget / config.num_rounds
    rhs = bound.constant + float(np.dot(before.backlog, increments))
    return rhs - (lyapunov_value(after) - lyapunov_value(before))


def energy_prices(backlog: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Backlog-weighted per-client round energies (see `model.client_round`).

    A zero backlog prices at zero, even on a dead link (infinite energy); a
    positive backlog on a dead link prices at +inf.
    """
    backlog = np.asarray(backlog, dtype=float)
    with np.errstate(invalid="ignore"):
        raw = backlog * energy  # 0 * inf -> nan, masked below
    return np.where(backlog > 0, raw, 0.0)


def stability_series(backlog_trace: np.ndarray, consumed: np.ndarray | None = None,
                     budgets: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean-rate diagnostic Z_k(r)/r for r >= 1, plus the deficit lower-bound check.

    backlog_trace has shape (R+1, K) with row r the backlog entering round r.
    When per-client total consumed energy and budgets are given, also returns
    whether Z_k(R) - Z_k(0) >= consumed_k - budget_k holds for each client.
    """
    trace = np.asarray(backlog_trace, dtype=float)
    if trace.ndim != 2 or trace.shape[0] < 2:
        raise ValueError("need a trace with at least one transition")
    rounds = np.arange(1, trace.shape[0])
    ratios = trace[1:] / rounds[:, None]
    check = None
    if consumed is not None:
        if budgets is None:
            raise ValueError("budgets required alongside consumed energies")
        final_gap = trace[-1] - trace[0]
        check = final_gap >= np.asarray(consumed) - np.asarray(budgets) - 1e-9
    return ratios, check
