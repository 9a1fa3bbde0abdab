"""Per-round physics of the federated system.

Each physical quantity is defined here once, vectorized over the client
population (`Population`, one array per client parameter): training energy
and latency, full-band Shannon rates (`rate_coefficients`, base-2 log,
bits/s), per-client round latency and energy at a vector of band shares
(`client_round` and `selected_totals`), and the diminishing-returns accuracy
utility (`client_utility`, natural log).
A round's decision is its share vector: a client is selected iff its share
is non-zero. `RoundContext` holds a round's rates with the utility and
credit, and its `outcome` assembles the round cost from them: the slowest
selected client's latency minus the selected utility. So are the
constraints: the floor and simplex rules of one round's shares
(`check_shares`), how many clients the floor admits (`max_clients`), and
the energy budget's per-round credit H_k/R (`round_credit`) and horizon
overflow (`energy_overflow`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import Infeasible, VerificationError

SUM_TOL = 1e-9  # allowed slack on the bandwidth simplex equality
FEAS_TOL = 1e-12  # allowed excess of the floored shares over the whole band


def finite_non_negative(values: np.ndarray) -> bool:
    """Whether every entry is finite and >= 0, in two reductions.

    min and max carry a NaN through, and a NaN fails both comparisons.
    """
    return not values.size or 0 <= values.min() <= values.max() < np.inf


def max_clients(min_ratio: float) -> int:
    """Largest m with m * min_ratio <= 1 + FEAS_TOL: how many clients the floor admits.

    The quotient 1/min_ratio is clamped at 2**62, which stands for any
    population: a floor below about 2e-19 admits every set, and a subnormal
    one would otherwise overflow the quotient.
    """
    m = int(min((1.0 + FEAS_TOL) / float(min_ratio), 2.0 ** 62)) + 1
    while m * min_ratio > 1 + FEAS_TOL:
        m -= 1
    return m


@dataclass(frozen=True)
class SystemConfig:
    """Shared system parameters: horizon, frames, spectrum, and cost weights."""

    num_clients: int
    num_rounds: int
    frame_len: int
    num_frames: int
    bandwidth: float  # Hz
    min_ratio: float  # smallest bandwidth share a selected client may get
    noise_power: float  # W
    accuracy_coeff: float  # per-bit weight in the accuracy proxy

    def __post_init__(self):
        if self.num_rounds != self.frame_len * self.num_frames:
            raise ValueError(f"num_rounds {self.num_rounds} != frame_len {self.frame_len}"
                             f" * num_frames {self.num_frames}")
        if self.frame_len < 1 or self.num_frames < 1:
            raise ValueError("frame_len and num_frames must be positive")
        if not (0 < self.min_ratio <= 1):
            raise ValueError("min_ratio must lie in (0, 1]")
        if self.bandwidth <= 0 or self.noise_power <= 0 or self.accuracy_coeff <= 0:
            raise ValueError("bandwidth, noise_power, accuracy_coeff must be positive")
        if self.num_clients < 1:
            raise ValueError("need at least one client")

    @property
    def max_selectable(self) -> int:
        """Largest set that can each receive at least min_ratio of the band."""
        return max_clients(self.min_ratio)


@dataclass(frozen=True, eq=False)
class Population:
    """Static hardware, radio and data parameters, one array entry per client.

    Every field is a 1-d array over the same clients, stored as floats except
    `local_iters`, which keeps the dtype it is given. The static per-client
    training cost, independent of the channel, is precomputed as
    `comp_energy` and `comp_latency`.
    """

    cpu_freq: np.ndarray  # cycles/s
    cycles_per_bit: np.ndarray  # cycles/bit
    capacitance: np.ndarray  # effective switched capacitance, J*s^2/cycle^3
    tx_power: np.ndarray  # W
    model_size: np.ndarray  # bits uploaded per round
    data_size: np.ndarray  # bits of local training data
    energy_budget: np.ndarray  # J over the whole horizon
    local_iters: np.ndarray  # local training passes per round, integral

    def __post_init__(self):
        for f in fields(self):
            dtype = None if f.name == "local_iters" else float
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=dtype))
        if any(getattr(self, f.name).shape != (len(self),) for f in fields(self)):
            raise ValueError("per-client parameters must be 1-d arrays of equal length")
        if not len(self):
            raise ValueError("empty population")
        for f in fields(self):
            if not (getattr(self, f.name) > 0).all():
                raise ValueError(f"{f.name} must be strictly positive")
        if (self.local_iters != np.floor(self.local_iters)).any():
            raise ValueError("local_iters must be a positive integer")
        # a cost past the float range is +inf, which the drift bound reports (Infeasible)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "comp_energy",
                               self.local_iters * self.capacitance * self.cycles_per_bit
                               * self.data_size * self.cpu_freq ** 2)
            object.__setattr__(self, "comp_latency",
                               self.local_iters * self.cycles_per_bit * self.data_size
                               / self.cpu_freq)

    def __len__(self) -> int:
        return self.cpu_freq.size


def check_shares(shares: np.ndarray, config: SystemConfig) -> None:
    """Raise VerificationError if one round's shares violate the floor or the simplex equality.

    A client is selected iff its share is non-zero, so a NaN share counts as
    selected; both checks are written to fail on it. Selecting nobody is valid.
    """
    held = shares[shares != 0]
    if not held.size:
        return
    if not held.min() >= config.min_ratio - FEAS_TOL:
        raise VerificationError("selected client below the bandwidth floor")
    if not abs(held.sum() - 1.0) <= SUM_TOL:
        raise VerificationError("selected shares must sum to one")


def round_credit(population: Population, config: SystemConfig) -> np.ndarray:
    """Per-client energy credit of one round, H_k/R: the budget spread over the horizon."""
    return population.energy_budget / config.num_rounds


def energy_overflow(consumed: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Energy beyond budget, summed over clients (the last axis): sum_k max(E_k - H_k, 0)."""
    return np.maximum(consumed - budgets, 0.0).sum(axis=-1)


def rate_coefficients(population: Population, gain_sq: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Full-band Shannon rates (bits/s); a client's achieved rate is share * coefficient."""
    snr = population.tx_power * np.asarray(gain_sq) / config.noise_power
    return config.bandwidth * np.log2(1.0 + snr)


def client_utility(population: Population, config: SystemConfig) -> np.ndarray:
    """Per-client accuracy utility log(1 + a * D_k); a selection's utility is their sum."""
    return np.log1p(config.accuracy_coeff * population.data_size)


def client_round(population: Population, rate_coeff: np.ndarray, shares: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-client (latency, energy) of training plus upload at the given band shares.

    Both are +inf on a dead link, where share times rate coefficient is zero.
    `shares` may carry leading axes, one share vector per row.
    """
    rate = np.asarray(shares) * rate_coeff
    live = rate > 0
    t_com = np.where(live, population.model_size / np.where(live, rate, 1.0), np.inf)
    return (population.comp_latency + t_com,
            population.comp_energy + population.tx_power * t_com)


def selected_totals(population: Population, rate_coeff: np.ndarray, shares: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-client (latency, energy) arrays; zero entries for unselected clients (zero shares).

    Raises Infeasible if a selected client has zero achieved rate.
    """
    sel = shares != 0
    latency, energy = client_round(population, rate_coeff, shares)
    if np.isinf(latency[sel]).any():
        raise Infeasible("selected client with zero transmission rate")
    return np.where(sel, latency, 0.0), np.where(sel, energy, 0.0)


class RoundContext:
    """One round's rates, from its squared channel gains, with the utility and credit."""

    def __init__(self, population: Population, gain_sq: np.ndarray, config: SystemConfig):
        gain_sq = np.asarray(gain_sq, dtype=float)
        if not finite_non_negative(gain_sq):
            raise ValueError("squared gains must be finite and non-negative")
        self.population = population
        self.config = config
        self.rate_coeff = rate_coefficients(population, gain_sq, config)
        self.log_utility = client_utility(population, config)
        self.credit = round_credit(population, config)

    def outcome(self, shares: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Per-client round energies, the round latency t0 and the accuracy utility phi.

        t0 is the slowest selected client's latency, 0 when nobody is selected
        (unselected clients' latencies are 0, selected ones' non-negative); the
        round cost is t0 - phi.
        """
        latency, energy = selected_totals(self.population, self.rate_coeff, shares)
        return energy, float(latency.max()), float(self.log_utility[shares != 0].sum())
