"""Per-round physics of the federated system.

Pure functions mapping client hardware profiles, channel draws, and a
selection/bandwidth decision to rates, latencies, energies, the diminishing-
returns accuracy proxy, and the round cost (latency minus accuracy utility).
Rates use log2 (bits/s); the accuracy proxy uses the natural log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleLink

SUM_TOL = 1e-9  # allowed slack on the bandwidth simplex equality


@dataclass(frozen=True)
class ClientProfile:
    """Static hardware, radio, and data parameters of one client."""

    cpu_freq: float  # cycles/s
    cycles_per_bit: float  # cycles/bit
    capacitance: float  # effective switched capacitance, J*s^2/cycle^3
    tx_power: float  # W
    model_size: float  # bits uploaded per round
    data_size: float  # bits of local training data
    energy_budget: float  # J over the whole horizon
    local_iters: int  # local training passes per round

    def __post_init__(self):
        for name in ("cpu_freq", "cycles_per_bit", "capacitance", "tx_power",
                     "model_size", "data_size", "energy_budget", "local_iters"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.local_iters != int(self.local_iters):
            raise ValueError("local_iters must be a positive integer")


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
            raise ValueError("num_rounds must equal frame_len * num_frames")
        if not (0 < self.min_ratio <= 1):
            raise ValueError("min_ratio must lie in (0, 1]")
        if self.bandwidth <= 0 or self.noise_power <= 0 or self.accuracy_coeff <= 0:
            raise ValueError("bandwidth, noise_power, accuracy_coeff must be positive")
        if self.num_clients < 1:
            raise ValueError("need at least one client")

    @property
    def max_selectable(self) -> int:
        """Largest set that can each receive at least min_ratio of the band."""
        return int(math.floor(1.0 / self.min_ratio + 1e-9))


class Population:
    """Client profiles stacked as arrays for vectorized per-round math."""

    def __init__(self, profiles: Sequence[ClientProfile]):
        if not profiles:
            raise ValueError("empty population")
        self.profiles = tuple(profiles)
        self.cpu_freq = np.array([p.cpu_freq for p in profiles])
        self.cycles_per_bit = np.array([p.cycles_per_bit for p in profiles])
        self.capacitance = np.array([p.capacitance for p in profiles])
        self.tx_power = np.array([p.tx_power for p in profiles])
        self.model_size = np.array([p.model_size for p in profiles])
        self.data_size = np.array([p.data_size for p in profiles])
        self.energy_budget = np.array([p.energy_budget for p in profiles])
        self.local_iters = np.array([p.local_iters for p in profiles])
        # static per-client training cost, independent of the channel
        self.comp_energy = (self.local_iters * self.capacitance * self.cycles_per_bit
                            * self.data_size * self.cpu_freq ** 2)
        self.comp_latency = self.local_iters * self.cycles_per_bit * self.data_size / self.cpu_freq

    def __len__(self) -> int:
        return len(self.profiles)

    def __getitem__(self, k: int) -> ClientProfile:
        return self.profiles[k]


@dataclass(frozen=True)
class RoundObservation:
    """Squared channel gains observed at the start of a round."""

    gain_sq: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gain_sq, dtype=float)
        object.__setattr__(self, "gain_sq", g)
        if np.any(g < 0) or np.any(~np.isfinite(g)):
            raise ValueError("squared gains must be finite and non-negative")


@dataclass(frozen=True)
class Decision:
    """One round's selection indicator and bandwidth-share vector."""

    selected: np.ndarray  # bool per client
    bandwidth: np.ndarray  # share of the band per client, 0 for unselected

    def __post_init__(self):
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))
        object.__setattr__(self, "bandwidth", np.asarray(self.bandwidth, dtype=float))
        if self.selected.shape != self.bandwidth.shape:
            raise ValueError("selected and bandwidth must have equal length")

    @classmethod
    def empty(cls, num_clients: int) -> "Decision":
        return cls(np.zeros(num_clients, dtype=bool), np.zeros(num_clients))

    @property
    def n_selected(self) -> int:
        return int(self.selected.sum())

    def validate(self, config: SystemConfig) -> None:
        """Raise if the shares violate the floor or the simplex equality."""
        if np.any(self.bandwidth[~self.selected] != 0.0):
            raise ValueError("unselected clients must have zero bandwidth")
        if not self.selected.any():
            return
        shares = self.bandwidth[self.selected]
        if np.any(shares < config.min_ratio - 1e-12):
            raise ValueError("selected client below the bandwidth floor")
        if abs(shares.sum() - 1.0) > SUM_TOL:
            raise ValueError("selected shares must sum to one")


class CompQuantities(NamedTuple):
    comp_energy: float
    comp_latency: float


class CommQuantities(NamedTuple):
    rate: float
    comm_latency: float
    comm_energy: float


class RoundTotals(NamedTuple):
    total_latency: float
    total_energy: float


def rate_coefficient(profile: ClientProfile, gain_sq: float, config: SystemConfig) -> float:
    """Full-band Shannon rate (bits/s); the achieved rate is share * coefficient."""
    if gain_sq < 0:
        raise ValueError("gain_sq must be non-negative")
    snr = profile.tx_power * gain_sq / config.noise_power
    return config.bandwidth * math.log2(1.0 + snr)


def rate_coefficients(population: Population, gain_sq: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Vectorized rate_coefficient across the population."""
    snr = population.tx_power * np.asarray(gain_sq) / config.noise_power
    return config.bandwidth * np.log2(1.0 + snr)


def comp_quantities(profile: ClientProfile) -> CompQuantities:
    """Training energy (J) and latency (s) of one local round."""
    e = (profile.local_iters * profile.capacitance * profile.cycles_per_bit
         * profile.data_size * profile.cpu_freq ** 2)
    t = profile.local_iters * profile.cycles_per_bit * profile.data_size / profile.cpu_freq
    return CompQuantities(e, t)


def comm_quantities(profile: ClientProfile, rate_coeff: float, ratio: float) -> CommQuantities:
    """Upload rate, latency, and energy at a given bandwidth share.

    Raises InfeasibleLink when the achieved rate is zero (zero gain or zero
    share), i.e. the client cannot transmit this round.
    """
    rate = ratio * rate_coeff
    if rate <= 0:
        raise InfeasibleLink("zero transmission rate")
    latency = profile.model_size / rate
    return CommQuantities(rate, latency, profile.tx_power * latency)


def client_round_totals(profile: ClientProfile, rate_coeff: float, ratio: float) -> RoundTotals:
    """Combined training + upload latency and energy for one client-round."""
    e_cmp, t_cmp = comp_quantities(profile)
    _, t_com, e_com = comm_quantities(profile, rate_coeff, ratio)
    return RoundTotals(t_cmp + t_com, e_cmp + e_com)


def round_latency(decision: Decision, totals: np.ndarray) -> float:
    """Round latency: the slowest selected client, 0 when nobody is selected."""
    if not decision.selected.any():
        return 0.0
    return float(np.max(np.asarray(totals)[decision.selected]))


def accuracy_utility(decision: Decision, population: Population, config: SystemConfig) -> float:
    """Diminishing-returns utility of the selected data volumes (natural log)."""
    v = config.accuracy_coeff * population.data_size
    return float(np.log1p(v[decision.selected]).sum())


def round_cost(decision: Decision, totals: np.ndarray, population: Population,
               config: SystemConfig) -> float:
    """Round cost: latency minus accuracy utility. Zero for the empty decision."""
    return round_latency(decision, totals) - accuracy_utility(decision, population, config)


def selected_totals(population: Population, rate_coeff: np.ndarray, decision: Decision
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-client (latency, energy) arrays; zero entries for unselected clients.

    Raises InfeasibleLink if a selected client has zero achieved rate.
    """
    k = len(population)
    latency = np.zeros(k)
    energy = np.zeros(k)
    sel = decision.selected
    if not sel.any():
        return latency, energy
    rate = decision.bandwidth[sel] * np.asarray(rate_coeff)[sel]
    if np.any(rate <= 0):
        raise InfeasibleLink("selected client with zero transmission rate")
    t_com = population.model_size[sel] / rate
    latency[sel] = population.comp_latency[sel] + t_com
    energy[sel] = population.comp_energy[sel] + population.tx_power[sel] * t_com
    return latency, energy
