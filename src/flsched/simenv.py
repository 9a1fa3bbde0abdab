"""Seeded synthetic populations and per-round channel draws.

Defaults reproduce the reference simulation setting: 100 clients over 300
rounds, 10 MHz of shared band, uniform hardware draws, squared channel gains
log-uniform across [1e-11, 1e-9], and data volumes either one common size
(IID) or drawn from the five-point heterogeneous set (NONIID). All draws are
counter-based: any round's observation is reproducible from (seed, round)
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Any, Mapping

import numpy as np

from . import lyapunov as lyap
from . import model
from .model import ClientProfile, Population, RoundObservation, SystemConfig

IID = "IID"
NONIID = "NONIID"

# stream salts for counter-based generators
_POP_STREAM = 0
_CHANNEL_STREAM = 1
_POLICY_STREAM = 2


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


DEFAULTS: dict[str, Any] = {
    "num_clients": 100,
    "num_rounds": 300,
    "frame_len": 30,
    "num_frames": 10,
    "bandwidth": 1e7,  # Hz
    "min_ratio": 0.01,
    "noise_power": 1e-13,  # W
    "accuracy_coeff": 1.7e-8,
    "cycles_per_bit": (1.0, 10.0),
    "cpu_freq": (1e7, 1e9),  # 0.01-1 GHz
    "tx_power": (dbm_to_watts(10.0), dbm_to_watts(20.0)),  # 0.01-0.1 W
    "capacitance": 1e-28,
    "local_iters": 5,
    "model_size": 2.4e5,  # bits
    "energy_budget": 1.5,  # J
    "data_size": 3.6e6,  # bits, IID (midpoint of the NONIID set)
    "data_size_choices": (1.2e6, 2.4e6, 3.6e6, 4.8e6, 6.0e6),  # bits, NONIID
    "gain_sq": (1e-11, 1e-9),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Seeded scenario: data-volume mode plus optional parameter overrides."""

    seed: int
    mode: str = IID
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.mode not in (IID, NONIID):
            raise ValueError(f"unknown mode {self.mode!r}")
        unknown = set(self.overrides) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown scenario overrides: {sorted(unknown)}")
        lo, hi = self.param("gain_sq")
        if not (0 < lo <= hi):
            raise ValueError("gain_sq range must be positive and ordered")

    def param(self, name: str):
        return self.overrides.get(name, DEFAULTS[name])


def generate_population(spec: ScenarioSpec) -> tuple[Population, SystemConfig]:
    """Draw the static client population and the system configuration.

    Hardware draws (cpu frequency, cycles/bit, transmit power) are uniform
    over their ranges and identical across modes for a given seed; only the
    data volumes differ between IID and NONIID.
    """
    k = int(spec.param("num_clients"))
    rng = np.random.default_rng([spec.seed, _POP_STREAM])
    f_lo, f_hi = spec.param("cpu_freq")
    c_lo, c_hi = spec.param("cycles_per_bit")
    p_lo, p_hi = spec.param("tx_power")
    cpu_freq = rng.uniform(f_lo, f_hi, k)
    cycles = rng.uniform(c_lo, c_hi, k)
    tx_power = rng.uniform(p_lo, p_hi, k)
    if spec.mode == NONIID:
        data = rng.choice(np.asarray(spec.param("data_size_choices"), dtype=float), size=k)
    else:
        data = np.full(k, float(spec.param("data_size")))
    profiles = [
        ClientProfile(
            cpu_freq=cpu_freq[i],
            cycles_per_bit=cycles[i],
            capacitance=float(spec.param("capacitance")),
            tx_power=tx_power[i],
            model_size=float(spec.param("model_size")),
            data_size=data[i],
            energy_budget=float(spec.param("energy_budget")),
            local_iters=int(spec.param("local_iters")),
        )
        for i in range(k)
    ]
    config = SystemConfig(
        num_clients=k,
        num_rounds=int(spec.param("num_rounds")),
        frame_len=int(spec.param("frame_len")),
        num_frames=int(spec.param("num_frames")),
        bandwidth=float(spec.param("bandwidth")),
        min_ratio=float(spec.param("min_ratio")),
        noise_power=float(spec.param("noise_power")),
        accuracy_coeff=float(spec.param("accuracy_coeff")),
    )
    return Population(profiles), config


def sample_round(spec: ScenarioSpec, round_index: int, population: Population) -> RoundObservation:
    """Draw the round's squared channel gains, log-uniform over the gain range.

    Counter-based: the generator is keyed by (seed, round), so round r is
    reproducible without sampling rounds 0..r-1.
    """
    if round_index < 0:
        raise ValueError("round_index must be non-negative")
    lo, hi = spec.param("gain_sq")
    rng = np.random.default_rng([spec.seed, _CHANNEL_STREAM, round_index])
    exponents = rng.uniform(math.log10(lo), math.log10(hi), len(population))
    return RoundObservation(10.0 ** exponents)


def policy_rng(seed: int, round_index: int) -> np.random.Generator:
    """Counter-based generator for per-round randomized policies."""
    return np.random.default_rng([seed, _POLICY_STREAM, round_index])


class Scenario:
    """Bundled population, configuration, observation stream and drift constant for one seed."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.population, self.config = generate_population(spec)

    def observe(self, round_index: int) -> RoundObservation:
        return sample_round(self.spec, round_index, self.population)

    def worst_case_energy(self) -> np.ndarray:
        """Per-client round-energy ceiling: bandwidth floor, weakest channel draw.

        Valid almost surely for the sampled environment since gains never fall
        below the configured range's lower edge.
        """
        lo, _ = self.spec.param("gain_sq")
        g_min = model.rate_coefficients(self.population, lo, self.config)
        return model.client_round(self.population, g_min, self.config.min_ratio)[1]

    @cached_property
    def drift(self) -> float:
        """The drift constant D every run on this scenario is checked against, built on first use.

        Lazy, so that an unbounded worst case raises InfeasibleBound (an
        infeasible instance) when a run starts, not inside a caller's handling
        of malformed scenario parameters.
        """
        return lyap.drift_bound(model.round_credit(self.population, self.config),
                                self.worst_case_energy())
