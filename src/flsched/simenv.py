"""Seeded synthetic populations and per-round channel draws.

Defaults reproduce the reference simulation setting: 100 clients over 300
rounds, 10 MHz of shared band, uniform hardware draws, squared channel gains
log-uniform across [1e-11, 1e-9], and data volumes either one common size
(IID) or drawn from the five-point heterogeneous set (NONIID). All draws are
counter-based: round r's gains are reproducible from (seed, r) alone.
`Scenario.observe(r)` builds the round's `model.RoundContext` from them and the
scenario's own credit and utility on its first call for r (r in [0, R)) and
returns that same context on every later call, so the runs, calibration probes
and sweep points on one scenario draw each round once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Any, Mapping, NamedTuple

import numpy as np

from . import lyapunov as lyap
from . import model
from .errors import Infeasible
from .model import Population, RoundContext, SystemConfig

IID = "IID"
NONIID = "NONIID"

# stream salts for counter-based generators
_POP_STREAM = 0
_CHANNEL_STREAM = 1
_POLICY_STREAM = 2


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class Range(NamedTuple):
    """Bounds [low, high] of a parameter drawn at random, per client or per round."""

    low: float
    high: float


# Every scenario parameter and its default. A key named after a `SystemConfig`
# or `Population` field sets that field; a default's type fixes the form of
# the key's value (`checked`): an int, a float, a `Range`, or a tuple of values.
DEFAULTS: dict[str, Any] = {
    "num_clients": 100,
    "num_rounds": 300,
    "frame_len": 30,
    "num_frames": 10,
    "bandwidth": 1e7,  # Hz
    "min_ratio": 0.01,
    "noise_power": 1e-13,  # W
    "accuracy_coeff": 1.7e-8,
    "cycles_per_bit": Range(1.0, 10.0),
    "cpu_freq": Range(1e7, 1e9),  # 0.01-1 GHz
    "tx_power": Range(dbm_to_watts(10.0), dbm_to_watts(20.0)),  # 0.01-0.1 W
    "capacitance": 1e-28,
    "local_iters": 5,
    "model_size": 2.4e5,  # bits
    "energy_budget": 1.5,  # J
    "data_size": 3.6e6,  # bits, IID (midpoint of the NONIID set)
    "data_size_choices": (1.2e6, 2.4e6, 3.6e6, 4.8e6, 6.0e6),  # bits, NONIID
    "gain_sq": Range(1e-11, 1e-9),
}


def number(name: str, value: Any) -> float:
    """A finite number (booleans excluded) as a float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of range") from exc
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def checked(name: str, value: Any) -> Any:
    """A parameter's value in the form of its default, or a ValueError naming it.

    An int default takes a whole number within int64 (3 or 3.0), a `Range`
    default a [low, high] list with 0 < low <= high, any other tuple a
    non-empty list of positive numbers, and a float default a number.
    """
    default = DEFAULTS[name]
    if isinstance(default, int):
        if not number(name, value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not -2 ** 63 <= int(value) < 2 ** 63:
            raise ValueError(f"{name} is out of range")
        return int(value)
    if not isinstance(default, tuple):
        return number(name, value)
    is_range = isinstance(default, Range)
    if not isinstance(value, (list, tuple)) or not value or (is_range and len(value) != 2):
        shape = "[low, high]" if is_range else "a non-empty list"
        raise ValueError(f"{name} must be {shape}, got {value!r}")
    entries = tuple(number(name, v) for v in value)
    if is_range:
        if not 0 < entries[0] <= entries[1]:
            raise ValueError(f"{name} range must be positive and ordered")
        return Range(*entries)
    if not all(v > 0 for v in entries):
        raise ValueError(f"{name} entries must be positive")
    return entries


@dataclass(frozen=True)
class ScenarioSpec:
    """Seeded scenario: data-volume mode plus optional parameter overrides.

    Each override is stored `checked`, so a bad value fails here, before any draw.
    """

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
        object.__setattr__(self, "overrides", {name: checked(name, value)
                                               for name, value in self.overrides.items()})

    def param(self, name: str):
        return self.overrides.get(name, DEFAULTS[name])


def generate_population(spec: ScenarioSpec) -> tuple[Population, SystemConfig]:
    """Draw the static client population and the system configuration.

    Each field of `Population` and `SystemConfig` is the parameter of the same
    name. A `Range` parameter (cpu frequency, cycles/bit, transmit power) is
    drawn uniformly per client, in field order from one stream, so these draws
    are identical across modes for a given seed; any other is one value for
    every client. Only the data volumes differ between modes: NONIID draws
    them from `data_size_choices`, after the hardware. A client count whose
    per-client arrays cannot be allocated raises Infeasible.
    """
    # built before the first draw, so that it reports a client count below one
    config = SystemConfig(**{f.name: spec.param(f.name) for f in fields(SystemConfig)})
    k = config.num_clients
    rng = np.random.default_rng([spec.seed, _POP_STREAM])

    def per_client(name: str) -> np.ndarray:
        if name == "data_size" and spec.mode == NONIID:
            return rng.choice(np.asarray(spec.param("data_size_choices"), dtype=float), size=k)
        if isinstance(DEFAULTS[name], Range):
            return rng.uniform(*spec.param(name), k)
        return np.full(k, spec.param(name))

    try:
        drawn = {f.name: per_client(f.name) for f in fields(Population)}
    except (ValueError, MemoryError) as exc:  # numpy's "array is too big", or no memory
        raise Infeasible(f"population of {k} clients is too large to allocate") from exc
    return Population(**drawn), config


def sample_round(spec: ScenarioSpec, round_index: int, population: Population) -> np.ndarray:
    """Draw the round's (K,) squared channel gains, log-uniform over the gain range.

    Counter-based: the generator is keyed by (seed, round), so round r is
    reproducible without sampling rounds 0..r-1.
    """
    if round_index < 0:
        raise ValueError("round_index must be non-negative")
    lo, hi = spec.param("gain_sq")
    rng = np.random.default_rng([spec.seed, _CHANNEL_STREAM, round_index])
    exponents = rng.uniform(math.log10(lo), math.log10(hi), len(population))
    return 10.0 ** exponents


def policy_rng(seed: int, round_index: int) -> np.random.Generator:
    """Counter-based generator for per-round randomized policies."""
    return np.random.default_rng([seed, _POLICY_STREAM, round_index])


class Scenario:
    """Bundled population, configuration, per-round contexts and drift constant for one seed.

    The energy credit, the accuracy utility and the drift constant D every run
    on the scenario is checked against are computed once, here, and every
    round's context shares the first two. So a scenario that no run can start
    is Infeasible when it is built, before any run, calibration or probe: a
    utility beyond the float range, a full-band rate at the gain range's upper
    edge beyond it, an unbounded worst-case round energy, or a D that
    overflows it. The contexts are built as the rounds are first observed and
    kept for the scenario's lifetime, their arrays read-only, so that every
    run on the scenario reads the same values.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.population, self.config = generate_population(spec)
        self.credit = model.round_credit(self.population, self.config)
        with np.errstate(over="ignore"):
            self.log_utility = model.client_utility(self.population, self.config)
        if not np.isfinite(self.log_utility).all():
            raise Infeasible("accuracy utility overflows the float range")
        self.drift = lyap.drift_bound(self.credit, self.worst_case_energy())
        self.credit.flags.writeable = self.log_utility.flags.writeable = False
        self._contexts: dict[int, RoundContext] = {}

    def observe(self, round_index: int) -> RoundContext:
        """Round r's context: the first call for r builds it from one call of the
        module global `sample_round`, every later call returns that same object.
        Raises ValueError, before any draw, for r outside the horizon [0, R)."""
        ctx = self._contexts.get(round_index)
        if ctx is None:
            if not 0 <= round_index < self.config.num_rounds:
                raise ValueError(f"round {round_index} is outside the horizon"
                                 f" of {self.config.num_rounds} rounds")
            gain_sq = sample_round(self.spec, round_index, self.population)
            ctx = RoundContext(self.population, gain_sq, self.config, self.log_utility, self.credit)
            ctx.rate_coeff.flags.writeable = False
            self._contexts[round_index] = ctx
        return ctx

    def worst_case_energy(self) -> np.ndarray:
        """Per-client round-energy ceiling: bandwidth floor, weakest channel draw.

        Valid almost surely for the sampled environment since gains never fall
        below the configured range's lower edge. A ceiling beyond the float
        range is +inf, which the drift constant reports as unbounded. Raises
        Infeasible if the rate at the range's upper edge, the largest any
        round can draw, overflows the float range.
        """
        lo, hi = self.spec.param("gain_sq")
        with np.errstate(over="ignore"):
            if not np.isfinite(model.rate_coefficients(self.population, hi, self.config)).all():
                raise Infeasible("rate coefficient overflows the float range")
            g_min = model.rate_coefficients(self.population, lo, self.config)
            return model.client_round(self.population, g_min, self.config.min_ratio)[1]
