"""Relations between whole runs: a change of unit or of client labels (metamorphic tests).

A run must decide the same in any energy unit and in any bit unit. Scaling
every energy parameter by a power of two c, and PEDPC's V by c squared,
scales every energy and backlog by c and every round value by c squared
without rounding, so the decisions must be bit-identical. Scaling every bit
parameter by c leaves each time, energy and utility unchanged. Relabeling
the clients of the IID setting must not change a PEDPC run beyond the order
of its sums.
"""

import json
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest

from flsched import harness, simenv
from flsched.model import Population
from flsched.scheduler import PolicySpec, RunTrace, run_policy
from flsched.simenv import DEFAULTS

from cli_cases import FULL, PEDPC_FLOOR

SEED = 1
PENALTY = 0.1
CONFIGS = {"default": FULL, "pedpc_floor": PEDPC_FLOOR}
# the floor's 20-client cap makes SelectAll and Random at 0.4 Infeasible there
POLICIES = {
    "default": (PolicySpec(penalty=PENALTY), PolicySpec("SelectAll"),
                PolicySpec("Random", random_fraction=0.4), PolicySpec("Greedy"),
                PolicySpec("FedCS", latency_cap=0.5)),
    "pedpc_floor": (PolicySpec(penalty=PENALTY), PolicySpec("Greedy"),
                    PolicySpec("FedCS", latency_cap=0.5)),
}
CASES = [(name, policy) for name, policies in POLICIES.items() for policy in policies]
CASE_IDS = [f"{name}-{policy.kind}" for name, policy in CASES]


@lru_cache(maxsize=None)
def _run(doc: str, policy: PolicySpec) -> RunTrace:
    return run_policy(_scenario(doc), policy)


@lru_cache(maxsize=None)
def _scenario(doc: str) -> simenv.Scenario:
    return harness.build_scenario(harness.parse_config(json.loads(doc)), SEED)


def _scaled(doc: dict, system: dict, scenario: dict) -> str:
    return json.dumps({"system": {**doc.get("system", {}), **system},
                       "scenario": {**doc.get("scenario", {}), **scenario}})


def _energy_unit(doc: dict, c: float) -> str:
    """The config with every energy parameter (and the noise power, so the SNR stays) times c."""
    return _scaled(doc, {"noise_power": DEFAULTS["noise_power"] * c},
                   {"tx_power": [p * c for p in DEFAULTS["tx_power"]],
                    "capacitance": DEFAULTS["capacitance"] * c,
                    "energy_budget": DEFAULTS["energy_budget"] * c})


def _bit_unit(doc: dict, c: float) -> str:
    """The config with every bit count and the band times c, and every per-bit weight over c."""
    return _scaled(doc, {"bandwidth": DEFAULTS["bandwidth"] * c,
                         "accuracy_coeff": DEFAULTS["accuracy_coeff"] / c},
                   {"model_size": DEFAULTS["model_size"] * c,
                    "data_size": DEFAULTS["data_size"] * c,
                    "data_size_choices": [d * c for d in DEFAULTS["data_size_choices"]],
                    "cycles_per_bit": [n / c for n in DEFAULTS["cycles_per_bit"]]})


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [2.0 ** 20, 2.0 ** -10])
@pytest.mark.parametrize("name,policy", CASES, ids=CASE_IDS)
def test_energy_unit_scales_energies_and_backlogs_exactly(name, policy, c):
    doc = CONFIGS[name]
    base = _run(json.dumps(doc), policy)
    # V scales as the round value does; the other policies ignore it
    scaled = _run(_energy_unit(doc, c), replace(policy, penalty=policy.penalty * c * c))
    # each field on its own: a multi-field view's bytes carry the other fields
    for field in ("n_selected", "latency", "phi"):
        assert _same_bits(scaled.records[field], base.records[field]), field
    assert _same_bits(scaled.records["backlog_sq"], base.records["backlog_sq"] * (c * c))
    assert _same_bits(scaled.energies, base.energies * c)
    assert _same_bits(scaled.backlog_trace, base.backlog_trace * c)
    assert scaled.half_step_values == [tuple(v * (c * c) for v in halves)
                                       for halves in base.half_step_values]


@pytest.mark.parametrize("c", [8.0, 2.0 ** -10])
@pytest.mark.parametrize("name,policy", CASES, ids=CASE_IDS)
def test_bit_unit_leaves_every_round_bit_identical(name, policy, c):
    doc = CONFIGS[name]
    base = _run(json.dumps(doc), policy)
    scaled = _run(_bit_unit(doc, c), policy)
    assert _same_bits(scaled.records, base.records)
    assert _same_bits(scaled.energies, base.energies)
    assert _same_bits(scaled.backlog_trace, base.backlog_trace)
    assert scaled.half_step_values == base.half_step_values


@pytest.mark.parametrize("penalty", [PENALTY, 1.0])
def test_relabeling_the_iid_clients_keeps_each_pedpc_round(monkeypatch, penalty):
    """One permutation of the population's arrays and of every round's gains.

    IID clients share one data size, so tied scores never decide a selection
    here; ties are broken by client index, so `pedpc_floor` is not tested.
    """
    base = _run(json.dumps({}), PolicySpec(penalty=penalty))  # before the labels change
    perm = np.random.default_rng(SEED).permutation(DEFAULTS["num_clients"])
    real_population, real_draw = simenv.generate_population, simenv.sample_round

    def permuted_population(spec):
        population, config = real_population(spec)
        return Population(**{f.name: getattr(population, f.name)[perm]
                             for f in fields(Population)}), config

    monkeypatch.setattr(simenv, "generate_population", permuted_population)
    monkeypatch.setattr(simenv, "sample_round", lambda *args: real_draw(*args)[perm])
    scenario = harness.build_scenario(harness.parse_config({}), SEED)
    relabeled = run_policy(scenario, PolicySpec(penalty=penalty))

    np.testing.assert_array_equal(relabeled.records["n_selected"], base.records["n_selected"])
    np.testing.assert_allclose(relabeled.records["latency"], base.records["latency"],
                               rtol=1e-9, atol=0)
    # the run's overflow as its summary reports it, the last round's (every budget is equal)
    budgets = scenario.population.energy_budget
    got, want = (harness.round_columns(trace, budgets)["energy_overflow_j"][-1]
                 for trace in (relabeled, base))
    assert got == pytest.approx(want, rel=1e-9, abs=0)
