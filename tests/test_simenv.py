import dataclasses
import hashlib

import numpy as np
import pytest

from flsched import simenv
from flsched.model import Population
from flsched.simenv import (DEFAULTS, IID, NONIID, Range, Scenario, ScenarioSpec, checked,
                            dbm_to_watts, generate_population, sample_round)

# sha256 over each array of the default population (field name, dtype, bytes),
# in field order and then the training cost: pins the draw order and dtypes
POPULATION_DIGESTS = {
    (1, IID): "a0f89b5a2d96f650f17bdc98d03fe27e00850552adfa417143b0d03e709c8b88",
    (1, NONIID): "fae68fd0fa51eac1945f0dad6d91c826da214160f85bd51aa4e2bfb2f3e3a166",
    (2, IID): "0a58c83c671d5c17f98489bc251b84957fa4ec79464195c06bc2bae8bdbebe3f",
    (2, NONIID): "7dd437655f2deb1e74998e0522acfc55b5e9ce9060edc67c5ac8896b1cbc6f96",
}


def test_dbm_conversion():
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert dbm_to_watts(10.0) == pytest.approx(0.01)


def test_default_population_matches_reference_setting():
    pop, config = generate_population(ScenarioSpec(seed=0))
    assert len(pop) == 100
    assert config.num_rounds == 300
    assert np.all(pop.energy_budget == 1.5)
    assert np.all(pop.model_size == 2.4e5)
    assert np.all(pop.local_iters == 5)
    assert np.all(pop.capacitance == 1e-28)
    assert np.all((pop.cycles_per_bit >= 1.0) & (pop.cycles_per_bit <= 10.0))
    assert np.all((pop.cpu_freq >= 1e7) & (pop.cpu_freq <= 1e9))
    assert np.all((pop.tx_power >= 0.01) & (pop.tx_power <= 0.1))
    assert np.all(pop.data_size == 3.6e6)  # IID: one common volume


@pytest.mark.parametrize("seed,mode", sorted(POPULATION_DIGESTS))
def test_population_arrays_are_pinned(seed, mode):
    pop, _ = generate_population(ScenarioSpec(seed=seed, mode=mode))
    digest = hashlib.sha256()
    for name in [f.name for f in dataclasses.fields(Population)] + ["comp_energy",
                                                                    "comp_latency"]:
        arr = getattr(pop, name)
        digest.update(name.encode())
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == POPULATION_DIGESTS[seed, mode]


def test_noniid_data_sizes_from_the_five_point_set():
    pop, _ = generate_population(ScenarioSpec(seed=1, mode=NONIID))
    choices = set(DEFAULTS["data_size_choices"])
    assert set(np.unique(pop.data_size)) <= choices
    assert len(np.unique(pop.data_size)) > 1  # heterogeneous in practice


def test_same_seed_same_population():
    a, _ = generate_population(ScenarioSpec(seed=7))
    b, _ = generate_population(ScenarioSpec(seed=7))
    assert np.array_equal(a.cpu_freq, b.cpu_freq)
    assert np.array_equal(a.tx_power, b.tx_power)
    c, _ = generate_population(ScenarioSpec(seed=8))
    assert not np.array_equal(a.cpu_freq, c.cpu_freq)


def test_modes_share_hardware_draws():
    iid, _ = generate_population(ScenarioSpec(seed=7, mode=IID))
    non, _ = generate_population(ScenarioSpec(seed=7, mode=NONIID))
    assert np.array_equal(iid.cpu_freq, non.cpu_freq)
    assert np.array_equal(iid.cycles_per_bit, non.cycles_per_bit)


def test_sample_round_range_and_determinism():
    spec = ScenarioSpec(seed=3)
    pop, _ = generate_population(spec)
    gains = sample_round(spec, 17, pop)
    assert np.array_equal(gains, sample_round(spec, 17, pop))
    assert np.all((gains >= 1e-11) & (gains <= 1e-9))
    assert not np.array_equal(gains, sample_round(spec, 18, pop))


def test_sample_round_counter_based():
    # round 5 must not depend on whether rounds 0..4 were drawn
    spec = ScenarioSpec(seed=9)
    pop, _ = generate_population(spec)
    direct = sample_round(spec, 5, pop)
    for r in range(5):
        sample_round(spec, r, pop)
    again = sample_round(spec, 5, pop)
    assert np.array_equal(direct, again)


def test_gain_log_uniform_median():
    spec = ScenarioSpec(seed=11, overrides={"num_clients": 500})
    pop, _ = generate_population(spec)
    draws = np.concatenate([sample_round(spec, r, pop) for r in range(200)])
    med = np.median(np.log10(draws))
    assert med == pytest.approx(-10.0, abs=0.02)


def test_overrides_and_rejection():
    spec = ScenarioSpec(seed=0, overrides={"num_clients": 5, "energy_budget": 2.0})
    pop, config = generate_population(spec)
    assert len(pop) == 5 and np.all(pop.energy_budget == 2.0)
    with pytest.raises(ValueError):
        ScenarioSpec(seed=0, overrides={"not_a_parameter": 1})
    with pytest.raises(ValueError):
        ScenarioSpec(seed=0, mode="WEIRD")


@pytest.mark.parametrize("name,bad", [
    ("cpu_freq", (0.0, 1e9)), ("cycles_per_bit", (-1.0, 10.0)), ("tx_power", (0.1, 0.01)),
    ("gain_sq", (0.0, 1e-9)), ("gain_sq", (1e-9, 1e-11)), ("data_size_choices", (-1.0, 3.6e6)),
])
def test_spec_checks_every_drawn_bound(name, bad):
    # rejected by the spec itself, whatever the mode or the draws would be
    message = f"{name} entries must be positive" if name == "data_size_choices" else \
        f"{name} range must be positive and ordered"
    for mode in (IID, NONIID):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioSpec(seed=1, mode=mode, overrides={name: bad})


def test_system_config_is_checked_before_the_draws():
    with pytest.raises(ValueError, match="^need at least one client$"):
        generate_population(ScenarioSpec(seed=1, overrides={"num_clients": -1}))


@pytest.mark.parametrize("name,value", [("local_iters", 2.5), ("num_clients", 3.7),
                                        ("num_rounds", float("nan"))])
def test_integer_parameter_takes_no_fraction(name, value):
    # NaN fails the finite-number check first, as it does in a config file
    message = f"{name} must be finite, got nan" if np.isnan(value) else \
        f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_population(ScenarioSpec(seed=1, overrides={name: value}))


@pytest.mark.parametrize("name,value,message", [
    ("bandwidth", float("inf"), "must be finite, got inf"),
    ("energy_budget", float("inf"), "must be finite, got inf"),
    ("accuracy_coeff", float("inf"), "must be finite, got inf"),
    ("num_clients", True, "must be a number, got True"),
    ("gain_sq", "x", "must be \\[low, high\\], got 'x'"),
], ids=["bandwidth", "energy_budget", "accuracy_coeff", "num_clients", "gain_sq"])
def test_spec_built_in_code_follows_the_config_rules(name, value, message):
    # the same value rules as a config file, with no config file in the way
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        ScenarioSpec(seed=1, overrides={name: value})


def test_every_default_passes_its_own_check():
    # the spec checks only overrides, so each default must be a valid value
    for name, default in DEFAULTS.items():
        assert checked(name, default) == default and \
            type(checked(name, default)) is type(default), name


def test_spec_stores_overrides_in_the_defaults_form():
    spec = ScenarioSpec(seed=1, overrides={"num_clients": 3.0, "cpu_freq": [1e8, 1e9],
                                           "capacitance": 1})
    assert spec.overrides == {"num_clients": 3, "cpu_freq": (1e8, 1e9), "capacitance": 1.0}
    assert [type(v) for v in spec.overrides.values()] == [int, Range, float]


def test_integral_float_is_the_integer():
    pop, config = generate_population(ScenarioSpec(seed=1, overrides={
        "local_iters": 2.0, "num_clients": 3.0}))
    assert pop.local_iters.tolist() == [2, 2, 2] and config.num_clients == 3


def test_worst_case_energy_dominates_samples():
    sc = Scenario(ScenarioSpec(seed=5, overrides={"num_clients": 10, "num_rounds": 20}))
    cap = sc.worst_case_energy()
    for r in range(20):
        comm = (sc.population.tx_power * sc.population.model_size
                / (sc.config.min_ratio * sc.observe(r).rate_coeff))
        energy = sc.population.comp_energy + comm
        assert np.all(energy <= cap + 1e-12)


@pytest.mark.parametrize("round_index", [4, 10 ** 6, -1])
def test_observe_rejects_a_round_outside_the_horizon(monkeypatch, round_index):
    # a scenario holds at most R contexts: a round outside [0, R) is refused
    # before anything is drawn, built or kept
    sc = Scenario(ScenarioSpec(seed=1, overrides={"num_clients": 3, "num_rounds": 4}))
    monkeypatch.setattr(simenv, "sample_round", lambda *args: pytest.fail("drew a round"))
    with pytest.raises(ValueError, match=f"^round {round_index} is outside the horizon of 4 rounds$"):
        sc.observe(round_index)
    assert sc._contexts == {}
