import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flsched.errors import InfeasibleBound
from flsched.lyapunov import (QueueState, drift_bound, drift_gap, energy_prices,
                              lyapunov_value, stability_series, update_queue)
from flsched.model import Decision, Population, SystemConfig, client_round


def make_config(k):
    return SystemConfig(num_clients=k, num_rounds=300, frame_len=30, num_frames=10,
                        bandwidth=1e7, min_ratio=0.01, noise_power=1e-13,
                        accuracy_coeff=1.7e-8)


def test_update_queue_reference(twin_population, example_config):
    # H/R = 0.005; selected client spends 0.0096: 0.002 + 0.0096 - 0.005 = 0.0066
    state = QueueState(np.array([0.002, 0.004]))
    dec = Decision(np.array([True, False]), np.array([1.0, 0.0]))
    nxt = update_queue(state, dec, np.array([0.0096, 123.0]), twin_population,
                       example_config)
    assert nxt.backlog[0] == pytest.approx(0.0066, rel=1e-12)
    assert nxt.backlog[1] == 0.0  # 0.004 - 0.005 clamps at zero


def test_update_queue_zero_stays_zero(twin_population, example_config):
    state = QueueState.zero(2)
    nxt = update_queue(state, Decision.empty(2), np.zeros(2), twin_population,
                       example_config)
    assert np.all(nxt.backlog == 0.0)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
       st.lists(st.floats(min_value=0, max_value=0.1), min_size=2, max_size=2),
       st.booleans(), st.booleans())
def test_update_queue_nonnegative(backlog, energy, s0, s1):
    pop = Population([_plain_profile(), _plain_profile()])
    cfg = make_config(2)
    sel = np.array([s0, s1])
    n = max(sel.sum(), 1)
    dec = Decision(sel, np.where(sel, 1.0 / n, 0.0))
    nxt = update_queue(QueueState(np.array(backlog)), dec, np.array(energy), pop, cfg)
    assert np.all(nxt.backlog >= 0.0)


def _plain_profile():
    from flsched.model import ClientProfile
    return ClientProfile(cpu_freq=1e9, cycles_per_bit=10.0, capacitance=1e-28,
                         tx_power=0.1, model_size=2.4e5, data_size=1.2e6,
                         energy_budget=1.5, local_iters=5)


def test_lyapunov_value():
    assert lyapunov_value(QueueState(np.zeros(5))) == 0.0
    assert lyapunov_value(QueueState(np.array([0.003, 0.004]))) == \
        pytest.approx(1.25e-5, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_lyapunov_quadratic_scaling(alpha):
    z = np.array([0.1, 0.2, 0.3])
    assert lyapunov_value(QueueState(alpha * z)) == \
        pytest.approx(alpha ** 2 * lyapunov_value(QueueState(z)), abs=1e-12)


def test_lyapunov_zero_iff_empty():
    assert lyapunov_value(QueueState(np.zeros(3))) == 0.0
    assert lyapunov_value(QueueState(np.array([0.0, 1e-9, 0.0]))) > 0.0


def test_drift_bound_reference(twin_population, example_config):
    got = drift_bound(twin_population, example_config, np.array([0.02, 0.02]))
    assert np.allclose(got.y_min, -0.005)
    assert np.allclose(got.y_max, 0.015)
    assert got.constant == pytest.approx(2.25e-4, rel=1e-12)


def test_drift_bound_degenerate_client(twin_population, example_config):
    # a never-selectable client still contributes the budget-credit square
    got = drift_bound(twin_population, example_config, np.array([0.0, 0.0]))
    assert np.allclose(got.y_max, -0.005)
    assert got.constant == pytest.approx(0.5 * 2 * 0.005 ** 2, rel=1e-9)


def test_drift_bound_single_client(example_profile):
    # y_min = -0.005, y_max = 0.02 -> constant = 0.5 * 4e-4 = 2e-4
    pop = Population([example_profile])
    cfg = make_config(1)
    got = drift_bound(pop, cfg, np.array([0.025]))
    assert np.allclose(got.y_max, 0.02)
    assert got.constant == pytest.approx(2.0e-4, rel=1e-9)


def test_drift_bound_infinite(twin_population, example_config):
    with pytest.raises(InfeasibleBound):
        drift_bound(twin_population, example_config, np.array([np.inf, 0.01]))


def _prices(backlog, population, rate_coeff, ratios):
    _, energy = client_round(population, np.asarray(rate_coeff), np.asarray(ratios))
    return energy_prices(np.asarray(backlog), energy)


def test_energy_price(example_profile):
    g_ref = 1e7 * np.log2(101.0)
    pop = Population([example_profile])
    assert _prices([0.0], pop, [0.0], [0.0])[0] == 0.0
    got = _prices([1.0], pop, [g_ref], [0.1])[0]
    # Z * (E_cmp + p * S / (b * G)) written out for the example client
    assert got == pytest.approx(1.0 * (6.0e-3 + 0.1 * 2.4e5 / (0.1 * g_ref)), rel=1e-12)
    assert got == pytest.approx(9.60457e-3, rel=1e-5)
    assert _prices([2.0], pop, [g_ref], [0.1])[0] == pytest.approx(2 * got, rel=1e-12)
    assert np.isinf(_prices([0.5], pop, [0.0], [0.1])[0])  # positive backlog, dead link


def test_energy_prices_vector(twin_population):
    g_ref = 1e7 * np.log2(101.0)
    prices = _prices([1.0, 0.0], twin_population, [g_ref, 0.0], [0.1, 0.0])
    assert prices[0] == pytest.approx(9.60457e-3, rel=1e-5)
    assert prices[1] == 0.0  # zero backlog prices at zero even on a dead link
    dead = _prices([1.0, 1.0], twin_population, [g_ref, 0.0], [0.1, 0.1])
    assert np.isinf(dead[1])


def test_drift_gap_one_step(twin_population, example_config):
    # update satisfies the one-step inequality whenever the envelope is valid
    rng = np.random.default_rng(0)
    bound = drift_bound(twin_population, example_config, np.full(2, 0.05))
    for _ in range(200):
        state = QueueState(rng.uniform(0, 2, 2))
        sel = rng.random(2) < 0.5
        n = max(sel.sum(), 1)
        dec = Decision(sel, np.where(sel, 1.0 / n, 0.0))
        energy = rng.uniform(0, 0.05, 2)
        nxt = update_queue(state, dec, energy, twin_population, example_config)
        assert drift_gap(state, nxt, dec, energy, twin_population,
                         example_config, bound) >= -1e-12


def test_stability_series_zero_trace():
    trace = np.zeros((5, 3))
    ratios, _ = stability_series(trace)
    assert np.all(ratios == 0.0)


def test_stability_series_constant_backlog():
    trace = np.ones((6, 2)) * 0.7
    ratios, _ = stability_series(trace)
    rounds = np.arange(1, 6)
    assert np.allclose(ratios, 0.7 / rounds[:, None])
    assert np.all(np.diff(ratios[:, 0]) < 0)  # decays toward zero


def test_stability_series_deficit_check():
    trace = np.zeros((4, 2))
    trace[-1] = [0.5, 0.0]
    consumed = np.array([1.9, 0.2])
    budgets = np.array([1.5, 1.5])
    _, ok = stability_series(trace, consumed=consumed, budgets=budgets)
    assert ok[0]  # 0.5 >= 1.9 - 1.5
    assert ok[1]  # 0.0 >= 0.2 - 1.5
    _, bad = stability_series(trace, consumed=np.array([2.1, 0.2]), budgets=budgets)
    assert not bad[0]
