import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flsched.errors import Infeasible
from flsched.lyapunov import deficit_ok, drift_bound, drift_gap, energy_prices, update_queue
from flsched.model import client_round, round_credit

from conftest import population

CREDIT = np.full(2, 0.005)  # H/R = 1.5 J / 300 rounds for both twin clients


def test_round_credit(twin_population, example_config):
    assert np.allclose(round_credit(twin_population, example_config), CREDIT, rtol=1e-12)


def test_update_queue_reference():
    # H/R = 0.005; the selected client spends 0.0096: 0.002 + 0.0096 - 0.005 = 0.0066
    nxt = update_queue(np.array([0.002, 0.004]), np.array([0.0096, 0.0]), CREDIT)
    assert nxt[0] == pytest.approx(0.0066, rel=1e-12)
    assert nxt[1] == 0.0  # 0.004 - 0.005 clamps at zero


def test_update_queue_zero_stays_zero():
    nxt = update_queue(np.zeros(2), np.zeros(2), CREDIT)
    assert np.all(nxt == 0.0)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
       st.lists(st.floats(min_value=0, max_value=0.1), min_size=2, max_size=2),
       st.booleans(), st.booleans())
def test_update_queue_nonnegative(backlog, energy, s0, s1):
    spent = np.where([s0, s1], energy, 0.0)
    nxt = update_queue(np.array(backlog), spent, CREDIT)
    assert np.all(nxt >= 0.0)


def lyapunov_term(backlog):
    """Y(Z) as `drift_gap` charges it: the slack's drop from a zero backlog to Z,
    with no drift constant, spending or credit."""
    zero = np.zeros_like(backlog)
    return -drift_gap(zero, zero, zero, 0.0, 0.0, float(np.dot(backlog, backlog)))


def test_lyapunov_term_reference():
    assert lyapunov_term(np.zeros(5)) == 0.0
    assert lyapunov_term(np.array([0.003, 0.004])) == \
        pytest.approx(1.25e-5, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_lyapunov_quadratic_scaling(alpha):
    z = np.array([0.1, 0.2, 0.3])
    assert lyapunov_term(alpha * z) == \
        pytest.approx(alpha ** 2 * lyapunov_term(z), abs=1e-12)


def test_lyapunov_zero_iff_empty():
    assert lyapunov_term(np.zeros(3)) == 0.0
    assert lyapunov_term(np.array([0.0, 1e-9, 0.0])) > 0.0


def test_drift_bound_reference():
    # increments lie in [-0.005, 0.015] -> D = 0.5 * 2 * 0.015^2
    assert drift_bound(CREDIT, np.array([0.02, 0.02])) == pytest.approx(2.25e-4, rel=1e-12)


def test_drift_bound_degenerate_client():
    # a never-selectable client still contributes the budget-credit square
    assert drift_bound(CREDIT, np.array([0.0, 0.0])) == \
        pytest.approx(0.5 * 2 * 0.005 ** 2, rel=1e-9)


def test_drift_bound_single_client():
    # increments lie in [-0.005, 0.02] -> D = 0.5 * 4e-4 = 2e-4
    assert drift_bound(CREDIT[:1], np.array([0.025])) == pytest.approx(2.0e-4, rel=1e-9)


def test_drift_bound_infinite():
    with pytest.raises(Infeasible):
        drift_bound(CREDIT, np.array([np.inf, 0.01]))


@pytest.mark.parametrize("bad", [-1e-300, np.nan], ids=["negative", "nan"])
def test_drift_bound_rejects_a_negative_or_nan_max_energy(bad):
    with pytest.raises(ValueError, match="^max_energy must be non-negative$"):
        drift_bound(CREDIT, np.array([0.02, bad]))


def test_drift_bound_overflow_is_infeasible_without_a_warning():
    # finite credits and ceilings whose squares pass the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Infeasible, match="^drift constant overflows the float range$"):
            drift_bound(np.full(2, 1e160), np.array([0.0, 0.01]))
        with pytest.raises(Infeasible, match="^drift constant overflows"):
            drift_bound(CREDIT, np.array([1e300, 1e300]))


def _prices(backlog, population, rate_coeff, ratios):
    _, energy = client_round(population, np.asarray(rate_coeff), np.asarray(ratios))
    return energy_prices(np.asarray(backlog), energy)


def test_energy_price():
    g_ref = 1e7 * np.log2(101.0)
    pop = population()
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


def test_drift_gap_one_step():
    # update satisfies the one-step inequality whenever the envelope is valid
    rng = np.random.default_rng(0)
    constant = drift_bound(CREDIT, np.full(2, 0.05))
    for _ in range(200):
        z = rng.uniform(0, 2, 2)
        sel = rng.random(2) < 0.5
        spent = np.where(sel, rng.uniform(0, 0.05, 2), 0.0)
        nxt = update_queue(z, spent, CREDIT)
        assert drift_gap(z, spent, CREDIT, constant, float(np.dot(z, z)),
                         float(np.dot(nxt, nxt))) >= -1e-12


def test_drift_gap_halves_the_squared_norms_bit_for_bit():
    # halving is exact for normal floats and commutes with the rounding of
    # the difference, so the slack equals the one from both Lyapunov values
    rng = np.random.default_rng(30)
    for _ in range(500):
        k = int(rng.integers(1, 50))
        z = 10.0 ** rng.uniform(-6, 6, k)
        spent = np.where(rng.random(k) < 0.5, 10.0 ** rng.uniform(-6, 6, k), 0.0)
        credit = 10.0 ** rng.uniform(-6, 6, k)
        constant = drift_bound(credit, spent)
        nxt = update_queue(z, spent, credit)
        sq_before, sq_after = float(np.dot(z, z)), float(np.dot(nxt, nxt))
        rhs = constant + float(np.dot(z, spent - credit))
        want = rhs - (0.5 * sq_after - 0.5 * sq_before)
        got = drift_gap(z, spent, credit, constant, sq_before, sq_after)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_deficit_ok():
    trace = np.zeros((4, 2))
    trace[-1] = [0.5, 0.0]
    consumed = np.array([1.9, 0.2])
    budgets = np.array([1.5, 1.5])
    ok = deficit_ok(trace, consumed, budgets)
    assert ok[0]  # 0.5 >= 1.9 - 1.5
    assert ok[1]  # 0.0 >= 0.2 - 1.5
    assert not deficit_ok(trace, np.array([2.1, 0.2]), budgets)[0]


def test_deficit_ok_allowance_scales_with_the_energies():
    # the allowance covers float rounding only: at unit scale a 1e-6 J shortfall
    # fails, also over 300 rounds, while one ulp at 2.3e7 J (seed 299's case) passes
    for rounds in (1, 6, 300):
        trace = np.zeros((rounds + 1, 1))
        trace[1:] = 1.0
        assert deficit_ok(trace, np.array([2.5]), np.array([1.5]))[0]
        assert not deficit_ok(trace, np.array([2.5 + 1e-6]), np.array([1.5]))[0]
    budget, consumed = 377.3808000658412, 2.3e7
    trace = np.zeros((7, 1))
    trace[1:] = consumed - budget
    assert deficit_ok(trace, np.array([np.nextafter(consumed, np.inf)]), np.array([budget]))[0]
    assert not deficit_ok(trace, np.array([consumed + 1e-6 * consumed]), np.array([budget]))[0]
