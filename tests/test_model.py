import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flsched.bandwidth import AllocationInstance, simplex_grid
from flsched.errors import Infeasible, VerificationError
from flsched.model import (FEAS_TOL, Population, RoundContext, SystemConfig, check_shares,
                           client_round, client_utility, max_clients, rate_coefficients,
                           round_credit, selected_totals)
from flsched.scheduler import baseline_random, baseline_select_all, random_sample_size

from conftest import EXAMPLE_CLIENT, population
from oracles import masked_selected_totals

# hand-checked reference values for the example client (1 GHz, 10 cycles/bit,
# 0.1 W, 0.24 Mbit model, 1.2 Mbit data, 5 local passes) on a SNR=100 channel
G_REF = 1e7 * math.log2(101.0)  # 66582114.8275...
E_CMP_REF = 6.0e-3
T_CMP_REF = 0.06
T_COM_REF = 2.4e5 / (0.1 * G_REF)  # 0.0360457...
E_COM_REF = 0.1 * T_COM_REF
V_REF = 1.7e-8 * 1.2e6  # 0.0204
PHI_REF = math.log1p(V_REF)  # 0.0201947...
SNR100_GAIN = 1e-10  # 0.1 W * 1e-10 / 1e-13 W noise = SNR 100


def rate_oracle(pop, k, gain_sq, config):
    """Scalar full-band Shannon rate of client k, written out independently."""
    return config.bandwidth * math.log2(1.0 + pop.tx_power[k] * gain_sq / config.noise_power)


def client_oracle(pop, k, rate_coeff, ratio):
    """Scalar (latency, energy) of client k's round, written out independently."""
    e_cmp = (pop.local_iters[k] * pop.capacitance[k] * pop.cycles_per_bit[k]
             * pop.data_size[k] * pop.cpu_freq[k] ** 2)
    t_cmp = pop.local_iters[k] * pop.cycles_per_bit[k] * pop.data_size[k] / pop.cpu_freq[k]
    t_com = pop.model_size[k] / (ratio * rate_coeff)
    return t_cmp + t_com, e_cmp + pop.tx_power[k] * t_com


def one_client_rate(pop, gain_sq, config):
    return rate_coefficients(pop, np.array([gain_sq]), config)[0]


def snr100_context(population, config):
    return RoundContext(population, np.full(len(population), SNR100_GAIN), config,
                        client_utility(population, config), round_credit(population, config))


def upload(population, rate_coeff, shares):
    """Per-client upload (latency, energy): client_round minus the training terms."""
    latency, energy = client_round(population, rate_coeff, np.asarray(shares))
    return latency - population.comp_latency, energy - population.comp_energy


def test_rate_coefficient_snr100(example_config):
    g = one_client_rate(population(), SNR100_GAIN, example_config)
    assert g == pytest.approx(6.65821e7, rel=1e-5)
    assert g == pytest.approx(G_REF, rel=1e-12)


def test_rate_coefficient_zero_gain(example_config):
    assert one_client_rate(population(), 0.0, example_config) == 0.0


def test_rate_coefficient_snr_one(example_config):
    assert one_client_rate(population(tx_power=0.01), 1e-11, example_config) == pytest.approx(1.0e7, rel=1e-12)


def test_rate_coefficients_match_scalar(example_config, twin_population):
    gains = np.array([1e-10, 1e-11])
    vec = rate_coefficients(twin_population, gains, example_config)
    for k in range(2):
        assert vec[k] == pytest.approx(
            rate_oracle(twin_population, k, gains[k], example_config), rel=1e-14)


def test_comp_quantities_reference():
    pop = population()
    assert pop.comp_energy[0] == pytest.approx(E_CMP_REF, rel=1e-12)
    assert pop.comp_latency[0] == pytest.approx(T_CMP_REF, rel=1e-12)


def test_comp_quantities_frequency_scaling():
    pop = population(cpu_freq=2e9)
    # quadratic in frequency
    assert pop.comp_energy[0] == pytest.approx(4 * E_CMP_REF, rel=1e-12)
    assert pop.comp_latency[0] == pytest.approx(T_CMP_REF / 2, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_comp_quantities_linear_in_data(scale):
    base = EXAMPLE_CLIENT["data_size"]
    pop = population(2, data_size=[base, base * scale])
    assert pop.comp_energy[1] == pytest.approx(scale * pop.comp_energy[0], rel=1e-12)
    assert pop.comp_latency[1] == pytest.approx(scale * pop.comp_latency[0], rel=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Population)])
def test_population_rejects_nonpositive(name, value):
    # one bad client among three is enough, and the message names the parameter
    values = np.full(3, float(EXAMPLE_CLIENT[name]))
    values[1] = value
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive$"):
        population(3, **{name: values})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300],
                         ids=["nan", "inf", "-inf", "negative"])
def test_round_context_rejects_non_finite_or_negative(bad, example_config):
    pop = population(3)
    with pytest.raises(ValueError, match="^squared gains must be finite and non-negative$"):
        RoundContext(pop, np.array([0.0, bad, 1e-10]), example_config,
                     client_utility(pop, example_config), round_credit(pop, example_config))


def test_population_rejects_non_integral_local_iters():
    with pytest.raises(ValueError, match="^local_iters must be a positive integer$"):
        population(2, local_iters=[5.0, 2.5])
    assert population(2, local_iters=[5.0, 3.0]).comp_energy[1] == \
        pytest.approx(0.6 * E_CMP_REF, rel=1e-12)


def test_population_rejects_empty_or_ragged_arrays():
    with pytest.raises(ValueError, match="^empty population$"):
        population(0)
    ragged = {name: np.full(2, value) for name, value in EXAMPLE_CLIENT.items()}
    ragged["tx_power"] = np.full(3, 0.1)
    with pytest.raises(ValueError, match="equal length"):
        Population(**ragged)
    with pytest.raises(ValueError, match="equal length"):
        Population(**{name: np.full((2, 2), value) for name, value in EXAMPLE_CLIENT.items()})


def test_comm_quantities_reference(twin_population):
    t_com, e_com = upload(twin_population, np.full(2, G_REF), [0.1, 0.1])
    assert 2.4e5 / t_com[0] == pytest.approx(0.1 * G_REF, rel=1e-12)  # the achieved rate
    assert t_com[0] == pytest.approx(0.0360457, rel=1e-5)
    assert e_com[0] == pytest.approx(3.60457e-3, rel=1e-5)


def test_comm_quantities_inverse_in_share(twin_population):
    t_com, _ = upload(twin_population, np.full(2, G_REF), [0.1, 1.0])
    assert t_com[1] == pytest.approx(t_com[0] / 10, rel=1e-12)


def test_comm_quantities_dead_link(twin_population):
    # zero gain on client 0, zero share on client 1: both links are dead
    latency, energy = client_round(twin_population, np.array([0.0, G_REF]),
                                   np.array([0.5, 0.0]))
    assert np.isinf(latency).all() and np.isinf(energy).all()
    shares = np.array([1.0, 0.0])
    with pytest.raises(Infeasible):
        selected_totals(twin_population, np.array([0.0, G_REF]), shares, shares.nonzero()[0])


@given(st.floats(min_value=0.01, max_value=0.99))
def test_comm_monotone_in_share(ratio):
    (t_lo, t_hi), (e_lo, e_hi) = upload(population(2), np.full(2, G_REF),
                                        [ratio, ratio * 1.01])
    assert t_hi < t_lo and e_hi < e_lo


def test_client_round_totals(twin_population):
    (t, t1), (e, e1) = client_round(twin_population, np.full(2, G_REF), np.array([0.1, 1.0]))
    assert t == pytest.approx(T_CMP_REF + T_COM_REF, rel=1e-12)
    assert e == pytest.approx(E_CMP_REF + E_COM_REF, rel=1e-12)
    assert t == pytest.approx(0.0960457, rel=1e-5)
    assert e == pytest.approx(9.60457e-3, rel=1e-5)
    assert t1 == pytest.approx(0.0636, rel=1e-2)
    assert e1 == pytest.approx(6.3605e-3, rel=1e-4)
    # communication terms always add something on top of training
    assert t > T_CMP_REF and e > E_CMP_REF


def test_round_latency_selected_max(example_config):
    # three clients that differ only in CPU speed (1, 0.5 and 0.2 GHz)
    pop = population(3, cpu_freq=[1e9, 5e8, 2e8])
    ctx = snr100_context(pop, dataclasses.replace(example_config, num_clients=3))

    def t0(shares):
        shares = np.array(shares)
        return ctx.outcome(shares, shares.nonzero()[0])[1]

    def slowest(members):
        return max(client_oracle(pop, k, G_REF, share)[0] for k, share in members)

    # selected = {1, 2} -> the slower of the two; client 2 trains 5x slower than 0
    assert t0([0.0, 0.5, 0.5]) == pytest.approx(slowest([(1, 0.5), (2, 0.5)]), rel=1e-12)
    assert t0([0.5, 0.5, 0.0]) == pytest.approx(slowest([(0, 0.5), (1, 0.5)]), rel=1e-12)
    assert t0([0.0, 0.0, 0.0]) == 0.0
    assert t0([1 / 3] * 3) == \
        pytest.approx(slowest([(k, 1 / 3) for k in range(3)]), rel=1e-12)


@given(st.lists(st.floats(min_value=1e7, max_value=1e9), min_size=1, max_size=8),
       st.integers(min_value=0))
def test_round_latency_equals_indicator_max(freqs, bits):
    pop = population(len(freqs), cpu_freq=freqs)
    config = SystemConfig(num_clients=len(freqs), num_rounds=300, frame_len=30,
                          num_frames=10, bandwidth=1e7, min_ratio=0.01, noise_power=1e-13,
                          accuracy_coeff=1.7e-8)
    ctx = snr100_context(pop, config)
    sel = np.array([(bits >> i) & 1 == 1 for i in range(len(freqs))])
    share = 1.0 / max(sel.sum(), 1)
    dec = np.where(sel, share, 0.0)
    expect = max((client_oracle(pop, k, ctx.rate_coeff[k], share)[0]
                  for k in np.flatnonzero(sel)), default=0.0)
    assert ctx.outcome(dec, dec.nonzero()[0])[1] == pytest.approx(expect, rel=1e-12)


def test_accuracy_utility_reference(twin_population, example_config):
    assert client_utility(twin_population, example_config) == \
        pytest.approx([PHI_REF, PHI_REF], rel=1e-12)
    ctx = snr100_context(twin_population, example_config)
    one = np.array([1.0, 0.0])
    assert ctx.outcome(one, one.nonzero()[0])[2] == pytest.approx(PHI_REF, rel=1e-12)
    empty = np.zeros(2)
    assert ctx.outcome(empty, empty.nonzero()[0])[2] == 0.0
    both = np.array([0.5, 0.5])
    assert ctx.outcome(both, both.nonzero()[0])[2] == pytest.approx(2 * PHI_REF, rel=1e-12)


def test_accuracy_utility_monotone_under_adding(twin_population, example_config):
    ctx = snr100_context(twin_population, example_config)
    one = np.array([1.0, 0.0])
    both = np.array([0.5, 0.5])
    assert ctx.outcome(both, both.nonzero()[0])[2] >= ctx.outcome(one, one.nonzero()[0])[2]


def round_cost(ctx, shares):
    _, t0, phi, _ = ctx.outcome(shares, shares.nonzero()[0])
    return t0 - phi


def test_round_cost(twin_population, example_config):
    ctx = snr100_context(twin_population, example_config)
    t, _ = client_oracle(twin_population, 0, G_REF, 1.0)
    assert round_cost(ctx, np.array([1.0, 0.0])) == pytest.approx(t - PHI_REF, rel=1e-12)
    assert round_cost(ctx, np.zeros(2)) == 0.0


def test_round_cost_single_client_reference(twin_population, example_config):
    ctx = snr100_context(twin_population, example_config)
    assert round_cost(ctx, np.array([0.1, 0.0])) == pytest.approx(0.0758509, rel=1e-5)


def test_round_cost_lower_bound(twin_population, example_config):
    # cost is at least minus the full utility of everyone
    floor = -sum(math.log1p(example_config.accuracy_coeff * d)
                 for d in twin_population.data_size)
    ctx = snr100_context(twin_population, example_config)
    for sel in ([True, True], [True, False], [False, False]):
        sel = np.array(sel)
        n = max(sel.sum(), 1)
        assert round_cost(ctx, np.where(sel, 1.0 / n, 0.0)) >= floor


def test_check_shares(example_config):
    check_shares(np.array([1.0, 0.0]), example_config)
    for shares in ([0.9, 0.0], [0.0, 0.5]):
        with pytest.raises(VerificationError, match="^selected shares must sum to one$"):
            check_shares(np.array(shares), example_config)
    with pytest.raises(VerificationError, match="^selected client below the bandwidth floor$"):
        check_shares(np.array([1.0, 0.001]), example_config)
    for nan_shares in ([np.nan, 1.0], [np.nan, np.nan]):  # NaN meets neither the floor nor the sum
        with pytest.raises(VerificationError, match="^selected client below the bandwidth floor$"):
            check_shares(np.array(nan_shares), example_config)
    check_shares(np.zeros(2), example_config)


@pytest.mark.parametrize("shares", [[0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0], [1.0, -0.0],
                                    [0.5, 0.5], [0.0, 0.0, 0.3, -0.0, 0.7]])
def test_check_shares_returns_the_selected_indices(example_config, shares):
    # the non-zero shares' indices, ascending: -0.0 selects nobody
    got = check_shares(np.array(shares), example_config)
    want = np.flatnonzero(shares)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("shares", [[np.nan, 0.0], [np.nan, 1.0], [0.0, np.nan, -0.0]])
def test_check_shares_counts_a_nan_share_as_selected(example_config, shares):
    # were the NaN unselected, each of these would pass: nobody or [1.0] is valid
    with pytest.raises(VerificationError, match="^selected client below the bandwidth floor$"):
        check_shares(np.array(shares), example_config)


def test_outcome_on_the_checked_index_set_matches_the_masked_reference(example_config):
    # costing the set check_shares returns gives the masked pass's energies,
    # latencies, t0 and phi, bit for bit
    pop = population(4, cpu_freq=[1e9, 5e8, 2e9, 1e8])
    config = dataclasses.replace(example_config, num_clients=4)
    ctx = RoundContext(pop, np.array([1e-10, 3e-11, 0.0, 5e-10]), config,
                       client_utility(pop, config), round_credit(pop, config))
    for shares in ([0.0, 0.0, 0.0, 0.0], [0.25, 0.0, 0.0, 0.75], [0.5, -0.0, 0.0, 0.5],
                   [0.1, 0.2, 0.0, 0.7]):
        shares = np.array(shares)
        latency, energy = masked_selected_totals(pop, ctx.rate_coeff, shares)
        phi = float(ctx.log_utility[shares != 0].sum())
        got = ctx.outcome(shares, check_shares(shares, config))
        assert [got[0].tobytes(), got[3].tobytes()] == [energy.tobytes(), latency.tobytes()]
        assert np.array(got[1:3]).tobytes() == np.array([latency.max(), phi]).tobytes()
    with pytest.raises(Infeasible):  # client 2's dead link, in the set as found by the check
        shares = np.array([0.5, 0.0, 0.5, 0.0])
        ctx.outcome(shares, check_shares(shares, config))


def test_selected_totals_matches_scalar(twin_population, example_config):
    gains = np.array([1e-10, 3e-11])
    coeffs = rate_coefficients(twin_population, gains, example_config)
    shares = np.array([0.4, 0.6])
    lat, en = selected_totals(twin_population, coeffs, shares, shares.nonzero()[0])
    for k in range(2):
        t_ref, e_ref = client_oracle(twin_population, k, coeffs[k], shares[k])
        assert lat[k] == pytest.approx(t_ref, rel=1e-14)
        assert en[k] == pytest.approx(e_ref, rel=1e-14)
    shares = np.array([1.0, 0.0])
    with pytest.raises(Infeasible):
        selected_totals(twin_population, np.array([0.0, 1.0]), shares, shares.nonzero()[0])


def _selection_draws(count, k=12):
    """Random (population, rate coefficients, shares) draws with the edges of the cost.

    Each draw picks which edges it carries, each for about a tenth of its
    clients: dead links (zero rate coefficient), a rate of about 1e-300 whose
    upload time passes the float range, NaN shares, and training latencies past
    the float range. About 40% of the shares are zero.
    """
    rng = np.random.default_rng(25)
    for _ in range(count):
        dead, tiny, nan, slow = rng.choice([0.0, 0.1], size=(4, 1)) > rng.random((4, k))
        pop = population(k, cpu_freq=rng.uniform(1e7, 1e9, k),
                         model_size=rng.uniform(2.4e5, 1e9, k),
                         data_size=np.where(slow, 1e308, 3.6e6))
        rate_coeff = np.where(dead, 0.0, np.where(tiny, 1e-300, rng.uniform(1e6, 1e8, k)))
        shares = np.where(rng.random(k) < 0.4, 0.0, rng.uniform(0.01, 1.0, k))
        yield pop, rate_coeff, np.where(nan, np.nan, shares), dead | tiny | slow


def test_selected_totals_matches_the_masked_reference_bit_for_bit():
    # the pass over the selected clients returns the masked pass's bytes, and
    # raises Infeasible exactly where it does: a dead link, a NaN share, an
    # upload time or a training latency past the float range, on a selected client
    raised = returned = returned_past_an_unselected_edge = 0
    for pop, rate_coeff, shares, edge in _selection_draws(600):
        with np.errstate(over="ignore"):
            try:
                want = masked_selected_totals(pop, rate_coeff, shares)
            except Infeasible:
                with pytest.raises(Infeasible, match="zero transmission rate"):
                    selected_totals(pop, rate_coeff, shares, shares.nonzero()[0])
                raised += 1
                continue
            got = selected_totals(pop, rate_coeff, shares, shares.nonzero()[0])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        returned += 1
        returned_past_an_unselected_edge += bool((edge & (shares == 0)).any())
    assert raised > 100 and returned > 100 and returned_past_an_unselected_edge > 40


def test_selected_totals_raises_on_each_edge_of_a_selected_client():
    # client 1's training latency overflows; 1e9 bits at a rate of 1e-300 take 1e309 s
    pop = population(2, data_size=[3.6e6, 1e308], model_size=1e9)
    live = np.array([6e7, 6e7])
    for rate_coeff, shares in [(np.array([0.0, 6e7]), [1.0, 0.0]),  # dead link
                               (live, [np.nan, 0.0]),  # NaN share
                               (np.array([1e-300, 6e7]), [1.0, 0.0]),  # upload overflows
                               (live, [0.5, 0.5])]:  # training latency overflows
        shares = np.array(shares)
        with np.errstate(over="ignore"), pytest.raises(Infeasible):
            selected_totals(pop, rate_coeff, shares, shares.nonzero()[0])
        with np.errstate(over="ignore"), pytest.raises(Infeasible):
            masked_selected_totals(pop, rate_coeff, shares)
    # the same edges on an unselected client cost nothing
    shares = np.array([1.0, 0.0])
    latency, energy = selected_totals(pop, np.array([6e7, 0.0]), shares, shares.nonzero()[0])
    assert latency[1] == energy[1] == 0.0 and np.isfinite(latency[0])


def _floor_config(min_ratio, num_clients):
    return SystemConfig(num_clients=num_clients, num_rounds=1, frame_len=1, num_frames=1,
                        bandwidth=1e7, min_ratio=min_ratio, noise_power=1e-13,
                        accuracy_coeff=1.7e-8)


def _ulps(x, n):
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else 0.0)
    return float(x)


THIRD_NEIGHBOURS = [_ulps(1 / 3, n) for n in (-2, -1, 1, 2)]


@pytest.mark.parametrize("min_ratio", [1.0, 0.5, 0.3333333334, 1 / 3, *THIRD_NEIGHBOURS,
                                       0.2, 1 / 7, 0.1, 0.05, 0.01], ids=repr)
def test_floor_capacity_is_one_rule(min_ratio):
    # selection's cap, the allocator, the oracle grid and both equal-split
    # baselines all admit exactly max_selectable clients and refuse one more
    cap = _floor_config(min_ratio, 1).max_selectable
    assert cap * min_ratio <= 1 + FEAS_TOL < (cap + 1) * min_ratio

    def instance(m):
        return AllocationInstance(np.zeros(m), np.ones(m), np.ones(m), 1.0, min_ratio)

    assert instance(cap).size == cap
    with pytest.raises(Infeasible):
        instance(cap + 1)
    if cap <= 3:
        simplex_grid(cap, min_ratio, 0.01)
    if cap + 1 <= 3:
        with pytest.raises(Infeasible):
            simplex_grid(cap + 1, min_ratio, 0.01)
    assert np.count_nonzero(baseline_select_all(_floor_config(min_ratio, cap))) == cap
    with pytest.raises(Infeasible):
        baseline_select_all(_floor_config(min_ratio, cap + 1))
    wide = _floor_config(min_ratio, cap + 1)
    rng = np.random.default_rng(0)
    size = random_sample_size(wide, cap / (cap + 1))
    assert np.count_nonzero(baseline_random(cap + 1, size, rng)) == cap
    with pytest.raises(Infeasible, match="^equal split over the sample falls below the floor$"):
        random_sample_size(wide, 1.0)


@pytest.mark.parametrize("min_ratio", [2e-19, 1e-300, 1e-309, 5e-324], ids=repr)
def test_max_clients_admits_any_population_below_a_tiny_floor(min_ratio):
    # 1/min_ratio passes 2**62 (and for a subnormal floor, the float range):
    # the count stops near 2**62 instead of overflowing int()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cap = max_clients(min_ratio)
        assert max_clients(np.float64(min_ratio)) == cap
    assert 2 ** 62 <= cap <= 2 ** 62 + 1
    assert cap * min_ratio <= 1 + FEAS_TOL
