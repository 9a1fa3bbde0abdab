import warnings

import numpy as np
import pytest

from flsched import bandwidth as bw
from flsched import lyapunov as lyap
from flsched import model, scheduler, simenv
from flsched.errors import Infeasible, VerificationError
from flsched.model import RoundContext, SystemConfig, check_shares, selected_totals
from flsched.scheduler import (DESCENT_SLACK, PolicySpec, SolveResult, _p3_value,
                               baseline_fedcs, baseline_greedy, baseline_random,
                               baseline_select_all, run_policy, solve_round)
from flsched.selection import SelectionInstance, itmcs
from flsched.simenv import Scenario, ScenarioSpec, policy_rng

from conftest import population

G_REF = 1e7 * np.log2(101.0)


def small_scenario(seed=0, k=6, rounds=20, mode="IID", **extra):
    overrides = {"num_clients": k, "num_rounds": rounds, "frame_len": rounds // 2,
                 "num_frames": 2, "min_ratio": 0.05}
    overrides.update(extra)
    return Scenario(ScenarioSpec(seed=seed, mode=mode, overrides=overrides))


def uniform_context(population, config, value=1e-10):
    return RoundContext(population, np.full(len(population), value), config)


def test_p3_objective_empty_zero_queue(twin_population, example_config):
    ctx = uniform_context(twin_population, example_config)
    assert _p3_value(np.zeros(2), np.zeros(2), ctx, 1.0)[0] == 0.0


def test_p3_objective_empty_with_backlog(twin_population, example_config):
    ctx = uniform_context(twin_population, example_config)
    z = np.array([0.01, 0.02])
    got = _p3_value(np.zeros(2), z, ctx, 1.0)[0]
    assert got == pytest.approx(-(0.01 + 0.02) * 1.5 / 300, rel=1e-12)
    assert got < 0


def test_p3_objective_single_client_reference(twin_population, example_config):
    # Z=1 on the selected client only: drift 0.0096... - 0.005 plus cost 0.0758...
    ctx = uniform_context(twin_population, example_config)
    z = np.array([1.0, 0.0])
    dec = np.array([0.1, 0.0])
    got, outcome = _p3_value(dec, z, ctx, 1.0)
    # the unselected client has zero backlog so only the credit of client 0 counts
    assert got == pytest.approx(0.0804555, rel=1e-5)
    assert outcome[1:] == ctx.outcome(dec)[1:]  # the outcome it priced


def test_solve_round_empty_when_everyone_expensive(example_config, twin_population):
    # huge backlogs make every price dwarf the utility weight
    z = np.array([1e9, 1e9])
    ctx = uniform_context(twin_population, example_config)
    res = solve_round(z, ctx, 1.0)
    assert not res.shares.any()
    assert res.half_step_values[-1] == pytest.approx(-(2e9) * 1.5 / 300)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300],
                         ids=["nan", "inf", "-inf", "negative"])
def test_solve_round_rejects_non_finite_or_negative_backlogs(twin_population, example_config,
                                                              bad):
    ctx = uniform_context(twin_population, example_config)
    with pytest.raises(ValueError, match="^backlogs must be finite and non-negative$"):
        solve_round(np.array([0.0, bad]), ctx, 1.0)


def test_solve_round_symmetric_pair(twin_population):
    # utility weight chosen so selecting both is clearly profitable
    cfg = SystemConfig(num_clients=2, num_rounds=300, frame_len=30, num_frames=10,
                       bandwidth=1e7, min_ratio=0.01, noise_power=1e-13,
                       accuracy_coeff=5e-6)
    ctx = uniform_context(twin_population, cfg)
    res = solve_round(np.zeros(2), ctx, 100.0)
    assert np.allclose(res.shares, 0.5, atol=1e-6)


def test_solve_round_halves_monotone_random():
    for seed in range(40):
        sc = small_scenario(seed=seed)
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, 0.05, 6)
        ctx = sc.observe(0)
        res = solve_round(z, ctx, 10 ** rng.uniform(-2, 1))
        seq = np.array(res.half_step_values)
        assert np.all(np.diff(seq) <= 1e-12)
        assert seq[-1] <= seq[0] + 1e-12  # never worse than doing nothing
        check_shares(res.shares, sc.config)


def test_solve_round_respects_selection_cap():
    sc = small_scenario(min_ratio=0.3)  # at most 3 clients fit
    ctx = sc.observe(0)
    res = solve_round(np.zeros(6), ctx, 50.0)
    assert np.count_nonzero(res.shares) <= 3
    check_shares(res.shares, sc.config)


def test_baseline_select_all(example_config):
    dec = baseline_select_all(example_config)
    assert np.allclose(dec, 0.5)
    check_shares(dec, example_config)


def test_baseline_select_all_infeasible():
    cfg = SystemConfig(num_clients=2, num_rounds=300, frame_len=30, num_frames=10,
                       bandwidth=1e7, min_ratio=0.6, noise_power=1e-13,
                       accuracy_coeff=1.7e-8)
    with pytest.raises(Infeasible):
        baseline_select_all(cfg)


def test_baseline_random_counts_and_determinism():
    sc = small_scenario(k=6)
    dec1 = baseline_random(sc.config, 0.5, policy_rng(7, 0))
    dec2 = baseline_random(sc.config, 0.5, policy_rng(7, 0))
    assert np.count_nonzero(dec1) == 3
    assert np.array_equal(dec1, dec2)
    assert np.allclose(dec1[dec1 != 0], 1 / 3)
    check_shares(dec1, sc.config)
    full = baseline_random(sc.config, 1.0, policy_rng(7, 0))
    assert full.all()  # fraction one behaves like select-all


def test_baseline_random_infeasible():
    sc = small_scenario(k=6, min_ratio=0.05)
    with pytest.raises(Infeasible):
        baseline_random(sc.config, 0.05, policy_rng(0, 0))


def test_baseline_greedy_share_inversion(example_config):
    # with training headroom 0.002 J the required share is p*S/(G*headroom)
    pop = population(2, cycles_per_bit=5.0)
    dec = baseline_greedy(uniform_context(pop, example_config))
    e_cmp = pop.comp_energy[0]
    expect = 0.1 * 2.4e5 / (G_REF * (1.5 / 300 - e_cmp))
    assert dec.all()
    # first added keeps its minimal share; the last is topped up to close the band
    assert dec.min() == pytest.approx(expect, rel=1e-9)
    assert dec.sum() == pytest.approx(1.0, abs=1e-12)


def test_baseline_greedy_excludes_budget_busters():
    pop = population(2, capacitance=1e-27)  # e_cmp = 0.06 >> 0.005
    cfg = SystemConfig(num_clients=2, num_rounds=300, frame_len=30, num_frames=10,
                       bandwidth=1e7, min_ratio=0.01, noise_power=1e-13,
                       accuracy_coeff=1.7e-8)
    dec = baseline_greedy(uniform_context(pop, cfg))
    assert not dec.any()


def test_baseline_greedy_prefix_and_topup():
    # six identical clients with required share 0.18: five fit, last gets 0.28
    k = 6
    sc = small_scenario(k=k)
    pop = sc.population
    # construct gains so every client needs share ~0.18 for its energy budget:
    # need = p*S/(G*headroom) = 0.18 -> G = p*S/(0.18*headroom)
    credit = pop.energy_budget / sc.config.num_rounds
    g_needed = pop.tx_power * pop.model_size / (0.18 * (credit - pop.comp_energy))
    # invert the rate formula for the gain that yields exactly g_needed
    snr = 2 ** (g_needed / sc.config.bandwidth) - 1
    gains = snr * sc.config.noise_power / pop.tx_power
    assert np.all(credit - pop.comp_energy > 0)
    dec = baseline_greedy(RoundContext(pop, gains, sc.config))
    assert np.count_nonzero(dec) == 5
    shares = np.sort(dec[dec != 0])
    assert np.allclose(shares[:4], 0.18, atol=1e-9)
    assert shares[-1] == pytest.approx(0.28, abs=1e-9)


def test_baseline_greedy_energy_within_budget_share():
    # invariant: every selected client's round energy is at most its credit
    for seed in range(20):
        sc = small_scenario(seed=seed, k=6)
        ctx = sc.observe(0)
        dec = baseline_greedy(ctx)
        if not dec.any():
            continue
        check_shares(dec, sc.config)
        _, energy = selected_totals(sc.population, ctx.rate_coeff, dec)
        credit = sc.population.energy_budget / sc.config.num_rounds
        assert np.all(energy[dec != 0] <= credit[dec != 0] + 1e-12)


def test_baseline_fedcs_share_inversion(example_config, twin_population):
    dec = baseline_fedcs(uniform_context(twin_population, example_config), 0.5)
    expect = 2.4e5 / (G_REF * (0.5 - 0.06))
    assert expect == pytest.approx(0.0081922, rel=1e-4)
    got = np.sort(dec[dec != 0])
    assert got[0] == pytest.approx(max(expect, example_config.min_ratio), rel=1e-9)


def test_baseline_fedcs_excludes_slow_training(example_config):
    pop = population(2, cpu_freq=1e7)  # t_cmp = 6 s
    dec = baseline_fedcs(uniform_context(pop, example_config), 0.5)
    assert not dec.any()


def test_baseline_fedcs_latency_within_cap():
    for seed in range(20):
        sc = small_scenario(seed=seed, k=6)
        ctx = sc.observe(0)
        cap = 1.0
        dec = baseline_fedcs(ctx, cap)
        if not dec.any():
            continue
        check_shares(dec, sc.config)
        latency, _ = selected_totals(sc.population, ctx.rate_coeff, dec)
        assert np.all(latency[dec != 0] <= cap + 1e-12)


def test_baseline_fedcs_huge_cap_selects_max():
    sc = small_scenario(k=6, min_ratio=0.2)  # at most 5 clients fit
    dec = baseline_fedcs(sc.observe(0), 1e9)
    assert np.count_nonzero(dec) == 5
    assert np.allclose(np.sort(dec[dec != 0])[:4], 0.2)


@pytest.mark.parametrize("knobs,name", [
    ({"penalty": "1"}, "penalty"), ({"kind": "FedCS", "latency_cap": "3"}, "latency_cap"),
    ({"kind": "Random", "random_fraction": float("nan")}, "random_fraction"),
    ({"penalty": None}, "penalty"),
], ids=["penalty", "latency_cap", "random_fraction", "penalty-None"])
def test_policy_spec_knob_must_be_a_number(knobs, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        PolicySpec(**knobs)


def test_policy_spec_stores_knobs_as_floats():
    spec = PolicySpec("FedCS", latency_cap=3, penalty=np.float32(0.5))
    assert (spec.latency_cap, spec.penalty, spec.random_fraction) == (3.0, 0.5, None)
    assert type(spec.latency_cap) is float and type(spec.penalty) is float


def test_run_policy_trace_shape_and_invariants():
    sc = small_scenario(rounds=20)
    tr = run_policy(sc, PolicySpec("PEDPC", penalty=1.0))
    assert len(tr.records) == 20
    assert tr.backlog_trace.shape == (21, 6)
    assert tr.drift_min_slack >= -1e-9
    for seq in tr.half_step_values:
        assert np.all(np.diff(np.array(seq)) <= 1e-12)
    assert [r.round for r in tr.records] == list(range(20))


def test_run_policy_deterministic():
    sc = small_scenario(seed=5, rounds=10)
    spec = PolicySpec("Random", random_fraction=0.5)
    a = run_policy(sc, spec)
    b = run_policy(Scenario(sc.spec), spec)
    sel_a = [r.n_selected for r in a.records]
    assert sel_a == [r.n_selected for r in b.records]
    assert np.array_equal(a.energies, b.energies)


def test_run_policy_solves_every_round_at_the_policy_penalty(monkeypatch):
    sc = small_scenario(rounds=20)
    real, weights = scheduler.solve_round, []

    def spy(backlog, ctx, penalty_weight):
        weights.append(penalty_weight)
        return real(backlog, ctx, penalty_weight)

    monkeypatch.setattr(scheduler, "solve_round", spy)
    tr = run_policy(sc, PolicySpec("PEDPC", penalty=0.01))
    assert len(tr.records) == 20  # runs through both frames
    assert weights == [0.01] * 20


def test_pedpc_never_selects_when_unprofitable():
    # one client whose backlog price exceeds any utility gain
    sc = Scenario(ScenarioSpec(seed=0, mode="IID", overrides={
        "num_clients": 1, "num_rounds": 4, "frame_len": 2, "num_frames": 2,
        "min_ratio": 0.05}))
    big = np.array([1e6])
    for r in range(4):
        ctx = sc.observe(r)
        assert not solve_round(big, ctx, 1e-9).shares.any()


def _drift_gap_replaced_in_round(round_index, slack):
    """lyapunov.drift_gap replaced in one round by a fixed slack."""
    real, calls = lyap.drift_gap, []

    def gap(*args):
        calls.append(None)
        return slack if len(calls) == round_index + 1 else real(*args)
    return gap


@pytest.mark.parametrize("policy", [PolicySpec("PEDPC"), PolicySpec("SelectAll")],
                         ids=lambda p: p.kind)
def test_run_policy_raises_on_drift_violation(monkeypatch, policy):
    sc = small_scenario(rounds=6)
    monkeypatch.setattr(lyap, "drift_gap", _drift_gap_replaced_in_round(3, -2e-9))
    with pytest.raises(VerificationError, match="in round 3 "):
        run_policy(sc, policy)


def test_run_policy_allows_drift_rounding_slack(monkeypatch):
    sc = small_scenario(rounds=6)
    monkeypatch.setattr(lyap, "drift_gap", _drift_gap_replaced_in_round(3, -0.5e-9))
    assert run_policy(sc, PolicySpec("PEDPC")).drift_min_slack == -0.5e-9


def test_run_policy_raises_on_deficit_violation(monkeypatch):
    sc = small_scenario(rounds=6)
    real = lyap.deficit_ok

    def one_client_fails(backlog_trace, consumed, budgets):
        check = real(backlog_trace, consumed, budgets)
        check[4] = False
        return check

    monkeypatch.setattr(lyap, "deficit_ok", one_client_fails)
    with pytest.raises(VerificationError, match=r"deficit lower bound violated .*\[4\]"):
        run_policy(sc, PolicySpec("PEDPC"))


def _always_solve_oracle(backlog, ctx, penalty_weight, iter_rounds):
    """The alternation loop that calls the barrier after every selection half-step.

    Kept as it was before the fixed-point skip, apart from calling the shared
    per-client model, holding the decision as its share vector and evaluating
    the returned shares' outcome afresh, as the reference the production loop
    must reproduce bit for bit.
    """
    pop, config = ctx.population, ctx.config
    k = len(pop)
    cap = config.max_selectable
    hyp_share = 1.0 / k
    b = np.zeros(k)
    value = _p3_value(b, backlog, ctx, penalty_weight)[0]
    halves = [value]
    for _ in range(iter_rounds):
        start_value = value
        shares = np.where(b != 0, b, hyp_share)
        latencies, energies = model.client_round(pop, ctx.rate_coeff, shares)
        scores = lyap.energy_prices(backlog, energies) - penalty_weight * ctx.log_utility
        proposal = itmcs(SelectionInstance(scores, latencies, penalty_weight,
                                           max_selected=cap)).selected
        if not np.array_equal(proposal, b != 0):
            m = int(proposal.sum())
            b_cand = np.where(proposal, 1.0 / m if m else 0.0, 0.0)
            cand_val = _p3_value(b_cand, backlog, ctx, penalty_weight)[0]
            if cand_val <= value:
                b, value = b_cand, cand_val
        halves.append(value)
        if b.any():
            idx = np.flatnonzero(b)
            instance = bw.AllocationInstance(
                comp_latency=pop.comp_latency[idx],
                lat_coeff=pop.model_size[idx] / ctx.rate_coeff[idx],
                price_coeff=(pop.tx_power[idx] * backlog[idx] * pop.model_size[idx]
                             / ctx.rate_coeff[idx]),
                penalty_weight=penalty_weight,
                min_ratio=config.min_ratio,
            )
            alloc = bw.barrier_solve(instance)
            b_new = np.zeros(k)
            b_new[idx] = alloc.ratios
            new_val = _p3_value(b_new, backlog, ctx, penalty_weight)[0]
            if new_val <= value:
                b, value = b_new, new_val
        halves.append(value)
        if start_value - value < DESCENT_SLACK:
            break
    return SolveResult(b, tuple(halves), ctx.outcome(b))


def _skip_sample():
    """48 seeded rounds: random backlogs, V and round index, iter_rounds 1, 3 and 6.

    30 clients against a 20-client cap, with backlogs spread over four decades,
    so that some rounds move the selection after the first barrier solve.
    """
    for seed in range(16):
        sc = small_scenario(seed=seed, k=30)
        rng = np.random.default_rng(1000 + seed)
        z = 10 ** rng.uniform(-4, 0, 30)
        v = 10 ** rng.uniform(-2, 1)
        ctx = sc.observe(int(rng.integers(20)))
        for iter_rounds in (1, 3, 6):
            yield z, ctx, v, iter_rounds


def _barrier_inputs(solve, *args):
    """Run one round solve and list the size and inputs of every barrier call it makes."""
    real, log = bw.barrier_solve, []

    def record(instance):
        log.append((instance.size, b"".join(a.tobytes() for a in (
            instance.comp_latency, instance.lat_coeff, instance.price_coeff))))
        return real(instance)

    bw.barrier_solve = record
    try:
        solve(*args)
    finally:
        bw.barrier_solve = real
    return log


def test_solve_round_matches_always_solve_oracle_exactly(monkeypatch):
    for z, ctx, v, iter_rounds in _skip_sample():
        monkeypatch.setattr(scheduler, "ITER_ROUNDS", iter_rounds)
        got = scheduler.solve_round(z, ctx, v)
        want = _always_solve_oracle(z, ctx, v, iter_rounds)
        assert got.shares.tobytes() == want.shares.tobytes()
        assert got.half_step_values == want.half_step_values


def _equal_split_only(m, min_ratio):
    """Whether the allocator's only answer for m clients is the equal split 1/m.

    m floors of exactly 1/m fill the band; one client gets the whole band
    unless the floor is within FEAS_TOL of it, where the floor is returned.
    """
    return 1.0 / m == min_ratio or (m == 1 and abs(min_ratio - 1.0) > model.FEAS_TOL)


def test_solve_round_skips_only_repeated_barrier_calls(monkeypatch):
    # within a round the barrier's instance is a function of the selected set,
    # so equal inputs on consecutive calls mean the same set was solved twice;
    # a set whose only split is the equal one the candidate holds is not solved
    oracle_repeats = equal_split_sets = resolved_rounds = 0
    for z, ctx, v, iter_rounds in _skip_sample():
        monkeypatch.setattr(scheduler, "ITER_ROUNDS", iter_rounds)
        calls = _barrier_inputs(scheduler.solve_round, z, ctx, v)
        oracle_calls = _barrier_inputs(_always_solve_oracle, z, ctx, v, iter_rounds)
        assert all(a != b for a, b in zip(calls, calls[1:]))
        deduped = [c for i, c in enumerate(oracle_calls) if i == 0 or c != oracle_calls[i - 1]]
        solved = [c for c in deduped if not _equal_split_only(c[0], ctx.config.min_ratio)]
        assert calls == solved
        oracle_repeats += len(oracle_calls) - len(deduped)
        equal_split_sets += len(deduped) - len(solved)
        resolved_rounds += len(calls) > 1
    assert oracle_repeats > 0  # the sample exercises the skip of a repeat
    assert equal_split_sets > 0  # ... and of a set pinned at the floor
    assert resolved_rounds > 0  # ... and the re-solve of a moved selection


def test_solve_round_solves_a_near_floor_set_whose_split_is_not_equal():
    # a floor of 0.3333333333333 fills the band with 3 clients to FEAS_TOL,
    # but the allocator returns the floor there, not 1/3, so the set is solved
    sc = small_scenario(seed=2, rounds=12, min_ratio=0.3333333333333)
    ctx = sc.observe(0)
    calls = _barrier_inputs(scheduler.solve_round, np.zeros(6), ctx, 1.0)
    assert [m for m, _ in calls] == [3]


def test_solve_round_outcome_is_the_decisions_outcome(monkeypatch):
    for z, ctx, v, iter_rounds in _skip_sample():
        monkeypatch.setattr(scheduler, "ITER_ROUNDS", iter_rounds)
        result = scheduler.solve_round(z, ctx, v)
        energy, t0, phi = result.outcome
        want_energy, want_t0, want_phi = ctx.outcome(result.shares)
        assert energy.tobytes() == want_energy.tobytes()
        assert np.array([t0, phi]).tobytes() == np.array([want_t0, want_phi]).tobytes()


def test_pinned_floor_run_matches_always_solve_oracle(monkeypatch):
    # 30 NONIID clients under a 5% floor: the 20-client sets fill the band at
    # the floor, so the production loop skips their allocator calls
    sc = small_scenario(seed=1, k=30, rounds=12, mode="NONIID", frame_len=4, num_frames=3)
    got = run_policy(sc, PolicySpec("PEDPC"))
    assert any(rec.n_selected == sc.config.max_selectable for rec in got.records)
    monkeypatch.setattr(scheduler, "solve_round", lambda backlog, ctx, v: _always_solve_oracle(
        backlog, ctx, v, scheduler.ITER_ROUNDS))
    want = run_policy(sc, PolicySpec("PEDPC"))
    assert got.records == want.records
    assert got.backlog_trace.tobytes() == want.backlog_trace.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.half_step_values == want.half_step_values


@pytest.mark.parametrize("policy", [PolicySpec("PEDPC"), PolicySpec("Greedy")],
                         ids=lambda p: p.kind)
def test_run_policy_draws_each_round_once_at_its_start(monkeypatch, policy):
    # the benchmark stamps rounds on the channel draw, so each round must
    # draw exactly once, in order, before its queue update
    events = []
    real_draw, real_update = simenv.sample_round, lyap.update_queue

    def draw(spec, round_index, population):
        events.append(("draw", round_index))
        return real_draw(spec, round_index, population)

    def update(*args):
        events.append(("update", None))
        return real_update(*args)

    monkeypatch.setattr(simenv, "sample_round", draw)
    monkeypatch.setattr(lyap, "update_queue", update)
    run_policy(small_scenario(rounds=6), policy)
    assert events == [e for r in range(6) for e in (("draw", r), ("update", None))]


def test_fill_tiny_positive_slack_needs_no_share(example_config):
    # a slack of 1e-320 makes upload / (rate * slack) overflow: that client
    # needs an infinite share and is left out, as with no slack, silently
    pop = population(3)
    ctx = uniform_context(pop, example_config)
    upload = pop.tx_power * pop.model_size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = scheduler._fill(ctx, upload, np.array([1e-320, 1e-3, 2e-3]))
    none = scheduler._fill(ctx, upload, np.array([0.0, 1e-3, 2e-3]))
    assert list(tiny != 0) == [False, True, True]
    assert np.array_equal(tiny, none)
