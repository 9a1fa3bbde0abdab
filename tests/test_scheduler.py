import dataclasses
import math
import warnings

import numpy as np
import pytest

from flsched import bandwidth as bw
from flsched import harness
from flsched import lyapunov as lyap
from flsched import model, scheduler, simenv
from flsched.errors import Infeasible, NoConverge, VerificationError
from flsched.model import (RoundContext, SystemConfig, check_shares, client_utility,
                           round_credit, selected_totals)
from flsched.scheduler import (PolicySpec, SolveResult, _fill, _RoundProblem, baseline_random,
                               baseline_select_all, fedcs_terms, greedy_terms,
                               random_sample_size, run_policy, solve_round)
from flsched.selection import SelectionInstance
from flsched.simenv import Scenario, ScenarioSpec, policy_rng

from cli_cases import FULL, PEDPC_FLOOR, PRICE_OVERFLOW, SMOKE
from conftest import population
from oracles import heap_selection, masked_baseline_run, masked_fill

G_REF = 1e7 * np.log2(101.0)


def small_scenario(seed=0, k=6, rounds=20, mode="IID", **extra):
    overrides = {"num_clients": k, "num_rounds": rounds, "min_ratio": 0.05}
    overrides.update(extra)
    return Scenario(ScenarioSpec(seed=seed, mode=mode, overrides=overrides))


def uniform_context(population, config, value=1e-10):
    return RoundContext(population, np.full(len(population), value), config,
                        client_utility(population, config), round_credit(population, config))


def test_p3_objective_empty_zero_queue(twin_population, example_config):
    ctx = uniform_context(twin_population, example_config)
    empty = np.zeros(2)
    problem = _RoundProblem(np.zeros(2), ctx, 1.0)
    assert problem.value(ctx.outcome(empty, empty.nonzero()[0])) == 0.0


def test_p3_objective_empty_with_backlog(twin_population, example_config):
    ctx = uniform_context(twin_population, example_config)
    z = np.array([0.01, 0.02])
    empty = np.zeros(2)
    got = _RoundProblem(z, ctx, 1.0).value(ctx.outcome(empty, empty.nonzero()[0]))
    assert got == pytest.approx(-(0.01 + 0.02) * 1.5 / 300, rel=1e-12)
    assert got < 0


def test_p3_objective_single_client_reference(twin_population, example_config):
    # Z=1 on the selected client only: drift 0.0096... - 0.005 plus cost 0.0758...
    ctx = uniform_context(twin_population, example_config)
    z = np.array([1.0, 0.0])
    dec = np.array([0.1, 0.0])
    got = _RoundProblem(z, ctx, 1.0).value(ctx.outcome(dec, dec.nonzero()[0]))
    # the unselected client has zero backlog so only the credit of client 0 counts
    assert got == pytest.approx(0.0804555, rel=1e-5)


def test_round_problem_allocation_is_the_populations_coefficients():
    # the selected set of each sampled round and a random set within the cap,
    # against the instance built from the population in its order of operations
    rng = np.random.default_rng(7)
    for z, ctx, v, iter_rounds in _skip_sample():
        if iter_rounds != 1:
            continue
        pop, rate = ctx.population, ctx.rate_coeff
        problem = _RoundProblem(z, ctx, v)
        chosen = solve_round(z, ctx, v).shares.nonzero()[0]
        drawn = np.sort(rng.choice(len(z), size=int(rng.integers(1, 21)), replace=False))
        for held in (chosen, drawn):
            got = problem.allocation(held)
            want = (pop.comp_latency[held], pop.model_size[held] / rate[held],
                    pop.tx_power[held] * z[held] * pop.model_size[held] / rate[held])
            assert [a.tobytes() for a in (got.comp_latency, got.lat_coeff, got.price_coeff)] \
                == [a.tobytes() for a in want]
            assert (got.penalty_weight, got.min_ratio) == (v, ctx.config.min_ratio)


def test_round_problem_allocation_raises_when_a_price_overflows():
    # tx_power * backlog * model_size passes the float range before the division
    # by the rate, though the coefficients themselves are finite
    ctx = harness.build_scenario(harness.parse_config(PRICE_OVERFLOW), 1).observe(0)
    pop, z = ctx.population, np.full(10, 100.0)
    assert np.isfinite(pop.tx_power * (z * (pop.model_size / ctx.rate_coeff))).all()
    with pytest.raises(NoConverge, match="^allocator coefficients leave the float range$"):
        _RoundProblem(z, ctx, 1e3).allocation(np.arange(2))


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
    dec1 = baseline_random(6, random_sample_size(sc.config, 0.5), policy_rng(7, 0))
    dec2 = baseline_random(6, random_sample_size(sc.config, 0.5), policy_rng(7, 0))
    assert np.count_nonzero(dec1) == 3
    assert np.array_equal(dec1, dec2)
    assert np.allclose(dec1[dec1 != 0], 1 / 3)
    check_shares(dec1, sc.config)
    full = baseline_random(6, random_sample_size(sc.config, 1.0), policy_rng(7, 0))
    assert full.all()  # fraction one behaves like select-all


def test_baseline_random_infeasible():
    # of 6 clients, a 5% fraction samples nobody, and a 20% floor admits only 5
    for min_ratio, fraction, message in [
            (0.05, 0.05, "fraction selects nobody"),
            (0.2, 1.0, "equal split over the sample falls below the floor")]:
        sc = small_scenario(k=6, min_ratio=min_ratio)
        with pytest.raises(Infeasible, match=f"^{message}$"):
            random_sample_size(sc.config, fraction)


def test_baseline_greedy_share_inversion(example_config):
    # with training headroom 0.002 J the required share is p*S/(G*headroom)
    pop = population(2, cycles_per_bit=5.0)
    ctx = uniform_context(pop, example_config)
    dec = _fill(ctx, *greedy_terms(pop, ctx.credit))
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
    ctx = uniform_context(pop, cfg)
    dec = _fill(ctx, *greedy_terms(pop, ctx.credit))
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
    ctx = RoundContext(pop, gains, sc.config, client_utility(pop, sc.config),
                       round_credit(pop, sc.config))
    dec = _fill(ctx, *greedy_terms(pop, ctx.credit))
    assert np.count_nonzero(dec) == 5
    shares = np.sort(dec[dec != 0])
    assert np.allclose(shares[:4], 0.18, atol=1e-9)
    assert shares[-1] == pytest.approx(0.28, abs=1e-9)


def test_baseline_greedy_energy_within_budget_share():
    # invariant: every selected client's round energy is at most its credit
    for seed in range(20):
        sc = small_scenario(seed=seed, k=6)
        ctx = sc.observe(0)
        dec = _fill(ctx, *greedy_terms(sc.population, ctx.credit))
        if not dec.any():
            continue
        check_shares(dec, sc.config)
        _, energy = selected_totals(sc.population, ctx.rate_coeff, dec, dec.nonzero()[0])
        credit = sc.population.energy_budget / sc.config.num_rounds
        assert np.all(energy[dec != 0] <= credit[dec != 0] + 1e-12)


def test_baseline_fedcs_share_inversion(example_config, twin_population):
    dec = _fill(uniform_context(twin_population, example_config),
                *fedcs_terms(twin_population, 0.5))
    expect = 2.4e5 / (G_REF * (0.5 - 0.06))
    assert expect == pytest.approx(0.0081922, rel=1e-4)
    got = np.sort(dec[dec != 0])
    assert got[0] == pytest.approx(max(expect, example_config.min_ratio), rel=1e-9)


def test_baseline_fedcs_excludes_slow_training(example_config):
    pop = population(2, cpu_freq=1e7)  # t_cmp = 6 s
    dec = _fill(uniform_context(pop, example_config), *fedcs_terms(pop, 0.5))
    assert not dec.any()


def test_baseline_fedcs_latency_within_cap():
    for seed in range(20):
        sc = small_scenario(seed=seed, k=6)
        ctx = sc.observe(0)
        cap = 1.0
        dec = _fill(ctx, *fedcs_terms(sc.population, cap))
        if not dec.any():
            continue
        check_shares(dec, sc.config)
        latency, _ = selected_totals(sc.population, ctx.rate_coeff, dec, dec.nonzero()[0])
        assert np.all(latency[dec != 0] <= cap + 1e-12)


def test_baseline_fedcs_huge_cap_selects_max():
    sc = small_scenario(k=6, min_ratio=0.2)  # at most 5 clients fit
    dec = _fill(sc.observe(0), *fedcs_terms(sc.population, 1e9))
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


@pytest.mark.parametrize("kind,knob,value,message", [
    ("FedCS", "latency_cap", 0.0, "FedCS requires a positive latency_cap"),
    ("FedCS", "latency_cap", -1.0, "FedCS requires a positive latency_cap"),
    ("FedCS", "latency_cap", float("nan"), "latency_cap must be finite, got nan"),
    ("Random", "random_fraction", 0.0, r"Random requires random_fraction in \(0, 1\]"),
    ("Random", "random_fraction", 1.5, r"Random requires random_fraction in \(0, 1\]"),
], ids=["FedCS-0.0", "FedCS--1.0", "FedCS-nan", "Random-0.0", "Random-1.5"])
def test_policy_spec_baseline_knob_rule(kind, knob, value, message):
    # PolicySpec is the one home of each baseline knob's rule: fedcs_terms
    # takes the cap, and random_sample_size the fraction, as checked here
    with pytest.raises(ValueError, match=f"^{message}$"):
        PolicySpec(kind, **{knob: value})


def test_policy_spec_stores_knobs_as_floats():
    spec = PolicySpec("FedCS", latency_cap=3, penalty=np.float32(0.5))
    assert (spec.latency_cap, spec.penalty, spec.random_fraction) == (3.0, 0.5, None)
    assert type(spec.latency_cap) is float and type(spec.penalty) is float


def test_run_policy_trace_shape_and_invariants():
    sc = small_scenario(rounds=20)
    tr = run_policy(sc, PolicySpec("PEDPC", penalty=1.0))
    assert tr.records.shape == (20,)
    assert tr.records.dtype.names == ("n_selected", "latency", "phi", "backlog_sq")
    assert tr.backlog_trace.shape == (21, 6)
    assert tr.drift_min_slack >= -1e-9
    for seq in tr.half_step_values:
        assert np.all(np.diff(np.array(seq)) <= 1e-12)


def test_run_policy_deterministic():
    sc = small_scenario(seed=5, rounds=10)
    spec = PolicySpec("Random", random_fraction=0.5)
    a = run_policy(sc, spec)
    b = run_policy(Scenario(sc.spec), spec)
    assert np.array_equal(a.records["n_selected"], b.records["n_selected"])
    assert np.array_equal(a.energies, b.energies)


def test_run_policy_solves_every_round_at_the_policy_penalty(monkeypatch):
    sc = small_scenario(rounds=20)
    real, weights = scheduler.solve_round, []

    def spy(backlog, ctx, penalty_weight):
        weights.append(penalty_weight)
        return real(backlog, ctx, penalty_weight)

    monkeypatch.setattr(scheduler, "solve_round", spy)
    tr = run_policy(sc, PolicySpec("PEDPC", penalty=0.01))
    assert len(tr.records) == 20  # runs every round
    assert weights == [0.01] * 20


def test_pedpc_never_selects_when_unprofitable():
    # one client whose backlog price exceeds any utility gain
    sc = Scenario(ScenarioSpec(seed=0, mode="IID", overrides={
        "num_clients": 1, "num_rounds": 4, "min_ratio": 0.05}))
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


def _always_solve_oracle(backlog, ctx, penalty_weight, iter_rounds, select=heap_selection):
    """The alternation loop that calls the barrier after every selection half-step.

    Kept as it was before the fixed-point skip, apart from calling the shared
    per-client model, holding the decision as its share vector and evaluating
    the returned shares' outcome afresh, as the reference the production loop
    must reproduce bit for bit. It rescores every client in every alternation,
    compares full masks and selects with `select`, by default
    `heap_selection`, the one-loop scan.
    """
    pop, config = ctx.population, ctx.config
    k = len(pop)
    cap = config.max_selectable
    hyp_share = 1.0 / k
    objective = _RoundProblem(backlog, ctx, penalty_weight).value
    b = np.zeros(k)
    value = objective(ctx.outcome(b, b.nonzero()[0]))
    halves = [value]
    for _ in range(iter_rounds):
        start_value = value
        shares = np.where(b != 0, b, hyp_share)
        latencies, energies = model.client_round(pop, ctx.rate_coeff, shares)
        scores = lyap.energy_prices(backlog, energies) - penalty_weight * ctx.log_utility
        proposal = select(SelectionInstance(scores, latencies, penalty_weight,
                                            max_selected=cap)).selected
        if not np.array_equal(proposal, b != 0):
            m = int(proposal.sum())
            b_cand = np.where(proposal, 1.0 / m if m else 0.0, 0.0)
            cand_val = objective(ctx.outcome(b_cand, b_cand.nonzero()[0]))
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
            new_val = objective(ctx.outcome(b_new, b_new.nonzero()[0]))
            if new_val <= value:
                b, value = b_new, new_val
        halves.append(value)
        if not value < start_value:
            break
    return SolveResult(b, tuple(halves), ctx.outcome(b, b.nonzero()[0]))


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


def _recorder(log):
    """A selection step that logs its instance's scores and latencies, then runs `heap_selection`."""
    def record(instance):
        log.append(instance.scores.tobytes() + instance.latencies.tobytes())
        return heap_selection(instance)
    return record


def test_solve_round_scores_match_a_full_rescoring(monkeypatch):
    # every selection instance the production loop builds, the held clients
    # repriced into a copy of the 1/K scores, is the oracle's rescoring of
    # every client at its share or at 1/K, alternation by alternation
    for z, ctx, v, iter_rounds in _skip_sample():
        got, want = [], []
        monkeypatch.setattr(scheduler, "ITER_ROUNDS", iter_rounds)
        monkeypatch.setattr(scheduler, "itmcs", _recorder(got))
        scheduler.solve_round(z, ctx, v)
        _always_solve_oracle(z, ctx, v, iter_rounds, select=_recorder(want))
        assert got == want


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
        energy, t0, phi, latency = result.outcome
        want_energy, want_t0, want_phi, want_latency = ctx.outcome(
            result.shares, result.shares.nonzero()[0])
        assert energy.tobytes() == want_energy.tobytes()
        assert latency.tobytes() == want_latency.tobytes()
        assert np.array([t0, phi]).tobytes() == np.array([want_t0, want_phi]).tobytes()


def test_pinned_floor_run_matches_always_solve_oracle(monkeypatch):
    # 30 NONIID clients under a 5% floor: the 20-client sets fill the band at
    # the floor, so the production loop skips their allocator calls
    sc = small_scenario(seed=1, k=30, rounds=12, mode="NONIID")
    got = run_policy(sc, PolicySpec("PEDPC"))
    assert (got.records["n_selected"] == sc.config.max_selectable).any()
    monkeypatch.setattr(scheduler, "solve_round", lambda backlog, ctx, v: _always_solve_oracle(
        backlog, ctx, v, scheduler.ITER_ROUNDS))
    want = run_policy(sc, PolicySpec("PEDPC"))
    assert got.records.tobytes() == want.records.tobytes()
    assert got.backlog_trace.tobytes() == want.backlog_trace.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.half_step_values == want.half_step_values


@pytest.mark.parametrize("penalty", [0.1, 1.0])
@pytest.mark.parametrize("name", ["default", "pedpc_floor"])
def test_full_scale_run_matches_always_solve_oracle(monkeypatch, name, penalty):
    # 100 clients over 60 rounds, under the default floor (no
    # cap binds, most sets are solved) and the 5% one (20-client sets pinned
    # at the floor): held-set rescoring, index sets and the two-phase scan
    # give the always-solve loop's records, energies, backlogs and traces
    doc = _BASELINE_RUN_CONFIGS[name]
    system = {**doc.get("system", {}), "num_rounds": 60}
    scenario = harness.build_scenario(harness.parse_config({**doc, "system": system}), 1)
    policy = PolicySpec("PEDPC", penalty=penalty)
    got = run_policy(scenario, policy)
    monkeypatch.setattr(scheduler, "solve_round", lambda backlog, ctx, v: _always_solve_oracle(
        backlog, ctx, v, scheduler.ITER_ROUNDS))
    want = run_policy(scenario, policy)
    assert got.records["n_selected"].any()
    assert got.records.tobytes() == want.records.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.backlog_trace.tobytes() == want.backlog_trace.tobytes()
    assert [np.array(h).tobytes() for h in got.half_step_values] == \
        [np.array(h).tobytes() for h in want.half_step_values]


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

    def update(*args, **kwargs):
        events.append(("update", None))
        return real_update(*args, **kwargs)

    monkeypatch.setattr(simenv, "sample_round", draw)
    monkeypatch.setattr(lyap, "update_queue", update)
    run_policy(small_scenario(rounds=6), policy)
    assert events == [e for r in range(6) for e in (("draw", r), ("update", None))]


def test_run_policy_reuses_the_scenario_contexts_unchanged(monkeypatch):
    # a scenario keeps the contexts its first run drew: later runs draw
    # nothing, see the same objects and get the same trace, byte for byte
    sc = small_scenario(seed=1, k=8, rounds=12)
    draws = []
    real_draw = simenv.sample_round

    def draw(spec, round_index, population):
        draws.append(round_index)
        return real_draw(spec, round_index, population)

    monkeypatch.setattr(simenv, "sample_round", draw)
    for policy in (PolicySpec("PEDPC"), PolicySpec("SelectAll"),
                   PolicySpec("Random", random_fraction=0.5), PolicySpec("Greedy"),
                   PolicySpec("FedCS", latency_cap=0.2)):
        first = run_policy(sc, policy)
        drawn = len(draws)
        second = run_policy(sc, policy)
        assert len(draws) == drawn, policy.kind
        for name in ("records", "backlog_trace", "energies"):
            assert getattr(second, name).tobytes() == getattr(first, name).tobytes(), name
    assert draws == list(range(12))
    fresh = small_scenario(seed=1, k=8, rounds=12)
    for r in range(12):
        ctx = sc.observe(r)
        assert sc.observe(r) is ctx
        for name in ("rate_coeff", "log_utility", "credit"):
            assert not getattr(ctx, name).flags.writeable
            assert getattr(ctx, name).tobytes() == getattr(fresh.observe(r), name).tobytes()
    assert len(draws) == 2 * 12  # the fresh scenario's draws alone


def test_every_context_shares_the_scenarios_credit_and_utility():
    # the credit and utility are computed once per scenario, read-only, and
    # every kept context holds the same two arrays: the memo's array data is
    # R rate vectors plus one credit and one utility vector
    sc = Scenario(ScenarioSpec(seed=1))
    run_policy(sc, PolicySpec("Greedy"))
    r, k = sc.config.num_rounds, sc.config.num_clients
    for name, formula in (("credit", model.round_credit), ("log_utility", model.client_utility)):
        shared = getattr(sc, name)
        assert getattr(sc.observe(0), name) is getattr(sc.observe(r - 1), name) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
        assert shared.tobytes() == formula(sc.population, sc.config).tobytes()
    assert len(sc._contexts) == r
    arrays = {id(a): a for ctx in sc._contexts.values()
              for a in (ctx.rate_coeff, ctx.credit, ctx.log_utility)}
    assert sum(a.nbytes for a in arrays.values()) == r * k * 8 + 2 * k * 8 == 241_600


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


def test_fill_matches_the_masked_reference_bit_for_bit(example_config):
    # dead links (zero rate coefficients) and zero, negative and 1e-320 slacks
    # are left out, silently, as by the pass over every client
    rng = np.random.default_rng(7)
    admitted = topped_up = tiny_slacks = 0
    for _ in range(300):
        k = 30
        pop = population(k, cpu_freq=rng.uniform(1e7, 1e9, k),
                         tx_power=rng.uniform(0.01, 0.1, k))
        config = dataclasses.replace(example_config, num_clients=k,
                                     min_ratio=float(rng.choice([0.01, 0.05, 0.2, 0.5])))
        gain_sq = np.where(rng.random(k) < 0.2, 0.0, 10 ** rng.uniform(-11, -9, k))
        ctx = RoundContext(pop, gain_sq, config, client_utility(pop, config),
                           round_credit(pop, config))
        upload = pop.tx_power * pop.model_size if rng.random() < 0.5 else pop.model_size
        edge = rng.choice([0.0, 1e-320, -1.0], size=k)
        slack = np.where(rng.random(k) < 0.2, edge,
                         rng.uniform(-0.2, 1.0, k) * rng.choice([0.01, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scheduler._fill(ctx, upload, slack)
        want = masked_fill(ctx, upload, slack)
        assert got.tobytes() == want.tobytes()
        admitted += bool(got.any())
        topped_up += bool(got.any()) and got.max() > np.sort(got)[-2]
        tiny_slacks += bool((slack == 1e-320).any())
    assert admitted > 200 and topped_up > 100 and tiny_slacks > 100


def _drift_min_slack_afresh(trace, scenario):
    """The run's smallest drift slack, each from both backlogs' Lyapunov values afresh."""
    z = trace.backlog_trace
    return min(scenario.drift + float(np.dot(z[r], trace.energies[r] - scenario.credit))
               - (0.5 * float(np.dot(z[r + 1], z[r + 1])) - 0.5 * float(np.dot(z[r], z[r])))
               for r in range(len(trace.records)))


@pytest.mark.parametrize("kind", scheduler.POLICY_KINDS)
def test_run_policy_carries_each_backlogs_squared_norm(kind):
    # one dot per backlog: the recorded value is twice its Lyapunov value, and
    # the run's smallest slack is the one from taking both values afresh
    sc = small_scenario(seed=1, k=8, energy_budget=0.05)  # a budget every policy overspends
    trace = run_policy(sc, PolicySpec(kind, penalty=0.5, random_fraction=0.5, latency_cap=20.0))
    assert trace.records["backlog_sq"].tobytes() == np.array(
        [float(np.dot(row, row)) for row in trace.backlog_trace[1:]]).tobytes()
    assert trace.records["backlog_sq"].any()
    want = _drift_min_slack_afresh(trace, sc)
    assert np.float64(trace.drift_min_slack).tobytes() == np.float64(want).tobytes()


def _empty_value_reference(z, ctx, v):
    """The value of the empty decision, priced from `RoundContext.outcome` of zero shares."""
    empty = np.zeros(len(z))
    return _RoundProblem(z, ctx, v).value(ctx.outcome(empty, empty.nonzero()[0]))


@pytest.mark.parametrize("level", [0.0, 1e6])
def test_solve_round_prices_the_empty_start_without_a_pass(monkeypatch, example_config, level):
    # clients that train for 6e4 s are never worth selecting: the round stays
    # empty, its value and outcome are the empty decision's, bit for bit, and
    # no outcome pass runs; at a zero backlog the value is +0.0
    ctx = uniform_context(population(2, cpu_freq=1e3), example_config)
    z = np.full(2, level)
    real, calls = model.selected_totals, []
    monkeypatch.setattr(model, "selected_totals", lambda *a: calls.append(a) or real(*a))
    result = solve_round(z, ctx, 1.0)
    assert not result.shares.any() and not calls
    empty = np.zeros(2)
    want = ctx.outcome(empty, empty.nonzero()[0])
    energy, t0, phi, latency = result.outcome
    assert [energy.tobytes(), latency.tobytes()] == [want[0].tobytes(), want[3].tobytes()]
    assert np.array([t0, phi]).tobytes() == np.array(want[1:3]).tobytes()
    value = _empty_value_reference(z, ctx, 1.0)
    assert np.array(result.half_step_values).tobytes() == np.array([value] * 3).tobytes()
    if level == 0.0:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    else:
        assert value < 0.0


def test_solve_round_first_value_is_the_empty_decisions_value():
    # on rounds that select, at the sample's positive backlogs and at zero ones
    for z, ctx, v, _ in _skip_sample():
        for backlog in (z, np.zeros_like(z)):
            first = solve_round(backlog, ctx, v).half_step_values[0]
            want = _empty_value_reference(backlog, ctx, v)
            assert np.float64(first).tobytes() == np.float64(want).tobytes()


_BASELINE_RUN_CONFIGS = {"default": FULL, "pedpc_floor": PEDPC_FLOOR, "smoke": SMOKE}
# FedCS at 0.1 s selects nobody on the smoke system at seed 2 and about 10 of
# 100 clients elsewhere; at 0.3 s about 40 of 100, or the floor's 20
_BASELINE_RUN_POLICIES = (PolicySpec("SelectAll"), PolicySpec("Random", random_fraction=0.4),
                          PolicySpec("Greedy"), PolicySpec("FedCS", latency_cap=0.1),
                          PolicySpec("FedCS", latency_cap=0.3))


@pytest.mark.parametrize("policy", _BASELINE_RUN_POLICIES,
                         ids=lambda p: p.kind + (f"-{p.latency_cap:g}" if p.latency_cap else ""))
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(_BASELINE_RUN_CONFIGS))
def test_baseline_run_matches_the_masked_reference_bit_for_bit(name, seed, policy):
    # one index set per round and the run constants computed once give the
    # per-round masked pass's records, energies, backlogs and drift slack; on
    # the floor's 20-client cap SelectAll and Random 0.4 are Infeasible in both
    scenario = harness.build_scenario(harness.parse_config(_BASELINE_RUN_CONFIGS[name]), seed)
    try:
        records, energies, backlog_trace, min_slack = masked_baseline_run(scenario, policy)
    except Infeasible as exc:
        assert name == "pedpc_floor" and policy.kind in ("SelectAll", "Random")
        with pytest.raises(Infeasible, match=f"^{exc}$"):
            run_policy(scenario, policy)
        return
    trace = run_policy(scenario, policy)
    assert trace.records.tobytes() == records.tobytes()
    assert trace.energies.tobytes() == energies.tobytes()
    assert trace.backlog_trace.tobytes() == backlog_trace.tobytes()
    assert np.float64(trace.drift_min_slack).tobytes() == np.float64(min_slack).tobytes()
    nobody_fits = (name, seed, policy.latency_cap) == ("smoke", 2, 0.1)
    assert records["n_selected"].any() != nobody_fits
