import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsched import scheduler
from flsched.errors import Infeasible
from flsched.model import RoundContext
from flsched.selection import SelectionInstance, itmcs
from flsched.simenv import Scenario, ScenarioSpec

from oracles import brute_force_selection, ceiling_selection, selection_objective


def score_oracle(price, v, penalty_weight):
    """q_k of one client: backlog-weighted energy price minus the weighted utility gain."""
    return price - penalty_weight * math.log1p(v)


def test_marginal_score(twin_population, example_config, monkeypatch):
    # the scores the selection half-step hands to itmcs, for two example
    # clients on an SNR-100 channel scored at the equal split 1/2; client 0's
    # backlog makes its energy price exactly 0.01, client 1 has no backlog
    g_ref = 1e7 * math.log2(101.0)
    energy_at_half = 6.0e-3 + 0.1 * 2.4e5 / (0.5 * g_ref)
    v = 1.7e-8 * 1.2e6  # 0.0204
    seen = []

    def spy(instance):
        seen.append(instance.scores)
        return itmcs(instance)

    monkeypatch.setattr(scheduler, "itmcs", spy)
    monkeypatch.setattr(scheduler, "ITER_ROUNDS", 1)

    def scores(penalty_weight):
        seen.clear()
        ctx = RoundContext(twin_population, np.full(2, 1e-10), example_config)
        scheduler.solve_round(np.array([0.01 / energy_at_half, 0.0]), ctx,
                              penalty_weight)
        return seen[0]

    q = scores(1.0)
    assert q[0] == pytest.approx(-0.0101948, rel=1e-5)
    assert q[0] == pytest.approx(score_oracle(0.01, v, 1.0), rel=1e-12)
    assert q[1] == pytest.approx(score_oracle(0.0, v, 1.0), rel=1e-15)
    assert score_oracle(0.0, 0.0, 1.0) == 0.0
    # a larger weight makes the score more negative
    assert (scores(2.0) < q).all()


def test_selection_objective():
    inst = SelectionInstance(np.array([-1.5, -0.3]), np.array([1.0, 2.0]), 1.0)
    assert selection_objective([], inst) == 0.0
    assert selection_objective([0], inst) == pytest.approx(-0.5)
    assert selection_objective([0, 1], inst) == pytest.approx(0.2)


def test_itmcs_examples():
    inst = SelectionInstance(np.array([-1.5, -0.3, 0.2]), np.array([1.0, 2.0, 0.5]), 1.0)
    got = itmcs(inst)
    assert list(got.selected) == [True, False, False]
    assert got.objective == pytest.approx(-0.5)

    nothing = itmcs(SelectionInstance(np.array([0.5, 0.0]), np.array([1.0, 1.0]), 1.0))
    assert not nothing.selected.any()
    assert nothing.objective == 0.0

    tie = itmcs(SelectionInstance(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 1.0))
    assert list(tie.selected) == [True, True]
    assert tie.objective == pytest.approx(-1.0)


def test_brute_force_single_client():
    got = brute_force_selection(SelectionInstance(np.array([-0.1]), np.array([5.0]), 1.0))
    assert not got.selected.any()  # W({0}) = 4.9 > 0, empty wins
    assert got.objective == 0.0


def test_brute_force_too_large():
    with pytest.raises(Infeasible):
        brute_force_selection(SelectionInstance(np.zeros(21) - 1, np.ones(21), 1.0))


def test_objective_never_positive():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = rng.integers(1, 10)
        inst = SelectionInstance(rng.normal(0, 1, k), rng.uniform(0, 3, k),
                                 10 ** rng.uniform(-2, 2))
        assert itmcs(inst).objective <= 0.0


def test_itmcs_matches_brute_force_seeded():
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = int(rng.integers(1, 13))
        inst = SelectionInstance(rng.normal(-0.2, 1.0, k), rng.uniform(0, 5, k),
                                 10 ** rng.uniform(-2, 2))
        fast = itmcs(inst)
        slow = brute_force_selection(inst)
        assert abs(fast.objective - slow.objective) <= 1e-12
        assert np.array_equal(fast.selected, slow.selected)


def test_itmcs_matches_capped_brute_force():
    # plain prefix truncation is not exact under a cap; the ceiling scan is
    rng = np.random.default_rng(43)
    for _ in range(300):
        k = int(rng.integers(2, 12))
        cap = int(rng.integers(1, k + 1))
        inst = SelectionInstance(rng.normal(-0.5, 1.0, k), rng.uniform(0, 5, k),
                                 10 ** rng.uniform(-2, 2), max_selected=cap)
        fast = itmcs(inst)
        slow = brute_force_selection(inst)
        assert fast.selected.sum() <= cap
        assert abs(fast.objective - slow.objective) <= 1e-12
        assert np.array_equal(fast.selected, slow.selected)


def test_capped_counterexample_to_prefix_truncation():
    # under cap 1 the best set is the second client alone, which no prefix
    # of the latency order of length <= 1 contains
    inst = SelectionInstance(np.array([-0.1, -5.0]), np.array([1.0, 2.0]), 1.0,
                             max_selected=1)
    got = itmcs(inst)
    assert list(got.selected) == [False, True]
    assert got.objective == pytest.approx(-3.0)
    assert np.array_equal(got.selected, brute_force_selection(inst).selected)


def assert_matches_ceiling_definition(inst):
    fast, slow = itmcs(inst), ceiling_selection(inst)
    assert np.array_equal(fast.selected, slow.selected)
    assert math.isclose(fast.objective, slow.objective, rel_tol=0.0, abs_tol=1e-12)
    return fast


def test_itmcs_matches_ceiling_definition_at_full_size():
    # caps below, at and above the number of eligible clients; on the tied
    # instances every score and latency sits on a grid of 1/16 and V is a power
    # of two, so each W is exact and the tie-breaks are compared, not rounding
    rng = np.random.default_rng(44)
    for case in range(240):
        k = 120 if case % 4 == 0 else int(rng.integers(1, 121))
        q, t = rng.normal(-0.3, 1.0, k), rng.uniform(0, 5, k)
        v = 10 ** rng.uniform(-2, 2)
        if case % 2:
            q, t = np.round(q * 4) / 16, np.round(t * 2) / 16
            v = 2.0 ** int(rng.integers(-3, 4))
        if case % 3 == 0:
            t[rng.random(k) < 0.2] = np.inf
        n = int(((q < 0) & np.isfinite(t)).sum())
        caps = {None, 0, 1, max(n - 1, 0), n, n + 1, int(rng.integers(0, k + 2))}
        for cap in caps:
            got = assert_matches_ceiling_definition(SelectionInstance(q, t, v, max_selected=cap))
            assert cap is None or got.selected.sum() <= cap


def test_nan_candidate_never_chosen():
    # client 1 is the fastest; client 0's v*t overflows next to its -inf
    # score, so its W and that of every later ceiling is NaN or +inf, with
    # and without companions in the pool
    q = np.array([-np.inf, -1.0, -0.5])
    t = np.array([1e10, 0.0, 2e10])
    for cap in (None, 1):
        got = itmcs(SelectionInstance(q, t, 1e300, max_selected=cap))
        assert list(got.selected) == [False, True, False]
        assert got.objective == -1.0


@pytest.mark.parametrize("cap,accepted", [
    (2, True), (np.int64(2), True), (2.5, False), (2.0, False), (True, False),
    (np.bool_(False), False), ("2", False),
], ids=["int", "int64", "fraction", "float", "True", "numpy-bool", "string"])
def test_max_selected_must_be_an_integer(cap, accepted):
    def build():
        return SelectionInstance(np.array([-1.0, -1.0, -1.0]), np.ones(3), 1.0,
                                 max_selected=cap)
    if accepted:
        assert itmcs(build()).selected.sum() == 2
    else:
        with pytest.raises(ValueError, match="^max_selected must be an integer, got "):
            build()


@pytest.mark.parametrize("floor,binds", [({"min_ratio": 0.05}, True), ({}, False)],
                         ids=["cap-20-of-40", "default-floor"])
def test_run_with_and_without_binding_cap_matches_definition(monkeypatch, floor, binds):
    # a 5% floor caps the set at 20 of 40 NONIID clients and binds; the
    # default 1% floor caps it at 100 and never binds
    overrides = {"num_clients": 40, "num_rounds": 12, "frame_len": 6, "num_frames": 2, **floor}
    cap_bound = []

    def spy(instance):
        eligible = int(((instance.scores < 0) & np.isfinite(instance.latencies)).sum())
        cap_bound.append(instance.max_selected < eligible)
        return assert_matches_ceiling_definition(instance)

    monkeypatch.setattr(scheduler, "itmcs", spy)
    scheduler.run_policy(Scenario(ScenarioSpec(seed=1, mode="NONIID", overrides=overrides)),
                         scheduler.PolicySpec("PEDPC"))
    assert len(cap_bound) >= 12
    assert any(cap_bound) if binds else not any(cap_bound)


@pytest.mark.parametrize("scores,latencies", [
    ([-1.0, np.nan], [1.0, 1.0]), ([-1.0, -1.0], [np.nan, 1.0]), ([-1.0, -1.0], [1.0, -1e-300]),
], ids=["nan-score", "nan-latency", "negative-latency"])
def test_selection_instance_rejects_nan_or_negative_latency(scores, latencies):
    with pytest.raises(ValueError, match="^scores must not be NaN; latencies must be >= 0$"):
        SelectionInstance(np.array(scores), np.array(latencies), 1.0)


def test_selection_instance_admits_infinite_latency_and_score():
    inst = SelectionInstance(np.array([-np.inf, -1.0, np.inf]), np.array([1.0, np.inf, 0.0]), 1.0)
    assert list(itmcs(inst).selected) == [True, False, False]


def test_infinite_latency_excluded():
    # the first client is very attractive by score but cannot transmit
    inst = SelectionInstance(np.array([-5.0, -2.0]), np.array([np.inf, 1.0]), 1.0)
    got = itmcs(inst)
    assert list(got.selected) == [False, True]
    assert got.objective == pytest.approx(-1.0)


def test_deterministic_tie_breaks():
    inst = SelectionInstance(np.array([-0.5, -0.5, -0.5]), np.array([2.0, 2.0, 2.0]), 0.1)
    a = itmcs(inst)
    b = itmcs(inst)
    assert np.array_equal(a.selected, b.selected)
    assert a.objective == b.objective


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150)
def test_itmcs_never_beaten_by_random_subset(k, seed):
    rng = np.random.default_rng(seed)
    inst = SelectionInstance(rng.normal(-0.3, 1.0, k), rng.uniform(0, 4, k),
                             10 ** rng.uniform(-1, 1))
    best = itmcs(inst).objective
    for _ in range(20):
        subset = [i for i in range(k) if rng.random() < 0.5]
        assert best <= selection_objective(subset, inst) + 1e-12
