import math
import warnings

import numpy as np
import pytest

from flsched import bandwidth as bw
from flsched import harness, scheduler
from flsched.bandwidth import (AllocationInstance, barrier_solve, lse_error_bound, simplex_grid,
                               smoothed_objective)
from flsched.errors import Infeasible, NoConverge

from barrier_oracle import log_barrier_solve
from cli_cases import FULL
from oracles import exact_objective, grid_oracle, smoothing_gap


def rand_instance(rng, m, b_min=0.01):
    return AllocationInstance(
        comp_latency=rng.uniform(0, 1, m),
        lat_coeff=rng.uniform(1e-3, 1, m),
        price_coeff=rng.uniform(0, 1, m) * rng.integers(0, 2, m),
        penalty_weight=10 ** rng.uniform(-2, 2),
        min_ratio=b_min,
    )


def test_lse_error_bound_values():
    assert lse_error_bound(1) == 0.0
    assert lse_error_bound(2) == pytest.approx(math.log(2))
    # max <= lse <= max + ln(m) on a concrete vector
    x = np.array([1.0, 2.0])
    lse = math.log(np.exp(x).sum())
    assert lse == pytest.approx(2.3132617, rel=1e-6)
    assert 2.0 <= lse <= 2.0 + math.log(2)


def test_lse_bound_tight_on_equal_components():
    m = 5
    c = 3.7
    lse = math.log(np.exp(np.full(m, c) - c).sum()) + c
    assert lse == pytest.approx(c + math.log(m), rel=1e-12)


def test_smoothed_objective_single_client():
    inst = AllocationInstance(np.array([0.3]), np.array([0.2]), np.array([0.1]),
                              2.0, 0.5)
    b = np.array([0.8])
    val = smoothed_objective(b, inst).value
    assert val == pytest.approx(2.0 * (0.3 + 0.2 / 0.8) + 0.1 / 0.8, rel=1e-12)


def test_smoothed_objective_symmetry():
    inst = AllocationInstance(np.array([0.2, 0.2]), np.array([0.1, 0.1]),
                              np.array([0.3, 0.3]), 1.0, 0.1)
    _, grad, _ = smoothed_objective(np.array([0.5, 0.5]), inst)
    assert grad[0] == pytest.approx(grad[1], rel=1e-12)


def test_smoothed_objective_overflow_guard():
    # latency terms in the hundreds would overflow a naive exp sum
    inst = AllocationInstance(np.array([500.0, 900.0]), np.array([1.0, 1.0]),
                              np.array([0.1, 0.1]), 1.0, 0.1)
    val = smoothed_objective(np.array([0.5, 0.5]), inst).value
    assert np.isfinite(val)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(300):
        m = int(rng.integers(1, 7))
        inst = rand_instance(rng, m)
        b = rng.uniform(0.05, 1.0, m)
        _, grad, _ = smoothed_objective(b, inst)
        scale = 1e-4 * (1.0 + float(np.abs(grad).max()))  # FD noise floor
        for j in range(m):
            hi = b.copy(); hi[j] += step
            lo = b.copy(); lo[j] -= step
            fd = (smoothed_objective(hi, inst).value
                  - smoothed_objective(lo, inst).value) / (2 * step)
            assert abs(fd - grad[j]) <= 1e-5 * max(scale, abs(grad[j]))


def test_hessian_psd_and_midpoint_convexity():
    rng = np.random.default_rng(12)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        inst = rand_instance(rng, m)
        b = rng.uniform(0.05, 1.0, m)
        _, _, hess = smoothed_objective(b, inst)
        eig = np.linalg.eigvalsh(hess)
        assert eig.min() >= -1e-9 * max(1.0, abs(eig).max())
        x = rng.uniform(0.05, 1.0, m)
        y = rng.uniform(0.05, 1.0, m)
        mid = smoothed_objective((x + y) / 2, inst).value
        avg = (smoothed_objective(x, inst).value + smoothed_objective(y, inst).value) / 2
        assert mid <= avg + 1e-12


def test_hessian_factors_match_dense_formula():
    # H = diag(d) - a a^T must equal the softmax-curvature Hessian written out densely
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        inst = rand_instance(rng, m)
        b = rng.uniform(0.01, 1.0, m)
        ev = bw._factors(b, inst, bw._evaluate(b, inst))
        hess = smoothed_objective(b, inst).hessian
        assert np.array_equal(np.diag(ev.diag) - np.outer(ev.rank_one, ev.rank_one), hess)
        v, s, g = inst.penalty_weight, inst.lat_coeff, inst.price_coeff
        u = inst.comp_latency + s / b
        w = np.exp(u - u.max()) / np.exp(u - u.max()).sum()
        du = -s / b ** 2
        dense = v * (np.diag(w * du ** 2) - np.outer(w * du, w * du)) \
            + np.diag(2 * v * w * s / b ** 3 + 2 * g / b ** 3)
        assert np.abs(hess - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.allclose(ev.excess, ev.diag - v * w * du ** 2, rtol=1e-9, atol=0)
        assert np.all(ev.excess >= 0)


def floored_point(rng, m, b_min):
    """A share vector on the floored simplex with a random subset exactly on the floor."""
    b = np.full(m, b_min)
    free = rng.random(m) < rng.uniform(0.2, 1.0)
    free[rng.integers(m)] = True
    b[free] += (1.0 - m * b_min) * rng.dirichlet(np.ones(int(free.sum())))
    return b, free


def test_newton_step_matches_dense_kkt():
    # the O(m) free-set step against a dense bordered-KKT solve over the free
    # shares, with the held shares moving by fixed amounts; the reference
    # applies symmetric diagonal scaling first, which keeps it accurate where
    # shares near the floor make the raw KKT matrix badly conditioned
    rng = np.random.default_rng(18)
    zero_priced = floors = 0
    for trial in range(200):
        m = 1 + trial % 100
        b_min = rng.uniform(0.0, 0.5) / m
        inst = rand_instance(rng, m, b_min=b_min)
        zero_priced += int(np.any(inst.price_coeff == 0))
        b, free = floored_point(rng, m, b_min)
        ev = bw._factors(b, inst, bw._evaluate(b, inst))
        free &= ev.diag > bw.FLAT_TOL * ev.value  # a flat share is never free
        if not free.any():
            continue
        held = ~free
        floors += int(held.any())
        pinned = np.where(held & (rng.random(m) < 0.3), -rng.uniform(0, 1, m) * b, 0.0)
        step, nu = bw._newton_step(ev, free, pinned)

        ev = smoothed_objective(b, inst)
        f = np.flatnonzero(free)
        k = f.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = ev.hessian[np.ix_(f, f)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(-ev.gradient[f] - ev.hessian[np.ix_(f, held)] @ pinned[held],
                        -pinned.sum())
        scale = np.append(1.0 / np.sqrt(np.diag(kkt)[:k]), 1.0)
        ref = scale * np.linalg.solve(kkt * np.outer(scale, scale), scale * rhs)

        assert np.array_equal(step[held], pinned[held])
        assert abs(step.sum()) <= 1e-12
        # step entries below 1e-15 are beneath the resolution of b itself
        assert np.abs(step[f] - ref[:k]).max() <= 1e-9 * np.abs(ref[:k]).max() + 1e-15
        assert abs(nu - ref[k]) <= 1e-9 * abs(ref[k]) + 1e-12 * np.abs(ev.gradient).max()
    assert zero_priced >= 100
    assert floors >= 50


def test_newton_step_rejects_singular_system():
    inst = AllocationInstance(np.zeros(2), np.ones(2), np.zeros(2), 1.0, 0.1)
    b = np.array([0.5, 0.5])
    ev = bw._factors(b, inst, bw._evaluate(b, inst))
    both = np.ones(2, dtype=bool)
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(diag=np.array([np.inf, 1.0])), both, np.zeros(2))
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(weights=np.zeros(2)), both, np.zeros(2))
    # a NaN fails the min/max test of the curvature and the sign test of delta
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(diag=np.array([np.nan, 1.0])), both, np.zeros(2))
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(weights=np.array([np.nan, 0.5])), both, np.zeros(2))
    # nothing free, or a free share without curvature: no Newton step
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev, np.zeros(2, dtype=bool), np.zeros(2))
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(diag=np.array([0.0, 1.0])), both, np.zeros(2))
    # delta sums the held shares' weights: without them and without excess
    # curvature on the free share the restricted Hessian is singular
    first = np.array([True, False])
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(weights=np.array([1.0, 0.0]), excess=np.zeros(2)),
                        first, np.zeros(2))
    step, _ = bw._newton_step(ev._replace(weights=np.array([0.5, 0.5]), excess=np.zeros(2)),
                              first, np.array([0.0, -0.1]))
    assert step.tolist() == [0.1, -0.1]


@pytest.mark.parametrize("penalty,message", [
    (1e308, "allocator objective leaves the float range"),  # the equal split's value
    (1e305, "allocator objective leaves the float range"),  # its curvature, the value finite
    (1e-306, "Newton system leaves the float range"),  # 1/d past the float range
    (1e-315, "Newton system leaves the float range"),
], ids=["value-1e308", "curvature-1e305", "newton-1e-306", "newton-1e-315"])
def test_barrier_solve_past_the_float_range_does_not_converge(penalty, message):
    rng = np.random.default_rng(5)
    inst = AllocationInstance(rng.uniform(0, 1, 20), rng.uniform(1e-3, 1, 20), np.zeros(20),
                              penalty, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConverge, match=f"^{message}$"):
            barrier_solve(inst)


def test_diagonal_free_solves_the_diagonal_model():
    # the sorted breakpoint scan against bisection on the multiplier of the
    # separable model p_i(nu) = max(floor - b_i, -(g_i + nu)/d_i), sum(p) = 0
    rng = np.random.default_rng(19)
    for trial in range(100):
        m = 2 + trial % 60
        b_min = rng.uniform(0.0, 0.9) / m
        inst = rand_instance(rng, m, b_min=b_min)
        b, _ = floored_point(rng, m, b_min)
        ev = bw._factors(b, inst, bw._evaluate(b, inst))
        movable = ev.diag > bw.FLAT_TOL * ev.value
        moves = rng.uniform(-1, 0, m) * (b - b_min)  # the others drop toward the floor
        fixed = float(moves[~movable].sum())
        free = bw._diagonal_free(ev, b, b_min, movable, fixed)
        assert not free[~movable].any()
        g, d, x = ev.gradient[movable], ev.diag[movable], b[movable]
        free = free[movable]

        def total(nu):
            return np.maximum(b_min - x, -(g + nu) / d).sum() + fixed

        lo, hi = -np.abs(g).max() - 1.0, 1.0
        while total(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if total(mid) > 0 else (lo, mid)
        on_floor = -(g + hi) / d <= b_min - x
        kappa = d * (x - b_min) - g
        clear = np.abs(kappa - hi) > 1e-9 * (np.abs(kappa) + abs(hi))
        assert np.array_equal(free[clear], ~on_floor[clear])


# (m, Newton iterations, objective) of barrier_solve on rand_instance draws from
# default_rng(31) with min_ratio 0.005, recorded with the log-barrier method
# (dense KKT solver) that the projected Newton method replaced
BARRIER_PIN = (
    (2, 18, 0.12198252090189805), (2, 15, 0.07510965503396133),
    (2, 23, 4.4790340213517315), (2, 16, 14.364510466266863),
    (10, 26, 22.413246036781853), (10, 46, 5.545327985213208),
    (10, 45, 13.947165087432387), (10, 22, 27.05701342256369),
    (30, 61, 129.79064444846696), (30, 45, 387.24359201313837),
    (30, 29, 419.26174946871726), (30, 62, 100.98108480882829),
    (60, 65, 498.68061994561725), (60, 55, 1076.8700305784887),
    (60, 54, 4042.439980313229), (60, 51, 1064.5691216630648),
    (100, 71, 1841.6868207284876), (100, 66, 2243.288170698517),
    (100, 66, 5064.217036192596), (100, 63, 1763.995509947388),
)
# (KKT systems, objective) of the projected Newton method on the same draws
NEWTON_PIN = (
    (1, 0.1219825208736214), (1, 0.07510965502953455),
    (1, 4.479034021313435), (1, 14.364510466266863),
    (13, 22.413246036688115), (12, 5.545327984593677),
    (10, 13.947165086192996), (9, 27.05701342251435),
    (7, 129.79064444832522), (19, 387.24359201309494),
    (12, 419.2617494686792), (12, 100.98108480876516),
    (4, 498.68061994481144), (25, 1076.8700305781479),
    (21, 4042.43998031318), (21, 1064.5691216630098),
    (22, 1841.6868207274783), (26, 2243.288170697556),
    (30, 5064.217036192009), (23, 1763.9955099465506),
)


def test_barrier_regression_pin():
    rng = np.random.default_rng(31)
    for (m, _, barrier_objective), (systems, objective) in zip(BARRIER_PIN, NEWTON_PIN):
        got = barrier_solve(rand_instance(rng, m, b_min=0.005))
        assert got.iterations == systems
        assert got.objective == pytest.approx(objective, rel=1e-12, abs=0)
        assert got.objective <= barrier_objective * (1 + 1e-12)


def stress_instance(rng):
    """One draw of the allocator's stress family: m up to 100, latency
    coefficients over three decades, half the clients unpriced, V over ten."""
    m = int(rng.integers(1, 101))
    b_min = min(float(rng.choice([0.001, 0.005, 0.01, 0.05])), 1.0 / m)
    price = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0, 1e2, m))
    return AllocationInstance(rng.uniform(0, 1, m), 10 ** rng.uniform(-3, 0, m), price,
                              10 ** rng.uniform(-6, 4), b_min)


def check_against_oracle(got, oracle, inst):
    """No worse than the log-barrier oracle, with a KKT certificate on the floored simplex."""
    assert got.objective <= oracle.objective * (1 + 1e-9)
    b, b_min = got.ratios, inst.min_ratio
    assert abs(b.sum() - 1.0) <= 1e-12
    assert b.min() >= b_min
    grad = smoothed_objective(b, inst).gradient
    free = b > b_min + 1e-12
    if not free.any():
        return  # every share on the floor: nothing to certify
    nu = -float(grad[free].mean())
    tol = 1e-4 * float(np.abs(grad).max())
    assert np.abs(grad[free] + nu).max() <= tol
    assert np.all(grad[~free] + nu >= -tol)


def test_newton_matches_log_barrier_oracle_on_stress_family():
    rng = np.random.default_rng(20)
    compared = 0
    for _ in range(300):
        inst = stress_instance(rng)
        try:
            oracle = log_barrier_solve(inst)
        except NoConverge:
            continue
        compared += 1
        check_against_oracle(barrier_solve(inst), oracle, inst)
    assert compared >= 290


def test_smoothing_gap_in_range():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        inst = rand_instance(rng, m)
        b = rng.uniform(0.05, 1.0, m)
        gap = smoothing_gap(b, inst)
        assert -1e-12 <= gap <= lse_error_bound(m) + 1e-12
        smooth = smoothed_objective(b, inst).value
        exact = exact_objective(b, inst)
        assert smooth - exact == pytest.approx(inst.penalty_weight * gap, rel=1e-9, abs=1e-12)


def test_barrier_two_identical_clients():
    inst = AllocationInstance(np.array([0.0, 0.0]), np.array([0.1, 0.1]),
                              np.array([0.1, 0.1]), 1.0, 0.1)
    got = barrier_solve(inst)
    assert np.allclose(got.ratios, 0.5, atol=1e-6)
    assert got.predicted_decrease <= bw.NEWTON_TOL * got.objective


FLAT_INSTANCES = (
    # no share moves the value
    AllocationInstance(np.array([0.3, 0.1]), np.zeros(2), np.zeros(2), 1.0, 0.1),
    # the slowest client's latency does not depend on its share
    AllocationInstance(np.array([5.0, 0.0]), np.array([0.0, 0.1]), np.array([0.0, 0.1]),
                       1.0, 0.1),
)


def test_barrier_flat_clients():
    # no share moves the value: the equal split stands
    got = barrier_solve(FLAT_INSTANCES[0])
    assert np.array_equal(got.ratios, [0.5, 0.5]) and got.iterations == 0
    # the slowest client goes to the floor
    got = barrier_solve(FLAT_INSTANCES[1])
    assert np.array_equal(got.ratios, [0.1, 0.9])


def watch_start(monkeypatch):
    """Record every smoothed value `_evaluate` returns, and, per `_start` call, the
    values it evaluated in order together with the value of the point it returned."""
    values, starts = [], []
    real_evaluate, real_start = bw._evaluate, bw._start

    def evaluate(b, instance):
        point = real_evaluate(b, instance)
        values.append(point.value)
        return point

    def start(instance):
        first = len(values)
        b, point = real_start(instance)
        starts.append((values[first:], point.value))
        return b, point

    monkeypatch.setattr(bw, "_evaluate", evaluate)
    monkeypatch.setattr(bw, "_start", start)
    return values, starts


def check_start_passes(visited, kept):
    """The start evaluates the equal split, then one point per water-filling pass:
    every pass it keeps strictly lowers the value, it returns the last one kept,
    and at most one further pass, which did not lower the value, is dropped."""
    n = 1
    while n < len(visited) and visited[n] < visited[n - 1]:
        n += 1
    assert kept == visited[n - 1]
    assert len(visited) - n <= 1 and not any(v < kept for v in visited[n:])
    assert len(visited) <= 1 + bw.MAX_NEWTON


def test_barrier_solve_evaluates_each_point_once(monkeypatch):
    # the Newton factors, the final value, the smoothing gap and the flat
    # clients' targets reuse the evaluation of the point they are taken at,
    # and the start evaluates the equal split and each of its passes once
    values, starts = watch_start(monkeypatch)
    trials = []
    real_project = bw._project

    def project(y, floor):  # one per line-search trial
        trials.append(None)
        return real_project(y, floor)

    monkeypatch.setattr(bw, "_project", project)
    rng = np.random.default_rng(20)
    solved = 0
    for inst in [stress_instance(rng) for _ in range(100)] + list(FLAT_INSTANCES):
        del values[:], starts[:], trials[:]
        barrier_solve(inst)
        if bw.fixed_share(inst.size, inst.min_ratio) is not None:
            assert (len(values), starts, trials) == (1, [], [])  # the fixed point only
            continue
        ((visited, kept),) = starts
        check_start_passes(visited, kept)
        # a pass runs whenever the start has any weight to spread
        spread = inst.lat_coeff.any() or inst.price_coeff.any()
        assert len(visited) >= (2 if spread else 1)
        assert len(values) == len(visited) + len(trials)
        solved += len(trials) > 0
    assert solved >= 50


class _Recorded(Exception):
    pass


def pedpc_instances(calls: int) -> list[AllocationInstance]:
    """The first allocator instances of a seeded PEDPC run on the built-in setting,
    solved as they come; the run stops once `calls` of them are held."""
    held = []

    def record(instance):
        held.append(instance)
        if len(held) == calls:
            raise _Recorded
        return barrier_solve(instance)

    cfg = harness.parse_config(FULL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bw, "barrier_solve", record)
        with pytest.raises(_Recorded):
            scheduler.run_policy(harness.build_scenario(cfg, 1), cfg.policy)
    return held


def test_start_leaves_one_kkt_system_on_pedpc_instances(monkeypatch):
    instances = pedpc_instances(24)
    _, starts = watch_start(monkeypatch)
    for inst in instances:
        del starts[:]
        got = barrier_solve(inst)
        assert got.iterations == 1
        ((visited, kept),) = starts
        check_start_passes(visited, kept)
        assert len(visited) > 2  # the start passes on beyond the first water-filling
        check_against_oracle(got, log_barrier_solve(inst), inst)


def test_barrier_single_client():
    inst = AllocationInstance(np.array([0.1]), np.array([0.2]), np.array([0.1]),
                              1.0, 0.4)
    got = barrier_solve(inst)
    assert got.ratios[0] == 1.0


def test_barrier_forced_point():
    inst = AllocationInstance(np.array([0.1, 0.2]), np.array([0.2, 0.1]),
                              np.array([0.1, 0.0]), 1.0, 0.5)
    got = barrier_solve(inst)
    assert np.allclose(got.ratios, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300],
                         ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("name", ["comp_latency", "lat_coeff", "price_coeff"])
def test_allocation_instance_rejects_non_finite_or_negative(name, bad):
    arrays = {"comp_latency": np.full(3, 0.1), "lat_coeff": np.full(3, 0.2),
              "price_coeff": np.full(3, 0.0)}
    arrays[name] = np.array([0.1, bad, 0.0])
    with pytest.raises(ValueError, match="^coefficients must be finite and non-negative$"):
        AllocationInstance(**arrays, penalty_weight=1.0, min_ratio=0.1)


def test_barrier_infeasible():
    with pytest.raises(Infeasible):
        AllocationInstance(np.zeros(3), np.ones(3), np.ones(3), 1.0, 0.4)


def test_barrier_asymmetric_against_oracle():
    inst = AllocationInstance(np.array([0.0, 0.0]), np.array([0.1, 0.1]),
                              np.array([0.05, 0.2]), 1.0, 0.1)
    got = barrier_solve(inst)
    oracle = grid_oracle(inst, 1e-4)
    assert got.ratios[1] > got.ratios[0]  # pricier link gets more of the band
    assert np.abs(got.ratios - oracle.ratios).max() <= 1e-3
    assert abs(got.objective - oracle.objective) <= 1e-6 * abs(oracle.objective)


def test_barrier_constraints_hold():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        inst = rand_instance(rng, m, b_min=0.01)
        got = barrier_solve(inst)
        assert abs(got.ratios.sum() - 1.0) <= 1e-9
        assert np.all(got.ratios >= inst.min_ratio - 1e-12)
        # the exact-max value never exceeds the smoothed one
        assert exact_objective(got.ratios, inst) <= got.objective + 1e-12


def test_barrier_deterministic():
    inst = AllocationInstance(np.array([0.1, 0.4, 0.2]), np.array([0.05, 0.01, 0.2]),
                              np.array([0.0, 0.3, 0.1]), 2.5, 0.05)
    a = barrier_solve(inst)
    b = barrier_solve(inst)
    assert np.array_equal(a.ratios, b.ratios)
    assert a.objective == b.objective


def test_barrier_beats_or_ties_equal_split():
    rng = np.random.default_rng(15)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        inst = rand_instance(rng, m, b_min=0.01)
        got = barrier_solve(inst)
        equal = smoothed_objective(np.full(m, 1.0 / m), inst).value
        assert got.objective <= equal + 1e-9


def test_grid_oracle_limits():
    inst4 = AllocationInstance(np.zeros(4), np.ones(4), np.ones(4), 1.0, 0.1)
    with pytest.raises(Infeasible):
        grid_oracle(inst4, 1e-3)
    inst2 = AllocationInstance(np.zeros(2), np.ones(2), np.ones(2), 1.0, 0.1)
    with pytest.raises(ValueError):
        grid_oracle(inst2, 0.05)  # too coarse to act as an oracle


def test_grid_oracle_symmetric():
    inst = AllocationInstance(np.array([0.0, 0.0]), np.array([0.1, 0.1]),
                              np.array([0.1, 0.1]), 1.0, 0.1)
    got = grid_oracle(inst, 1e-3)
    assert np.allclose(got.ratios, 0.5, atol=1e-9)


def test_grid_oracle_optimum_beats_equal_split():
    rng = np.random.default_rng(16)
    for _ in range(20):
        inst = rand_instance(rng, 2, b_min=0.1)
        got = grid_oracle(inst, 1e-3)
        equal = smoothed_objective(np.array([0.5, 0.5]), inst).value
        assert got.objective <= equal + 1e-12


def test_simplex_grid_counts_its_lattice_before_building_it():
    assert len(simplex_grid(2, 0.1, 1e-4)) == 8001  # the grid oracle's finest use
    for m, step in [(2, 1e-300), (2, 1e-320), (3, 1e-4)]:
        with pytest.raises(Infeasible, match=f"^share grid for {m} clients at step "):
            simplex_grid(m, 0.1, step)


def test_simplex_grid_shapes():
    g1 = simplex_grid(1, 0.1, 0.05)
    assert g1.shape == (1, 1) and g1[0, 0] == 1.0
    g2 = simplex_grid(2, 0.1, 0.05)
    assert np.allclose(g2.sum(axis=1), 1.0)
    assert np.all(g2 >= 0.1 - 1e-12)
    assert len(g2) == 17  # 0.1 to 0.9 in steps of 0.05
    g3 = simplex_grid(3, 0.1, 0.05)
    assert np.allclose(g3.sum(axis=1), 1.0)
    assert np.all(g3 >= 0.1 - 1e-12)
