import math

import numpy as np
import pytest

from flsched import bandwidth as bw
from flsched.bandwidth import (AllocationInstance, barrier_solve, exact_objective, grid_oracle,
                               lse_error_bound, simplex_grid, smoothed_objective,
                               smoothing_gap)
from flsched.errors import Infeasible, NoConverge, TooLarge


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
        ev = bw._factors(b, inst)
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


def test_newton_step_matches_dense_kkt():
    # the O(m) block-elimination step against a dense bordered-KKT solve; the
    # reference applies symmetric diagonal scaling first, which keeps it
    # accurate at t up to 1e10 where the raw KKT matrix has condition ~1e15
    rng = np.random.default_rng(18)
    zero_priced = 0
    for trial in range(200):
        m = 1 + trial % 100
        b_min = rng.uniform(0.0, 0.5) / m
        inst = rand_instance(rng, m, b_min=b_min)
        zero_priced += int(np.any(inst.price_coeff == 0))
        b = b_min + (1.0 - m * b_min) * rng.dirichlet(np.ones(m))
        t = 10 ** rng.uniform(0, 10)
        slack = b - b_min
        grad, step, nu = bw._newton_step(bw._factors(b, inst), slack, t)

        ev = smoothed_objective(b, inst)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = ev.hessian + np.diag(1.0 / (t * slack ** 2))
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.append(-(ev.gradient - 1.0 / (t * slack)), 0.0)
        scale = np.append(1.0 / np.sqrt(np.diag(kkt)[:m]), 1.0)
        ref = scale * np.linalg.solve(kkt * np.outer(scale, scale), scale * rhs)

        assert np.array_equal(grad, -rhs[:m])
        assert abs(step.sum()) <= 1e-12
        # step entries below 1e-15 are beneath the resolution of b itself
        assert np.abs(step - ref[:m]).max() <= 1e-9 * np.abs(ref[:m]).max() + 1e-15
        assert abs(nu - ref[m]) <= 1e-9 * abs(ref[m])
    assert zero_priced >= 100


def test_newton_step_rejects_singular_system():
    inst = AllocationInstance(np.zeros(2), np.ones(2), np.zeros(2), 1.0, 0.1)
    b = np.array([0.5, 0.5])
    ev = bw._factors(b, inst)
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(diag=np.array([np.inf, 1.0])), b - 0.1, 1.0)
    with pytest.raises(NoConverge, match="singular KKT"):
        bw._newton_step(ev._replace(weights=np.zeros(2)), b - 0.1, 1.0)


# (m, Newton iterations, objective) of barrier_solve on rand_instance draws from
# default_rng(31) with min_ratio 0.005, recorded with the dense KKT solver the
# O(m) step replaced
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


def test_barrier_regression_pin():
    rng = np.random.default_rng(31)
    for m, iterations, objective in BARRIER_PIN:
        got = barrier_solve(rand_instance(rng, m, b_min=0.005))
        assert got.iterations == iterations
        assert got.objective == pytest.approx(objective, rel=1e-12, abs=0)


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
    assert got.duality_gap <= bw.TOL


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
        # reported exact-max value never exceeds the smoothed one
        assert got.max_objective <= got.objective + 1e-12


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
    with pytest.raises(TooLarge):
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
