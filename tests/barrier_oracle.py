"""Log-barrier interior-point solver of the smoothed allocation problem.

The test-only oracle of `bandwidth.barrier_solve` for instances too large for
`grid_oracle` (m > 3). It follows the central path of the same smoothed
objective: each centering runs equality-constrained Newton steps on
f - sum(log(b - floor))/t, and t grows by MU_GROWTH until the duality gap
m/t reaches TOL (Boyd & Vandenberghe, *Convex Optimization*, Sec. 11.3).
It shares only the objective's evaluators and the closed-form paths
(every share on the floor, or one client) with the production solver.
"""

from __future__ import annotations

import numpy as np

from flsched import bandwidth as bw
from flsched.errors import NoConverge

T0 = 1.0  # initial barrier weight t
MU_GROWTH = 20.0  # factor on t per outer step
TOL = 1e-8  # stop once the duality gap m/t reaches this
MAX_NEWTON = 200  # Newton steps allowed per centering
LINE_ALPHA = 0.25  # backtracking sufficient-decrease fraction
LINE_BETA = 0.5  # backtracking step shrink
NEWTON_TOL = 1e-10  # on half the squared Newton decrement


def barrier_step(ev: bw._Factors, slack: np.ndarray, t: float
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradient, Newton step and simplex multiplier of f - sum(log slack)/t.

    Solves [H 1; 1^T 0] [step; nu] = [-grad; 0] with H = diag(d) - a a^T, where
    d adds the barrier curvature to the factors' diagonal. Sherman-Morrison
    gives H^-1 r = r/d + (a/d) (a^T (r/d)) / delta with delta = 1 - a^T D^-1 a,
    computed as sum(w * e / d) (e = d - V*w*du^2 > 0, the weights sum to one)
    so that it carries no cancellation.
    """
    barrier = 1.0 / (t * slack ** 2)
    grad = ev.gradient - 1.0 / (t * slack)
    d = ev.diag + barrier
    delta = float((ev.weights * (ev.excess + barrier) / d).sum())
    if not (delta > 0 and np.isfinite(d).all()):
        raise NoConverge("singular KKT system")
    a_over_d = ev.rank_one / d

    def solve_h(r: np.ndarray) -> np.ndarray:
        return r / d + a_over_d * (float(a_over_d @ r) / delta)

    h_grad = solve_h(-grad)
    h_ones = solve_h(np.ones_like(d))
    nu = float(h_grad.sum()) / float(h_ones.sum())
    step = h_grad - nu * h_ones
    if not np.isfinite(step).all():
        raise NoConverge("singular KKT system")
    return grad, step, nu


def log_barrier_solve(instance: bw.AllocationInstance) -> bw.Allocation:
    """Interior-point solve of the smoothed allocation problem.

    Newton steps solve the KKT system of the barrier subproblem in O(m) with
    the simplex equality kept exactly; backtracking keeps iterates strictly above
    the floor. Deterministic for fixed inputs. Raises NoConverge when a
    centering exhausts its MAX_NEWTON steps or meets a singular system.
    """
    m = instance.size
    b_min = instance.min_ratio
    share = bw.fixed_share(m, b_min)
    if share is not None:
        b = np.full(m, share)
        return bw.Allocation(b, bw._evaluate(b, instance).value, 0, 0.0)

    b = np.full(m, 1.0 / m)
    t = T0
    total_newton = 0

    # centering objective f + phi/t keeps values O(f) however large t grows,
    # so line-search comparisons stay resolvable in double precision
    def barrier_value(f_value: float, x: np.ndarray) -> float:
        return f_value - float(np.log(x - b_min).sum()) / t

    while True:
        for _ in range(MAX_NEWTON):
            total_newton += 1
            ev = bw._factors(b, instance, bw._evaluate(b, instance))
            grad, step, _ = barrier_step(ev, b - b_min, t)
            decrement_sq = float(-grad @ step)
            if decrement_sq <= 0 or decrement_sq / 2.0 <= NEWTON_TOL:
                break
            if np.abs(step).max() <= 1e-14 * max(1.0, float(np.abs(b).max())):
                break  # step at float-noise level: numerical optimum reached
            # backtracking line search on the barrier subproblem
            base = barrier_value(ev.value, b)
            slope = float(grad @ step)
            s = 1.0
            improved = False
            for _ in range(60):
                trial = b + s * step
                if (trial > b_min).all() and \
                        barrier_value(bw._evaluate(trial, instance).value, trial) \
                        <= base + LINE_ALPHA * s * slope:
                    improved = True
                    break
                s *= LINE_BETA
            if not improved:
                # descent smaller than float precision on t*f: numerical floor
                break
            b = b + s * step
        else:
            raise NoConverge("Newton iteration budget exhausted")
        if m / t <= TOL:
            break
        t *= MU_GROWTH

    value = bw._evaluate(b, instance).value
    return bw.Allocation(b, value, total_newton, m / t)
