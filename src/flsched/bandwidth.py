"""Bandwidth-share allocation over the selected clients.

Minimizes a smooth surrogate of the weighted worst-client latency plus the
backlog-priced communication energy, over the simplex with a per-client
floor. The non-smooth max is replaced by log-sum-exp (additive error at most
ln(m)); the surrogate is convex, and an equality-constrained Newton barrier
method solves it. A dense grid search over the simplex slice serves as the
verification oracle for small instances.

The Hessian of the smoothed objective is diagonal minus rank one (softmax
curvature), H = diag(d) - a a^T, and the simplex equality borders it with a
ones row. Each Newton step therefore solves its KKT system in O(m) by block
elimination: Sherman-Morrison applies H^-1 to a vector, and the multiplier
follows from the scalar equation 1^T step = 0 (Boyd & Vandenberghe, *Convex
Optimization*, Sec. 10.4 and App. C.4). No m x m matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, NoConverge, TooLarge
from .model import FEAS_TOL, max_clients

# barrier method tuning: constants, not run parameters; read at call time
T0 = 1.0  # initial barrier weight t
MU_GROWTH = 20.0  # factor on t per outer step
TOL = 1e-8  # stop once the duality gap m/t reaches this
MAX_NEWTON = 200  # Newton steps allowed per centering
LINE_ALPHA = 0.25  # backtracking sufficient-decrease fraction
LINE_BETA = 0.5  # backtracking step shrink
NEWTON_TOL = 1e-10  # on half the squared Newton decrement


@dataclass(frozen=True)
class AllocationInstance:
    """Per-selected-client coefficients of the allocation objective.

    comp_latency[i] + lat_coeff[i]/b_i is client i's predicted latency;
    price_coeff[i]/b_i is its backlog-priced communication energy.
    """

    comp_latency: np.ndarray
    lat_coeff: np.ndarray
    price_coeff: np.ndarray
    penalty_weight: float
    min_ratio: float

    def __post_init__(self):
        c = np.asarray(self.comp_latency, dtype=float)
        s = np.asarray(self.lat_coeff, dtype=float)
        g = np.asarray(self.price_coeff, dtype=float)
        object.__setattr__(self, "comp_latency", c)
        object.__setattr__(self, "lat_coeff", s)
        object.__setattr__(self, "price_coeff", g)
        if not (c.shape == s.shape == g.shape) or c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient arrays must be 1-d, non-empty, equal length")
        for arr in (c, s, g):
            if np.any(~np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError("coefficients must be finite and non-negative")
        if not self.penalty_weight > 0:
            raise ValueError("penalty_weight must be positive")
        if not (0 < self.min_ratio <= 1):
            raise ValueError("min_ratio must lie in (0, 1]")
        if self.size > max_clients(self.min_ratio):
            raise Infeasible("floor times client count exceeds the whole band")

    @property
    def size(self) -> int:
        return self.comp_latency.size


@dataclass(frozen=True)
class Allocation:
    """Solver output: shares on the floored simplex plus convergence data."""

    ratios: np.ndarray
    objective: float  # smoothed objective value at ratios
    iterations: int
    duality_gap: float
    max_objective: float = float("nan")  # objective with the true (non-smoothed) max term


class SmoothedEval(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class _Factors(NamedTuple):
    """Smoothed objective with its Hessian kept as diag(diag) - outer(rank_one)."""

    value: float
    gradient: np.ndarray
    diag: np.ndarray
    rank_one: np.ndarray
    weights: np.ndarray  # softmax weights of the latency terms
    excess: np.ndarray  # diag minus the softmax part V*w*du^2; non-negative


def lse_error_bound(selected_count: int) -> float:
    """Additive gap bound of the smoothed max: 0 <= LSE - max <= ln(m)."""
    if selected_count < 1:
        raise ValueError("need at least one selected client")
    return math.log(selected_count)


def _latency_terms(ratios: np.ndarray, instance: AllocationInstance) -> np.ndarray:
    return instance.comp_latency + instance.lat_coeff / ratios


def _value_and_weights(b: np.ndarray, instance: AllocationInstance) -> tuple[float, np.ndarray]:
    """Smoothed objective value and the softmax weights of the latency terms.

    Log-sum-exp is evaluated with the usual max shift so large latency terms
    cannot overflow.
    """
    u = _latency_terms(b, instance)
    shift = u.max()
    ex = np.exp(u - shift)
    total = ex.sum()
    value = instance.penalty_weight * (shift + math.log(total)) + \
        float((instance.price_coeff / b).sum())
    return value, ex / total


def _value(b: np.ndarray, instance: AllocationInstance) -> float:
    """Smoothed objective value alone, evaluated exactly as _value_and_weights."""
    u = _latency_terms(b, instance)
    shift = u.max()
    return instance.penalty_weight * (shift + math.log(np.exp(u - shift).sum())) + \
        float((instance.price_coeff / b).sum())


def _factors(b: np.ndarray, instance: AllocationInstance) -> _Factors:
    v = instance.penalty_weight
    value, w = _value_and_weights(b, instance)
    b2 = b ** 2
    b3 = b ** 3
    vw = v * w
    du = -instance.lat_coeff / b2
    grad = vw * du - instance.price_coeff / b2
    wd = w * du
    excess = vw * 2.0 * instance.lat_coeff / b3 + 2.0 * instance.price_coeff / b3
    return _Factors(value, grad, v * wd * du + excess, math.sqrt(v) * wd, w, excess)


def smoothed_objective(ratios: np.ndarray, instance: AllocationInstance) -> SmoothedEval:
    """Value, gradient, and Hessian of the smoothed objective at interior ratios.

    The Hessian is positive semidefinite (softmax curvature conjugated by a
    diagonal plus non-negative diagonal terms); it is densified here from the
    diagonal-minus-rank-one factors the barrier solver works with.
    """
    b = np.asarray(ratios, dtype=float)
    if np.any(b <= 0):
        raise ValueError("ratios must be strictly positive")
    ev = _factors(b, instance)
    return SmoothedEval(ev.value, ev.gradient,
                        np.diag(ev.diag) - np.outer(ev.rank_one, ev.rank_one))


def exact_objective(ratios: np.ndarray, instance: AllocationInstance) -> float:
    """Objective with the true (non-smoothed) max latency term."""
    b = np.asarray(ratios, dtype=float)
    u = _latency_terms(b, instance)
    return instance.penalty_weight * float(u.max()) + float((instance.price_coeff / b).sum())


def smoothing_gap(ratios: np.ndarray, instance: AllocationInstance) -> float:
    """LSE minus max of the latency terms; lies in [0, ln(m)]."""
    u = _latency_terms(np.asarray(ratios, dtype=float), instance)
    shift = u.max()
    return float(math.log(np.exp(u - shift).sum()))


def _fixed_allocation(b: np.ndarray, instance: AllocationInstance) -> Allocation:
    return Allocation(b, _value(b, instance), 0, 0.0, exact_objective(b, instance))


def _newton_step(ev: _Factors, slack: np.ndarray, t: float
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


def barrier_solve(instance: AllocationInstance) -> Allocation:
    """Interior-point solve of the smoothed allocation problem.

    Newton steps solve the KKT system of the barrier subproblem in O(m) with
    the simplex equality kept exactly; backtracking keeps iterates strictly above
    the floor. Deterministic for fixed inputs. The instance itself has
    checked that the floor can be met; raises NoConverge when a centering
    exhausts its MAX_NEWTON steps or meets a singular system.
    """
    m = instance.size
    b_min = instance.min_ratio
    if abs(m * b_min - 1.0) <= FEAS_TOL:
        return _fixed_allocation(np.full(m, b_min), instance)
    if m == 1:
        return _fixed_allocation(np.array([1.0]), instance)

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
            ev = _factors(b, instance)
            grad, step, _ = _newton_step(ev, b - b_min, t)
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
                        barrier_value(_value(trial, instance), trial) \
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

    value = _value(b, instance)
    gap = smoothing_gap(b, instance)
    if not (-1e-12 <= gap <= lse_error_bound(m) + 1e-12):
        raise AssertionError("smoothing gap left [0, ln(m)]")
    return Allocation(b, value, total_newton, m / t, exact_objective(b, instance))


def simplex_grid(m: int, b_min: float, step: float) -> np.ndarray:
    """Feasible share vectors (rows) on the floored simplex at a given resolution.

    First m-1 coordinates walk a regular lattice from the floor; the last
    coordinate closes the simplex and is kept above the floor. Supports m <= 3.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > 3:
        raise TooLarge("simplex grid limited to 3 clients")
    if m > max_clients(b_min):
        raise Infeasible("floor times client count exceeds the whole band")
    if m == 1:
        return np.array([[1.0]])
    top = 1.0 - (m - 1) * b_min
    n = int(math.floor((top - b_min) / step + 1e-9))
    axis = b_min + step * np.arange(n + 1)
    if m == 2:
        b1 = axis
        b2 = 1.0 - b1
        keep = b2 >= b_min - FEAS_TOL
        return np.column_stack([b1[keep], b2[keep]])
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    b1 = g1.ravel()
    b2 = g2.ravel()
    b3 = 1.0 - b1 - b2
    keep = b3 >= b_min - FEAS_TOL
    return np.column_stack([b1[keep], b2[keep], b3[keep]])


def grid_oracle(instance: AllocationInstance, step: float) -> Allocation:
    """Exhaustive grid minimizer of the smoothed objective (small m only).

    The oracle is deliberately independent of the barrier path: it evaluates
    the objective formula directly on every feasible grid point.
    """
    if instance.size > 3:
        raise TooLarge("grid oracle limited to 3 clients")
    if step > 1e-3 + FEAS_TOL:
        raise ValueError("oracle grid step must be at most 1e-3")
    points = simplex_grid(instance.size, instance.min_ratio, step)
    u = instance.comp_latency[None, :] + instance.lat_coeff[None, :] / points
    lse = u[:, 0]
    for j in range(1, u.shape[1]):
        lse = np.logaddexp(lse, u[:, j])
    values = instance.penalty_weight * lse + (instance.price_coeff[None, :] / points).sum(axis=1)
    best = int(np.argmin(values))
    b = points[best]
    return Allocation(b, float(values[best]), 0, 0.0, exact_objective(b, instance))
