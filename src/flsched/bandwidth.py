"""Bandwidth-share allocation over the selected clients.

Minimizes a smooth surrogate of the weighted worst-client latency plus the
backlog-priced communication energy, over the simplex with a per-client
floor. The non-smooth max is replaced by log-sum-exp (additive error at most
ln(m)); the surrogate is convex, and a projected Newton method solves it: the
floor is a simple bound, so each iteration fixes the shares held on it,
takes a Newton step on the others under sum(b) = 1 and searches along the
projection arc onto the floored simplex (Bertsekas, *SIAM J. Control Optim.*
20:221-246, 1982). Its start iterates the water-filling whose fixed point the
KKT conditions define: at the optimum, each share is max(floor,
k*sqrt(price + V*w*s)) at the optimum's own softmax weights w, so repeating
that closed form at the weights of the point last reached leaves Newton,
on the instances of a PEDPC run, one confirming system. Its oracles are test
code: `tests/oracles.py` searches the `simplex_grid` lattice for m <= 3, and
`tests/barrier_oracle.py` runs a log-barrier method on the same objective
for larger instances.

The Hessian of the smoothed objective is diagonal minus rank one (softmax
curvature), H = diag(d) - a a^T, and so is its restriction to the free
shares; the simplex equality borders it with a ones row. Each Newton step
therefore solves its KKT system in O(m) by block elimination:
Sherman-Morrison applies H^-1 to a vector, and the multiplier follows from
the scalar equation 1^T step = 0 (Boyd & Vandenberghe, *Convex
Optimization*, Sec. 10.2 and App. C.4). No m x m matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, NoConverge
from .model import FEAS_TOL, finite_non_negative, max_clients

# projected Newton tuning: constants, not run parameters; read at call time
MAX_NEWTON = 200  # Newton systems (KKT solves) allowed per solve; also the start's passes
LINE_ALPHA = 0.25  # sufficient-decrease fraction along the projection arc
LINE_BETA = 0.5  # arc step shrink
NEWTON_TOL = 1e-10  # stop once the Newton model's (or a start pass's) decrease is this share of f
FLAT_TOL = 2.0 ** -52  # curvature below this share of f makes a client flat
# most lattice points `simplex_grid` builds; also the most plans the bounds
# check's lookahead searches per frame, which a larger grid exceeds in one round
GRID_LIMIT = 5_000_000


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
        if not (finite_non_negative(c) and finite_non_negative(s) and finite_non_negative(g)):
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
    iterations: int  # KKT systems solved
    predicted_decrease: float  # the Newton model's predicted decrease at the last step


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


class _Point(NamedTuple):
    value: float  # the smoothed objective
    weights: np.ndarray  # softmax weights of the latency terms
    top: float  # the largest latency term
    gap: float  # LSE minus max of the latency terms; lies in [0, ln(m)]


def _evaluate(b: np.ndarray, instance: AllocationInstance) -> _Point:
    """The smoothed objective at shares b; the max shift keeps exp from overflowing."""
    u = instance.comp_latency + instance.lat_coeff / b
    top = u.max()
    ex = np.exp(u - top)
    total = np.add.reduce(ex)
    gap = math.log(total)
    value = instance.penalty_weight * (top + gap) + float(np.add.reduce(instance.price_coeff / b))
    return _Point(value, ex / total, top, gap)


def _factors(b: np.ndarray, instance: AllocationInstance, point: _Point) -> _Factors:
    v = instance.penalty_weight
    w = point.weights
    b2 = b ** 2
    b3 = b ** 3
    vw = v * w
    du = -instance.lat_coeff / b2
    grad = vw * du - instance.price_coeff / b2
    wd = w * du
    excess = vw * 2.0 * instance.lat_coeff / b3 + 2.0 * instance.price_coeff / b3
    return _Factors(point.value, grad, v * wd * du + excess, math.sqrt(v) * wd, w, excess)


def smoothed_objective(ratios: np.ndarray, instance: AllocationInstance) -> SmoothedEval:
    """Value, gradient, and Hessian of the smoothed objective at interior ratios.

    The Hessian is positive semidefinite (softmax curvature conjugated by a
    diagonal plus non-negative diagonal terms); it is densified here from the
    diagonal-minus-rank-one factors the Newton solver works with.
    """
    b = np.asarray(ratios, dtype=float)
    if np.any(b <= 0):
        raise ValueError("ratios must be strictly positive")
    ev = _factors(b, instance, _evaluate(b, instance))
    return SmoothedEval(ev.value, ev.gradient,
                        np.diag(ev.diag) - np.outer(ev.rank_one, ev.rank_one))


def fixed_share(m: int, b_min: float) -> float | None:
    """Each client's share when the floored simplex for m clients is a single point.

    That is the floor when m floors fill the band (to FEAS_TOL), and the
    whole band for one client otherwise; None when the shares can move.
    """
    if abs(m * b_min - 1.0) <= FEAS_TOL:
        return b_min
    if m == 1:
        return 1.0
    return None


def _project(y: np.ndarray, floor: float) -> np.ndarray:
    """Euclidean projection onto the floored simplex {b >= floor, sum(b) = 1}.

    One sort finds the shift tau with sum(max(floor, y - tau)) = 1 (Held, Wolfe
    and Crowder 1974); clipped shares land exactly on the floor.
    """
    z = y - floor
    top = np.sort(z)[::-1]
    excess = np.add.accumulate(top) - (1.0 - floor * y.size)
    count = np.arange(1, y.size + 1)
    last = int((top * count > excess).nonzero()[0][-1])
    return floor + np.maximum(z - excess[last] / (last + 1), 0.0)


def _newton_step(ev: _Factors, free: np.ndarray, pinned: np.ndarray
                 ) -> tuple[np.ndarray, float]:
    """Newton step on the free shares and its simplex multiplier nu.

    The other shares move by `pinned` (zero on the free set). Solves
    [H_FF 1; 1^T 0] [p_F; nu] = [-g_F - H_FA p_A; -1^T p_A], where
    H = diag(d) - a a^T restricted to the free set F is again diagonal minus
    rank one. Sherman-Morrison gives H_FF^-1 r = r/d + (a/d) (a^T (r/d)) / delta
    with delta = 1 - a_F^T D_F^-1 a_F, computed as
    sum_F(w * e / d) + sum_A(w) (e = d - V*w*du^2 >= 0, the weights sum to one)
    so that it carries no cancellation.
    """
    d = ev.diag[free]
    if not (d.size and 0 < d.min() <= d.max() < np.inf):  # a NaN fails both
        raise NoConverge("singular KKT system")
    delta = float(np.add.reduce(ev.weights[free] * ev.excess[free] / d)) + \
        float(np.add.reduce(ev.weights[~free]))
    if not delta > 0:
        raise NoConverge("singular KKT system")
    a = ev.rank_one[free]
    a_over_d = a / d

    def solve_h(r: np.ndarray) -> np.ndarray:
        return r / d + a_over_d * (float(a_over_d @ r) / delta)

    h_grad = solve_h(a * float(ev.rank_one @ pinned) - ev.gradient[free])
    h_ones = solve_h(np.ones_like(d))
    nu = (float(np.add.reduce(h_grad)) + float(np.add.reduce(pinned))) / \
        float(np.add.reduce(h_ones))
    step = pinned.copy()
    step[free] = h_grad - nu * h_ones
    if not np.isfinite(step).all():
        raise NoConverge("singular KKT system")
    return step, nu


def _start(instance: AllocationInstance) -> tuple[np.ndarray, _Point]:
    """Starting shares and their evaluation: the water-filling fixed point, from the equal split.

    At the optimum, the KKT conditions make the shares their own water-filling:
    with h = price + V*w*s at the optimum's softmax weights w, they minimize
    sum(h/b) over the floored simplex, whose closed form is
    b = max(floor, k*sqrt(h)), one sort finding k. Each pass freezes w at the
    point last kept and takes that closed form, starting from the equal split;
    a pass is kept only if it lowers the smoothed value, and the passes stop
    after one that does not, or that lowers it by at most NEWTON_TOL of the
    value, or after MAX_NEWTON passes.
    """
    m = instance.size
    b_min = instance.min_ratio
    b = np.full(m, 1.0 / m)
    point = _evaluate(b, instance)
    if not math.isfinite(point.value):
        raise NoConverge("allocator objective leaves the float range")
    weighted_lat = instance.penalty_weight * instance.lat_coeff
    fill = 1.0 - (m - np.arange(1, m + 1)) * b_min  # the band left over the floors
    floors = np.full(m, b_min)
    for _ in range(MAX_NEWTON):
        root = np.sqrt(instance.price_coeff + weighted_lat * point.weights)
        order = (-root).argsort()
        top = root[order]
        if not top[0] > 0:
            break
        scale = fill / np.add.accumulate(top)
        last = int((top * scale >= b_min).nonzero()[0][-1])
        guess = floors.copy()
        guess[order[:last + 1]] = top[:last + 1] * scale[last]
        at_guess = _evaluate(guess, instance)
        if not at_guess.value < point.value:
            break
        done = point.value - at_guess.value <= NEWTON_TOL * point.value
        b, point = guess, at_guess
        if done:
            break
    return b, point


def _diagonal_free(ev: _Factors, b: np.ndarray, b_min: float, movable: np.ndarray,
                   fixed_move: float) -> np.ndarray:
    """Free shares of the Newton step's floor-bounded model with H cut to diag(d).

    Without the rank-one term the step separates: share i moves by
    max(b_min - b_i, -(g_i + nu)/d_i), so it sits on the floor iff
    nu >= kappa_i = d_i (b_i - b_min) - g_i, and the simplex equality, with
    the other shares moving by `fixed_move` in total, is a decreasing
    piecewise-linear equation in nu. One sort of kappa solves it; the
    result starts the exact active-set iteration of `barrier_solve`.
    `movable` masks the shares the model may move.
    """
    idx = movable.nonzero()[0]
    kappa = ev.diag[idx] * (b[idx] - b_min) - ev.gradient[idx]
    order = np.argsort(kappa)
    idx, kappa = idx[order], kappa[order]
    d = ev.diag[idx]
    # nu[k]: the root with the first k shares (smallest kappa) on the floor
    held = np.concatenate(([0.0], np.add.accumulate(b_min - b[idx])[:-1]))
    slope = np.add.accumulate((1.0 / d)[::-1])[::-1]
    if not math.isfinite(slope[0]):  # the sum of every 1/d
        raise NoConverge("Newton system leaves the float range")
    offset = np.add.accumulate((ev.gradient[idx] / d)[::-1])[::-1]
    nu = (held + fixed_move - offset) / slope
    lower = np.concatenate(([-np.inf], kappa[:-1]))
    fits = ((lower <= nu) & (nu <= kappa)).nonzero()[0]
    free = np.zeros(b.size, dtype=bool)
    free[idx[int(fits[0]) if fits.size else 0:]] = True
    return free


@np.errstate(over="ignore")  # a value past the float range raises NoConverge below
def barrier_solve(instance: AllocationInstance) -> Allocation:
    """Projected Newton solve of the smoothed allocation problem.

    It starts at `_start`'s point: water-filling passes from the equal split
    toward the KKT fixed point, each kept only if it lowers the value. Each
    iteration recomputes the floor's active set and takes a Newton step on
    the free shares under sum(b) = 1, then an Armijo search along the
    projection arc s -> P(b + s*step) onto the floored simplex (Bertsekas
    1982). The active set is settled per iteration by re-solving: a floor is
    released when its multiplier in the Newton model, lambda_i =
    g_i + (H step)_i + nu with nu from the free-set solve, is negative, and a
    free share whose step crosses the floor is held on it. Flat clients,
    whose curvature and gradient are below the value's resolution, move down
    to the floor, or to where their latency reaches the slowest client's; that
    work runs only when a client is flat. Each point is evaluated once: the
    start's evaluation and then each accepted trial's feed the next Newton
    system, the returned value and the smoothing-gap check. Stops, after
    taking the step, once the model's predicted decrease is at most
    NEWTON_TOL of the value.
    Deterministic for fixed inputs. The instance itself has checked that the
    floor can be met; raises NoConverge when the solve exhausts its MAX_NEWTON
    systems or meets a singular one, or when the objective, its curvature or a
    Newton system leaves the float range (a penalty weight near either end of
    it), without an overflow warning.

    The name is kept from the log-barrier method this solver replaced,
    because callers and outside tooling look the entry point up by it.
    """
    m = instance.size
    b_min = instance.min_ratio
    share = fixed_share(m, b_min)
    if share is not None:
        b = np.full(m, share)
        return Allocation(b, _evaluate(b, instance).value, 0, 0.0)

    b, point = _start(instance)
    systems = 0
    gain = 0.0
    while True:
        ev = _factors(b, instance, point)
        if not ev.diag.max() < np.inf:  # a NaN fails too
            raise NoConverge("allocator objective leaves the float range")
        flat = ev.diag <= FLAT_TOL * ev.value  # the value is never negative
        has_flat = flat.any()
        target, fixed_move, stuck = b_min, 0.0, False
        if has_flat:
            if flat.all():
                break  # no share moves the value: every feasible point is optimal
            # where a flat share's latency would reach the slowest client's
            head = point.top - instance.comp_latency
            reach = instance.lat_coeff / np.where(head > 0, head, np.inf)
            target = np.where(flat & (reach < b), np.maximum(b_min, reach), b_min)
            fixed_move = float(np.add.reduce((target - b)[flat]))
            # a flat share above its target must still move, whatever the model gains
            stuck = (flat & (b > target + FEAS_TOL)).any()
        free = _diagonal_free(ev, b, b_min, ~flat, fixed_move)
        # active-set rounds on the Newton model; m + 1 of them cut off a cycle
        for _ in range(m + 1):
            systems += 1
            if systems > MAX_NEWTON:
                raise NoConverge("Newton iteration budget exhausted")
            step, nu = _newton_step(ev, free, np.where(free, 0.0, target - b))
            hess_step = ev.diag * step - ev.rank_one * float(ev.rank_one @ step)
            held = ~free & (ev.gradient + hess_step + nu >= 0) | free & (b + step < b_min)
            if has_flat:
                held |= flat
            if not (free == held).any():  # free is ~held: a fixed point
                break
            free = ~held
        gain = -float(ev.gradient @ step + 0.5 * (step @ hess_step))
        done = gain <= NEWTON_TOL * ev.value and not stuck
        s = 1.0
        for _ in range(60):
            trial = _project(b + s * step, b_min)
            at_trial = _evaluate(trial, instance)
            if at_trial.value <= ev.value + LINE_ALPHA * float(ev.gradient @ (trial - b)):
                break
            s *= LINE_BETA
        else:
            break  # no descent resolvable in double precision: numerical optimum
        b, point = trial, at_trial
        if done:
            break

    if not (-1e-12 <= point.gap <= lse_error_bound(m) + 1e-12):
        raise AssertionError("smoothing gap left [0, ln(m)]")
    return Allocation(b, point.value, systems, gain)


def simplex_grid(m: int, b_min: float, step: float) -> np.ndarray:
    """Feasible share vectors (rows) on the floored simplex at a given resolution.

    The first m-1 coordinates walk a regular lattice from the floor; the last
    closes the simplex and is kept above the floor. Supports m <= 3 and at
    most GRID_LIMIT lattice points, counted before any array is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > 3:
        raise Infeasible("simplex grid limited to 3 clients")
    if m > max_clients(b_min):
        raise Infeasible("floor times client count exceeds the whole band")
    if m == 1:
        return np.array([[1.0]])
    top = 1.0 - (m - 1) * b_min
    steps = (top - b_min) / step + 1e-9
    if steps >= GRID_LIMIT or (math.floor(steps) + 1) ** (m - 1) > GRID_LIMIT:
        raise Infeasible(f"share grid for {m} clients at step {step:g} exceeds {GRID_LIMIT} points")
    n = int(math.floor(steps))
    axis = b_min + step * np.arange(n + 1)
    shares = [g.ravel() for g in np.meshgrid(*[axis] * (m - 1), indexing="ij")]
    last = 1.0 - shares[0]
    for b in shares[1:]:
        last = last - b
    keep = last >= b_min - FEAS_TOL
    return np.column_stack([b[keep] for b in shares + [last]])
