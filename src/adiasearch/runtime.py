"""Running-time computation for split adiabatic searches.

The saturated-schedule time integral for arbitrary splittings, its
closed-form value for equal splits under the linear schedule, the square
root scaling of the fully split search, scaling exponents, published-table
reproduction, and the optimal time parameterization s(t).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_BLOCK_QUBITS,
    MAX_GRID,
    MonotoneCubic,
    Precision,
    Schedule,
    Splitting,
    equal_splitting,
    linear_schedule,
    pchip_slopes,
)
from .kronrod import NODES, WEIGHTS, node_integrals

MAX_TABLE_QUBITS = MAX_BLOCK_QUBITS  # the m = 1 row is one block of n qubits
QUAD_TOL = 1e-9  # relative tolerance of every time integral

_QUAD_LIMIT = 500  # most subintervals per panel
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# The cubic coefficients of s(t) divide by the cube of a time step, so a
# shorter step overflows them; evaluating s(t) cubes the offset into a step,
# so a longer step overflows that.
_MIN_TIME_STEP = _TINY ** (1.0 / 3.0)
_MAX_TIME_STEP = np.finfo(float).max ** (1.0 / 3.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float | None = None, estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@dataclass(frozen=True)
class RunTimeResult:
    """Schedule-optimal running time (as the product epsilon * T) plus scaling exponents.

    beta is infinite for a single block, matching its defining relation.
    """

    splitting: Splitting
    eps_t: float
    alpha: float
    beta: float
    method: str


def _crossing(schedule: Schedule) -> float:
    """s* where f = g, by bisection on the decreasing f - g to 1e-14.

    The first midpoint is 1/2, where the linear schedule crosses exactly.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        difference = float(schedule.difference(mid, 0.0))
        if difference == 0.0:
            return mid
        lo, hi = (mid, hi) if difference > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _time_integrand(splitting: Splitting, schedule: Schedule):
    """epsilon * dt/ds for the bound-saturating time parameterization.

    Every block gap bottoms out at the crossing s* where f = g, block i with
    a half-width of about f*/(sqrt(N_i) |f' - g'|) in s: 2^-32 at 64 qubits,
    too fine for quadrature nodes at rounded s. So dt/ds is formed from the
    offset x = s - s* (f - g from Schedule.difference) and integrated in u,
    x = w sinh(u) with w the narrowest half-width, where every block peak is
    a smooth bump about one unit wide. f - g is monotone, so f = g = 0 can
    only happen at s*; such a schedule closes the gap and is refused.

    Returns (integrand of u, the map s -> u, dt/ds as a function of s).
    """
    dims = splitting.float_block_dims()
    weights = (dims - 1.0) / dims**2
    s_star = _crossing(schedule)
    f_star = float(schedule.f(s_star))
    if f_star + float(schedule.g(s_star)) < 1e-9:
        raise ValueError(
            f"singular schedule: f = g = 0 near s = {s_star:.4f}, the gap closes there"
        )
    slope = abs(float(schedule.df(s_star)) - float(schedule.dg(s_star)))
    # capped at 1: where f - g is flat at s*, u is about linear in s
    width = f_star / max(math.sqrt(float(np.max(dims))) * slope, f_star)

    def at_offset(x: float) -> float:
        s = s_star + x
        f = float(schedule.f(s))
        g = float(schedule.g(s))
        df = float(schedule.df(s))
        dg = float(schedule.dg(s))
        gaps_sq = float(schedule.difference(s_star, x)) ** 2 + (4.0 * f * g) / dims
        return abs(df * g - dg * f) * math.sqrt(float(np.sum(weights / gaps_sq**3)))

    def integrand(u: float) -> float:
        return at_offset(width * math.sinh(u)) * width * math.cosh(u)

    def u_of_s(s):
        return np.arcsinh((s - s_star) / width)

    return integrand, u_of_s, lambda s: at_offset(s - s_star)


def _kronrod21(integrand, lo: float, hi: float) -> tuple[float, float, np.ndarray]:
    """(integral, error estimate, the 21 node values) over [lo, hi] from QUADPACK's qk21.

    The integrand is called at the 21 nodes one point at a time. The error
    estimate is QUADPACK's: the Kronrod-Gauss difference scaled by
    resasc * min(1, (200 |K - G| / resasc)**1.5), floored at 50 eps resabs.
    """
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)
    values = np.array([integrand(center + half * x) for x in NODES])
    kronrod, gauss = WEIGHTS @ values
    err = abs((kronrod - gauss) * half)
    resabs = (WEIGHTS[0] @ np.abs(values)) * abs(half)
    resasc = (WEIGHTS[0] @ np.abs(values - 0.5 * kronrod)) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return float(kronrod * half), float(err), values


def _adaptive_integral(integrand, lo: float, hi: float, rel_tol: float) -> tuple[float, float, list]:
    """(integral, summed error estimate, pieces) over [lo, hi], globally adaptive.

    QUADPACK's qag with qk21: bisect the subinterval with the largest error
    estimate until the summed estimate is within rel_tol of the summed
    integral. It stops early at _QUAD_LIMIT subintervals, at a subinterval
    too narrow to bisect, at a non-finite estimate, or when repeated
    bisections stop reducing the estimate (roundoff); the caller judges the
    estimate it gets back. The pieces are the final subintervals, left to
    right, as (a, b, integral, the 21 node values).
    """
    value, err, values = _kronrod21(integrand, lo, hi)
    pieces = [(-err, lo, hi, value, values)]
    total, err_total = value, err
    stalled = grown = 0
    while not err_total <= rel_tol * abs(total) and math.isfinite(err_total) and len(pieces) < _QUAD_LIMIT:
        neg_err, a, b, value, _ = pieces[0]
        mid = 0.5 * (a + b)
        if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            break
        left, left_err, left_values = _kronrod21(integrand, a, mid)
        right, right_err, right_values = _kronrod21(integrand, mid, b)
        heapq.heapreplace(pieces, (-left_err, a, mid, left, left_values))
        heapq.heappush(pieces, (-right_err, mid, b, right, right_values))
        total += left + right - value
        err_total += left_err + right_err + neg_err
        # QUADPACK's roundoff tests: the halves agree with their parent but
        # their estimate does not fall, or the estimate grows
        if abs(value - (left + right)) <= 1e-5 * abs(left + right) and left_err + right_err >= -0.99 * neg_err:
            stalled += 1
        if len(pieces) > 10 and left_err + right_err > -neg_err:
            grown += 1
        if stalled >= 6 or grown >= 20:
            break
    return (
        sum(piece[3] for piece in pieces),
        sum(-piece[0] for piece in pieces),
        sorted(piece[1:] for piece in pieces),
    )


def _panel_integrals(integrand, edges, rel_tol: float, context: str) -> tuple[float, list]:
    """(total, pieces) of ``integrand`` between consecutive edges.

    One adaptive Gauss-Kronrod integral per panel; the pieces of all panels
    come back left to right as (a, b, integral, the 21 node values).
    Roundoff chatter from panels that sit right on the peak is tolerated
    there; the summed error estimate is judged against the whole integral,
    which is what the tolerance is about.
    """
    pieces = []
    total = 0.0
    err_total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        value, err, panel_pieces = _adaptive_integral(integrand, lo, hi, rel_tol)
        pieces += panel_pieces
        total += value
        err_total += err
    # written so that a nan total or estimate fails too
    if not err_total <= 10.0 * rel_tol * total:
        raise QuadratureError(
            f"quadrature did not converge for {context}: value {total!r}, "
            f"summed error estimate {err_total!r}",
            value=total,
            estimate=err_total,
        )
    return total, pieces


def scaling_coefficients(eps_t: float, n: int, num_blocks: int) -> tuple[float, float]:
    """Exponents relating eps_t to sqrt(m * 2^(n/m)) and to sqrt(m).

    The first (alpha) measures closeness to square-root-of-dimension
    scaling; the second (beta) is reported as infinity for a single block,
    where its defining base is 1.
    """
    if eps_t <= 0.0:
        raise ValueError(f"eps_t must be positive, got {eps_t}")
    if num_blocks < 1:
        raise ValueError(f"number of blocks must be >= 1, got {num_blocks}")
    log_base = math.log(num_blocks) + (n / num_blocks) * math.log(2.0)
    alpha = 2.0 * math.log(eps_t) / log_base
    beta = math.inf if num_blocks == 1 else 2.0 * math.log(eps_t) / math.log(num_blocks)
    return alpha, beta


def running_time_integral(
    splitting: Splitting,
    schedule: Schedule | None = None,
) -> RunTimeResult:
    """Schedule-optimal running time of a split search by adaptive quadrature.

    Integrates |f'g - g'f| * sqrt(sum_i (N_i - 1)/N_i**2 / omega_i**6) over
    s in [0, 1], in the variable u of the time integrand, on the two panels
    either side of the crossing where f = g and every block peaks, to the
    relative tolerance QUAD_TOL.
    """
    schedule = schedule if schedule is not None else linear_schedule()
    integrand, u_of_s, _ = _time_integrand(splitting, schedule)
    edges = [float(u_of_s(0.0)), 0.0, float(u_of_s(1.0))]
    eps_t, _ = _panel_integrals(integrand, edges, QUAD_TOL, "the running-time integral")
    alpha, beta = scaling_coefficients(eps_t, splitting.n, splitting.num_blocks)
    return RunTimeResult(splitting, eps_t, alpha, beta, "quadrature")


def closed_form_eps_t(n: int, num_blocks: int) -> float:
    """Equal-split running time under the linear schedule, in closed form.

    Substituting u = 2s - 1 turns each block's integral into
    (1/2) * integral of (a*u**2 + b)**(-3/2) with a = 1 - 1/N and b = 1/N,
    which evaluates to N; the total collapses to sqrt(m * (2^(n/m) - 1)).
    """
    if num_blocks < 1:
        raise ValueError(f"number of blocks must be >= 1, got {num_blocks}")
    if n % num_blocks != 0:
        raise ValueError(f"{num_blocks} does not divide n={n}")
    block_dim = 2 ** (n // num_blocks)
    return math.sqrt(num_blocks * (block_dim - 1))


def max_structured_time(n: int) -> RunTimeResult:
    """Running time sqrt(n)/epsilon of the fully split search.

    Saturating the degenerate adiabatic condition with the per-qubit matrix
    element integrates to exactly sqrt(n) for eps_t, consistent with the
    equal-split closed form at one qubit per block.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    splitting = equal_splitting(n, n)
    eps_t = math.sqrt(n)
    alpha, beta = scaling_coefficients(eps_t, n, n)
    return RunTimeResult(splitting, eps_t, alpha, beta, "max_structured")


def _check_time_steps(total_time: float, t_nodes, rate_nodes=()) -> None:
    """Refuse time steps too short or too long for the cubics of s(t), or rates that overflow."""
    steps = np.diff(t_nodes)
    if not (np.min(steps) >= _MIN_TIME_STEP and np.all(np.isfinite(rate_nodes))):
        raise ValueError(
            f"total time {total_time!r} is too short: its time steps "
            f"fall below {_MIN_TIME_STEP:.3g} or its rates overflow"
        )
    if not np.max(steps) <= _MAX_TIME_STEP:
        raise ValueError(
            f"total time {total_time!r} is too long: its time steps exceed {_MAX_TIME_STEP:.3g}"
        )


@dataclass(frozen=True)
class TimeSchedule:
    """Monotone time parameterization s(t) with its total time.

    Produced by :func:`optimal_schedule` (where the rate samples come from
    the saturated bound) or from user samples. Interpolation is monotone
    piecewise cubic in both directions.
    """

    base: Schedule
    total_time: float
    t_nodes: np.ndarray
    s_nodes: np.ndarray
    rate_nodes: np.ndarray
    _s_of_t: object = field(default=None, repr=False, compare=False)
    _t_of_s: object = field(default=None, repr=False, compare=False)
    _rate_of_s: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.total_time) and self.total_time >= 0.0):
            raise ValueError(f"total time must be finite and >= 0, got {self.total_time}")
        if self.total_time > 0.0:
            _check_time_steps(self.total_time, self.t_nodes, self.rate_nodes)
            object.__setattr__(self, "_s_of_t", MonotoneCubic(self.t_nodes, self.s_nodes))
            object.__setattr__(self, "_t_of_s", MonotoneCubic(self.s_nodes, self.t_nodes))
            object.__setattr__(self, "_rate_of_s", MonotoneCubic(self.s_nodes, self.rate_nodes))

    @classmethod
    def from_samples(cls, t_nodes, s_nodes, base: Schedule | None = None) -> "TimeSchedule":
        """Build from sampled (t, s); rates are the interpolant's node slopes."""
        t_nodes = np.asarray(t_nodes, dtype=float)
        s_nodes = np.asarray(s_nodes, dtype=float)
        if t_nodes.ndim != 1 or t_nodes.size < 2:
            raise ValueError("need at least two (t, s) samples")
        if np.any(np.diff(t_nodes) <= 0.0) or np.any(np.diff(s_nodes) <= 0.0):
            raise ValueError("t and s samples must be strictly increasing")
        total_time = float(t_nodes[-1] - t_nodes[0])
        _check_time_steps(total_time, t_nodes)
        return cls(
            base if base is not None else linear_schedule(),
            total_time,
            t_nodes - t_nodes[0],
            s_nodes,
            pchip_slopes(t_nodes, s_nodes),
        )

    @classmethod
    def quench(cls, base: Schedule | None = None) -> "TimeSchedule":
        """Zero-duration parameterization: measure immediately at s = 1."""
        return cls(
            base if base is not None else linear_schedule(),
            0.0,
            np.array([0.0]),
            np.array([1.0]),
            np.array([0.0]),
        )

    def s_of_t(self, t):
        if self.total_time == 0.0:
            return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0
        clipped = np.clip(t, 0.0, self.total_time)
        return np.clip(self._s_of_t(clipped), 0.0, 1.0)

    def t_of_s(self, s):
        if self.total_time == 0.0:
            return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0
        return np.clip(self._t_of_s(np.clip(s, 0.0, 1.0)), 0.0, self.total_time)

    def rate(self, s):
        """ds/dt as a function of s."""
        if self.total_time == 0.0:
            return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0
        return self._rate_of_s(np.clip(s, 0.0, 1.0))

    def scaled(self, new_total_time: float) -> "TimeSchedule":
        """Same path through s, uniformly stretched to a new total time."""
        if not (math.isfinite(new_total_time) and new_total_time > 0.0):
            raise ValueError(f"scaled total time must be finite and > 0, got {new_total_time}")
        if self.total_time == 0.0:
            raise ValueError("cannot scale a zero-duration schedule")
        factor = new_total_time / self.total_time
        with np.errstate(over="ignore", divide="ignore"):  # the constructor refuses both
            rate_nodes = self.rate_nodes / factor
        return TimeSchedule(self.base, new_total_time, self.t_nodes * factor, self.s_nodes, rate_nodes)


def optimal_schedule(
    splitting: Splitting,
    precision: Precision | None = None,
    grid: int = 1001,
    schedule: Schedule | None = None,
) -> TimeSchedule:
    """Time parameterization that saturates the adiabatic bound everywhere.

    Integrates the time integrand of :func:`running_time_integral` once, on
    u-panels of unit width (the block peaks are bumps about one unit wide)
    that also break at the schedule's knots, where it has kinks. t(s) at the
    uniform s grid is then read off the converged quadrature pieces, each
    node's piece interpolated by its 21 integrand values, and inverted
    monotonically. The total time agrees with that integral to quadrature
    tolerance, and ds/dt is smallest where the gap is smallest. Where H(s)
    is stationary the rate is unbounded, so such a schedule is refused.
    """
    if not 100 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 100 and {MAX_GRID} samples, got {grid}")
    precision = precision if precision is not None else Precision()
    schedule = schedule if schedule is not None else linear_schedule()
    integrand, u_of_s, dt_ds = _time_integrand(splitting, schedule)
    s_nodes = np.linspace(0.0, 1.0, grid)
    dt_ds_nodes = np.array([dt_ds(s) for s in s_nodes])
    stationary = s_nodes[dt_ds_nodes == 0.0]
    if stationary.size:
        raise ValueError(
            f"H(s) is stationary at s = {stationary[0]:.4f}: the rate that saturates "
            "the bound is unbounded there"
        )
    u_nodes = u_of_s(s_nodes)
    u_lo, u_hi = float(u_nodes[0]), float(u_nodes[-1])
    breaks = {*range(math.ceil(u_lo), math.floor(u_hi) + 1), *u_of_s(np.array(schedule.knots)).tolist()}
    edges = [u_lo, *sorted(u for u in breaks if u_lo < u < u_hi), u_hi]
    _, pieces = _panel_integrals(integrand, edges, QUAD_TOL, "the time tabulation")
    t_nodes = node_integrals(pieces, u_nodes) / precision.epsilon
    for k in range(1, grid):
        # far tails of huge blocks can fall below the resolution of the
        # accumulated time; keep the tabulation strictly increasing
        if t_nodes[k] <= t_nodes[k - 1]:
            t_nodes[k] = np.nextafter(t_nodes[k - 1], np.inf)
    rate_nodes = precision.epsilon / dt_ds_nodes
    return TimeSchedule(schedule, float(t_nodes[-1]), t_nodes, s_nodes, rate_nodes)


def _divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def reproduce_table(n: int) -> list[RunTimeResult]:
    """One quadrature row per divisor of n (ascending), linear schedule."""
    if not 1 <= n <= MAX_TABLE_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_TABLE_QUBITS}], got {n}")
    schedule = linear_schedule()
    return [running_time_integral(equal_splitting(n, m), schedule) for m in _divisors(n)]

