"""Running times of split adiabatic searches; kronrod does the quadrature.

The time integrand in the offset from the crossing and its panel breaks,
running times for any splitting and in closed form, scaling exponents,
published-table reproduction, and the optimal time parameterization s(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_BLOCK_QUBITS,
    MAX_GRID,
    LinearSchedule,
    MonotoneCubic,
    Precision,
    Schedule,
    Splitting,
    _integer,
    _real,
    _real_array,
    _sample_columns,
    _sampled_curve,
    equal_splitting,
)
from .kronrod import QuadratureError, integrate, node_integrals
from .spectral import _bisect, adiabatic_ratio

QUAD_TOL = 1e-9  # relative tolerance of every time integral


@dataclass(frozen=True)
class RunTimeResult:
    """Schedule-optimal running time (as the product epsilon * T) plus scaling exponents.

    beta is infinite for a single block, matching its defining relation.
    """

    splitting: Splitting
    eps_t: float
    alpha: float
    beta: float


def _crossing(schedule: Schedule) -> float:
    """s* where f = g, by bisection on the decreasing f - g to 1e-14.

    The first midpoint is 1/2, where the linear schedule crosses exactly.
    """
    return _bisect(lambda s: float(schedule.difference(s, 0.0)), 0.0, 1.0)


def _time_integrand(splitting: Splitting, schedule: Schedule):
    """epsilon * dt/ds for the bound-saturating time parameterization.

    Every block gap bottoms out at the crossing s* where f = g, block i with
    a half-width of about f*/(sqrt(N_i) |f' - g'|) in s: 2^-32 at 64 qubits,
    too fine for quadrature nodes at rounded s. So dt/ds is formed from the
    offset x = s - s* (f - g from Schedule.difference) and integrated in u,
    x = w sinh(u) with w the narrowest half-width, where every block peak is
    a smooth bump about one unit wide; dt/ds is spectral.adiabatic_ratio. f - g
    is monotone, so f = g = 0 can only happen at s*; such a schedule closes
    the gap and is refused.

    Returns (integrand of u, the map s -> u, dt/ds as a function of s).
    """
    dims = splitting.float_block_dims()
    ratio = adiabatic_ratio(dims)
    couplings = (schedule.f, schedule.g, schedule.df, schedule.dg)
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
        return ratio(float(schedule.difference(s_star, x)), *[float(fn(s)) for fn in couplings])

    def integrand(u: float) -> float:
        return at_offset(width * math.sinh(u)) * width * math.cosh(u)

    def u_of_s(s):
        return np.arcsinh((s - s_star) / width)

    return integrand, u_of_s, lambda s: at_offset(s - s_star)


def _panel_edges(schedule: Schedule, u_of_s, u_lo: float, u_hi: float, breaks=()) -> list[float]:
    """Panel edges from u_lo to u_hi: the crossing (u = 0), the u-images of
    the schedule's knots, where it has kinks, and any further breaks inside."""
    breaks = {0.0, *breaks, *u_of_s(np.array(schedule.knots)).tolist()}
    return [u_lo, *sorted(u for u in breaks if u_lo < u < u_hi), u_hi]


def scaling_coefficients(eps_t: float, n: int, num_blocks: int) -> tuple[float, float]:
    """Exponents relating eps_t to sqrt(m * 2^(n/m)) and to sqrt(m).

    The first (alpha) measures closeness to square-root-of-dimension
    scaling; the second (beta) is reported as infinity for a single block,
    where its defining base is 1; needs 1 <= num_blocks <= n.
    """
    eps_t = _real(eps_t, "eps_t")
    if not (math.isfinite(eps_t) and eps_t > 0.0):
        raise ValueError(f"eps_t must be finite and positive, got {eps_t}")
    n = _integer(n, "qubit count")
    num_blocks = _integer(num_blocks, "number of blocks")
    if not 1 <= num_blocks <= n:
        raise ValueError(f"number of blocks must be in [1, n={n}], got {num_blocks}")
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
    s in [0, 1], in the variable u of the time integrand, to the relative
    tolerance QUAD_TOL. The panels break at the crossing where f = g and
    every block peaks, and at the schedule's knots.
    """
    schedule = schedule if schedule is not None else LinearSchedule()
    integrand, u_of_s, _ = _time_integrand(splitting, schedule)
    edges = _panel_edges(schedule, u_of_s, float(u_of_s(0.0)), float(u_of_s(1.0)))
    eps_t, _ = integrate(integrand, edges, QUAD_TOL, "the running-time integral")
    alpha, beta = scaling_coefficients(eps_t, splitting.n, splitting.num_blocks)
    return RunTimeResult(splitting, eps_t, alpha, beta)


def closed_form_eps_t(n: int, num_blocks: int) -> float:
    """Equal-split running time under the linear schedule, in closed form.

    Substituting u = 2s - 1 turns each block's integral into
    (1/2) * integral of (a*u**2 + b)**(-3/2) with a = 1 - 1/N and b = 1/N,
    which evaluates to N; the total collapses to sqrt(m * (2^(n/m) - 1)).
    n and m are refused as equal_splitting refuses them, and so are blocks
    over the floating-point cap of MAX_BLOCK_QUBITS qubits.
    """
    block_dim = equal_splitting(n, num_blocks).float_block_dims()[0]
    return math.sqrt(num_blocks * (block_dim - 1.0))


@dataclass(frozen=True)
class TimeSchedule:
    """Monotone time parameterization s(t): a table of (t, s, ds/dt) samples.

    Every rate node is given: by the caller, by :func:`optimal_schedule`
    (rates from the saturated bound), by :meth:`scaled` or by :meth:`quench`.
    A positive total time takes samples that obey core's one sampled-curve
    rule, with t rising strictly from exactly 0 to exactly the total time;
    it is too short where its steps vanish or its rates overflow. A zero
    total time takes only the sample (t, s, ds/dt) = (0, 1, 0), the quench.
    Each direction is a :class:`core.MonotoneCubic` of the float64 columns
    it stores, which takes steps of any length, refuses a cubic that
    overflows in its own unit, and reads the quench's one sample as a constant.
    """

    base: Schedule
    total_time: float
    t_nodes: np.ndarray
    s_nodes: np.ndarray
    rate_nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "total_time", _real(self.total_time, "total time"))
        if not (math.isfinite(self.total_time) and self.total_time >= 0.0):
            raise ValueError(f"total time must be finite and >= 0, got {self.total_time}")
        if self.total_time == 0.0:
            columns = ((self.t_nodes, "t"), (self.s_nodes, "s"), (self.rate_nodes, "rate"))
            t_nodes, s_nodes, rate_nodes = (_real_array(values, name) for values, name in columns)
            if [v.tolist() for v in (t_nodes, s_nodes, rate_nodes)] != [[0.0], [1.0], [0.0]]:
                raise ValueError("a zero total time takes only the sample (t, s, ds/dt) = (0, 1, 0)")
        else:
            s_nodes, t_nodes, rate_nodes = _sample_columns(self.s_nodes, t=self.t_nodes, rate=self.rate_nodes).values()
            with np.errstate(over="ignore"):  # a t span past the double range meets the t rule below
                steps_vanish = np.isfinite(t_nodes).all() and not np.all(np.diff(t_nodes) > 0.0)
            # a NaN rate, and a t that is not finite, meet the one sampled-curve rule below
            if steps_vanish or np.isinf(rate_nodes).any():
                raise ValueError(f"total time {self.total_time!r} is too short: its steps vanish or its rates overflow")
            _sampled_curve(s_nodes, t=t_nodes, rate=rate_nodes)
            if t_nodes[0] != 0.0 or t_nodes[-1] != self.total_time:
                raise ValueError(f"t samples must run from 0 to the total time {self.total_time!r}")
        for name, values in (("t_nodes", t_nodes), ("s_nodes", s_nodes), ("rate_nodes", rate_nodes)):
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_s_of_t", MonotoneCubic(t_nodes, s_nodes))
        object.__setattr__(self, "_t_of_s", MonotoneCubic(s_nodes, t_nodes))
        object.__setattr__(self, "_rate_of_s", MonotoneCubic(s_nodes, rate_nodes))

    @classmethod
    def quench(cls, base: Schedule | None = None) -> "TimeSchedule":
        """Zero-duration parameterization, measured at s = 1 at once: the sample (t, s, ds/dt) = (0, 1, 0)."""
        return cls(base if base is not None else LinearSchedule(), 0.0, np.zeros(1), np.ones(1), np.zeros(1))

    def s_of_t(self, t):
        return np.clip(self._s_of_t(np.clip(t, 0.0, self.total_time)), 0.0, 1.0)

    def t_of_s(self, s):
        return np.clip(self._t_of_s(np.clip(s, 0.0, 1.0)), 0.0, self.total_time)

    def rate(self, s):
        """ds/dt as a function of s."""
        return self._rate_of_s(np.clip(s, 0.0, 1.0))

    def scaled(self, new_total_time: float) -> "TimeSchedule":
        """Same path through s, uniformly stretched to a new total time."""
        new_total_time = _real(new_total_time, "scaled total time")
        if not (math.isfinite(new_total_time) and new_total_time > 0.0):
            raise ValueError(f"scaled total time must be finite and > 0, got {new_total_time}")
        if self.total_time == 0.0:
            raise ValueError("cannot scale a zero-duration schedule")
        factor = new_total_time / self.total_time
        with np.errstate(over="ignore", divide="ignore"):  # the constructor refuses both
            rate_nodes = self.rate_nodes / factor
        # the last node is the new total, which the product can miss by an ulp
        t_nodes = np.append(self.t_nodes[:-1] * factor, new_total_time)
        return TimeSchedule(self.base, new_total_time, t_nodes, self.s_nodes, rate_nodes)


def optimal_schedule(
    splitting: Splitting,
    precision: Precision | None = None,
    grid: int = 1001,
    schedule: Schedule | None = None,
) -> TimeSchedule:
    """Time parameterization that saturates the adiabatic bound everywhere.

    Integrates the time integrand of :func:`running_time_integral` once, on
    its panels further broken at every integer u (the block peaks are bumps
    about one unit wide). t(s) at the uniform s grid is then read off the
    converged quadrature pieces, each node's piece interpolated by its 21
    integrand values, and inverted monotonically. The total time agrees
    with that integral to quadrature tolerance, and ds/dt is smallest where
    the gap is smallest. Where H(s) is stationary the rate is unbounded, so
    such a schedule is refused.
    """
    grid = _integer(grid, "grid")
    if not 100 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 100 and {MAX_GRID} samples, got {grid}")
    precision = precision if precision is not None else Precision()
    schedule = schedule if schedule is not None else LinearSchedule()
    integrand, u_of_s, dt_ds = _time_integrand(splitting, schedule)
    s_nodes = np.linspace(0.0, 1.0, grid)
    dt_ds_nodes = np.array([dt_ds(s) for s in s_nodes.tolist()])
    stationary = s_nodes[dt_ds_nodes == 0.0]
    if stationary.size:
        raise ValueError(
            f"H(s) is stationary at s = {stationary[0]:.4f}: the rate that saturates "
            "the bound is unbounded there"
        )
    u_nodes = u_of_s(s_nodes)
    u_lo, u_hi = float(u_nodes[0]), float(u_nodes[-1])
    edges = _panel_edges(schedule, u_of_s, u_lo, u_hi, range(math.ceil(u_lo), math.floor(u_hi) + 1))
    _, pieces = integrate(integrand, edges, QUAD_TOL, "the time tabulation")
    t_nodes = node_integrals(pieces, u_nodes)
    if not math.isfinite(float(t_nodes[-1]) / precision.epsilon):
        raise ValueError(
            f"epsilon {precision.epsilon!r} is too small: the total time {t_nodes[-1]:.17g} / epsilon overflows"
        )
    t_nodes /= precision.epsilon
    for k in range(1, grid):
        # far tails of huge blocks can fall below the resolution of the
        # accumulated time; keep the tabulation strictly increasing
        if t_nodes[k] <= t_nodes[k - 1]:
            t_nodes[k] = np.nextafter(t_nodes[k - 1], np.inf)
    rate_nodes = precision.epsilon / dt_ds_nodes
    return TimeSchedule(schedule, float(t_nodes[-1]), t_nodes, s_nodes, rate_nodes)


def reproduce_table(n: int) -> list[RunTimeResult]:
    """One quadrature row per divisor of n (ascending), linear schedule."""
    n = _integer(n, "qubit count")
    if not 1 <= n <= MAX_BLOCK_QUBITS:  # the m = 1 row is one block of n qubits
        raise ValueError(f"n must be in [1, {MAX_BLOCK_QUBITS}], got {n}")
    schedule = LinearSchedule()
    return [running_time_integral(equal_splitting(n, m), schedule) for m in range(1, n + 1) if n % m == 0]

