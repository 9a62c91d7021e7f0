"""Running times of split adiabatic searches; kronrod does the quadrature.

The time integrand of the linear path in the offset from its crossing
s = 1/2 and its panel breaks, running times for any splitting and in closed
form, scaling exponents, published-table reproduction, and the optimal time
parameterization s(t).
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
    Splitting,
    _integer,
    _real,
    equal_splitting,
)
from .kronrod import QuadratureError, integrate, node_integrals
from .spectral import adiabatic_ratio

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


def _time_integrand(splitting: Splitting, f):
    """epsilon * dt/ds for the bound-saturating time parameterization.

    Every block gap bottoms out at the crossing s = 1/2 where f = g, block i
    with a half-width of about 1/(2 sqrt(N_i)) in s: 2^-33 at 64 qubits,
    too fine for quadrature nodes at rounded s. So dt/ds is formed from the
    offset x = s - 1/2, with g = s and f - g = -2x exact in x, and the
    coupling ``f`` of the path is its one call. It is integrated in u,
    x = w sinh(u) with w = 0.25/sqrt(N_max), where every block peak is a
    smooth bump about one unit wide; dt/ds is spectral.adiabatic_ratio.

    Returns (integrand of u, the map s -> u, its inverse u -> s, dt/ds as a
    function of s), each of one float: libm, not numpy's SIMD kernels.
    """
    ratio = adiabatic_ratio(splitting)
    width = 0.25 / math.sqrt(float(1 << splitting.size_counts()[-1][0]))

    def at_offset(x: float) -> float:
        s = 0.5 + x
        return ratio(-2.0 * x, f(s), s)

    def integrand(u: float) -> float:
        return at_offset(width * math.sinh(u)) * width * math.cosh(u)

    def u_of_s(s: float) -> float:
        return math.asinh((s - 0.5) / width)

    return integrand, u_of_s, lambda u: 0.5 + width * math.sinh(u), lambda s: at_offset(s - 0.5)


def _panel_edges(u_lo: float, u_hi: float, breaks=()) -> list[float]:
    """Panel edges from u_lo to u_hi: the crossing (u = 0) and any further breaks inside."""
    return [u_lo, *sorted(u for u in {0.0, *breaks} if u_lo < u < u_hi), u_hi]


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
    schedule: LinearSchedule | None = None,
) -> RunTimeResult:
    """Schedule-optimal running time of a split search by adaptive quadrature.

    Integrates (f + g) * sqrt(sum_i (N_i - 1)/N_i**2 / omega_i**6) over
    s in [0, 1], in the variable u of the time integrand, to the relative
    tolerance QUAD_TOL. The panels break at the crossing s = 1/2, where
    every block peaks. ``schedule`` admits only the benchmark's counter.
    """
    schedule = schedule if schedule is not None else LinearSchedule()
    integrand, u_of_s, _, _ = _time_integrand(splitting, schedule.f)
    edges = _panel_edges(u_of_s(0.0), u_of_s(1.0))
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
    ((size, _),) = equal_splitting(n, num_blocks).size_counts()
    return math.sqrt(num_blocks * (float(1 << size) - 1.0))


@dataclass(frozen=True)
class TimeSchedule:
    """Monotone time parameterization s(t): a table of (t, s, ds/dt) samples.

    Built by :func:`optimal_schedule` (rates from the saturated bound), by
    :meth:`scaled` or by :meth:`quench`, which hold every table to these
    invariants: t, s and ds/dt are 1-D float64 arrays of one length and the
    total time a float; t is non-decreasing from exactly 0 to exactly the
    total time, s rises strictly from exactly 0 to exactly 1, and every rate
    is finite and >= 0. The quench is the one sample (0, 1, 0). A table built
    by hand is taken as given and not checked again. A run of equal times is
    one instant: s(t) and t(s) are each a :class:`core.MonotoneCubic` through
    the last node of every run, with slopes ds/dt or dt/ds (a rate of 0 meets
    the cap); it takes steps of any length, refuses to overflow, and reads
    the quench's one sample as a constant.
    """

    total_time: float
    t_nodes: np.ndarray
    s_nodes: np.ndarray
    rate_nodes: np.ndarray

    def __post_init__(self):
        last = np.append(np.diff(self.t_nodes) > 0.0, True)
        t, s, rate = self.t_nodes[last], self.s_nodes[last], self.rate_nodes[last]
        object.__setattr__(self, "_s_of_t", MonotoneCubic(t, s, rate))
        with np.errstate(divide="ignore", over="ignore"):  # an infinite slope is capped
            object.__setattr__(self, "_t_of_s", MonotoneCubic(s, t, 1.0 / rate))

    @classmethod
    def quench(cls) -> "TimeSchedule":
        """Zero-duration parameterization, measured at s = 1 at once: the sample (t, s, ds/dt) = (0, 1, 0)."""
        return cls(0.0, np.zeros(1), np.ones(1), np.zeros(1))

    def s_of_t(self, t):
        """s at time t, off the cubic through (t, s) with slopes ds/dt."""
        return np.clip(self._s_of_t(np.clip(t, 0.0, self.total_time)), 0.0, 1.0)

    def t_of_s(self, s):
        """t at s, off the cubic through (s, t) with slopes dt/ds."""
        return np.clip(self._t_of_s(np.clip(s, 0.0, 1.0)), 0.0, self.total_time)

    def rate(self, s):
        """ds/dt at s: the slope of s_of_t's cubic at t_of_s(s), the drive that evolve follows."""
        return self._s_of_t.slope(self.t_of_s(s))

    def scaled(self, new_total_time: float) -> "TimeSchedule":
        """Same path through s, uniformly stretched to a new total time; refused if too short or too long."""
        new_total_time = _real(new_total_time, "scaled total time")
        if not (math.isfinite(new_total_time) and new_total_time > 0.0):
            raise ValueError(f"scaled total time must be finite and > 0, got {new_total_time}")
        if self.total_time == 0.0:
            raise ValueError("cannot scale a zero-duration schedule")
        # the ratio of the totals as a mantissa ratio and a power of two: the
        # same bits as new / old where that quotient is normal, and no over- or
        # underflow where it is not, so a scaled schedule scales again
        (new_m, new_e), (old_m, old_e) = math.frexp(new_total_time), math.frexp(self.total_time)
        ratio, shift = new_m / old_m, new_e - old_e
        with np.errstate(over="ignore"):  # refused below
            rate_nodes = np.ldexp(self.rate_nodes / ratio, -shift)
        # the last node is the new total, which the product can miss by an ulp
        t_nodes = np.append(np.ldexp(self.t_nodes[:-1] * ratio, shift), new_total_time)
        if not np.isfinite(rate_nodes).all():
            raise ValueError(f"total time {new_total_time!r} is too short: its rates overflow")
        try:
            return TimeSchedule(new_total_time, t_nodes, self.s_nodes, rate_nodes)
        except ValueError as exc:  # a cubic through the stretched times overflows
            raise ValueError(f"total time {new_total_time!r} is too long: {exc}") from None


def optimal_schedule(
    splitting: Splitting,
    precision: Precision | None = None,
    grid: int = 1001,
    schedule: LinearSchedule | None = None,
) -> TimeSchedule:
    """Time parameterization that saturates the adiabatic bound everywhere.

    On the linear path every block gap is unchanged by s -> 1 - s, so the
    time integrand of :func:`running_time_integral` is even in s - 1/2, and
    it is integrated once over the half line before the crossing only, on
    panels broken at every integer u (the block peaks are bumps about one
    unit wide). The ``grid`` nodes are uniform in u, so every block peak
    gets as many of them as a unit of u holds, and the ends are exactly
    s = 0 and 1. t(s) at each node is read off the converged quadrature
    pieces at -|u| of the node's rounded s, each node's piece interpolated
    by its 21 integrand values. A node past the crossing is read from the
    end: the total, twice the half integral, less its time to go. Late nodes
    under an ulp of the total apart can share a time. The total time agrees
    with :func:`running_time_integral` to quadrature tolerance, and ds/dt is
    smallest where the gap is smallest.
    ``schedule`` admits only the benchmark's counter.
    """
    grid = _integer(grid, "grid")
    if not 100 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 100 and {MAX_GRID} samples, got {grid}")
    precision = precision if precision is not None else Precision()
    schedule = schedule if schedule is not None else LinearSchedule()
    integrand, u_of_s, s_of_u, dt_ds = _time_integrand(splitting, schedule.f)
    u_lo, u_hi = u_of_s(0.0), u_of_s(1.0)
    s_nodes = np.array([0.0, *map(s_of_u, np.linspace(u_lo, u_hi, grid)[1:-1].tolist()), 1.0])
    dt_ds_nodes = np.array([dt_ds(s) for s in s_nodes.tolist()])
    # each node's u folded onto the half line before the crossing
    u_nodes = np.array([-abs(u_of_s(s)) for s in s_nodes.tolist()])
    edges = _panel_edges(u_lo, 0.0, range(math.ceil(u_lo), 0))
    half, pieces = integrate(integrand, edges, QUAD_TOL, "the time tabulation")
    t_nodes = node_integrals(pieces, u_nodes)
    after = s_nodes > 0.5  # the total less the time to go, read at the mirror node
    t_nodes[after] = 2.0 * half - t_nodes[after]
    if not math.isfinite(float(t_nodes[-1]) / precision.epsilon):
        raise ValueError(
            f"epsilon {precision.epsilon!r} is too small: the total time {t_nodes[-1]:.17g} / epsilon overflows"
        )
    t_nodes /= precision.epsilon
    rate_nodes = precision.epsilon / dt_ds_nodes
    return TimeSchedule(float(t_nodes[-1]), t_nodes, s_nodes, rate_nodes)


def reproduce_table(n: int) -> list[RunTimeResult]:
    """One quadrature row per divisor of n (ascending), linear schedule."""
    n = _integer(n, "qubit count")
    if not 1 <= n <= MAX_BLOCK_QUBITS:  # the m = 1 row is one block of n qubits
        raise ValueError(f"n must be in [1, {MAX_BLOCK_QUBITS}], got {n}")
    return [running_time_integral(equal_splitting(n, m)) for m in range(1, n + 1) if n % m == 0]

