"""Running times of split adiabatic searches; kronrod does the quadrature.

The time integrand of the linear path in the offset from its crossing
s = 1/2 and its panel breaks, running times for any splitting and in closed
form, scaling exponents, published-table reproduction, and the optimal time
parameterization s(t): a shape in t/T, read off a monotone cubic, and its
total time T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_GRID,
    MAX_BLOCK_QUBITS,
    MAX_GRID,
    LinearSchedule,
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
    """epsilon * dt/ds of one float x = s - 1/2, and the panel edges in x from -1/2 to 0.

    Every block gap bottoms out at the crossing s = 1/2 where f = g, block i
    with a half-width of about 1/(2 sqrt(N_i)) in s: 2^-33 at 64 qubits,
    too fine for quadrature nodes at rounded s. So dt/ds
    (spectral.adiabatic_ratio) is formed from x, with g = s and f - g = -2x
    exact in x, and the coupling ``f`` of the path is its one call. Its poles
    sit at x = +-i/(2 sqrt(N_i - 1)), so panels that double away from the
    crossing, 0, -w, -3w, -7w, ... (x_k+1 = 2 x_k - w, w = 0.25/sqrt(N_max))
    to -1/2 with a last sliver under a quarter of its neighbour merged, are
    each about as wide as their distance to them, and one qk21 per panel
    converges (Trefethen, SIAM Rev. 50, 67 (2008)). Both use only +, -, *, /
    and sqrt, which round the same on every host.
    """
    ratio = adiabatic_ratio(splitting)
    width = 0.25 / math.sqrt(float(1 << splitting.size_counts()[-1][0]))

    def at_offset(x: float) -> float:
        s = 0.5 + x
        return ratio(-2.0 * x, f(s), s)

    edges = [0.0, -width]
    while edges[-1] > -0.5:
        edges.append(2.0 * edges[-1] - width)
    edges[-1] = -0.5
    if 4.0 * (edges[-2] + 0.5) < edges[-3] - edges[-2]:
        del edges[-2]
    return at_offset, edges[::-1]


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
    """Schedule-optimal running time of a split search by quadrature.

    Integrates (f + g) * sqrt(sum_i (N_i - 1)/N_i**2 / omega_i**6) over
    s in [0, 1] to the relative tolerance QUAD_TOL. On the linear path every
    block gap is unchanged by s -> 1 - s, so it is twice the integral over
    the half line before the crossing, on the panels of the time integrand,
    which :func:`optimal_schedule` tabulates. ``schedule`` admits only the
    benchmark's counter.
    """
    schedule = schedule if schedule is not None else LinearSchedule()
    half, _ = integrate(*_time_integrand(splitting, schedule.f), QUAD_TOL, "the running-time integral")
    eps_t = 2.0 * half
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


class MonotoneCubic:
    """Piecewise-cubic Hermite interpolant through (x, y) with the given node slopes.

    Each slope is capped at 3 times the chord on either side, Fritsch &
    Carlson's sufficient condition for a monotone cell (SIAM J. Numer. Anal.
    17, 238, 1980); an infinite slope becomes its cap. c[:, k] holds the
    cubic on [x_k, x_k+1] in powers of s - x_k, highest first, as in scipy's
    PPoly, and one more column the last cubic expanded about the last node,
    which serves s >= x_-1: every node, the last included, reads its own
    value and slope exactly. One node is the constant y_0, of slope 0. Nodes
    are taken as given, finite with x strictly increasing; nothing else
    about them is checked. The end cubics extend past the nodes. Values and
    slopes accept scalars or arrays.
    """

    def __init__(self, x, y, slopes):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.size == 1:
            self.c = np.array([[0.0], [0.0], [0.0], y])
            return
        h = np.diff(self.x)
        m = np.diff(y) / h
        caps = 3.0 * np.minimum(np.append(m[0], m), np.append(m, m[-1]))  # the chords either side
        d = np.minimum(np.asarray(slopes, dtype=float), caps)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c0, c1 = t / h, (m - d[:-1]) / h - t
        self.c = np.array([np.append(c0, c0[-1]), np.append(c1, c1[-1] + 3.0 * c0[-1] * h[-1]), d, y])

    def _cell(self, s):
        """(s - x_k, coefficients) of the cubic that serves s: x_k <= s < x_k+1, the first below x_0."""
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(self.x, s, side="right") - 1, 0, None)
        return s - self.x[k], self.c[:, k]

    def __call__(self, s):
        y, (c0, c1, c2, c3) = self._cell(s)
        return c3 + c2 * y + c1 * (y * y) + c0 * (y * y * y)

    def slope(self, s):
        """The derivative of the cubic at s."""
        y, (c0, c1, c2, _) = self._cell(s)
        return c2 + 2.0 * c1 * y + 3.0 * c0 * (y * y)


@dataclass(frozen=True)
class TimeSchedule:
    """Monotone time parameterization s(t): an epsilon-free shape in tau = t/T and its total time T.

    The shape is a table of (tau, s, ds/dtau) samples, read in time as
    ``t_nodes`` = tau * T and ``rate_nodes`` = (ds/dtau) / T. Built by
    :func:`optimal_schedule`, :meth:`scaled` or :meth:`quench`, which hold
    every table to these invariants: tau, s and ds/dtau are 1-D float64
    arrays of one length and T a float; tau is non-decreasing from exactly
    0 to exactly 1, s rises strictly from exactly 0 to exactly 1, and every
    slope and rate is finite and >= 0. The quench is the one sample
    (0, 1, 0) of duration 0. A table built by hand is taken as given. A run
    of equal tau is one instant: s(tau) and tau(s) are each a
    :class:`MonotoneCubic` on [0, 1] through the last node of every run,
    with slopes ds/dtau or dtau/ds (a slope of 0 meets the cap).
    """

    total_time: float
    tau_nodes: np.ndarray
    s_nodes: np.ndarray
    slope_nodes: np.ndarray

    def __post_init__(self):
        last = np.append(np.diff(self.tau_nodes) > 0.0, True)
        tau, s, slope = self.tau_nodes[last], self.s_nodes[last], self.slope_nodes[last]
        object.__setattr__(self, "_s_of_tau", MonotoneCubic(tau, s, slope))
        with np.errstate(divide="ignore", over="ignore"):  # an infinite slope is capped
            object.__setattr__(self, "_tau_of_s", MonotoneCubic(s, tau, 1.0 / slope))
        # the time that tau = 1 stands for; the quench's one instant, at tau = 0, takes 1
        object.__setattr__(self, "_span", self.total_time or 1.0)

    @classmethod
    def quench(cls) -> "TimeSchedule":
        """Zero-duration parameterization, measured at s = 1 at once: the sample (tau, s, ds/dtau) = (0, 1, 0)."""
        return cls(0.0, np.zeros(1), np.ones(1), np.zeros(1))

    @property
    def t_nodes(self) -> np.ndarray:
        return self.tau_nodes * self.total_time

    @property
    def rate_nodes(self) -> np.ndarray:
        return self.slope_nodes / self._span

    def _tau(self, s):
        return np.clip(self._tau_of_s(np.clip(s, 0.0, 1.0)), 0.0, 1.0)

    def s_of_t(self, t):
        """s at time t, off the cubic through (tau, s) with slopes ds/dtau."""
        return np.clip(self._s_of_tau(np.clip(t, 0.0, self.total_time) / self._span), 0.0, 1.0)

    def t_of_s(self, s):
        """t at s, off the cubic through (s, tau) with slopes dtau/ds."""
        return self._tau(s) * self.total_time

    def rate(self, s):
        """ds/dt at s: the slope of s_of_t's cubic at tau(s), the drive that evolve follows.
        Where late tau repeat, the last cell is one ulp wide, and rate(1.0) reads its capped end
        slope: at grid 1,001, 0.891 of rate_nodes[-1] on [52], 0.143 on [56], 7.2e-4 on [64]
        (619,344.69 against 858,993,459.2). Below 52 qubits per block it is exactly the node rate."""
        return self._s_of_tau.slope(self._tau(s)) / self._span

    def scaled(self, new_total_time: float) -> "TimeSchedule":
        """Same shape stretched to a new total time; refused if so short that its rates overflow."""
        new_total_time = _real(new_total_time, "scaled total time")
        if not (math.isfinite(new_total_time) and new_total_time > 0.0):
            raise ValueError(f"scaled total time must be finite and > 0, got {new_total_time}")
        if self.total_time == 0.0:
            raise ValueError("cannot scale a zero-duration schedule")
        if not math.isfinite(float(self.slope_nodes.max()) / new_total_time):
            raise ValueError(f"total time {new_total_time!r} is too short: its rates overflow")
        return TimeSchedule(new_total_time, self.tau_nodes, self.s_nodes, self.slope_nodes)


def optimal_schedule(
    splitting: Splitting,
    precision: Precision = Precision(),
    grid: int = DEFAULT_GRID,
    schedule: LinearSchedule | None = None,
) -> TimeSchedule:
    """Time parameterization that saturates the adiabatic bound everywhere.

    The half integral of :func:`running_time_integral`, one qk21 per panel
    of the time integrand, is tabulated at ``grid`` nodes uniform in the
    panel coordinate v in [-K, K] (K panels on each side of the crossing),
    x linear in v within a panel: every panel, and so every block peak,
    gets the same share of the nodes, and the ends are exactly s = 0 and 1.
    epsilon * t(s) at each node is read off the pieces at -|x| of the
    node's rounded s, each node's piece interpolated by its 21 integrand
    values; a node past the crossing is read from the end: the running
    time, twice the half integral, less its time to go. Over the running
    time it is the node's tau, which epsilon does not change (late tau can
    repeat), and ds/dtau is the running time over epsilon * dt/ds, smallest
    where the gap is smallest. The total time is the running time over epsilon.
    ``schedule`` admits only the benchmark's counter.
    """
    grid = _integer(grid, "grid")
    if not 100 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 100 and {MAX_GRID} samples, got {grid}")
    schedule = schedule if schedule is not None else LinearSchedule()
    integrand, edges = _time_integrand(splitting, schedule.f)
    half, pieces = integrate(integrand, edges, QUAD_TOL, "the time tabulation")
    panels = len(edges) - 1
    v = np.linspace(-panels, panels, grid)
    # |x| is linear in |v| on each panel, the j-th out from the crossing at |v| in [j, j + 1]
    reach = np.abs(edges[::-1])
    j = np.minimum(np.abs(v).astype(int), panels - 1)
    s_nodes = 0.5 + np.copysign(reach[j] + (np.abs(v) - j) * (reach[j + 1] - reach[j]), v)
    s_nodes[0], s_nodes[-1] = 0.0, 1.0
    x_nodes = s_nodes - 0.5
    dt_ds_nodes = np.array([integrand(x) for x in x_nodes.tolist()])
    eps_t_nodes = node_integrals(pieces, -np.abs(x_nodes))
    after = x_nodes > 0.0  # the total less the time to go, read at the mirror node
    eps_t = 2.0 * half
    eps_t_nodes[after] = eps_t - eps_t_nodes[after]
    total_time = eps_t / precision.epsilon
    if not math.isfinite(total_time):
        raise ValueError(
            f"epsilon {precision.epsilon!r} is too small: the total time {eps_t:.17g} / epsilon overflows"
        )
    return TimeSchedule(total_time, eps_t_nodes / eps_t, s_nodes, eps_t / dt_ds_nodes)


def reproduce_table(n: int) -> list[RunTimeResult]:
    """One quadrature row per divisor of n (ascending), linear schedule."""
    n = _integer(n, "qubit count")
    if not 1 <= n <= MAX_BLOCK_QUBITS:  # the m = 1 row is one block of n qubits
        raise ValueError(f"n must be in [1, {MAX_BLOCK_QUBITS}], got {n}")
    return [running_time_integral(equal_splitting(n, m)) for m in range(1, n + 1) if n % m == 0]

