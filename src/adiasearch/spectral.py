"""Closed-form spectral quantities for split adiabatic searches.

Per-block energy gaps, the one adiabaticity ratio of the whole package
(``adiabatic_ratio``), the product-state eigenvalue ladder of the fully split
search, level degeneracies, and tabulated gap profiles over the interpolation
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID, Schedule, Splitting, _integer, _real

# Profile minima are refined from the grid to this bracket width, relative to s.
_REFINE_TOL = 1e-12
_GOLDEN = 0.61803399  # 2 / (1 + sqrt(5)), to the digits scipy's golden search uses


def subsystem_gap(block_dim, f, g):
    """Gap between the two lowest levels of one search block.

    A block of dimension ``block_dim`` driven by f*(uniform-state projector
    penalty) + g*(target-state projector penalty) has spectral gap
    sqrt((f - g)**2 + 4*f*g/block_dim). Accepts array-valued f, g, or an
    array of block dimensions, each a real number >= 2. A scalar dimension
    may be an int of any size up to the double range, as Splitting.block_dims
    gives it.
    """
    dims = np.asarray(block_dim)
    if dims.ndim == 0 and not isinstance(block_dim, np.ndarray):  # an int past int64 is an object array
        dims = _real(block_dim, "block dimension")
    elif dims.dtype.kind not in "iuf":  # a bool, string or object array is no dimension
        raise ValueError(f"block dimension has the wrong type: expected a real number, got {block_dim!r}")
    if not np.all(dims >= 2):  # NaN fails too
        raise ValueError(f"block dimension must be >= 2, got {block_dim}")
    # d * d: a scalar's ** 2 goes through libm pow, an array's through x * x
    d = f - g
    return np.sqrt(d * d + (4.0 / dims) * f * g)


def adiabatic_ratio(block_dims: np.ndarray):
    """ratio(difference, f, g, df, dg): sqrt(sum_i r_i**2) at unit |ds/dt|, the
    quantity a bound-saturating schedule holds at epsilon. dH/ds couples block
    i's ground state only to its own excited direction, one gap omega_i above,
    so r_i = |f'g - g'f| sqrt(N_i - 1) / (N_i omega_i**3). omega_i**2 is formed
    from ``difference`` = f - g, as Schedule.difference gives it. Python floats
    give a scalar, arrays of shape (k, 1) an array of shape (k,).
    """
    weights = (block_dims - 1.0) / block_dims**2

    def ratio(difference, f, g, df, dg):
        drive = df * g - dg * f
        gaps_sq = difference * difference + (4.0 * f * g) / block_dims
        return np.sqrt((drive * drive * weights / gaps_sq**3).sum(axis=-1))

    return ratio


def max_structured_eigenvalue(n: int, spin_sum, f: float, g: float) -> float:
    """Energy of the fully split (one clause per qubit) Hamiltonian.

    Levels are labelled by the half-integer ladder spin_sum in
    {-n/2, ..., n/2}; the ground state sits at spin_sum = n/2. The value is
    (n/2)*(f + g) - spin_sum*sqrt(f**2 + g**2).
    """
    n = _integer(n, "qubit count")
    spin_sum, f, g = (_real(x, what) for x, what in ((spin_sum, "spin sum"), (f, "f"), (g, "g")))
    two_m = 2.0 * spin_sum
    if not math.isfinite(two_m):
        raise ValueError(f"spin sum {spin_sum} outside the ladder for n={n}")
    if abs(two_m - round(two_m)) > 1e-12:
        raise ValueError(f"spin sum must step in halves, got {spin_sum}")
    if (round(two_m) - n) % 2 != 0 or abs(spin_sum) > n / 2 + 1e-12:
        raise ValueError(f"spin sum {spin_sum} outside the ladder for n={n}")
    return 0.5 * n * (f + g) - spin_sum * math.hypot(f, g)


def max_structured_degeneracy(n: int, level: int) -> int:
    """Multiplicity of the level-th distinct energy of the fully split search.

    level 0 is the unique ground state, level 1 the n-fold degenerate first
    excited state; in general the count is binomial(n, level).
    """
    n = _integer(n, "qubit count")
    level = _integer(level, "level")
    if not 0 <= level <= n:
        raise ValueError(f"level must be in [0, {n}], got {level}")
    return math.comb(n, level)


@dataclass(frozen=True)
class GapProfile:
    """Per-block and global gaps sampled over the interpolation parameter."""

    splitting: Splitting
    s: np.ndarray
    block_gaps: np.ndarray  # shape (samples, num_blocks)
    global_gap: np.ndarray
    omega_min: float
    s_min: float


def gap_profile(splitting: Splitting, schedule: Schedule, grid: int = 1001) -> GapProfile:
    """Tabulate every block gap and the global gap on a uniform s grid.

    The blocks act on disjoint tensor factors, so the first excited total
    energy sits one smallest block gap above the ground energy and the
    global gap is the minimum over blocks. The minimum over s is refined by
    golden-section search around the best grid sample.
    """
    grid = _integer(grid, "grid")
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 2 and {MAX_GRID} samples, got {grid}")
    s = np.linspace(0.0, 1.0, grid)
    f = np.asarray(schedule.f(s), dtype=float)
    g = np.asarray(schedule.g(s), dtype=float)
    dims = splitting.float_block_dims()
    block_gaps = subsystem_gap(dims, f[:, None], g[:, None])
    global_gap = block_gaps.min(axis=1)

    def omega(x):
        return subsystem_gap(dims, schedule.f(x), schedule.g(x)).min()

    k = int(np.argmin(global_gap))
    s_min, omega_min = s[k], float(global_gap[k])
    if 0 < k < grid - 1 and global_gap[k] < min(global_gap[k - 1], global_gap[k + 1]):
        refined = _golden_minimum(omega, s[k - 1], s[k], s[k + 1])
        if refined is not None and refined[1] <= omega_min:
            s_min, omega_min = float(np.clip(refined[0], 0.0, 1.0)), float(refined[1])
    return GapProfile(splitting, s, block_gaps, global_gap, omega_min, s_min)


def _golden_minimum(func, lo: float, mid: float, hi: float):
    """(x, func(x)) at a minimum inside the bracket lo < mid < hi, by golden-section search.

    The steps are those of scipy's minimize_scalar(method="golden"). Returns
    None when func(mid) is not below both ends, as can happen when the
    bracket is degenerate.
    """
    f_mid = func(mid)
    if not (f_mid < func(lo) and f_mid < func(hi)):
        return None
    x0, x3 = lo, hi
    if hi - mid > mid - lo:
        x1, x2 = mid, mid + (1.0 - _GOLDEN) * (hi - mid)
    else:
        x1, x2 = mid - (1.0 - _GOLDEN) * (mid - lo), mid
    f1, f2 = func(x1), func(x2)
    for _ in range(5000):  # scipy's iteration cap
        if abs(x3 - x0) <= _REFINE_TOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GOLDEN * x2 + (1.0 - _GOLDEN) * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN * x1 + (1.0 - _GOLDEN) * x0
            f2, f1 = f1, func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)
