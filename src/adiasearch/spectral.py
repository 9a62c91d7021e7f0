"""Closed-form spectral quantities for split adiabatic searches.

Per-block energy gaps, the one adiabaticity ratio of the whole package
(``adiabatic_ratio``), the product-state eigenvalue ladder of the fully split
search, level degeneracies, and tabulated gap profiles over the interpolation
parameter. A profile's minimum is the largest block's gap at the crossing
s = 1/2 of the linear path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID, LinearSchedule, Splitting, _integer, _real


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
    from ``difference`` = f - g, as LinearSchedule.difference gives it. Python
    floats give a scalar, arrays of shape (k, 1) an array of shape (k,).
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


def gap_profile(splitting: Splitting, schedule: LinearSchedule, grid: int = 1001) -> GapProfile:
    """Tabulate every block gap and the global gap on a uniform s grid.

    The blocks act on disjoint tensor factors, so the first excited total
    energy sits one smallest block gap above the ground energy. As
    omega_i**2 = (f - g)**2 + 4fg/N_i with fg >= 0, that is the largest
    block's gap, whose minimum over s is at the crossing s = 1/2, on the
    grid or between two samples: omega_min = 1/sqrt(N_max).
    """
    grid = _integer(grid, "grid")
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must have between 2 and {MAX_GRID} samples, got {grid}")
    s = np.linspace(0.0, 1.0, grid)
    f = np.asarray(schedule.f(s), dtype=float)
    g = np.asarray(schedule.g(s), dtype=float)
    dims = splitting.float_block_dims()
    block_gaps = subsystem_gap(dims, f[:, None], g[:, None])
    omega_min = float(subsystem_gap(float(dims.max()), schedule.f(0.5), schedule.g(0.5)))
    return GapProfile(splitting, s, block_gaps, block_gaps.min(axis=1), omega_min, 0.5)
