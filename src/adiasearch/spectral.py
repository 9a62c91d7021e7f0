"""Closed-form spectral quantities for split adiabatic searches.

Per-block energy gaps, the one adiabaticity ratio of the whole package
(``adiabatic_ratio``), the product-state eigenvalue ladder of the fully split
search, level degeneracies, and tabulated gap profiles over the interpolation
parameter. The ratio and the profiles take each distinct block size once,
from Splitting.size_counts. A profile's minimum is the largest block's gap
at the crossing s = 1/2 of the linear path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_GRID, MAX_GRID, Splitting, _integer, _real


def subsystem_gap(block_dim, f, g):
    """Gap between the two lowest levels of one search block.

    A block of dimension ``block_dim`` driven by f*(uniform-state projector
    penalty) + g*(target-state projector penalty) has spectral gap
    sqrt((f - g)**2 + 4*f*g/block_dim). Accepts array-valued f, g, and a
    block dimension that is a scalar, an array or a sequence such as
    Splitting.block_dims; each entry is read as a real number >= 2, an int
    of any size up to the double range.
    """
    entries = np.asarray(block_dim, dtype=object)
    dims = np.array([_real(d, "block dimension") for d in entries.flat]).reshape(entries.shape)
    if not np.all(dims >= 2):  # NaN fails too
        raise ValueError(f"block dimension must be >= 2, got {block_dim}")
    # d * d: a scalar's ** 2 goes through libm pow, an array's through x * x
    d = f - g
    return np.sqrt(d * d + (4.0 / dims) * f * g)


def adiabatic_ratio(splitting: Splitting):
    """ratio(difference, f, g): sqrt(sum_i r_i**2) at unit |ds/dt|, the
    quantity a bound-saturating schedule holds at epsilon. dH/ds couples block
    i's ground state only to its own excited direction, one gap omega_i above,
    so r_i = |f'g - g'f| sqrt(N_i - 1) / (N_i omega_i**3). On the linear path
    f'g - g'f is -(f + g), and (-1.0) * g - 1.0 * f rounds exactly as
    -(f + g), so the drive f + g keeps every bit of the general form.
    omega_i**2 is formed from ``difference`` = f - g, which the running time
    passes as -2x, exact in the offset x from s = 1/2. The sum runs over the
    distinct sizes of Splitting.size_counts, weighted by their counts. Python
    floats give a scalar, arrays of shape (k, 1) an array of shape (k,).
    """
    sizes, counts = zip(*splitting.size_counts())
    dims = np.array([float(1 << size) for size in sizes])
    weights = np.array(counts) * ((dims - 1.0) / (dims * dims))

    def ratio(difference, f, g):
        # products, not numpy's power kernel, whose bits follow the SIMD level
        drive = f + g
        gaps_sq = difference * difference + (4.0 * f * g) / dims
        return np.sqrt((drive * drive * weights / (gaps_sq * gaps_sq * gaps_sq)).sum(axis=-1))

    return ratio


def _ladder_level(n, level) -> tuple[int, int]:
    """(n, level) as ints with 0 <= level <= n, an index of the fully split ladder."""
    n, level = _integer(n, "qubit count"), _integer(level, "level")
    if not 0 <= level <= n:
        raise ValueError(f"level must be in [0, {n}], got {level}")
    return n, level


def max_structured_eigenvalue(n: int, level: int, f: float, g: float) -> float:
    """Energy (n/2)*(f + g) - (n/2 - level)*sqrt(f**2 + g**2) of the fully split
    (one clause per qubit) search at its level-th distinct level; 0 is the ground state."""
    n, level = _ladder_level(n, level)
    half, f, g = 0.5 * _real(n, "qubit count"), _real(f, "f"), _real(g, "g")
    return half * (f + g) - (half - level) * math.hypot(f, g)


def max_structured_degeneracy(n: int, level: int) -> int:
    """Multiplicity binomial(n, level) of the level-th distinct energy of the
    fully split search: 1 for the ground state, n for the first excited one."""
    return math.comb(*_ladder_level(n, level))


@dataclass(frozen=True)
class GapProfile:
    """Per-size and global gaps sampled over the interpolation parameter."""

    splitting: Splitting
    s: np.ndarray
    size_gaps: np.ndarray  # (samples, distinct sizes) in size_counts order; block i's is its size's column
    omega_min: float
    s_min: float

    @property
    def global_gap(self) -> np.ndarray:
        """The largest block's gap: each 4fg/N_i is 4/N_i times one rounded fg,
        so it is the smallest of each sample's block gaps, bit for bit."""
        return self.size_gaps[:, -1]


def gap_profile(splitting: Splitting, grid: int = DEFAULT_GRID) -> GapProfile:
    """Tabulate the gap of every distinct block size and the global gap on a
    uniform s grid of the linear path (f, g) = (1 - s, s).

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
    sizes = [size for size, _ in splitting.size_counts()]
    columns = subsystem_gap([1 << size for size in sizes], 1.0 - s[:, None], s[:, None])
    omega_min = float(subsystem_gap(1 << sizes[-1], 0.5, 0.5))
    return GapProfile(splitting, s, columns, omega_min, 0.5)
