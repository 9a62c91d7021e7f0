"""Shared problem definitions for structured adiabatic search.

A search problem is described by a :class:`Splitting` (how the n qubits are
partitioned into independently searched blocks), a :class:`MarkedState` (the
unique satisfying assignment), the coupling f = 1 - s of the linear path
(:class:`LinearSchedule`, g = s being plain arithmetic), and a
:class:`Precision` bundle for the numerical routines. All types here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Largest block the floating-point paths (closed-form gaps, quadratures,
# spectral probe) accept. 64 is the largest block the running-time checks
# cover (the m = 1 row of the n = 64 table); a block's gap minimum narrows
# as 2^(-n_i/2), below the float spacing near s = 1/2 past about 106
# qubits, and 2^1024 no longer fits in a double at all.
MAX_BLOCK_QUBITS = 64
# Most blocks a splitting may have: the widest row of the n = 64 table. It
# bounds every per-block array before the block sizes are built.
MAX_BLOCKS = 64
# Most s samples a gap profile or schedule tabulation takes, and how many it
# takes by default. A sample costs one scalar rate, so the cap bounds the time.
MAX_GRID = 1 << 16
DEFAULT_GRID = 1001


@dataclass(frozen=True)
class Splitting:
    """Contiguous partition of ``n`` qubits into blocks of sizes ``parts``.

    Qubit 1 is the most significant bit of a basis-state index. Block 1
    covers qubits 1..parts[0], block 2 the next run, and so on. A single
    block of size n is the unstructured search; n blocks of size 1 the
    maximally structured one.
    """

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "qubit count"))
        object.__setattr__(self, "parts", tuple(_integer(p, "block size") for p in self.parts))
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if not self.parts:
            raise ValueError("parts must be a non-empty list of block sizes")
        _check_block_count(len(self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError(f"every block size must be >= 1, got {self.parts}")
        if sum(self.parts) != self.n:
            raise ValueError(
                f"block sizes {list(self.parts)} sum to {sum(self.parts)}, expected n={self.n}"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.parts)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension 2**n."""
        return 1 << self.n

    @property
    def block_dims(self) -> tuple[int, ...]:
        """Per-block dimensions 2**n_i."""
        return tuple(1 << p for p in self.parts)

    def size_counts(self) -> tuple[tuple[int, int], ...]:
        """(size, count) of each distinct block size, ascending: the one grouping
        of blocks by size, so results depend on the multiset of sizes only.

        Raises ValueError for a block of more than MAX_BLOCK_QUBITS qubits.
        """
        largest = max(self.parts)
        if largest > MAX_BLOCK_QUBITS:
            raise ValueError(
                f"block of {largest} qubits exceeds the floating-point cap of "
                f"{MAX_BLOCK_QUBITS} qubits per block"
            )
        return tuple((size, self.parts.count(size)) for size in sorted(set(self.parts)))

    def block_fields(self) -> list[tuple[int, int]]:
        """(shift, mask) pairs that extract each block's bits from an index."""
        fields = []
        shift = self.n
        for p in self.parts:
            shift -= p
            fields.append((shift, (1 << p) - 1))
        return fields


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, float or string is refused, not truncated or parsed."""
    return _real(value, what, (int, np.integer), "an integer", int)


def _real(value, what: str, kinds=numbers.Real, noun: str = "a real number", kind=float):
    """``value`` as ``kind``, a float unless given; refused if a bool, not of ``kinds`` or too big for ``kind``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
        raise ValueError(f"{what} has the wrong type: expected {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} is past the double range") from None


def _check_block_count(count: int):
    if count > MAX_BLOCKS:
        raise ValueError(f"{count} blocks exceed the cap of {MAX_BLOCKS} blocks")


def make_splitting(n: int, parts) -> Splitting:
    """Validated splitting of ``n`` qubits into the given block sizes."""
    return Splitting(n, tuple(parts))


def equal_splitting(n: int, num_blocks: int) -> Splitting:
    """Splitting of ``n`` qubits into ``num_blocks`` blocks of equal size."""
    n = _integer(n, "qubit count")
    num_blocks = _integer(num_blocks, "number of blocks")
    if num_blocks < 1:
        raise ValueError(f"number of blocks must be >= 1, got {num_blocks}")
    if n % num_blocks != 0:
        raise ValueError(f"{num_blocks} does not divide n={n}")
    _check_block_count(num_blocks)
    return Splitting(n, (n // num_blocks,) * num_blocks)


@dataclass(frozen=True)
class MarkedState:
    """Target bit assignment z_1 ... z_n, qubit 1 first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(_integer(b, "marked bit") for b in self.bits))
        if not self.bits:
            raise ValueError("marked state needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"marked bits must be 0 or 1, got {self.bits}")

    @classmethod
    def from_string(cls, text: str) -> "MarkedState":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"marked state must be a non-empty bitstring, got {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def zeros(cls, n: int) -> "MarkedState":
        return cls((0,) * _integer(n, "qubit count"))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Basis-state index with qubit 1 as the most significant bit."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def block_values(self, splitting: Splitting) -> tuple[int, ...]:
        """Restriction of the assignment to each block, as block-local indices."""
        if len(self.bits) != splitting.n:
            raise ValueError(
                f"marked state has {len(self.bits)} bits, splitting expects {splitting.n}"
            )
        idx = self.index
        return tuple((idx >> shift) & mask for shift, mask in splitting.block_fields())

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


class LinearSchedule:
    """The coupling f(s) = 1 - s of the linear path, the one path of every search.

    A curved path (f, g) adds nothing to it: with lambda = f + g and
    sigma = g / (f + g), H(s) = lambda H_lin(sigma), the linear path run in
    the rescaled time integral of lambda dt. Its g = s and f - g are plain
    arithmetic. A class only so that the two runtime entry points that take
    ``schedule=`` can take the benchmark's subclass that counts calls to f.
    """

    def f(self, s):
        return 1.0 - s


@dataclass(frozen=True)
class Precision:
    """Accuracy settings shared by the quadrature and evolution routines.

    epsilon is the adiabaticity parameter; ode_steps_per_unit_time the
    fixed-step resolution of the state integrator, in steps per unit of time.
    """

    epsilon: float = 0.2
    ode_steps_per_unit_time: int = 64

    def __post_init__(self):
        if not 0.0 < _real(self.epsilon, "epsilon") < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        steps = _integer(self.ode_steps_per_unit_time, "ode_steps_per_unit_time")
        object.__setattr__(self, "ode_steps_per_unit_time", steps)
        if steps < 1:
            raise ValueError(f"ode_steps_per_unit_time must be >= 1, got {steps}")
