"""Dense reference implementations that the tests compare the package against.

The package holds H(s) only in its block structure: closed forms, the word
expansion ``final_terms`` and the per-block applier. The oracles here build
the full 2^n operators instead, expand a dense operator word by word, rebuild
a dense matrix from words, and contract a dense state against the product
ground state.
"""

from __future__ import annotations

import numpy as np

from adiasearch.core import MarkedState, Schedule, Splitting
from adiasearch.dynamics import _ground_amplitude, _ground_amplitudes
from adiasearch.hamiltonian import PauliTermSum, _check_dense_cap

# Word-by-word dense expansion costs O(6^n); refuse above this qubit count.
EXPANSION_CAP = 10
# Transform coefficients below this are rounding of a zero and are pruned.
COEFF_PRUNE_TOL = 1e-14


def build_initial(splitting: Splitting) -> np.ndarray:
    """Mixing Hamiltonian: one uniform-superposition projector penalty per block.

    Each block contributes identity minus the projector onto its local
    uniform superposition, acting as identity elsewhere, so the total ground
    state is the global uniform superposition at energy zero and the blocks
    evolve independently.
    """
    _check_dense_cap(splitting.n)
    dim = splitting.dim
    dense = np.zeros((dim, dim))
    left = 1
    for block_dim in splitting.block_dims:
        right = dim // (left * block_dim)
        block = np.eye(block_dim) - np.full((block_dim, block_dim), 1.0 / block_dim)
        dense += np.kron(np.kron(np.eye(left), block), np.eye(right))
        left *= block_dim
    return dense


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    """Parity of the bits selected by ``mask`` in each value (vectorized)."""
    v = np.bitwise_and(values, mask)
    for shift in (16, 8, 4, 2, 1):
        v = np.bitwise_xor(v, v >> shift)
    return np.bitwise_and(v, 1)


def _word_masks(n: int, word: str) -> tuple[int, int]:
    """Bit masks of the X and Z letters; qubit 1 maps to the top bit."""
    x_mask = z_mask = 0
    for pos, letter in enumerate(word):
        bit = 1 << (n - 1 - pos)
        if letter == "X":
            x_mask |= bit
        elif letter == "Z":
            z_mask |= bit
    return x_mask, z_mask


def to_dense(terms: PauliTermSum) -> np.ndarray:
    """Rebuild the dense matrix of a word sum (bounded by the dense cap)."""
    _check_dense_cap(terms.n)
    dim = 1 << terms.n
    idx = np.arange(dim)
    out = np.zeros((dim, dim))
    for coeff, word in terms.terms:
        x_mask, z_mask = _word_masks(terms.n, word)
        signs = 1.0 - 2.0 * _parity(idx, z_mask)
        out[np.bitwise_xor(idx, x_mask), idx] += coeff * signs
    return out


def _masks_to_word(n: int, x_mask: int, z_mask: int) -> str:
    letters = []
    for pos in range(n):
        bit = 1 << (n - 1 - pos)
        if x_mask & bit:
            letters.append("X")
        elif z_mask & bit:
            letters.append("Z")
        else:
            letters.append("I")
    return "".join(letters)


def _walsh_transform(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, out[z] = sum_u (-1)^{z.u} vec[u]."""
    out = vec.copy()
    h = 1
    while h < out.size:
        out = out.reshape(-1, 2 * h)
        top = out[:, :h] + out[:, h:]
        bot = out[:, :h] - out[:, h:]
        out = np.concatenate([top, bot], axis=1)
        h *= 2
    return out.reshape(-1)


def pauli_expansion(op: np.ndarray) -> PauliTermSum:
    """Expand a real symmetric operator over I/X/Z tensor-product words.

    Exact for everything the builders produce (projector sums, diagonal
    clause counters, and their interpolations). Inputs with components
    outside that family, or larger than the expansion cap, are rejected.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    dim = op.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 1:
        raise ValueError(f"operator dimension {dim} is not a power of two")
    if n > EXPANSION_CAP:
        raise ValueError(f"n={n} exceeds the expansion cap of {EXPANSION_CAP} qubits")
    if np.iscomplexobj(op):
        if np.abs(op.imag).max() > 1e-12:
            raise ValueError("unsupported operator: complex entries")
        op = op.real
    op = op.astype(float)
    if np.abs(op - op.T).max() > 1e-12:
        raise ValueError("unsupported operator: not symmetric")

    idx = np.arange(dim)
    terms = []
    captured = 0.0
    for x_mask in range(dim):
        # fix the flip pattern, then read all phase patterns in one transform
        slice_vals = op[np.bitwise_xor(idx, x_mask), idx]
        coeffs = _walsh_transform(slice_vals) / dim
        for z_mask in np.nonzero(np.abs(coeffs) > COEFF_PRUNE_TOL)[0]:
            z_mask = int(z_mask)
            if z_mask & x_mask:
                continue  # overlapping X and Z on one site is outside the family
            coeff = float(coeffs[z_mask])
            captured += coeff * coeff
            terms.append((coeff, _masks_to_word(n, x_mask, z_mask)))
    total = float(np.sum(op * op))
    if total - captured * dim > 1e-10 * max(total, 1.0):
        raise ValueError(
            "unsupported operator: contains factors outside the identity/flip/phase family"
        )
    return PauliTermSum(n, tuple(terms))


def instantaneous_ground_overlap(
    state: np.ndarray,
    splitting: Splitting,
    marked: MarkedState,
    schedule: Schedule,
    s: float,
) -> float:
    """Squared overlap of ``state`` with the instantaneous ground state,
    contracted one block axis at a time against the block closed forms."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    dims = splitting.float_block_dims()
    c_marked, c_perp = _ground_amplitudes(dims, float(schedule.f(s)), float(schedule.g(s)))
    amplitude = np.asarray(state).reshape(splitting.block_dims)
    for index, cm, cp in zip(marked.block_values(splitting), c_marked, c_perp):
        amplitude = _ground_amplitude(amplitude, index, cm, cp)
    return float(abs(amplitude) ** 2)
