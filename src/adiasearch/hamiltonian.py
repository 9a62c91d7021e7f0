"""Explicit operator construction at desk scale.

Dense matrices for the mixing and problem Hamiltonians of any splitting,
their expansion over tensor-product words of single-qubit factors
(identity / bit flip X / phase Z), interaction-locality metrics, and a
matrix-free applier that the time integrator runs on each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import MarkedState, Schedule, Splitting

# Dense 2^n x 2^n matrices are refused above this qubit count (4096-dim).
DENSE_CAP = 12
# Word-by-word dense expansion costs O(6^n); refuse above this qubit count.
EXPANSION_CAP = 10
# Largest block size the symbolic problem-operator expansion will unfold.
EXPANSION_BLOCK_CAP = 20
# Most letters (terms times n) the expansion will write: one block at
# EXPANSION_BLOCK_CAP, 2^20 words of 20 letters.
EXPANSION_LETTER_BUDGET = EXPANSION_BLOCK_CAP << EXPANSION_BLOCK_CAP
# Expansion coefficients below this are structurally zero and pruned.
COEFF_PRUNE_TOL = 1e-14

_WORD_LETTERS = frozenset("IXZ")


def _word_weight(word: str) -> int:
    return sum(1 for c in word if c != "I")


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    """Parity of the bits selected by ``mask`` in each value (vectorized)."""
    v = np.bitwise_and(values, mask)
    for shift in (16, 8, 4, 2, 1):
        v = np.bitwise_xor(v, v >> shift)
    return np.bitwise_and(v, 1)


@dataclass(frozen=True)
class PauliTermSum:
    """Weighted sum of length-n words over the single-qubit factors I, X, Z.

    Qubit 1 is the leftmost letter of a word. Coefficients are real, every
    factor is symmetric, so the represented operator is real symmetric.
    Words are unique and stored sorted by (weight, word).
    """

    n: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        seen = set()
        for coeff, word in self.terms:
            if len(word) != self.n or set(word) - _WORD_LETTERS:
                raise ValueError(f"bad word {word!r} for n={self.n}")
            if word in seen:
                raise ValueError(f"duplicate word {word!r}")
            seen.add(word)
        ordered = tuple(sorted(self.terms, key=lambda t: (_word_weight(t[1]), t[1])))
        object.__setattr__(self, "terms", ordered)

    @property
    def max_weight(self) -> int:
        """Largest number of non-identity letters in any word."""
        return max((_word_weight(w) for _, w in self.terms), default=0)

    def coefficient(self, word: str) -> float:
        for coeff, w in self.terms:
            if w == word:
                return coeff
        return 0.0

    def to_dense(self) -> np.ndarray:
        """Rebuild the dense matrix (bounded by the dense cap)."""
        _check_dense_cap(self.n)
        dim = 1 << self.n
        idx = np.arange(dim)
        out = np.zeros((dim, dim))
        for coeff, word in self.terms:
            x_mask, z_mask = _word_masks(self.n, word)
            signs = 1.0 - 2.0 * _parity(idx, z_mask)
            out[np.bitwise_xor(idx, x_mask), idx] += coeff * signs
        return out


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


def _check_dense_cap(n: int):
    if n > DENSE_CAP:
        raise ValueError(f"n={n} exceeds the dense operator cap of {DENSE_CAP} qubits")


def build_initial(splitting: Splitting):
    """Mixing Hamiltonian: one uniform-superposition projector penalty per block.

    Each block contributes identity minus the projector onto its local
    uniform superposition, acting as identity elsewhere, so the total ground
    state is the global uniform superposition at energy zero and the blocks
    evolve independently.

    Returns (dense, terms); the word expansion is provided only for the
    maximal split, where the operator is a sum of single-qubit X factors.
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
    terms = None
    if splitting.is_maximal():
        n = splitting.n
        out = [(0.5 * n, "I" * n)]
        for q in range(n):
            word = "I" * q + "X" + "I" * (n - 1 - q)
            out.append((-0.5, word))
        terms = PauliTermSum(n, tuple(out))
    return dense, terms


def final_diagonal(splitting: Splitting, marked: MarkedState) -> np.ndarray:
    """Diagonal of the problem Hamiltonian: violated-block count per index."""
    targets = marked.block_values(splitting)
    _check_dense_cap(splitting.n)
    idx = np.arange(splitting.dim)
    diag = np.zeros(splitting.dim)
    for (shift, mask), target in zip(splitting.block_fields(), targets):
        diag += (np.bitwise_and(idx >> shift, mask) != target).astype(float)
    return diag


def check_expansion_budget(splitting: Splitting):
    """Refuse an expansion past EXPANSION_BLOCK_CAP or EXPANSION_LETTER_BUDGET, before any work for it."""
    for size in splitting.parts:
        if size > EXPANSION_BLOCK_CAP:
            raise ValueError(
                f"block of {size} qubits exceeds the expansion cap of {EXPANSION_BLOCK_CAP}"
            )
    # the identity word plus every non-empty Z subset of each block
    count = 1 + sum((1 << size) - 1 for size in splitting.parts)
    if count * splitting.n > EXPANSION_LETTER_BUDGET:
        raise ValueError(
            f"expansion of {count} terms of {splitting.n} letters exceeds the "
            f"letter budget of {EXPANSION_LETTER_BUDGET}"
        )


def final_terms(splitting: Splitting, marked: MarkedState) -> PauliTermSum:
    """Word expansion of the problem Hamiltonian, without the dense matrix.

    The budget of :func:`check_expansion_budget` is checked before expanding.
    """
    check_expansion_budget(splitting)
    marked.block_values(splitting)  # refuses a marked state of the wrong length
    n = splitting.n
    identity_coeff = 0.0
    terms = []
    offset = 0
    for size in splitting.parts:
        positions = range(offset, offset + size)
        scale = 1.0 / (1 << size)
        identity_coeff += 1.0 - scale
        for r in range(1, size + 1):
            for subset in combinations(positions, r):
                sign = 1.0 if sum(marked.bits[p] for p in subset) % 2 == 0 else -1.0
                letters = ["I"] * n
                for p in subset:
                    letters[p] = "Z"
                terms.append((-sign * scale, "".join(letters)))
        offset += size
    out = [(identity_coeff, "I" * n)] if abs(identity_coeff) > COEFF_PRUNE_TOL else []
    out += [(c, w) for c, w in terms if abs(c) > COEFF_PRUNE_TOL]
    return PauliTermSum(n, tuple(out))


def build_final(splitting: Splitting, marked: MarkedState):
    """Problem Hamiltonian: one oracle clause per block.

    Diagonal in the computational basis; a basis state's energy counts the
    blocks whose restriction differs from the marked restriction, so the
    marked state is the unique zero-energy ground state. Returns
    (dense, terms), the terms from :func:`final_terms`.
    """
    dense = np.diag(final_diagonal(splitting, marked))
    return dense, final_terms(splitting, marked)


def combine(h_initial: np.ndarray, h_final: np.ndarray, schedule: Schedule, s: float) -> np.ndarray:
    """Interpolated Hamiltonian f(s) * h_initial + g(s) * h_final."""
    h_initial = np.asarray(h_initial)
    h_final = np.asarray(h_final)
    if h_initial.shape != h_final.shape:
        raise ValueError(f"shape mismatch: {h_initial.shape} vs {h_final.shape}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    return schedule.f(s) * h_initial + schedule.g(s) * h_final


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


def locality_weight(splitting: Splitting) -> int:
    """Largest number of qubits any single problem-operator term couples."""
    return max(splitting.parts)


def build_overlapping(n: int, marked: MarkedState) -> np.ndarray:
    """Chained neighbor-pair oracle: one clause per adjacent qubit pair.

    Clause i penalizes any assignment whose bits (i, i+1) differ from the
    marked bits, so the pairs overlap and the marked state is the unique
    zero of the diagonal. No closed-form gap or running time is attached to
    this operator; it exists for direct numerical study.
    """
    if n < 2:
        raise ValueError(f"need at least 2 qubits for pair clauses, got {n}")
    _check_dense_cap(n)
    (target,) = marked.block_values(Splitting(n, (n,)))
    dim = 1 << n
    idx = np.arange(dim)
    diag = np.zeros(dim)
    for i in range(n - 1):
        shift = n - 2 - i
        diag += ((np.bitwise_and(idx >> shift, 3)) != ((target >> shift) & 3)).astype(float)
    return np.diag(diag)


class MatrixFreeHamiltonian:
    """Applies f * H_initial + g * H_final without dense matrices.

    Read-only after construction and reentrant: safe to share across
    concurrent evolutions. The problem part is the stored ``final_diagonal``
    (so the dense cap applies); the mixing part subtracts each block's
    uniform average via reshapes. ``evolve`` builds one per distinct block
    size, on the one-block splitting of that size with the marked entry at
    index 0; on a whole splitting it applies the 2^n operator.
    """

    def __init__(self, splitting: Splitting, marked: MarkedState):
        self.final_diag = final_diagonal(splitting, marked)
        self.splitting = splitting
        self.marked = marked
        self._marked_index = marked.index
        dim = splitting.dim
        shapes = []
        left = 1
        for block_dim in splitting.block_dims:
            right = dim // (left * block_dim)
            shapes.append((left, block_dim, right))
            left *= block_dim
        self._shapes = tuple(shapes)

    def apply(self, f: float, g: float, psi: np.ndarray) -> np.ndarray:
        """(f * H_initial + g * H_final) @ psi; linear in f and g."""
        if len(self._shapes) == 1:
            # one block: H_final is 1 off the marked entry and 0 on it, and the
            # block sum is the whole sum; rounds as the general form below does
            out = (f + g) * psi
            out[self._marked_index] = f * psi[self._marked_index]
            out -= (f / psi.size) * psi.sum()
            return out
        out = (f * self.splitting.num_blocks + g * self.final_diag) * psi
        for shape in self._shapes:
            # f / N times the block sum equals f times the block mean to the
            # last bit, N being a power of two, without np.mean's overhead
            block_sum = psi.reshape(shape).sum(axis=1, keepdims=True)
            out.reshape(shape)[...] -= (f / shape[1]) * block_sum
        return out

    def norm_bound(self, f: float, g: float) -> float:
        """Upper bound on the spectral norm of f * H_initial + g * H_final."""
        return (abs(f) + abs(g)) * self.splitting.num_blocks
