"""The search Hamiltonian as its blocks define it, at desk scale.

The problem operator's expansion over tensor-product words of single-qubit
factors (identity / bit flip X / phase Z), built block by block without a
dense matrix, the problem diagonal, and a matrix-free applier, which
``evolve`` runs on one block's vector per block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import MarkedState, Splitting

# Largest qubit count of one 2^n-entry vector: evolve's per-block state and
# final_diagonal's diagonal (4096 entries). No 2^n x 2^n matrix is built.
DENSE_CAP = 12
# Largest block size the symbolic problem-operator expansion will unfold.
EXPANSION_BLOCK_CAP = 20
# Most letters (terms times n) the expansion will write: one block at
# EXPANSION_BLOCK_CAP, 2^20 words of 20 letters.
EXPANSION_LETTER_BUDGET = EXPANSION_BLOCK_CAP << EXPANSION_BLOCK_CAP

_WORD_LETTERS = frozenset("IXZ")


def _word_weight(word: str) -> int:
    return sum(1 for c in word if c != "I")


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


def _check_dense_cap(n: int):
    if n > DENSE_CAP:
        raise ValueError(f"n={n} exceeds the dense operator cap of {DENSE_CAP} qubits")


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
    # every coefficient is +-2^-size and the identity's is at least 1/2, so none is zero
    return PauliTermSum(n, ((identity_coeff, "I" * n), *terms))


class MatrixFreeHamiltonian:
    """Applies f * H_initial + g * H_final without dense matrices.

    Read-only after construction and reentrant: safe to share across
    concurrent evolutions. ``final_diagonal`` is stored, so the dense cap
    applies. ``evolve`` builds one per distinct block size, on the
    one-block splitting of that size with the marked entry at index 0, and
    applies only the one-block form. On a splitting of several blocks the
    applier subtracts each block's uniform average via reshapes; only the
    benchmark's matvec timer (``perfbench/run.py``, which builds it on a
    whole splitting) and the tests reach that form.
    """

    def __init__(self, splitting: Splitting, marked: MarkedState):
        self.final_diag = final_diagonal(splitting, marked)
        self.splitting = splitting
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
