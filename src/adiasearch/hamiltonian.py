"""The search Hamiltonian as its blocks define it, at desk scale.

The problem operator's expansion over tensor-product words of identity and
phase (Z) factors, generated from its closed form in (weight, word) order
without a dense matrix or a sort, the problem diagonal, and a matrix-free
applier, which ``evolve`` runs on one block's vector per block size.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .core import MarkedState, Splitting

# Largest qubit count of one 2^n-entry vector: evolve's per-block state and
# final_diagonal's diagonal (4096 entries). No 2^n x 2^n matrix is built.
DENSE_CAP = 12
# Most letters (terms times n) the expansion will write: one 20-qubit
# block, 2^20 words of 20 letters. A block of q >= 21 qubits alone writes
# at least q * 2^q >= 21 * 2^21 letters, so no block past 20 qubits fits.
EXPANSION_LETTER_BUDGET = 20 << 20

# a block's Z mask, written in binary, to its letters
_LETTERS = str.maketrans("01", "IZ")


def final_diagonal(splitting: Splitting, marked: MarkedState) -> np.ndarray:
    """Diagonal of the problem Hamiltonian: violated-block count per index; refused past DENSE_CAP qubits."""
    targets = marked.block_values(splitting)
    if splitting.n > DENSE_CAP:
        raise ValueError(f"n={splitting.n} exceeds the dense operator cap of {DENSE_CAP} qubits")
    idx = np.arange(splitting.dim)
    diag = np.zeros(splitting.dim)
    for (shift, mask), target in zip(splitting.block_fields(), targets):
        diag += (np.bitwise_and(idx >> shift, mask) != target).astype(float)
    return diag


def final_terms(splitting: Splitting, marked: MarkedState) -> Iterator[tuple[float, str]]:
    """Word expansion of the problem Hamiltonian, as (coefficient, word) pairs.

    Block i's term, identity minus the projector onto its target t_i, is
    (1 - 2^-n_i) I - 2^-n_i sum over non-empty Z masks z of (-1)^popcount(z & t_i) Z_z.
    So no word spans two blocks, the heaviest word is the largest block, and
    no coefficient is zero. The words come unique and sorted by (weight,
    word), I before Z: the identity, then for each weight the blocks from
    last to first, each block's masks in ascending value (the leftmost
    qubit is the top bit). The letter budget EXPANSION_LETTER_BUDGET (terms
    times n) and the marked state's length are checked at the call, before
    any word; words are made as they are iterated.
    """
    n = splitting.n
    # the identity word plus every non-empty Z subset of each block
    count = 1 + sum((1 << size) - 1 for size in splitting.parts)
    if count * n > EXPANSION_LETTER_BUDGET:
        raise ValueError(
            f"expansion of {count} terms of {n} letters exceeds the letter budget of {EXPANSION_LETTER_BUDGET}"
        )
    blocks = list(zip(splitting.parts, splitting.block_fields(), marked.block_values(splitting)))

    def terms():
        # every 1 - 2^-n_i and every partial sum is a double exactly
        yield sum(1.0 - 1.0 / (1 << size) for size in splitting.parts), "I" * n
        for weight in range(1, max(splitting.parts) + 1):
            for size, (shift, _), target in reversed(blocks):
                scale, left, right = 1.0 / (1 << size), "I" * (n - shift - size), "I" * shift
                mask = (1 << weight) - 1
                while mask >> size == 0:
                    coeff = scale if (mask & target).bit_count() & 1 else -scale
                    yield coeff, left + format(mask, f"0{size}b").translate(_LETTERS) + right
                    # the next larger mask with as many bits set (Gosper's hack)
                    low = mask & -mask
                    high = mask + low
                    mask = high | ((high ^ mask) >> 2) // low

    return terms()


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
