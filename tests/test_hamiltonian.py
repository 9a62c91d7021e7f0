import numpy as np
import pytest
from scipy.linalg import eigh

from adiasearch import cli
from adiasearch.core import LinearSchedule, MarkedState, make_splitting
from adiasearch.hamiltonian import (
    EXPANSION_LETTER_BUDGET,
    MatrixFreeHamiltonian,
    check_expansion_budget,
    final_diagonal,
    final_terms,
)
from adiasearch.spectral import subsystem_gap

from conftest import compositions, max_word_weight, random_splitting
from oracles import EXPANSION_CAP, build_initial, pauli_expansion, to_dense


def _violations_oracle(n, parts, marked_bits, index):
    """Count violated blocks by direct bit bookkeeping."""
    count = 0
    pos = 0
    for size in parts:
        shift = n - pos - size
        mask = (1 << size) - 1
        block_target = 0
        for b in marked_bits[pos : pos + size]:
            block_target = (block_target << 1) | b
        if (index >> shift) & mask != block_target:
            count += 1
        pos += size
    return count


def test_initial_single_qubit():
    dense = build_initial(make_splitting(1, [1]))
    np.testing.assert_allclose(dense, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    assert dict((w, c) for c, w in pauli_expansion(dense)) == {"I": 0.5, "X": -0.5}


def test_initial_two_qubit_unstructured():
    dense = build_initial(make_splitting(2, [2]))
    expected = np.eye(4) - np.full((4, 4), 0.25)
    np.testing.assert_allclose(dense, expected, atol=1e-15)
    values, vectors = eigh(dense)
    assert values[0] == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(np.abs(vectors[:, 0]), 0.5, atol=1e-12)


def test_initial_maximal_spectrum_counts_excited_qubits():
    dense = build_initial(make_splitting(3, [1, 1, 1]))
    values = eigh(dense, eigvals_only=True)
    np.testing.assert_allclose(values, [0, 1, 1, 1, 2, 2, 2, 3], atol=1e-12)
    terms = pauli_expansion(dense)
    assert max_word_weight(terms) == 1
    assert dict((w, c) for c, w in terms)["III"] == pytest.approx(1.5)


def test_initial_ground_state_is_uniform():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(1, 8))
        splitting = make_splitting(n, random_splitting(rng, n))
        dense = build_initial(splitting)
        values, vectors = eigh(dense)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), 2.0 ** (-n / 2), atol=1e-10)


def test_mixing_operator_locality_on_every_splitting():
    # the paper's locality claim for the mixing operator: a block's term is
    # identity minus a product of (I + X)/2 over its qubits, so its words are
    # X and I only and the heaviest couples the largest block
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        splitting = make_splitting(n, random_splitting(rng, n))
        terms = pauli_expansion(build_initial(splitting))
        assert all(set(word) <= {"I", "X"} for _, word in terms), splitting.parts
        assert max_word_weight(terms) == max(splitting.parts), splitting.parts
    # the maximal split: exactly n/2 * I - 1/2 * sum_q X_q
    for n in range(1, 9):
        terms = pauli_expansion(build_initial(make_splitting(n, [1] * n)))
        expected = {"I" * n: 0.5 * n}
        expected.update(("I" * q + "X" + "I" * (n - 1 - q), -0.5) for q in range(n))
        assert dict((w, c) for c, w in terms) == expected


def test_final_diagonal_examples():
    diag = final_diagonal(make_splitting(2, [2]), MarkedState.from_string("00"))
    np.testing.assert_allclose(diag, [0, 1, 1, 1], atol=0)
    diag = final_diagonal(make_splitting(2, [1, 1]), MarkedState.from_string("00"))
    np.testing.assert_allclose(diag, [0, 1, 1, 2], atol=0)
    diag = final_diagonal(make_splitting(4, [2, 2]), MarkedState.zeros(4))
    assert diag[0b0101] == 2
    assert sorted(set(diag.tolist())) == [0.0, 1.0, 2.0]


def test_final_diagonal_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(1, 9))
        parts = random_splitting(rng, n)
        bits = [int(b) for b in rng.integers(0, 2, n)]
        diag = final_diagonal(make_splitting(n, parts), MarkedState(tuple(bits)))
        for index in range(1 << n):
            assert diag[index] == _violations_oracle(n, parts, bits, index)


def test_final_is_diagonal_with_marked_ground_state():
    splitting = make_splitting(5, [2, 3])
    marked = MarkedState.from_string("10110")
    values, vectors = eigh(np.diag(final_diagonal(splitting, marked)))
    assert values[0] == pytest.approx(0.0, abs=1e-15)
    expected = np.zeros(32)
    expected[marked.index] = 1.0
    np.testing.assert_allclose(np.abs(vectors[:, 0]), expected, atol=1e-12)


def test_final_diagonal_validates_marked_length():
    with pytest.raises(ValueError):
        final_diagonal(make_splitting(3, [3]), MarkedState.from_string("01"))
    with pytest.raises(ValueError):
        final_terms(make_splitting(3, [3]), MarkedState.from_string("01"))


def test_combine_boundaries_and_gap():
    splitting = make_splitting(1, [1])
    h_initial = build_initial(splitting)
    h_final = np.diag(final_diagonal(splitting, MarkedState.zeros(1)))
    sched = LinearSchedule()

    def dense(s):
        return sched.f(s) * h_initial + sched.g(s) * h_final

    np.testing.assert_allclose(dense(0.0), h_initial, atol=0)
    np.testing.assert_allclose(dense(1.0), h_final, atol=0)
    values = eigh(dense(0.5), eigvals_only=True)
    assert values[1] - values[0] == pytest.approx(subsystem_gap(2, 0.5, 0.5), abs=1e-14)


def test_expansion_one_qubit_projector():
    op = np.diag([1.0, 0.0])  # penalty for the one-qubit state |1>
    terms = pauli_expansion(op)
    assert dict((w, c) for c, w in terms) == {"I": 0.5, "Z": 0.5}


def test_expansion_two_qubit_oracle():
    splitting, marked = make_splitting(2, [2]), MarkedState.zeros(2)
    expanded = pauli_expansion(np.diag(final_diagonal(splitting, marked)))
    builder_terms = final_terms(splitting, marked)
    expected = {"II": 0.75, "IZ": -0.25, "ZI": -0.25, "ZZ": -0.25}
    assert dict((w, c) for c, w in expanded) == pytest.approx(expected)
    assert dict((w, c) for c, w in builder_terms) == pytest.approx(expected)


def test_maximal_final_terms_are_single_qubit():
    rng = np.random.default_rng(2)
    for n in (2, 4, 7):
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        terms = list(final_terms(make_splitting(n, [1] * n), MarkedState(bits)))
        assert max_word_weight(terms) == 1
        weight_one = [t for t in terms if t[1] != "I" * n]
        assert len(weight_one) == n
        assert all(abs(c) == 0.5 for c, _ in weight_one)
        assert "Z" * n not in {w for _, w in terms}  # an absent word


def test_unstructured_final_has_full_weight_word():
    terms = list(final_terms(make_splitting(6, [6]), MarkedState.zeros(6)))
    assert dict((w, c) for c, w in terms)["Z" * 6] == -(2.0**-6)
    assert max_word_weight(terms) == 6


def test_expansion_round_trip():
    rng = np.random.default_rng(4)
    sched = LinearSchedule()
    for n in (2, 3, 5, 8):
        splitting = make_splitting(n, random_splitting(rng, n))
        bits = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
        h_initial = build_initial(splitting)
        h_final = np.diag(final_diagonal(splitting, bits))
        blended = sched.f(0.3) * h_initial + sched.g(0.3) * h_final
        for op in (h_initial, h_final, blended):
            rebuilt = to_dense(pauli_expansion(op), n)
            assert np.abs(rebuilt - op).max() < 1e-12


def test_builder_terms_match_generic_expansion():
    rng = np.random.default_rng(9)
    for n in (3, 6):
        splitting = make_splitting(n, random_splitting(rng, n))
        bits = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
        terms = final_terms(splitting, bits)
        expanded = {w: c for c, w in pauli_expansion(np.diag(final_diagonal(splitting, bits)))}
        assert expanded == pytest.approx({w: c for c, w in terms})


def test_expansion_rejections():
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(y, y).real  # symmetric, but outside the I/X/Z family
    with pytest.raises(ValueError):
        pauli_expansion(yy)
    with pytest.raises(ValueError):
        pauli_expansion(np.ones((3, 3)))
    with pytest.raises(ValueError):
        pauli_expansion(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pauli_expansion(np.eye(2 ** (EXPANSION_CAP + 1)))
    with pytest.raises(ValueError):
        pauli_expansion(np.eye(4) * 1.0j)


def test_locality_weight_examples():
    # the problem operator couples at most the qubits of its largest block
    for parts, weight in (([6], 6), ([1, 1, 1, 1], 1), ([3, 2, 1], 3)):
        splitting = make_splitting(sum(parts), parts)
        assert max_word_weight(final_terms(splitting, MarkedState.zeros(splitting.n))) == weight


def test_locality_weight_matches_expansion():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        splitting = make_splitting(n, random_splitting(rng, n))
        bits = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
        terms = list(final_terms(splitting, bits))
        assert max_word_weight(terms) == max(splitting.parts)
        # no word spans two blocks: its Z letters all fall in one block
        starts = np.cumsum([0, *splitting.parts])
        for _, word in terms[1:]:
            z_positions = [q for q, letter in enumerate(word) if letter != "I"]
            block = np.searchsorted(starts, z_positions, side="right")
            assert block.min() == block.max(), (splitting.parts, word)


def test_dense_cap_enforced():
    with pytest.raises(ValueError):
        build_initial(make_splitting(13, [13]))
    with pytest.raises(ValueError):
        final_diagonal(make_splitting(13, [13]), MarkedState.zeros(13))
    # the word expansion itself survives beyond the dense cap
    assert max_word_weight(final_terms(make_splitting(13, [13]), MarkedState.zeros(13))) == 13
    with pytest.raises(ValueError):
        final_terms(make_splitting(21, [21]), MarkedState.zeros(21))


def test_expansion_term_budget():
    # the identity word plus every non-empty Z subset of each block
    for n, parts, bits in [(13, [13], "0" * 13), (6, [3, 2, 1], "101101")]:
        terms = final_terms(make_splitting(n, parts), MarkedState.from_string(bits))
        assert len(list(terms)) == 1 + sum(2**size - 1 for size in parts)
    # one block at the per-block cap fills the budget of terms times n exactly
    assert 20 * (1 + (2**20 - 1)) == EXPANSION_LETTER_BUDGET
    check_expansion_budget(make_splitting(20, [20]))
    with pytest.raises(ValueError, match="letter budget of 20971520"):
        final_terms(make_splitting(40, [20, 20]), MarkedState.zeros(40))
    # 786,458 terms fit 2^20 terms, but not at 64 letters each
    with pytest.raises(ValueError, match="786458 terms of 64 letters"):
        final_terms(make_splitting(64, [19, 18] + [1] * 27), MarkedState.zeros(64))
    with pytest.raises(ValueError, match="block of 21 qubits exceeds the expansion cap"):
        final_terms(make_splitting(41, [20, 21]), MarkedState.zeros(41))


def test_term_sum_text_format():
    terms = final_terms(make_splitting(2, [2]), MarkedState.zeros(2))
    text = "".join(cli.format_pauli(terms))
    assert "-0.25\tZZ" in text
    assert text.splitlines()[0] == "0.75\tII"


def test_final_terms_are_unique_sorted_and_complete_on_every_composition():
    # what the word expansion promises by construction: unique I/Z words of
    # n letters, already in (weight, word) order, the identity plus every non-empty Z
    # mask of each block, and (where dense fits) the Walsh expansion of the
    # problem diagonal
    rng = np.random.default_rng(41)
    for n in range(1, 11):
        for parts in compositions(n):
            splitting = make_splitting(n, parts)
            marked = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
            terms = list(final_terms(splitting, marked))
            words = [word for _, word in terms]
            assert len(set(words)) == len(words), parts
            assert set("".join(words)) <= {"I", "Z"} and {len(w) for w in words} == {n}, parts
            assert words == sorted(words, key=lambda w: (w.count("Z"), w)), parts
            assert len(terms) == 1 + sum(2**size - 1 for size in parts), parts
            if n <= 6:
                expanded = dict((w, c) for c, w in pauli_expansion(np.diag(final_diagonal(splitting, marked))))
                assert expanded.keys() == set(words), parts
                assert all(abs(expanded[w] - c) <= 1e-15 for c, w in terms), parts


def _matrix_free_splittings(rng):
    for _ in range(6):
        n = int(rng.integers(1, 9))
        yield make_splitting(n, random_splitting(rng, n))
    # the random draws may miss the one-block splitting, the only one evolve applies
    for n in range(1, 9):
        yield make_splitting(n, [n])


def test_matrix_free_matches_dense():
    rng = np.random.default_rng(33)
    sched = LinearSchedule()
    for splitting in _matrix_free_splittings(rng):
        n = splitting.n
        bits = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
        h_initial = build_initial(splitting)
        h_final = np.diag(final_diagonal(splitting, bits))
        applier = MatrixFreeHamiltonian(splitting, bits)
        for s in (0.0, 0.37, 1.0):
            f, g = float(sched.f(s)), float(sched.g(s))
            dense = f * h_initial + g * h_final
            vec = rng.standard_normal(splitting.dim) + 1j * rng.standard_normal(splitting.dim)
            np.testing.assert_allclose(applier.apply(f, g, vec), dense @ vec, atol=1e-12)
            if splitting.num_blocks == 1:
                # the one-block shortcut rounds as the per-block reshape form does
                block = (f + g * final_diagonal(splitting, bits)) * vec
                block_sum = vec.reshape(1, -1, 1).sum(axis=1, keepdims=True)
                block.reshape(1, -1, 1)[...] -= (f / vec.size) * block_sum
                assert np.array_equal(applier.apply(f, g, vec), block)
                # a one-block operator's norm is at most |f| + |g|, which is 1 on the
                # linear path, so evolve's step 1 / ode_steps_per_unit_time resolves it
                assert np.linalg.norm(dense, 2) <= abs(f) + abs(g) + 1e-12
