import math

import numpy as np
import pytest
from scipy.linalg import eigh

from adiasearch import cli
from adiasearch.core import (
    MAX_GRID,
    MarkedState,
    equal_splitting,
    make_splitting,
)
from adiasearch.hamiltonian import final_diagonal
from adiasearch.spectral import (
    adiabatic_ratio,
    gap_profile,
    max_structured_degeneracy,
    max_structured_eigenvalue,
    subsystem_gap,
)

from conftest import compositions, distinct_levels
from oracles import build_initial


def _dense_hamiltonian(n, parts, s, marked=None):
    splitting = make_splitting(n, parts)
    marked = marked if marked is not None else MarkedState.zeros(n)
    return (1.0 - s) * build_initial(splitting) + s * np.diag(final_diagonal(splitting, marked))


def test_two_dim_block_gap_is_hypotenuse():
    for f in np.linspace(0.0, 1.0, 7):
        for g in np.linspace(0.0, 1.0, 7):
            assert subsystem_gap(2, f, g) == pytest.approx(math.hypot(f, g), abs=1e-14)


def test_block_gap_values():
    assert subsystem_gap(64, 1.0, 0.0) == 1.0
    assert subsystem_gap(64, 0.5, 0.5) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        subsystem_gap(1, 0.5, 0.5)
    # NaN once passed the >= 2 check and gave a NaN gap; a string raised numpy's UFuncTypeError.
    # A sequence or array is read entry by entry as a scalar is.
    for bad, message in (
        (math.nan, "must be >= 2, got nan"),
        (np.array([4.0, math.nan]), "must be >= 2"),
        ([4, 1], "must be >= 2"),
        ("4", "has the wrong type: expected a real number, got '4'"),
        (True, "has the wrong type"),
        (np.array([True, False]), "has the wrong type"),
        *(([4, x], "has the wrong type: expected a real number") for x in (True, np.bool_(True), "4", 4j)),
        # once refused as the wrong type: numpy holds an int past int64 as an object
        (2**2000, "is past the double range$"),
        ([4, 2**2000], "is past the double range$"),
    ):
        with pytest.raises(ValueError, match=f"^block dimension {message}"):
            subsystem_gap(bad, 0.5, 0.5)
    # a 64-qubit block's dimension as Splitting.block_dims gives it, and past it
    for dim in (2**64, 2**70):
        assert subsystem_gap(dim, 0.5, 0.5) == subsystem_gap(float(dim), 0.5, 0.5)
    assert subsystem_gap(make_splitting(64, [64]).block_dims[0], 0.3, 0.7) == subsystem_gap(2.0**64, 0.3, 0.7)
    # the dimensions of a split, one past int64, were once refused as the
    # wrong type although each entry alone was accepted
    dims = make_splitting(96, [32, 64]).block_dims
    for f, g in ((0.5, 0.5), (0.3, 0.7), (1.0, 0.0)):
        gaps = subsystem_gap(dims, f, g)
        assert gaps.shape == (2,) and list(gaps) == [subsystem_gap(d, f, g) for d in dims]
    as_floats = subsystem_gap(np.array([[2.0], [4.0], [8.0]]), 0.3, 0.7)
    for mixed in ([[2], [4.0], [np.int64(8)]], np.array([[2], [4], [8]])):
        assert np.array_equal(subsystem_gap(mixed, 0.3, 0.7), as_floats)


def test_block_gap_matches_dense_unstructured_midpoint():
    # independent check: exact gap of the dense 6-qubit single-block operator
    h = _dense_hamiltonian(6, [6], 0.5)
    levels, _ = distinct_levels(eigh(h, eigvals_only=True))
    assert levels[1] - levels[0] == pytest.approx(subsystem_gap(64, 0.5, 0.5), abs=1e-12)


def test_ladder_eigenvalue_examples():
    for n in (1, 2, 5):
        assert max_structured_eigenvalue(n, 0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert max_structured_eigenvalue(6, 1, 0.5, 0.5) == pytest.approx(3.0 - math.sqrt(2.0), abs=1e-14)
    for n in (1, 3, 6):
        gap = max_structured_eigenvalue(n, 1, 0.3, 0.7) - max_structured_eigenvalue(n, 0, 0.3, 0.7)
        assert gap == pytest.approx(math.hypot(0.3, 0.7), abs=1e-14)
    # the level is an integer: a float, even a whole or a non-finite one, is
    # refused, not rounded onto the ladder (a spin sum of 1 + 1e-13 once read
    # 0.2928932188133818 at n = 2), and so is a bool, a string or a complex
    floats = (1.0, 0.5, 2.7, math.inf, -math.inf, math.nan, 1e308, np.float64(1.0), np.float32(3e38))
    for level in floats + (True, np.bool_(False), "1", 1j):
        with pytest.raises(ValueError, match="^level has the wrong type: expected an integer"):
            max_structured_eigenvalue(4, level, 0.5, 0.5)
    with pytest.raises(ValueError):
        max_structured_eigenvalue(2, 1 + 1e-13, 0.5, 0.5)
    assert max_structured_eigenvalue(2, 0, 0.5, 0.5) == 0.2928932188134524
    for level in (-1, 5, 10**400):
        with pytest.raises(ValueError, match=r"^level must be in \[0, 4\]"):
            max_structured_eigenvalue(4, level, 0.5, 0.5)
    # a qubit count past the double range is refused by name, not by OverflowError
    with pytest.raises(ValueError, match="^qubit count is past the double range"):
        max_structured_eigenvalue(2**1024, 0, 0.5, 0.5)
    # an overflowing energy reads inf, numpy scalars or not
    assert max_structured_eigenvalue(4, 1, np.float64(1e308), np.float64(1e308)) == math.inf
    assert max_structured_eigenvalue(np.int64(4), np.int32(1), 0.5, 0.5) == max_structured_eigenvalue(4, 1, 0.5, 0.5)
    # an int past the double range is refused by name: read as inf, it would
    # make the energy inf - inf = nan
    for bad, refusal in [(x, "has the wrong type") for x in (True, np.bool_(False), "1", 1j)] + [
        (10**400, "is past the double range")
    ]:
        for position, what in enumerate(("f", "g")):
            args = [0.5, 0.5]
            args[position] = bad
            with pytest.raises(ValueError, match=f"^{what} {refusal}"):
                max_structured_eigenvalue(4, 1, *args)


def test_ladder_value_present_in_dense_spectrum():
    h = _dense_hamiltonian(6, [1] * 6, 0.5)
    values = eigh(h, eigvals_only=True)
    target = max_structured_eigenvalue(6, 1, 0.5, 0.5)
    assert np.min(np.abs(values - target)) < 1e-12


def test_degeneracy_examples_and_dense_histogram():
    assert max_structured_degeneracy(6, 1) == 6
    for n in (1, 4, 7):
        assert max_structured_degeneracy(n, 0) == 1
    assert max_structured_degeneracy(6, 3) == 20
    with pytest.raises(ValueError):
        max_structured_degeneracy(6, 7)
    with pytest.raises(ValueError):
        max_structured_degeneracy(6, -1)

    # enumerate the full 2**6 product spectrum and histogram the energies
    h = _dense_hamiltonian(6, [1] * 6, 0.3)
    _, counts = distinct_levels(eigh(h, eigvals_only=True))
    assert counts == [max_structured_degeneracy(6, k) for k in range(7)]


def test_subsystem_gap_scalar_equals_array():
    # Python floats and numpy scalars must round as an array does: ** 2 on a
    # scalar goes through libm pow, which differs from x * x in the last bit
    # on about 1 pair in 2400
    rng = np.random.default_rng(25)
    f, g = rng.random(20000), rng.random(20000)
    for dim in (2.0, 2.0**12):
        array = subsystem_gap(dim, f, g)
        scalar = [subsystem_gap(dim, a, b) for a, b in zip(f.tolist(), g.tolist())]
        assert array.tolist() == [float(x) for x in scalar]
        assert [subsystem_gap(dim, a, b) for a, b in zip(f[:100], g[:100])] == array[:100].tolist()


def test_matrix_element_examples():
    # one qubit per block: each of the n qubits couples its ground state to
    # its own excited state with |f'g - g'f| / (2 sqrt(f**2 + g**2)), one gap
    # sqrt(f**2 + g**2) below it, so the ratio is sqrt(n) times that over the
    # gap squared: the integrand of the sqrt(n) running time
    for n in (1, 4, 7, 64):
        ratio = adiabatic_ratio(equal_splitting(n, n))
        for s in np.linspace(0.0, 1.0, 11).tolist():
            f, g = 1.0 - s, s
            # |f'g - g'f| with f' = -1 and g' = 1
            expected = math.sqrt(n) * abs(-g - f) / (2.0 * (f * f + g * g) ** 1.5)
            assert ratio(1.0 - 2.0 * s, f, g) == pytest.approx(expected, rel=1e-15), (n, s)


def test_gap_profile_unstructured_six_qubits():
    # analytic minimum of (1-2s)^2 + 4 s (1-s) / N sits at s = 1/2 with gap 1/sqrt(N)
    profile = gap_profile(make_splitting(6, [6]))
    assert profile.omega_min == pytest.approx(1.0 / math.sqrt(64.0), abs=1e-12)
    assert profile.s_min == 0.5
    assert profile.s.size == 1001
    assert profile.size_gaps.shape == (1001, 1)


def test_gap_profile_maximal_split():
    for n in (1, 3, 5):
        profile = gap_profile(make_splitting(n, [1] * n))
        assert profile.omega_min == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert profile.s_min == 0.5


def test_gap_profile_minimum_is_the_root_of_the_largest_block_slope():
    # the largest block's d(omega**2)/ds = 2(f - g)(f' - g') + 4(f'g + fg')/N is
    # 0 at s = 1/2 on the linear path, where the 64-qubit gap is 2^-32. That
    # dip is about 1e-10 wide in s and s = 1/2 is a sample of the odd grids
    # only, yet the minimum reads exactly on every grid
    for grid in (2, 3, 1000, 1001, 65536):
        profile = gap_profile(make_splitting(64, [64]), grid=grid)
        assert profile.s_min == 0.5 and profile.omega_min == 2.0**-32, grid
        assert profile.omega_min <= profile.global_gap.min(), grid


def test_gap_profile_linear_minimum_is_exact_on_every_split_and_grid():
    # the minimum 1/sqrt(N_max) sits at s = 1/2 on the grid or between two
    # samples, and at grid 2 between the ends, where every block ties at 1
    splits = [parts for n in range(1, 7) for parts in compositions(n)] + [[30], [64], [1, 63]]
    for parts in splits:
        splitting = make_splitting(sum(parts), parts)
        for grid in (2, 3, 1000, 1001):
            profile = gap_profile(splitting, grid=grid)
            assert profile.global_gap.tobytes() == profile.size_gaps.min(axis=1).tobytes(), (parts, grid)
            assert profile.s_min == 0.5, (parts, grid)
            assert profile.omega_min == subsystem_gap(2.0 ** max(parts), 0.5, 0.5), (parts, grid)


def test_gap_profile_single_qubit_matches_two_dim_block():
    lone = gap_profile(make_splitting(1, [1]), grid=101)
    maximal_block = gap_profile(make_splitting(2, [1, 1]), grid=101)
    np.testing.assert_allclose(lone.global_gap, maximal_block.size_gaps[:, 0], atol=1e-15)


def test_gap_profile_symmetry_and_positivity():
    # one column per distinct size, ascending as size_counts lists them
    profile = gap_profile(make_splitting(8, [3, 2, 3]), grid=201)
    assert profile.size_gaps.shape == (201, 2)
    np.testing.assert_allclose(profile.global_gap, profile.global_gap[::-1], atol=1e-12)
    s = profile.s[1:-1]
    for dim, gaps in zip((4, 8), profile.size_gaps[1:-1].T):
        lower = 2.0 * np.sqrt((1.0 - s) * s / dim)
        assert np.all(gaps >= lower - 1e-15)
        assert np.all(gaps > 0.0)


def test_gap_profile_grid_validation_and_csv():
    with pytest.raises(ValueError):
        gap_profile(make_splitting(2, [2]), grid=1)
    with pytest.raises(ValueError, match="between 2 and 65536 samples"):
        gap_profile(make_splitting(2, [2]), grid=MAX_GRID + 1)
    for grid in (11.0, "11", True):
        with pytest.raises(ValueError, match="grid has the wrong type"):
            gap_profile(make_splitting(2, [2]), grid=grid)
    profile = gap_profile(make_splitting(4, [2, 2]), grid=11)
    text = "".join(cli.format_gap(profile, "csv"))
    lines = text.strip().split("\n")
    assert lines[0] == "s,omega_1,omega_2,omega_global"
    assert len(lines) == 12


def test_dense_two_lowest_levels_match_every_splitting():
    for n in range(1, 7):
        for parts in compositions(n):
            splitting = make_splitting(n, parts)
            for s in np.linspace(0.0, 1.0, 11):
                h = _dense_hamiltonian(n, parts, s)
                levels, _ = distinct_levels(eigh(h, eigvals_only=True))
                f, g = 1.0 - s, s
                gaps = [subsystem_gap(d, f, g) for d in splitting.block_dims]
                expected_ground = sum(((f + g) - w) / 2.0 for w in gaps)
                assert levels[0] == pytest.approx(expected_ground, abs=1e-9)
                if len(levels) > 1:
                    assert levels[1] - levels[0] == pytest.approx(min(gaps), abs=1e-9)


def test_dense_degeneracies_match_binomials_maximal():
    for n in (3, 5):
        h = _dense_hamiltonian(n, [1] * n, 0.25)
        _, counts = distinct_levels(eigh(h, eigvals_only=True))
        assert counts == [math.comb(n, k) for k in range(n + 1)]
