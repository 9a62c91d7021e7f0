import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar

from adiasearch import cli
from adiasearch.core import MAX_GRID, MarkedState, linear_schedule, make_splitting, tabulated_schedule
from adiasearch.hamiltonian import build_final, build_initial, combine
from adiasearch.spectral import (
    gap_profile,
    max_structured_degeneracy,
    max_structured_eigenvalue,
    max_structured_matrix_element,
    subsystem_gap,
)

from conftest import compositions, distinct_levels


def _dense_hamiltonian(n, parts, s, marked=None):
    splitting = make_splitting(n, parts)
    marked = marked if marked is not None else MarkedState.zeros(n)
    h_initial, _ = build_initial(splitting)
    h_final, _ = build_final(splitting, marked)
    return combine(h_initial, h_final, linear_schedule(), s)


def test_two_dim_block_gap_is_hypotenuse():
    for f in np.linspace(0.0, 1.0, 7):
        for g in np.linspace(0.0, 1.0, 7):
            assert subsystem_gap(2, f, g) == pytest.approx(math.hypot(f, g), abs=1e-14)


def test_block_gap_values():
    assert subsystem_gap(64, 1.0, 0.0) == 1.0
    assert subsystem_gap(64, 0.5, 0.5) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        subsystem_gap(1, 0.5, 0.5)


def test_block_gap_matches_dense_unstructured_midpoint():
    # independent check: exact gap of the dense 6-qubit single-block operator
    h = _dense_hamiltonian(6, [6], 0.5)
    levels, _ = distinct_levels(eigh(h, eigvals_only=True))
    assert levels[1] - levels[0] == pytest.approx(subsystem_gap(64, 0.5, 0.5), abs=1e-12)


def test_ladder_eigenvalue_examples():
    for n in (1, 2, 5):
        assert max_structured_eigenvalue(n, n / 2, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert max_structured_eigenvalue(6, 2, 0.5, 0.5) == pytest.approx(3.0 - math.sqrt(2.0), abs=1e-14)
    for n in (1, 3, 6):
        gap = max_structured_eigenvalue(n, n / 2 - 1, 0.3, 0.7) - max_structured_eigenvalue(
            n, n / 2, 0.3, 0.7
        )
        assert gap == pytest.approx(math.hypot(0.3, 0.7), abs=1e-14)
    with pytest.raises(ValueError):
        max_structured_eigenvalue(4, 2.7, 0.5, 0.5)
    with pytest.raises(ValueError):
        max_structured_eigenvalue(4, 3, 0.5, 0.5)
    with pytest.raises(ValueError):
        max_structured_eigenvalue(4, 0.5, 0.5, 0.5)  # wrong half-integer parity


def test_ladder_value_present_in_dense_spectrum():
    h = _dense_hamiltonian(6, [1] * 6, 0.5)
    values = eigh(h, eigvals_only=True)
    target = max_structured_eigenvalue(6, 2, 0.5, 0.5)
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
    assert max_structured_matrix_element(1.0, 0.0, -1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    sched = linear_schedule()
    for s in np.linspace(0.0, 1.0, 11):
        f, g = sched.f(s), sched.g(s)
        # for the straight-line schedule |f'g - g'f| = f + g = 1
        expected = 1.0 / (2.0 * math.hypot(f, g))
        value = max_structured_matrix_element(f, g, sched.df(s), sched.dg(s))
        assert value == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        max_structured_matrix_element(0.0, 0.0, -1.0, 1.0)


def test_gap_profile_unstructured_six_qubits():
    # analytic minimum of (1-2s)^2 + 4 s (1-s) / N sits at s = 1/2 with gap 1/sqrt(N)
    profile = gap_profile(make_splitting(6, [6]), linear_schedule())
    assert profile.omega_min == pytest.approx(1.0 / math.sqrt(64.0), abs=1e-12)
    assert profile.s_min == pytest.approx(0.5, abs=1e-7)
    assert profile.s.size == 1001
    assert profile.block_gaps.shape == (1001, 1)


def test_gap_profile_maximal_split():
    for n in (1, 3, 5):
        profile = gap_profile(make_splitting(n, [1] * n), linear_schedule())
        assert profile.omega_min == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert profile.s_min == pytest.approx(0.5, abs=1e-7)


def test_gap_profile_minimum_matches_scipy_golden_search():
    nodes = np.linspace(0.0, 1.0, 9)
    curved = tabulated_schedule(nodes, 1.0 - nodes**2, nodes**2)
    for parts, grid in (([6], 1000), ([3, 5], 137), ([20], 1001)):
        splitting = make_splitting(sum(parts), parts)
        profile = gap_profile(splitting, curved, grid=grid)
        k = int(np.argmin(profile.global_gap))
        dims = splitting.float_block_dims()
        oracle = minimize_scalar(
            lambda x: min(subsystem_gap(dim, curved.f(x), curved.g(x)) for dim in dims),
            bracket=tuple(profile.s[k - 1 : k + 2]),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert profile.s_min not in profile.s  # refined off the grid
        assert profile.s_min == pytest.approx(oracle.x, abs=1e-12), parts
        assert profile.omega_min == pytest.approx(oracle.fun, rel=1e-14), parts


def test_gap_profile_single_qubit_matches_two_dim_block():
    lone = gap_profile(make_splitting(1, [1]), linear_schedule(), grid=101)
    maximal_block = gap_profile(make_splitting(2, [1, 1]), linear_schedule(), grid=101)
    np.testing.assert_allclose(lone.global_gap, maximal_block.block_gaps[:, 0], atol=1e-15)


def test_gap_profile_symmetry_and_positivity():
    profile = gap_profile(make_splitting(5, [3, 2]), linear_schedule(), grid=201)
    np.testing.assert_allclose(profile.global_gap, profile.global_gap[::-1], atol=1e-12)
    s = profile.s[1:-1]
    for dim, gaps in zip((8, 4), profile.block_gaps[1:-1].T):
        lower = 2.0 * np.sqrt((1.0 - s) * s / dim)
        assert np.all(gaps >= lower - 1e-15)
        assert np.all(gaps > 0.0)


def test_gap_profile_grid_validation_and_csv():
    with pytest.raises(ValueError):
        gap_profile(make_splitting(2, [2]), linear_schedule(), grid=1)
    with pytest.raises(ValueError, match="between 2 and 65536 samples"):
        gap_profile(make_splitting(2, [2]), linear_schedule(), grid=MAX_GRID + 1)
    profile = gap_profile(make_splitting(4, [2, 2]), linear_schedule(), grid=11)
    text = cli.format_gap(profile, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "s,omega_1,omega_2,omega_global"
    assert len(lines) == 12


def test_dense_two_lowest_levels_match_every_splitting():
    sched = linear_schedule()
    for n in range(1, 7):
        for parts in compositions(n):
            splitting = make_splitting(n, parts)
            for s in np.linspace(0.0, 1.0, 11):
                h = _dense_hamiltonian(n, parts, s)
                levels, _ = distinct_levels(eigh(h, eigvals_only=True))
                f, g = sched.f(s), sched.g(s)
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
