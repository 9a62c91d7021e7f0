import ast
import functools
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import adiasearch
from adiasearch.cli import round_half_away
from adiasearch.core import (
    MAX_GRID,
    LinearSchedule,
    MarkedState,
    MonotoneCubic,
    Precision,
    equal_splitting,
    make_splitting,
)
from adiasearch.dynamics import adiabaticity_lhs, rk4_propagate
from adiasearch.runtime import (
    TimeSchedule,
    closed_form_eps_t,
    optimal_schedule,
    reproduce_table,
    running_time_integral,
    scaling_coefficients,
)
from adiasearch.spectral import max_structured_degeneracy, max_structured_eigenvalue

from conftest import linear_eps_t_oracle, linear_node_eps_t_oracle, pchip_time_schedule
from oracles import equal_split_s, equal_split_time

TABLE_CONFIGS = [(6, 1), (6, 2), (6, 3), (6, 6), (30, 1), (30, 2), (30, 3), (30, 5), (30, 6), (30, 10), (30, 15), (30, 30)]


def test_closed_form_values():
    assert closed_form_eps_t(6, 1) == pytest.approx(math.sqrt(63.0), rel=1e-15)
    assert closed_form_eps_t(30, 2) == pytest.approx(math.sqrt(2.0 * 32767.0), rel=1e-15)
    assert closed_form_eps_t(6, 6) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert closed_form_eps_t(6, 2) == pytest.approx(math.sqrt(14.0), rel=1e-15)
    with pytest.raises(ValueError):
        closed_form_eps_t(6, 4)
    with pytest.raises(ValueError):
        closed_form_eps_t(6, 0)
    # n and m go through equal_splitting and the floating-point block cap:
    # these once returned 0.0, hit a math domain error, overflowed, and
    # returned 10.0 for 100 one-qubit blocks past the 64-block cap
    for n, blocks, message in [
        (0, 1, "qubit count must be >= 1"),
        (-3, 1, "qubit count must be >= 1"),
        (2000, 1, "block of 2000 qubits exceeds the floating-point cap"),
        (100, 100, "100 blocks exceed the cap of 64 blocks"),
    ]:
        with pytest.raises(ValueError, match=message):
            closed_form_eps_t(n, blocks)


def test_closed_form_against_high_precision_quadrature():
    # independent oracle: 30-digit quadrature of the equal-split integrand
    mp.mp.dps = 30
    for n, blocks in [(6, 1), (6, 2), (4, 2), (10, 2)]:
        dim = mp.mpf(2) ** (n // blocks)
        scale = mp.sqrt(blocks * (dim - 1)) / dim

        def integrand(s):
            gap_sq = (1 - 2 * s) ** 2 + 4 * s * (1 - s) / dim
            return scale * gap_sq ** mp.mpf("-1.5")

        value = mp.quad(integrand, [0, mp.mpf(1) / 2, 1])
        assert closed_form_eps_t(n, blocks) == pytest.approx(float(value), rel=1e-12)


def test_quadrature_matches_closed_form():
    # every equal split of up to 64 qubits; the largest miss was 3.6e-16
    splits = [(n, blocks) for n in range(1, 65) for blocks in range(1, n + 1) if n % blocks == 0]
    assert len(splits) == 280
    for n, blocks in splits:
        parts = [n // blocks] * blocks
        result = running_time_integral(make_splitting(n, parts), LinearSchedule())
        expected = closed_form_eps_t(n, blocks)
        assert abs(result.eps_t - expected) / expected <= 1e-15, (n, blocks)


def test_single_blocks_match_the_closed_form_up_to_64_qubits():
    for n in range(50, 65):
        eps_t = running_time_integral(make_splitting(n, [n])).eps_t
        assert abs(eps_t - closed_form_eps_t(n, 1)) / closed_form_eps_t(n, 1) <= 1e-15, n


def test_mixed_splits_match_a_high_precision_oracle():
    assert linear_eps_t_oracle([40]) == pytest.approx(math.sqrt(2.0**40 - 1.0), rel=1e-15)
    # a small block's broad bump next to a large block's narrow peak
    for parts in ([1, 63], [3, 61], [5, 59], [10, 54], [38, 16, 1, 1, 4, 1]):
        eps_t = running_time_integral(make_splitting(sum(parts), parts)).eps_t
        oracle = linear_eps_t_oracle(parts)
        assert abs(eps_t - oracle) / oracle <= 1e-15, parts


def test_curved_paths_are_the_linear_path_in_rescaled_time():
    # H = f H_0 + g H_P = lambda H_lin(sigma), lambda = f + g, sigma = g / (f + g):
    # a curved path's bound-saturating time, weighted by lambda, is the linear
    # path's. Oracle: scipy quad of (f + g) |f'g - g'f| sqrt(sum_i (N_i - 1)/N_i^2
    # / omega_i^6), omega_i^2 = (f - g)^2 + 4fg/N_i, broken at the crossing f = g.
    # Each path gives (f, g, |f'g - g'f|) at s, with its crossing.
    paths = (
        (lambda s: (math.cos(0.5 * math.pi * s), math.sin(0.5 * math.pi * s), 0.5 * math.pi), 0.5),
        (lambda s: (1.0 - s, s * s, s * (2.0 - s)), 0.5 * (math.sqrt(5.0) - 1.0)),
    )
    for path, crossing in paths:
        for parts in ([2], [2, 2], [1, 3], [6, 6], [12]):
            dims = [2.0**p for p in parts]

            def integrand(s):
                f, g, drive = path(s)
                omega_sq = [(f - g) ** 2 + 4.0 * f * g / d for d in dims]
                return (f + g) * drive * math.sqrt(sum((d - 1.0) / d**2 / w**3 for d, w in zip(dims, omega_sq)))

            halves = ((0.0, crossing), (crossing, 1.0))
            oracle = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in halves)
            eps_t = running_time_integral(make_splitting(sum(parts), parts)).eps_t
            assert eps_t == pytest.approx(oracle, rel=1e-9), (crossing, parts)


def test_published_value_examples():
    assert running_time_integral(make_splitting(6, [6])).eps_t == pytest.approx(7.94, abs=0.005)
    assert running_time_integral(make_splitting(30, [10] * 3)).eps_t == pytest.approx(55.40, abs=0.05)
    assert running_time_integral(make_splitting(6, [3, 3])).eps_t == pytest.approx(
        math.sqrt(14.0), rel=1e-9
    )


def test_unequal_splits_are_worse_and_largest_block_dominates():
    balanced = running_time_integral(make_splitting(6, [3, 3])).eps_t
    lopsided = running_time_integral(make_splitting(6, [4, 2])).eps_t
    extreme = running_time_integral(make_splitting(6, [5, 1])).eps_t
    assert balanced < lopsided < extreme
    assert extreme > closed_form_eps_t(5, 1)  # scales with the largest block


def test_scaling_coefficients_unrounded_rows():
    expected = {
        (6, 1): (0.9962, math.inf),
        (6, 2): (0.9518, 3.8074),
        (6, 3): (0.8842, 2.0000),
        (6, 6): (0.7211, 1.0000),
        (30, 10): (0.9695, 1.8451),
    }
    for (n, blocks), (alpha_ref, beta_ref) in expected.items():
        alpha, beta = scaling_coefficients(closed_form_eps_t(n, blocks), n, blocks)
        assert round_half_away(alpha, 4) == pytest.approx(alpha_ref, abs=1e-12)
        if math.isinf(beta_ref):
            assert math.isinf(beta)
        else:
            assert round_half_away(beta, 4) == pytest.approx(beta_ref, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_coefficients(0.0, 6, 1)
    # NaN fails every ordered comparison, so a range test alone lets it through
    for eps_t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps_t must be finite and positive"):
            scaling_coefficients(eps_t, 4, 2)
    with pytest.raises(ValueError):
        scaling_coefficients(2.0, 6, 0)
    # once a ZeroDivisionError and (-0.5, inf)
    for n in (0, -4):
        with pytest.raises(ValueError, match=rf"number of blocks must be in \[1, n={n}\], got 1"):
            scaling_coefficients(2.0, n, 1)


def test_scaling_coefficients_rounded_inputs_are_close():
    # published-precision inputs land near the published exponents
    alpha, _ = scaling_coefficients(7.94, 6, 1)
    assert alpha == pytest.approx(0.9962, abs=1e-3)
    alpha, beta = scaling_coefficients(8.37, 30, 10)
    assert alpha == pytest.approx(0.9695, abs=1e-3)
    assert beta == pytest.approx(1.8451, abs=1e-3)


def test_alpha_trend_and_large_ratio_limit():
    alpha_small, _ = scaling_coefficients(closed_form_eps_t(6, 1), 6, 1)
    alpha_large, _ = scaling_coefficients(closed_form_eps_t(30, 1), 30, 1)
    assert alpha_large > alpha_small
    assert alpha_large >= 0.9999
    for n, blocks in [(15, 1), (30, 2)]:
        ratio = closed_form_eps_t(n, blocks) / (
            math.sqrt(blocks) * math.sqrt(2.0 ** (n // blocks))
        )
        assert 0.99 <= ratio <= 1.0


def test_reproduce_table_rows():
    rows = reproduce_table(6)
    assert [r.splitting.num_blocks for r in rows] == [1, 2, 3, 6]
    assert all(r.splitting.n == 6 for r in rows)

    single = reproduce_table(1)
    assert len(single) == 1
    assert single[0].eps_t == pytest.approx(1.0, rel=1e-9)
    assert single[0].alpha == pytest.approx(0.0, abs=1e-6)
    assert math.isinf(single[0].beta)

    with pytest.raises(ValueError):
        reproduce_table(0)
    with pytest.raises(ValueError):
        reproduce_table(65)


def test_structure_monotonicity_over_divisors():
    for n in (6, 12):
        rows = reproduce_table(n)
        eps_ts = [r.eps_t for r in rows]
        assert all(a > b for a, b in zip(eps_ts, eps_ts[1:]))


def test_max_structured_time():
    # one qubit per block: sqrt(n * (2 - 1)) rounds as sqrt(n) itself
    for n in range(1, 65):
        assert closed_form_eps_t(n, n) == math.sqrt(n), n
    for n in (0, 65):
        with pytest.raises(ValueError):
            closed_form_eps_t(n, n)


def test_optimal_schedule_single_qubit_symmetry():
    precision = Precision(epsilon=0.2)
    schedule_t = optimal_schedule(make_splitting(1, [1]), precision)
    total = schedule_t.total_time
    assert total * precision.epsilon == pytest.approx(1.0, rel=1e-9)
    assert float(schedule_t.s_of_t(total / 2.0)) == pytest.approx(0.5, abs=1e-9)
    assert float(schedule_t.s_of_t(0.0)) == 0.0
    assert float(schedule_t.s_of_t(total)) == 1.0


def test_optimal_schedule_matches_integral_and_slows_at_peak():
    precision = Precision(epsilon=0.1)
    splitting = make_splitting(6, [6])
    schedule_t = optimal_schedule(splitting, precision)
    integral = running_time_integral(splitting, LinearSchedule())
    assert schedule_t.total_time * precision.epsilon == pytest.approx(integral.eps_t, rel=1e-8)
    # strictly increasing inverse map
    assert np.all(np.diff(schedule_t.t_nodes) > 0.0)
    # the crossing point has the smallest gap, so the path is slowest there
    rates = schedule_t.rate_nodes
    assert np.argmin(rates) == schedule_t.s_nodes.size // 2
    assert float(schedule_t.rate(0.5)) == pytest.approx(rates.min(), rel=1e-12)


@functools.cache
def _schedule_at(parts: tuple, grid: int):
    """The default-precision optimal schedule of ``parts``, built once per test session; read it, never write it."""
    return optimal_schedule(make_splitting(sum(parts), list(parts)), grid=grid)


def test_optimal_schedule_total_is_the_running_time_integral_at_large_blocks():
    # the tabulation and the integral run the same panels around the peak,
    # so they agree to rounding even where the peak is 2^-32 wide, and at
    # any grid, since late nodes keep their times where they repeat
    for n, grid in ((60, 1001), (64, 1001), (64, MAX_GRID)):
        total = _schedule_at((n,), grid).total_time * 0.2
        eps_t = running_time_integral(make_splitting(n, [n]), LinearSchedule()).eps_t
        assert abs(total - eps_t) / eps_t <= 1e-12, (n, grid)


def test_optimal_schedule_total_on_64_is_the_closed_form_at_every_grid():
    # eps * T = sqrt(2^64 - 1) rounds to 2^32, whatever the grid
    assert [_schedule_at((64,), grid).total_time for grid in (1001, MAX_GRID)] == [2.0**32 / 0.2] * 2


def test_the_running_time_is_the_total_of_the_schedule_to_the_bit():
    # both sum one qk21 per panel of the same half line, so eps * T and the
    # running time are one number (eps = 0.5 makes T an exact double of it)
    splits = [[n // blocks] * blocks for n in range(1, 65) for blocks in range(1, n + 1) if n % blocks == 0]
    splits += [[1, 63], [3, 61], [10, 54], [2, 10], [38, 16, 1, 1, 4, 1]]
    for parts in splits:
        splitting = make_splitting(sum(parts), parts)
        total = optimal_schedule(splitting, Precision(epsilon=0.5), grid=100).total_time
        assert total * 0.5 == running_time_integral(splitting).eps_t, parts


@pytest.mark.parametrize("size", [64, 56])
def test_late_node_times_are_the_closed_form_where_they_repeat(size):
    # past the crossing the nodes of a huge block lie under an ulp of T apart
    # and share times; each is still within 2 ulps of T of the closed form
    # (measured: 1.19 ulps over all nodes of either). It reads the last
    # 3,000 nodes, where times repeat, and every 64th node before them.
    schedule_t = _schedule_at((size,), MAX_GRID)
    assert np.all(np.diff(schedule_t.t_nodes) >= 0.0) and np.any(np.diff(schedule_t.t_nodes) == 0.0)
    picks = np.r_[0 : MAX_GRID - 3000 : 64, MAX_GRID - 3000 : MAX_GRID]
    oracle = equal_split_time(size, 1, 0.2, schedule_t.s_nodes[picks].tolist())
    ulp = float(np.spacing(schedule_t.total_time))
    assert max(float(abs(t - exact)) for t, exact in zip(schedule_t.t_nodes[picks].tolist(), oracle)) <= 2.0 * ulp


def test_a_schedule_with_repeated_times_scales():
    # doubling keeps every repeated time, and each cubic still ends at the end
    schedule_t = _schedule_at((64,), MAX_GRID)
    doubled = schedule_t.scaled(2.0 * schedule_t.total_time)
    assert doubled.total_time == 2.0 * schedule_t.total_time
    repeats = np.diff(schedule_t.t_nodes) == 0.0
    assert repeats.sum() == 10896 and np.array_equal(np.diff(doubled.t_nodes) == 0.0, repeats)
    assert float(doubled.s_of_t(doubled.total_time)) == 1.0
    assert float(doubled.t_of_s(1.0)) == doubled.total_time


def _max_relative_error(t_nodes, oracle):
    # t = 0 at s = 0 on both sides
    assert t_nodes[0] == oracle[0] == 0.0
    return float(np.max(np.abs(t_nodes[1:] - oracle[1:]) / oracle[1:]))


def test_optimal_schedule_node_times_match_a_per_cell_oracle():
    eps = 0.2
    # the oracle integrates both halves from s = 0, so [10, 54] checks the
    # mirror read past the crossing on a mixed split
    for parts in ([2], [30], [1, 63], [32, 32], [64], [10, 54]):
        schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps))
        oracle = linear_node_eps_t_oracle(parts, schedule_t.s_nodes - 0.5)
        assert _max_relative_error(schedule_t.t_nodes * eps, oracle) <= 1e-11, parts


@pytest.mark.parametrize("parts", [[12], [30], [64], [6, 6], [32, 32], [10, 10, 10], [1] * 64])
def test_optimal_schedule_matches_the_equal_split_closed_form(parts):
    # measured: every node within 3.9e-16 of the total time of the closed form
    bound = 1e-15
    eps = 0.2
    schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps))
    oracle = equal_split_time(parts[0], len(parts), eps, schedule_t.s_nodes.tolist())
    total = oracle[-1]
    assert float(abs(schedule_t.total_time - total) / total) <= bound
    assert max(float(abs(t - exact) / total) for t, exact in zip(schedule_t.t_nodes.tolist(), oracle)) <= bound


@pytest.mark.parametrize("parts", [[12], [30], [6, 6], [32, 32], [10, 10, 10], [1] * 64])
def test_s_of_t_follows_the_equal_split_closed_form(parts):
    # measured over 2,001 uniform t and the node midpoints: 2.8e-9 on [12],
    # 5.4e-10 on [6,6], 1.7e-9 on [10,10,10], 1.2e-12 on [1]*64, and in the
    # tails 6.7e-8 on [30] and 6.0e-7 on [32,32], where ds/dt is in the
    # thousands and turns the nodes' time error, about 1e-15 of T, into s
    bound = 1e-6 if parts in ([30], [32, 32]) else 1e-8
    eps = 0.2
    schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps))
    t_nodes = schedule_t.t_nodes
    t = np.concatenate([np.linspace(0.0, schedule_t.total_time, 2001), 0.5 * (t_nodes[1:] + t_nodes[:-1])])
    exact = equal_split_s(parts[0], len(parts), eps, t.tolist())
    assert max(float(abs(s - e)) for s, e in zip(schedule_t.s_of_t(t).tolist(), exact)) <= bound


@pytest.mark.parametrize("parts", [[64], [1, 63]])
def test_every_cell_of_both_cubics_keeps_its_slopes_within_three_chords(parts):
    # Fritsch & Carlson's monotone box: each cell's slope at either end over
    # its chord, alpha = d_k / m_k and beta = d_k+1 / m_k, lies in [0, 3].
    # Without the cap, 2 s(t) cells and 1 t(s) cell on [64] fall outside it.
    # Values are not sampled: in the far tails the cells are an ulp wide in
    # t. Each cubic is read on its own nodes, the last of every run of equal
    # times; on all nodes, t(s) would have zero chords, and 122 cells of [64]
    # end slopes of -2e-15 * m.
    schedule_t = _schedule_at(tuple(parts), MAX_GRID)
    for cubic, y_end in ((schedule_t._s_of_t, 1.0), (schedule_t._t_of_s, schedule_t.total_time)):
        x, y = cubic.x, np.append(cubic.c[3], y_end)
        assert np.all(np.diff(x) > 0.0)
        h = np.diff(x) / cubic.unit
        m = np.diff(y) / h
        c0, c1, c2, _ = cubic.c
        end = 3.0 * c0 * h * h + 2.0 * c1 * h + c2  # each cell's slope at its right node
        assert np.all(c2 >= 0.0) and np.all(c2 <= 3.0 * m)
        assert np.all(end >= 0.0) and np.all(end <= 3.0 * m * (1.0 + 1e-12))


def test_optimal_schedule_integrand_work_is_bounded():
    class CountingLinear(LinearSchedule):
        points = 0

        def f(self, s):
            self.points += np.size(s)
            return super().f(s)

    counting = CountingLinear()
    splitting = make_splitting(30, [30])
    schedule_t = optimal_schedule(splitting, schedule=counting)
    assert np.array_equal(schedule_t.t_nodes, optimal_schedule(splitting).t_nodes)
    # 1001 rate samples plus one 21-point piece per panel before the
    # crossing, 16 on [30]
    assert counting.points == 1001 + 16 * 21


def test_optimal_schedule_grid_validation():
    with pytest.raises(ValueError):
        optimal_schedule(make_splitting(2, [2]), grid=50)
    # one scalar rate per sample: the cap bounds the time, checked before any work
    with pytest.raises(ValueError, match="between 100 and 65536 samples"):
        optimal_schedule(make_splitting(2, [2]), grid=MAX_GRID + 1)
    for grid in (1001.0, "1001", True):
        with pytest.raises(ValueError, match="grid has the wrong type"):
            optimal_schedule(make_splitting(2, [2]), grid=grid)
    assert optimal_schedule(make_splitting(2, [2]), grid=np.int64(100)).s_nodes.size == 100


def test_integer_arguments_refuse_other_types():
    # refused before any arithmetic, which would raise TypeError deep inside
    # or, as n % num_blocks does, compute with the float
    calls = {
        "qubit count": [
            lambda: reproduce_table(6.0),
            lambda: equal_splitting(4.0, 2),
            lambda: closed_form_eps_t(4.0, 2),
            lambda: scaling_coefficients(2.0, 4.0, 2),
            lambda: max_structured_degeneracy(4.0, 1),
            lambda: max_structured_eigenvalue(2.0, 1.0, 0.5, 0.5),
            lambda: MarkedState.zeros(2.0),
        ],
        "number of blocks": [
            lambda: equal_splitting(4, 2.0),
            lambda: closed_form_eps_t(4, 2.0),
            lambda: scaling_coefficients(2.0, 4, True),
        ],
        "level": [lambda: max_structured_degeneracy(4, 1.0), lambda: max_structured_eigenvalue(4, 1.0, 0.5, 0.5)],
        "nsteps": [lambda: rk4_propagate(None, np.ones(2), 0.0, 1.0, 2.0, [[0.0, 0.0]] * 3)],
    }
    for what, refused in calls.items():
        for call in refused:
            with pytest.raises(ValueError, match=f"{what} has the wrong type: expected an integer"):
                call()
    assert closed_form_eps_t(np.int64(4), np.int32(2)) == closed_form_eps_t(4, 2)


def test_real_arguments_refuse_other_types():
    # refused before any range check: a string once raised TypeError from a
    # comparison or math call, an int past the double range OverflowError,
    # and a bool was taken as a number
    splitting = make_splitting(2, [2])
    schedule_t = pchip_time_schedule([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
    calls = {
        "s": lambda x: adiabaticity_lhs(splitting, x, 1.0),
        "ds_dt": lambda x: adiabaticity_lhs(splitting, 0.5, x),
        "eps_t": lambda x: scaling_coefficients(x, 6, 1),
        "scaled total time": lambda x: schedule_t.scaled(x).total_time,
    }
    for what, call in calls.items():
        for bad in ("0.5", True, np.bool_(True), 1j, None):
            with pytest.raises(ValueError, match=f"^{what} has the wrong type: expected a real number"):
                call(bad)
        with pytest.raises(ValueError, match=f"^{what} is past the double range"):
            call(10**400)
        assert call(np.float32(0.5)) == call(0.5)


def test_time_schedule_scaling():
    t_nodes = np.linspace(0.0, 8.0, 41)
    s_nodes = np.linspace(0.0, 1.0, 41)
    schedule_t = pchip_time_schedule(t_nodes, s_nodes)
    assert schedule_t.total_time == 8.0
    assert float(schedule_t.rate(0.5)) == pytest.approx(1.0 / 8.0, rel=1e-9)
    assert float(schedule_t.t_of_s(schedule_t.s_of_t(3.3))) == pytest.approx(3.3, abs=1e-9)

    doubled = schedule_t.scaled(16.0)
    assert doubled.total_time == 16.0
    assert float(doubled.rate(0.5)) == pytest.approx(1.0 / 16.0, rel=1e-9)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="total time"):
            schedule_t.scaled(bad)
    # a step of 1e-302 is fine for the cubics; at 5e-324 the rates overflow
    stretched = schedule_t.scaled(1e-300)
    assert float(stretched.rate(0.5)) == pytest.approx(1e300, rel=1e-9)
    assert float(stretched.s_of_t(0.5e-300)) == pytest.approx(0.5, rel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total time 5e-324 is too short"):
            schedule_t.scaled(5e-324)
    # samples this short build their cubics as any others do
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = pchip_time_schedule(np.linspace(0.0, 1e-200, 11), np.linspace(0.0, 1.0, 11))
    assert short.total_time == 1e-200
    assert float(short.rate(0.3)) == pytest.approx(1e200, rel=1e-9)
    assert float(short.t_of_s(short.s_of_t(3.3e-201))) == pytest.approx(3.3e-201, rel=1e-9)

    # the last node is the requested total, which 0.7 * (6.0 / 0.7) misses by an ulp
    assert pchip_time_schedule(np.linspace(0.0, 0.7, 8), s_nodes[:8] / s_nodes[7]).scaled(6.0).t_nodes[-1] == 6.0

    # the quench is the one-sample table (t, s, ds/dt) = (0, 1, 0), read as constants
    quench = TimeSchedule.quench()
    assert quench.total_time == 0.0
    for probe in (0.0, 0.5, 1.0, np.linspace(-1.0, 2.0, 7)):
        for value, expected in ((quench.s_of_t(probe), 1.0), (quench.t_of_s(probe), 0.0), (quench.rate(probe), 0.0)):
            assert np.shape(value) == np.shape(probe) and np.all(value == expected)
    with pytest.raises(ValueError):
        quench.scaled(2.0)


def _assert_schedule_invariants(schedule_t, strict=True):
    # t may repeat only where asked: past the crossing on blocks of 41 qubits
    # and more, the nodes lie under an ulp of T apart
    columns = (schedule_t.t_nodes, schedule_t.s_nodes, schedule_t.rate_nodes)
    for column in columns:
        assert type(column) is np.ndarray and column.dtype == np.float64 and column.shape == columns[0].shape
    assert type(schedule_t.total_time) is float
    t, s, rate = columns
    if schedule_t.total_time == 0.0:
        assert [c.tolist() for c in columns] == [[0.0], [1.0], [0.0]]
        return
    assert t[0] == 0.0 and t[-1] == schedule_t.total_time and np.all(np.diff(t) >= 0.0)
    assert not strict or np.all(np.diff(t) > 0.0)
    assert s[0] == 0.0 and s[-1] == 1.0 and np.all(np.diff(s) > 0.0)
    assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)


def test_every_schedule_the_library_builds_holds_the_table_invariants():
    # the constructor takes its table as given: these invariants hold because
    # optimal_schedule, scaled and quench build every table that way
    splits = ([1], [2], [1, 1], [3, 3], [12], [2, 10], [1, 63], [64], [32, 32], [1] * 64)
    # (schedule, whether t must rise strictly): it does wherever the largest
    # block has 32 qubits or fewer, the range of perfbench's check_schedule
    built = [(TimeSchedule.quench(), True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in splits:
            strict = max(parts) <= 32
            for eps in (0.2, 1e-3, 1e-150):
                for grid in (100, 1001, 4097):
                    schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps), grid)
                    built.append((schedule_t, strict))
                    for total in (1e-300, 1.0, 1e150, 3.0 * schedule_t.total_time):
                        try:
                            built.append((schedule_t.scaled(total), strict))
                        except ValueError as refusal:
                            assert "is too short" in str(refusal), (parts, eps, grid, total)
    assert len(built) >= 400
    for schedule_t, strict in built:
        _assert_schedule_invariants(schedule_t, strict)


def test_a_scaled_schedule_scales_again_past_the_ratio_of_its_totals():
    # new / old once underflowed to 0 or overflowed to inf: 0 * inf raised
    # numpy's RuntimeWarning, and 1e300 -> 1e-300 was refused as too short
    schedule_t = optimal_schedule(make_splitting(2, [2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, second in ((1e-300, 1e10), (1e300, 1e-300)):
            direct, chained = schedule_t.scaled(second), schedule_t.scaled(first).scaled(second)
            _assert_schedule_invariants(chained)
            assert chained.total_time == second
            np.testing.assert_allclose(chained.t_nodes, direct.t_nodes, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(chained.rate_nodes, direct.rate_nodes, rtol=1e-15, atol=0.0)


def _package_calls():
    """(module, enclosing def and class names, called name) for every call in the package's source."""

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(module, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                yield module, scope, getattr(child.func, "id", getattr(child.func, "attr", None))
            yield from visit(module, child, scope)

    for path in sorted(Path(adiasearch.__file__).parent.glob("*.py")):
        yield from visit(path.stem, ast.parse(path.read_text()), ())


def test_only_the_library_builders_construct_a_time_schedule():
    # TimeSchedule takes its table as given, so a new builder of one has to
    # hold its tables to the invariants above and join this list
    builders = {("runtime", "optimal_schedule"), ("runtime", "TimeSchedule.scaled"), ("runtime", "TimeSchedule.quench")}
    found = {
        (module, ".".join(scope))
        for module, scope, name in _package_calls()
        if name == "TimeSchedule" or (name == "cls" and scope[:1] == ("TimeSchedule",))
    }
    assert found == builders


def test_only_the_running_time_entry_points_take_a_path():
    # every search runs the linear path, whose g = s and f - g = -2x are
    # arithmetic: its coupling f is all a path gives, the one call that the
    # benchmark's counting subclass of LinearSchedule overrides, and only
    # these two take one. A dataclass field is a constructor parameter too.
    takers = {("runtime", "running_time_integral"), ("runtime", "optimal_schedule")}
    found, methods, reads = set(), set(), set()
    for path in sorted(Path(adiasearch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "schedule":
                reads.add((path.stem, node.attr))
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                names = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)]
            elif isinstance(node, ast.ClassDef):
                names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
                if node.name == "LinearSchedule":
                    methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            else:
                continue
            if {"schedule", "base"} & set(names):
                found.add((path.stem, getattr(node, "name", "<lambda>")))
    assert found == takers
    assert methods == {"f"}
    assert reads == {("runtime", "f")}
    # the rest of the package reads the linear path as (1 - s, s) and builds none
    built = {(module, ".".join(scope)) for module, scope, name in _package_calls() if name == "LinearSchedule"}
    assert built == {("runtime", "running_time_integral"), ("runtime", "optimal_schedule")}


def test_time_steps_of_any_length_suit_the_cubic_of_s_of_t():
    # at eps = 1e-150 the largest step is about 4.9e147, whose cube overflows
    # a double; the cubic works in a power-of-two unit of its span, so s(t)
    # stays finite
    splitting = make_splitting(4, [2, 2])
    schedule_t = optimal_schedule(splitting, Precision(epsilon=1e-150))
    eps_t = running_time_integral(splitting).eps_t
    assert schedule_t.total_time * 1e-150 == pytest.approx(eps_t, rel=1e-9)
    s = schedule_t.s_of_t(np.linspace(0.0, schedule_t.total_time, 1001))
    assert np.all(np.isfinite(s)) and np.all(np.diff(s) >= 0.0) and s[-1] == pytest.approx(1.0)
    assert schedule_t.scaled(1e150).total_time == 1e150
    assert pchip_time_schedule([0.0, 1e103], [0.0, 1.0]).total_time == 1e103
    # a total so long that t(s) itself overflows is still refused
    with pytest.raises(ValueError, match="the monotone cubic through values up to 1.7e\\+308 overflows"):
        schedule_t.scaled(1.7e308)
    # dividing by a power of two rounds nothing: scaling the nodes by 2^k
    # and the slopes by 2^-k keeps every value and slope to the last bit
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.01, 1.0, 12))
    y = np.cumsum(rng.uniform(0.0, 1.0, 12))
    slopes = rng.uniform(0.0, 3.0, 12)
    q = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200)])
    cubic = MonotoneCubic(x, y, slopes)
    for k in (300, -300, 900, -900):
        scaled = MonotoneCubic(np.ldexp(x, k), y, np.ldexp(slopes, -k))
        assert np.array_equal(scaled(np.ldexp(q, k)), cubic(q)), k
        assert np.array_equal(scaled.slope(np.ldexp(q, k)), np.ldexp(cubic.slope(q), -k)), k


def test_tiny_epsilon_whose_total_time_overflows_is_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon 5e-324 is too small: the total time 1.73.* / epsilon overflows"):
            optimal_schedule(make_splitting(2, [2]), Precision(epsilon=5e-324))


