import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from adiasearch import runtime
from adiasearch.cli import format_schedule, round_half_away
from adiasearch.core import (
    MAX_GRID,
    LinearSchedule,
    MarkedState,
    MonotoneCubic,
    Precision,
    Schedule,
    TabulatedSchedule,
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
    for n, blocks in [(6, 1), (6, 2), (6, 3), (6, 6), (12, 1), (12, 4), (30, 1), (30, 10)]:
        parts = [n // blocks] * blocks
        result = running_time_integral(make_splitting(n, parts), LinearSchedule())
        expected = closed_form_eps_t(n, blocks)
        assert abs(result.eps_t - expected) / expected <= 1e-6


def test_single_blocks_match_the_closed_form_up_to_64_qubits():
    # the peak is 2^(-n/2) wide: rounding s near 1/2 moves it by up to
    # 5e-7 of its width at 64 qubits
    for n in range(50, 65):
        eps_t = running_time_integral(make_splitting(n, [n])).eps_t
        assert abs(eps_t - closed_form_eps_t(n, 1)) / closed_form_eps_t(n, 1) <= 1e-12, n


def test_mixed_splits_match_a_high_precision_oracle():
    assert linear_eps_t_oracle([40]) == pytest.approx(math.sqrt(2.0**40 - 1.0), rel=1e-15)
    # a small block's broad bump next to a large block's narrow peak
    for parts in ([1, 63], [3, 61], [5, 59], [10, 54]):
        eps_t = running_time_integral(make_splitting(64, parts)).eps_t
        oracle = linear_eps_t_oracle(parts)
        assert abs(eps_t - oracle) / oracle <= 1e-12, parts


def test_tabulated_schedules_with_f_plus_g_one_give_the_linear_time():
    # with f = 1 - g, f'g - g'f = -g', so eps*T is the integral of
    # sqrt(sum_i w_i / omega_i**6) over g from 0 to 1, whatever the path g(s)
    nodes = np.linspace(0.0, 1.0, 9)
    g = nodes + 0.2 * np.sin(2.0 * np.pi * nodes) / (2.0 * np.pi)
    curved = TabulatedSchedule(nodes, 1.0 - g, g)
    for parts in ([2], [3, 3], [6], [10, 10], [30], [1, 30]):
        splitting = make_splitting(sum(parts), parts)
        linear = running_time_integral(splitting).eps_t
        assert running_time_integral(splitting, curved).eps_t == pytest.approx(linear, rel=1e-12), parts
    # the running time breaks at the knots, where f'' and g'' jump, as the
    # tabulation does; the crossing s = 1/2 is a knot of every schedule here.
    # f - g is taken about that node on both sides of it, so it is exactly 0
    # there and a 64-qubit peak stays symmetric; taken over the left
    # interval's width it missed by 1e-17, which put [64] off by up to 1.2e-7
    splits = [[3, 3], [6], [6, 6], [2, 10], [1] * 16, [1, 2, 9], [12]]
    for size, profile, cases in (
        (11, "smoothstep", splits + [[64], [32, 32]]),
        (101, "cos2", splits + [[1, 63]]),
        (11, "cos2", [[64]]),
        (9, "cos2", [[64]]),
    ):
        nodes = np.linspace(0.0, 1.0, size)
        g = 3.0 * nodes**2 - 2.0 * nodes**3 if profile == "smoothstep" else np.sin(0.5 * np.pi * nodes) ** 2
        schedule = TabulatedSchedule(nodes, 1.0 - g, g)
        for parts in cases:
            splitting = make_splitting(sum(parts), parts)
            linear = running_time_integral(splitting).eps_t
            eps_t = running_time_integral(splitting, schedule).eps_t
            assert eps_t == pytest.approx(linear, rel=1e-12), (profile, size, parts)
    # f - g is expanded about the crossing, so peaks 2^(-n/2) wide are
    # resolved as for the linear schedule
    two_node = TabulatedSchedule([0.0, 1.0], [1.0, 0.0], [0.0, 1.0])
    for n in (50, 56, 60, 64):
        for schedule in (two_node, curved):
            eps_t = running_time_integral(make_splitting(n, [n]), schedule).eps_t
            assert abs(eps_t - closed_form_eps_t(n, 1)) / closed_form_eps_t(n, 1) <= 1e-12, n


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


def test_optimal_schedule_total_is_the_running_time_integral_at_large_blocks():
    # the tabulation and the integral run the same panels around the peak,
    # so they agree to rounding even where the peak is 2^-32 wide
    precision = Precision(epsilon=0.2)
    for n in (60, 64):
        splitting = make_splitting(n, [n])
        total = optimal_schedule(splitting, precision).total_time * precision.epsilon
        eps_t = running_time_integral(splitting, LinearSchedule()).eps_t
        assert abs(total - eps_t) / eps_t <= 1e-12


class _QuarterCircleSchedule(Schedule):
    """f = cos(pi s / 2), g = sin(pi s / 2), crossing at s = 1/2. It keeps
    the base class's difference, f - g at the rounded s_star + x."""

    def f(self, s):
        return np.cos(0.5 * np.pi * s)

    def g(self, s):
        return np.sin(0.5 * np.pi * s)

    def df(self, s):
        return -0.5 * np.pi * np.sin(0.5 * np.pi * s)

    def dg(self, s):
        return 0.5 * np.pi * np.cos(0.5 * np.pi * s)


def test_a_user_schedule_runs_through_the_base_difference():
    # Oracle: scipy quad of the s-integrand |f'g - g'f| sqrt(sum_i
    # (N_i - 1)/N_i^2 / omega_i^6), omega_i^2 = (f - g)^2 + 4fg/N_i, with
    # f'g - g'f = -pi/2, (f - g)^2 = 1 - sin(pi s) and 4fg = 2 sin(pi s)
    schedule = _QuarterCircleSchedule()
    assert "difference" not in vars(_QuarterCircleSchedule)
    precision = Precision(epsilon=0.2)
    for parts in ([3], [1, 3], [2, 5], [1, 10]):
        dims = [2.0**p for p in parts]

        def integrand(s):
            omega_sq = [1.0 - (1.0 - 2.0 / d) * math.sin(math.pi * s) for d in dims]
            return 0.5 * math.pi * math.sqrt(sum((d - 1.0) / d**2 / w**3 for d, w in zip(dims, omega_sq)))

        halves = ((0.0, 0.5), (0.5, 1.0))
        expected = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in halves)
        splitting = make_splitting(sum(parts), parts)
        eps_t = running_time_integral(splitting, schedule).eps_t
        # the quadrature's convergence rule: summed estimate <= 10 QUAD_TOL |total|
        assert eps_t == pytest.approx(expected, rel=10 * runtime.QUAD_TOL), parts
        total = optimal_schedule(splitting, precision, schedule=schedule).total_time
        assert total * precision.epsilon == pytest.approx(eps_t, rel=1e-6), parts


def _max_relative_error(t_nodes, oracle):
    # t = 0 at s = 0 on both sides
    assert t_nodes[0] == oracle[0] == 0.0
    return float(np.max(np.abs(t_nodes[1:] - oracle[1:]) / oracle[1:]))


def test_optimal_schedule_node_times_match_a_per_cell_oracle():
    eps = 0.2
    for parts in ([2], [30], [1, 63], [32, 32], [64]):
        schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps))
        oracle = linear_node_eps_t_oracle(parts, schedule_t.s_nodes - 0.5)
        assert _max_relative_error(schedule_t.t_nodes * eps, oracle) <= 1e-11, parts


def test_tabulated_schedule_node_times_break_at_its_knots():
    # f'' and g'' jump at the interior samples; a quadrature piece across
    # one interpolates the time up to 6e-8 off. With f + g = 1 the time
    # to s is the linear schedule's time to s = g(s).
    nine = np.linspace(0.0, 1.0, 9)
    seven = np.array([0.0, 0.13, 0.29, 0.47, 0.61, 0.83, 1.0])
    eps = 0.2
    for nodes, g in (
        (nine, nine + 0.2 * np.sin(2.0 * np.pi * nine) / (2.0 * np.pi)),
        (seven, np.array([0.0, 0.08, 0.27, 0.46, 0.63, 0.9, 1.0])),
    ):
        schedule = TabulatedSchedule(nodes, 1.0 - g, g)
        assert schedule.knots == tuple(nodes[1:-1])
        for parts in ([2], [10, 10], [30], [32, 32], [64]):
            # 1000 samples: no knot is a grid node
            schedule_t = optimal_schedule(
                make_splitting(sum(parts), parts), Precision(epsilon=eps), grid=1000, schedule=schedule
            )
            oracle = linear_node_eps_t_oracle(parts, PchipInterpolator(nodes, g)(schedule_t.s_nodes) - 0.5)
            assert _max_relative_error(schedule_t.t_nodes * eps, oracle) <= 1e-11, (nodes.size, parts)
    assert LinearSchedule().knots == ()


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
    # 1001 rate samples plus a few dozen 21-point pieces
    assert counting.points <= 2000


def test_optimal_schedule_refuses_a_stationary_hamiltonian():
    # H(s) is constant on [0, .25] and [.75, 1]: the time integral is finite,
    # but the rate that saturates the bound is unbounded there
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    paused = TabulatedSchedule(nodes, [1.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0])
    # f = g = 1/2 on [.4, .6]: the crossing is flat, so there is no peak to resolve
    flat = TabulatedSchedule([0.0, 0.4, 0.6, 1.0], [1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0])
    splitting = make_splitting(2, [2])
    for schedule, s_text in ((paused, r"0\.0000"), (flat, r"0\.4000")):
        assert running_time_integral(splitting, schedule).eps_t == pytest.approx(math.sqrt(3.0), rel=1e-9)
        with pytest.raises(ValueError, match=f"stationary at s = {s_text}"):
            optimal_schedule(splitting, schedule=schedule)


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
        "level": [lambda: max_structured_degeneracy(4, 1.0)],
        "nsteps": [lambda: rk4_propagate(None, np.ones(2), 0.0, 1.0, 2.0, [[0.0, 0.0]] * 6)],
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
        "s": lambda x: adiabaticity_lhs(splitting, LinearSchedule(), x, 1.0),
        "ds_dt": lambda x: adiabaticity_lhs(splitting, LinearSchedule(), 0.5, x),
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
    # a step of 1e-302 is fine for the cubics; at 5e-324 the time steps vanish
    stretched = schedule_t.scaled(1e-300)
    assert float(stretched.rate(0.5)) == pytest.approx(1e300, rel=1e-9)
    assert float(stretched.s_of_t(0.5e-300)) == pytest.approx(0.5, rel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total time 5e-324 is too short"):
            schedule_t.scaled(5e-324)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="total time"):
            TimeSchedule(schedule_t.base, bad, t_nodes, s_nodes, schedule_t.rate_nodes)
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


def test_time_schedule_holds_every_table_to_one_rule():
    # the constructor once took the first three tables, and evolve ran them
    # to a success probability without complaint
    base = LinearSchedule()
    t, s, rate = np.linspace(0.0, 50.0, 11), np.linspace(0.0, 1.0, 11), np.full(11, 0.02)
    cases = [
        ((50.0, t, s[::-1], rate), "strictly increasing s"),
        ((50.0, t, np.linspace(0.2, 0.4, 11), rate), "span s = 0 to s = 1"),
        ((50.0, t / 50.0, s, rate), "t samples must run from 0 to the total time 50.0"),
        ((50.0, t, s[:10], rate), "s, t, rate sample arrays must have equal length"),
        ((50.0, np.linspace(1.0, 50.0, 11), s, rate), "t samples must run from 0"),
        ((50.0, t[None, :], s[None, :], rate[None, :]), "need at least two schedule samples"),
        ((0.0, np.zeros(2), np.ones(2), np.zeros(2)), "a zero total time takes only the sample"),
        ((0.0, np.zeros(1), np.zeros(1), np.zeros(1)), "a zero total time takes only the sample"),
        # once a TypeError from isfinite, and a bool total was taken as 1
        (("5", [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]), "total time has the wrong type: expected a real number, got '5'"),
        ((True, [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]), "total time has the wrong type: expected a real number, got True"),
        # a t span past the double range once leaked numpy's overflow warning
        ((1e308, [-1e308, 1e308], [0.0, 1.0], [1.0, 1.0]), "t samples must run from 0 to the total time 1e\\+308"),
        # once numpy's RuntimeWarning from inf - inf, and twice "too short"
        ((1.0, [0.0, math.inf, math.inf], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]), "t samples must be finite"),
        ((1.0, [0.0, math.nan, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]), "t samples must be finite"),
        ((1.0, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, math.nan, 1.0]), "rate samples must be finite"),
        # once numpy's UFuncTypeError from the steps of a string column
        ((1.0, ["0", "0.5", "1"], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]), "t samples have the wrong type: expected real"),
        # once numpy's "diff requires input that is at least one dimensional"
        ((1.0, 1.0, [0.0, 1.0], [1.0, 1.0]), "s, t, rate sample arrays must have equal length"),
        ((1.0, [[0.0, 1.0]], [0.0, 1.0], [1.0, 1.0]), "s, t, rate sample arrays must have equal length"),
        ((1.0, [[1.0, 0.0]], [0.0, 1.0], [1.0, 1.0]), "s, t, rate sample arrays must have equal length"),
    ]
    for (total, t_nodes, s_nodes, rate_nodes), message in cases:
        with pytest.raises(ValueError, match=message):
            TimeSchedule(base, total, t_nodes, s_nodes, rate_nodes)
    assert TimeSchedule(base, 50.0, t, s, rate).s_of_t(25.0) == pytest.approx(0.5, rel=1e-15)
    # an int or numpy total is stored as a float
    for total in (50, np.float32(50.0)):
        assert type(TimeSchedule(base, total, t, s, rate).total_time) is float
    # one node reads as a constant with slope 0, wherever it is probed
    constant = MonotoneCubic([0.3], [5.0])
    assert constant(np.array([-1.0, 0.3, 7.0])).tolist() == [5.0] * 3 and constant.slope(0.3) == 0.0


def test_time_schedule_refuses_bad_samples():
    # a NaN s once ran to p = 0.25 with a NaN diagnostic, and s from 0.2 to
    # 0.8 ran H over part of the path under checkpoints labelled 0 to 1
    base = LinearSchedule()
    cases = [
        ((2.0, [0.0, math.nan, 2.0], [0.0, 0.5, 1.0]), "t samples must be finite"),
        ((2.0, [0.0, 1.0, math.inf], [0.0, 0.5, 1.0]), "t samples must be finite"),
        ((2.0, [0.0, 1.0, 2.0], [0.0, math.nan, 1.0]), "s samples must be finite"),
        ((2.0, [0.0, 1.0, 2.0], [0.0, -math.inf, 1.0]), "s samples must be finite"),
        ((2.0, [0.0, 1.0, 2.0], [0.2, 0.5, 0.8]), "span s = 0 to s = 1"),
        ((2.0, [0.0, 1.0, 2.0], [0.0, 0.5, 0.9]), "span s = 0 to s = 1"),
        ((2.0, [0.0, 1.0, 2.0], [-1e-9, 0.5, 1.0]), "span s = 0 to s = 1"),
        ((2.0, [0.0, 1.0, 2.0], [0.0, 0.5]), "s, t, rate sample arrays must have equal length"),
        ((1.0, [0.0, 1.0, 1.0], [0.0, 0.5, 1.0]), "total time 1.0 is too short: its steps vanish"),
        # once parsed as numbers, read as 0 and 1, and a TypeError
        ((2.0, [0.0, 2.0], ["0", "1"]), "s samples have the wrong type: expected real numbers, got str32 values"),
        ((2.0, [0.0, 2.0], [False, True]), "s samples have the wrong type: expected real numbers, got bool values"),
        ((2.0, [0.0, 2.0 + 0j], [0.0, 1.0]), "t samples have the wrong type: expected real numbers, got complex128 values"),
    ]
    for (total, t_nodes, s_nodes), message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                TimeSchedule(base, total, t_nodes, s_nodes, [0.5] * len(t_nodes))
    # one rule for every sampled curve of s: the same bad s column reads the
    # same in a tabulated schedule and in a time schedule
    for s_nodes in ([0.0, 0.5, 0.5, 1.0], [0.2, 0.4, 0.6, 0.8], [0.0, 0.5, math.nan, 1.0]):
        with pytest.raises(ValueError) as tabulated:
            TabulatedSchedule(s_nodes, [1.0, 0.6, 0.4, 0.0], [0.0, 0.4, 0.6, 1.0])
        with pytest.raises(ValueError) as sampled:
            TimeSchedule(base, 3.0, [0.0, 1.0, 2.0, 3.0], s_nodes, [1.0] * 4)
        assert str(tabulated.value) == str(sampled.value)
    # ends within the boundary tolerance of the tabulated schedules pass
    assert TimeSchedule(base, 2.0, [0.0, 1.0, 2.0], [1e-13, 0.5, 1.0 - 1e-13], [0.5] * 3).total_time == 2.0


@st.composite
def _float32_tables(draw):
    """A valid (t, s, ds/dt) table of float64 columns whose every value a float32 holds:
    integer t steps and rates, s in steps of 1/1024."""
    size = draw(st.integers(2, 12))
    t_steps = draw(st.lists(st.integers(1, 1000), min_size=size - 1, max_size=size - 1))
    interior = draw(st.lists(st.integers(1, 1023), min_size=size - 2, max_size=size - 2, unique=True))
    rates = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
    return np.cumsum([0.0, *t_steps]), np.array([0, *sorted(interior), 1024]) / 1024.0, np.array(rates, dtype=float)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_float32_tables())
def test_time_schedule_stores_float64_columns_whatever_their_input_type(table):
    # a table built from lists once kept its lists: scaled raised TypeError and
    # format_schedule AttributeError, and int columns were written as ints
    base = LinearSchedule()
    total = float(table[0][-1])

    def artifacts(columns):
        schedule_t = TimeSchedule(base, total, *columns)
        for column in (schedule_t.t_nodes, schedule_t.s_nodes, schedule_t.rate_nodes):
            assert type(column) is np.ndarray and column.dtype == np.float64
        return [format_schedule(x, fmt) for x in (schedule_t, schedule_t.scaled(2.0 * total)) for fmt in ("csv", "json")]

    expected = artifacts(table)
    integral = [c.astype(np.int64) if np.all(c == np.round(c)) else c for c in table]
    for columns in ([c.tolist() for c in table], integral, [c.astype(np.float32) for c in table]):
        assert artifacts(columns) == expected


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
    # keeps every value, and scales every slope by 2^-k, to the last bit
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.01, 1.0, 12))
    y = np.cumsum(rng.uniform(0.0, 1.0, 12))
    q = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200)])
    cubic = MonotoneCubic(x, y)
    for k in (300, -300, 900, -900):
        scaled = MonotoneCubic(np.ldexp(x, k), y)
        assert np.array_equal(scaled(np.ldexp(q, k)), cubic(q)), k
        assert np.array_equal(scaled.slope(np.ldexp(q, k)), np.ldexp(cubic.slope(q), -k)), k


def test_tiny_epsilon_whose_total_time_overflows_is_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon 5e-324 is too small: the total time 1.73.* / epsilon overflows"):
            optimal_schedule(make_splitting(2, [2]), Precision(epsilon=5e-324))


def test_singular_schedule_rejected():
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    stalled = TabulatedSchedule(nodes, [1.0, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 1.0])
    # a stall narrower than the probe spacing is caught by the quadrature:
    # f'g - g'f then vanishes on all of [0, 1]
    narrow = TabulatedSchedule(
        [0.0, 0.25, 0.501, 0.502, 0.75, 1.0],
        [1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.5, 1.0],
    )
    for schedule in (stalled, narrow):
        with pytest.raises(ValueError, match="singular"):
            running_time_integral(make_splitting(2, [2]), schedule)
        with pytest.raises(ValueError, match="singular"):
            optimal_schedule(make_splitting(2, [2]), schedule=schedule)
