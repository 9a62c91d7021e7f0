import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from adiasearch import kronrod, runtime
from adiasearch.cli import round_half_away
from adiasearch.core import (
    MAX_GRID,
    LinearSchedule,
    Precision,
    linear_schedule,
    make_splitting,
    tabulated_schedule,
)
from adiasearch.runtime import (
    QuadratureError,
    TimeSchedule,
    closed_form_eps_t,
    max_structured_time,
    optimal_schedule,
    reproduce_table,
    running_time_integral,
    scaling_coefficients,
)

from conftest import linear_eps_t_oracle, linear_node_eps_t_oracle

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
        result = running_time_integral(make_splitting(n, parts), linear_schedule())
        expected = closed_form_eps_t(n, blocks)
        assert abs(result.eps_t - expected) / expected <= 1e-6
        assert result.method == "quadrature"


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
    curved = tabulated_schedule(nodes, 1.0 - g, g)
    for parts in ([2], [3, 3], [6], [10, 10], [30], [1, 30]):
        splitting = make_splitting(sum(parts), parts)
        linear = running_time_integral(splitting).eps_t
        assert running_time_integral(splitting, curved).eps_t == pytest.approx(linear, rel=1e-8), parts
    # f - g is expanded about the crossing, so peaks 2^(-n/2) wide are
    # resolved as for the linear schedule
    two_node = tabulated_schedule([0.0, 1.0], [1.0, 0.0], [0.0, 1.0])
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
    with pytest.raises(ValueError):
        scaling_coefficients(2.0, 6, 0)


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
    result = max_structured_time(6)
    assert result.eps_t == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert result.method == "max_structured"
    assert result.eps_t == pytest.approx(closed_form_eps_t(6, 6), rel=1e-15)
    assert max_structured_time(1).eps_t == 1.0
    assert max_structured_time(30).eps_t == pytest.approx(math.sqrt(30.0), rel=1e-15)
    with pytest.raises(ValueError):
        max_structured_time(0)


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
    integral = running_time_integral(splitting, linear_schedule())
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
        eps_t = running_time_integral(splitting, linear_schedule()).eps_t
        assert abs(total - eps_t) / eps_t <= 1e-12


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
        schedule = tabulated_schedule(nodes, 1.0 - g, g)
        assert schedule.knots == tuple(nodes[1:-1])
        for parts in ([2], [10, 10], [30], [32, 32], [64]):
            # 1000 samples: no knot is a grid node
            schedule_t = optimal_schedule(
                make_splitting(sum(parts), parts), Precision(epsilon=eps), grid=1000, schedule=schedule
            )
            oracle = linear_node_eps_t_oracle(parts, PchipInterpolator(nodes, g)(schedule_t.s_nodes) - 0.5)
            assert _max_relative_error(schedule_t.t_nodes * eps, oracle) <= 1e-11, (nodes.size, parts)
    assert linear_schedule().knots == ()


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


def test_legendre_integrals_of_the_interpolant_are_exact_to_degree_20():
    nodes = np.array(kronrod.NODES)
    tau = np.linspace(-1.0, 1.0, 41)
    # row r: the weights on the 21 node values that give the integral from
    # -1 to tau[r] of the degree-20 polynomial through them
    weights = np.column_stack(list(kronrod._legendre_integrals(tau))) @ kronrod._legendre_inverse()
    assert np.all(weights[0] == 0.0)
    assert np.max(np.abs(weights[-1] - kronrod.WEIGHTS[0])) <= 1e-15
    rng = np.random.default_rng(11)
    for degree in range(21):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        exact = poly.integ()(tau) - poly.integ()(-1.0)
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(1.0)
        assert np.max(np.abs(weights @ poly(nodes) - exact)) <= 1e-14 * scale, degree


def test_optimal_schedule_refuses_a_stationary_hamiltonian():
    # H(s) is constant on [0, .25] and [.75, 1]: the time integral is finite,
    # but the rate that saturates the bound is unbounded there
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    paused = tabulated_schedule(nodes, [1.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0])
    # f = g = 1/2 on [.4, .6]: the crossing is flat, so there is no peak to resolve
    flat = tabulated_schedule([0.0, 0.4, 0.6, 1.0], [1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0])
    splitting = make_splitting(2, [2])
    for schedule, s_text in ((paused, r"0\.0000"), (flat, r"0\.4000")):
        assert running_time_integral(splitting, schedule).eps_t == pytest.approx(math.sqrt(3.0), rel=1e-9)
        with pytest.raises(ValueError, match=f"stationary at s = {s_text}"):
            optimal_schedule(splitting, schedule=schedule)


def test_kronrod_rule_is_exact_on_polynomials_up_to_degree_31():
    rng = np.random.default_rng(5)
    lo, hi = -0.3, 1.7
    for degree in range(32):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        exact = poly.integ()(hi) - poly.integ()(lo)
        value, err, _ = runtime._kronrod21(poly, lo, hi)
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(2.0)
        assert abs(value - exact) <= 1e-14 * scale, degree
        # the embedded 10-point Gauss rule is exact to degree 19
        if degree <= 19:
            assert err <= 50.0 * np.finfo(float).eps * scale, degree
    assert runtime._adaptive_integral(lambda u: math.exp(-u * u), -6.0, 6.0, 1e-12)[0] == pytest.approx(
        math.sqrt(math.pi), rel=1e-13
    )


def test_quadrature_error_reports_plain_floats(monkeypatch):
    splitting = make_splitting(2, [2])
    # a nan value or estimate fails the convergence rule too
    for result in ((1.0, 1.0, np.ones(21)), (math.nan, math.nan, np.ones(21))):
        monkeypatch.setattr(runtime, "_kronrod21", lambda *args, **kwargs: result)
        for call in (lambda: running_time_integral(splitting), lambda: optimal_schedule(splitting)):
            with pytest.raises(QuadratureError, match="did not converge") as caught:
                call()
            assert "np.float64" not in str(caught.value)
            assert type(caught.value.value) is float and type(caught.value.estimate) is float


def test_optimal_schedule_grid_validation():
    with pytest.raises(ValueError):
        optimal_schedule(make_splitting(2, [2]), grid=50)
    # one scalar rate per sample: the cap bounds the time, checked before any work
    with pytest.raises(ValueError, match="between 100 and 65536 samples"):
        optimal_schedule(make_splitting(2, [2]), grid=MAX_GRID + 1)


def test_time_schedule_from_samples_and_scaling():
    t_nodes = np.linspace(0.0, 8.0, 41)
    s_nodes = np.linspace(0.0, 1.0, 41)
    schedule_t = TimeSchedule.from_samples(t_nodes, s_nodes)
    assert schedule_t.total_time == 8.0
    assert float(schedule_t.rate(0.5)) == pytest.approx(1.0 / 8.0, rel=1e-9)
    assert float(schedule_t.t_of_s(schedule_t.s_of_t(3.3))) == pytest.approx(3.3, abs=1e-9)

    doubled = schedule_t.scaled(16.0)
    assert doubled.total_time == 16.0
    assert float(doubled.rate(0.5)) == pytest.approx(1.0 / 16.0, rel=1e-9)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="total time"):
            schedule_t.scaled(bad)
    # stretched so short that the time nodes collapse or the rates overflow
    for bad in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"total time {bad!r} is too short"):
            schedule_t.scaled(bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="total time"):
            TimeSchedule(schedule_t.base, bad, t_nodes, s_nodes, schedule_t.rate_nodes)
    # samples this short are refused before any interpolant or rate is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total time 1e-200 is too short"):
            TimeSchedule.from_samples(np.linspace(0.0, 1e-200, 11), np.linspace(0.0, 1.0, 11))

    quench = TimeSchedule.quench()
    assert quench.total_time == 0.0
    assert float(quench.s_of_t(0.0)) == 1.0
    with pytest.raises(ValueError):
        quench.scaled(2.0)


def test_time_steps_too_long_for_the_cubic_of_s_of_t_are_refused():
    # at eps = 1e-150 the largest step is about 4.9e147, past the 5.6e102 whose
    # cube overflows s(t); at eps = 1e-100 it is 4.9e97 and s(t) stays finite
    splitting = make_splitting(4, [2, 2])
    with pytest.raises(ValueError, match="total time 2.4494897427831.*e\\+150 is too long"):
        optimal_schedule(splitting, Precision(epsilon=1e-150))
    schedule_t = optimal_schedule(splitting, Precision(epsilon=1e-100))
    assert np.max(np.diff(schedule_t.t_nodes)) < runtime._MAX_TIME_STEP
    s = schedule_t.s_of_t(np.linspace(0.0, schedule_t.total_time, 1001))
    assert np.all(np.isfinite(s)) and np.all(np.diff(s) >= 0.0) and s[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="is too long"):
        schedule_t.scaled(1e150)
    with pytest.raises(ValueError, match="is too long"):
        TimeSchedule.from_samples([0.0, 1e103], [0.0, 1.0])


def test_singular_schedule_rejected():
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    stalled = tabulated_schedule(nodes, [1.0, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 1.0])
    # a stall narrower than the probe spacing is caught by the quadrature:
    # f'g - g'f then vanishes on all of [0, 1]
    narrow = tabulated_schedule(
        [0.0, 0.25, 0.501, 0.502, 0.75, 1.0],
        [1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.5, 1.0],
    )
    for schedule in (stalled, narrow):
        with pytest.raises(ValueError, match="singular"):
            running_time_integral(make_splitting(2, [2]), schedule)
        with pytest.raises(ValueError, match="singular"):
            optimal_schedule(make_splitting(2, [2]), schedule=schedule)
