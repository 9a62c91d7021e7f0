import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh, expm

from adiasearch import dynamics
from adiasearch.core import (
    LinearSchedule,
    MarkedState,
    Precision,
    equal_splitting,
    make_splitting,
)
from adiasearch.dynamics import (
    NormDriftError,
    adiabaticity_lhs,
    evolve,
    rk4_propagate,
)
from adiasearch.hamiltonian import MatrixFreeHamiltonian, final_diagonal, final_terms
from adiasearch.runtime import TimeSchedule, closed_form_eps_t, optimal_schedule
from adiasearch.spectral import adiabatic_ratio, subsystem_gap

from conftest import pchip_time_schedule
from oracles import build_initial, instantaneous_ground_overlap, two_level_success


def _optimal_report(n, parts, eps, marked=None, steps=None):
    splitting = make_splitting(n, parts)
    marked = marked if marked is not None else MarkedState.zeros(n)
    kwargs = {"epsilon": eps}
    if steps is not None:
        kwargs["ode_steps_per_unit_time"] = steps
    precision = Precision(**kwargs)
    schedule_t = optimal_schedule(splitting, precision)
    return evolve(splitting, marked, schedule_t, precision)


def _block_product_success(parts, schedule_t):
    """Success probability from independent two-level solves, one per block.

    Block i acts on span{|marked_i>, |uniform_i>}; in the orthonormal basis
    (|marked_i>, its complement) it is f (1 - |u><u|) + g (1 - |m><m|) with
    <m|u> = 1/sqrt(N_i), f = 1 - s, g = s. The state stays a product of
    block states, so p is the product of the per-block marked weights.
    """
    p = 1.0
    for part in parts:
        a = 2.0 ** (-0.5 * part)
        b = math.sqrt(1.0 - a * a)

        def rhs(t, y):
            s = float(schedule_t.s_of_t(t))
            f, g = 1.0 - s, s
            h = np.array([[f * b * b, -f * a * b], [-f * a * b, f * a * a + g]])
            return -1j * (h @ y)

        sol = solve_ivp(
            rhs, (0.0, schedule_t.total_time), np.array([a, b], dtype=complex),
            method="DOP853", rtol=1e-11, atol=1e-13,
        )
        p *= abs(sol.y[0, -1]) ** 2
    return p


def test_evolve_matches_block_product_oracle():
    # [1] and [2,2] miss 1 - eps**2 - 0.01 and [1,3] is the worst case of
    # criterion 6's residual; the integrator is right on all three
    for parts, eps in [([1], 0.2), ([1, 3], 0.2), ([2, 2], 0.1)]:
        n = sum(parts)
        splitting = make_splitting(n, parts)
        precision = Precision(epsilon=eps)
        schedule_t = optimal_schedule(splitting, precision)
        report = evolve(splitting, MarkedState.zeros(n), schedule_t, precision)
        expected = _block_product_success(parts, schedule_t)
        assert report.success_probability == pytest.approx(expected, abs=1e-7)


def test_two_level_oracle_matches_the_reference_successes():
    # the recorded evolve values of the benchmark, all-zeros marked state;
    # the oracle runs on the exact rate, evolve on its 1,001-node table
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    assert len(reference["success_probability"]) == 32
    for key, p in reference["success_probability"].items():
        _, parts, eps = (field.split("=")[1] for field in key.split())
        parts = [int(size) for size in parts.split(",")]
        assert two_level_success(parts, float(eps), 2**14) == pytest.approx(p, abs=1e-8), key


def test_two_level_oracle_matches_the_block_product_oracle():
    for parts, eps in [([1], 0.2), ([1, 3], 0.2), ([2, 2], 0.1)]:
        schedule_t = optimal_schedule(make_splitting(sum(parts), parts), Precision(epsilon=eps))
        expected = _block_product_success(parts, schedule_t)
        assert two_level_success(parts, eps, 2**14) == pytest.approx(expected, abs=1e-8), parts


def test_evolve_matches_the_two_level_oracle_to_1e_8():
    # evolve reads s(t) off the schedule's cubic, so the nodes must follow the
    # peaks: uniform in u they read within 1.9e-9 here, uniform in s [12] read
    # 3.7e-6 off, with the whole block peak in two cells
    for parts in ([12], [1, 11], [2, 10], [6, 6]):
        report = _optimal_report(sum(parts), parts, 0.2)
        exact = two_level_success(parts, 0.2, 1 << 16)
        assert report.success_probability == pytest.approx(exact, abs=1e-8), parts


def test_two_level_oracle_converges_at_second_order():
    # 4x the steps cuts the change about 16-fold on one 64-qubit block and
    # on [1,63], whose 1-qubit block turns 1e10 rad under the 63-qubit peak.
    # p there moves by about 1.8e-5 per 1e-14 relative change of the total
    # time, so no absolute value is pinned
    for parts in ([64], [1, 63]):
        p = [two_level_success(parts, 0.2, 4**k) for k in range(6, 10)]
        changes = [abs(b - a) for a, b in zip(p, p[1:])]
        assert all(later <= earlier / 8.0 for earlier, later in zip(changes, changes[1:])), (parts, changes)
        assert changes[-1] < 1e-8, (parts, changes)


def _full_state_run(splitting, marked, schedule_t, precision, t_checks, s_checks):
    """(p, checkpoint overlaps) from RK4 on the whole 2^n state.

    The operator is the dense f * H_initial + g * H_final of the oracles,
    and the step rule uses the whole operator's norm bound, (|f| + |g|)
    times the block count.
    """
    h_initial = build_initial(splitting).astype(complex)
    h_final = np.diag(final_diagonal(splitting, marked)).astype(complex)

    def apply(f, g, v):
        # two products: forming f * H_initial + g * H_final would build a
        # 2^n x 2^n matrix at every stage
        return f * (h_initial @ v) + g * (h_final @ v)

    base = LinearSchedule()
    bound = splitting.num_blocks * float(np.max(np.abs(base.f(s_checks)) + np.abs(base.g(s_checks))))
    h = 1.0 / (precision.ode_steps_per_unit_time * bound)
    psi = np.full(splitting.dim, 2.0 ** (-0.5 * splitting.n), dtype=complex)
    overlaps = [instantaneous_ground_overlap(psi, splitting, marked, base, s_checks[0])]
    for t0, t1, s in zip(t_checks, t_checks[1:], s_checks[1:]):
        if t1 > t0:
            nsteps = max(1, math.ceil((t1 - t0) / h))
            stages = dynamics._stage_points(schedule_t, np.array([t0, t1]), [0, nsteps]).tolist()
            psi = rk4_propagate(apply, psi, t0, t1, nsteps, stages)
        overlaps.append(instantaneous_ground_overlap(psi, splitting, marked, base, s))
    return abs(psi[marked.index]) ** 2, np.array(overlaps)


def test_evolve_matches_full_state_integration():
    # one vector per block size against the 2^n statevector, at marked
    # states whose block values are not all zero
    cases = [([1, 3], "1011"), ([2, 2], "0110"), ([1, 1, 2], "1101"), ([4, 4], "10110101")]
    for parts, bits in cases:
        n = len(bits)
        splitting = make_splitting(n, parts)
        marked = MarkedState.from_string(bits)
        for eps in (0.2, 0.1):
            precision = Precision(epsilon=eps)
            schedule_t = optimal_schedule(splitting, precision)
            report = evolve(splitting, marked, schedule_t, precision)
            p, overlaps = _full_state_run(
                splitting, marked, schedule_t, precision, report.checkpoint_t, report.checkpoint_s
            )
            assert report.success_probability == pytest.approx(p, abs=1e-9), (parts, eps)
            np.testing.assert_allclose(report.checkpoint_overlap, overlaps, rtol=0.0, atol=1e-9)


def test_evolve_integrates_one_block_vector_per_distinct_size(monkeypatch):
    entries, solves = [], []
    apply = MatrixFreeHamiltonian.apply

    def counted_apply(applier, f, g, psi):
        entries.append(psi.size)
        return apply(applier, f, g, psi)

    def counted_rk4(apply, psi, t0, t1, nsteps, stages):
        solves.append(psi.size)
        return rk4_propagate(apply, psi, t0, t1, nsteps, stages)

    monkeypatch.setattr(MatrixFreeHamiltonian, "apply", counted_apply)
    monkeypatch.setattr(dynamics, "rk4_propagate", counted_rk4)
    # 100 checkpoint intervals, one solve per distinct block size in each
    cases = [("101100111010", [6, 6], {64}, 100), ("0110", [1, 3], {2, 8}, 200)]
    for bits, parts, sizes, runs in cases:
        entries.clear()
        solves.clear()
        _optimal_report(len(bits), parts, 0.2, MarkedState.from_string(bits))
        assert set(entries) == sizes and len(solves) == runs, parts


def test_step_budget_counts_every_solve(monkeypatch):
    # T = 9000 at 64 steps per unit time is about 576,000 steps per solve:
    # one block size fits the 2^20 budget, two block sizes do not
    class SteppingBegan(Exception):
        pass

    def stepping_began(*args):
        raise SteppingBegan

    monkeypatch.setattr(dynamics, "_stage_points", stepping_began)
    precision = Precision(epsilon=0.2)
    for parts, outcome in (([2, 2], SteppingBegan), ([1, 3], ValueError)):
        splitting = make_splitting(4, parts)
        schedule_t = optimal_schedule(splitting, precision).scaled(9000.0)
        with pytest.raises(outcome):
            evolve(splitting, MarkedState.zeros(4), schedule_t, precision)
    refusal = r"for each of 2 block sizes\), over the budget of 1048576"
    with pytest.raises(ValueError, match=refusal):
        evolve(splitting, MarkedState.zeros(4), schedule_t, precision)


def test_step_counts_follow_the_per_interval_rule(monkeypatch):
    # evolve counts the steps of all intervals as one float array; each count
    # must equal the scalar rule max(1, ceil((t1 - t0) / h)), 0 for no width
    counted = []

    def counting_rk4(apply, psi, t0, t1, nsteps, stages):
        counted.append(nsteps)
        return psi

    monkeypatch.setattr(dynamics, "rk4_propagate", counting_rk4)
    # the ramp of the second schedule reaches s = 0.6 almost at once, so its
    # first checkpoint intervals are far shorter than one step
    ramp = pchip_time_schedule([0.0, 1e-9, 3.0], [0.0, 0.6, 1.0])
    cases = [(optimal_schedule(make_splitting(4, [2, 2])), 64), (ramp, 7)]
    for schedule_t, steps_per_unit in cases:
        counted.clear()
        precision = Precision(ode_steps_per_unit_time=steps_per_unit)
        report = evolve(make_splitting(4, [2, 2]), MarkedState.zeros(4), schedule_t, precision)
        h = 1.0 / steps_per_unit  # evolve's step
        t = report.checkpoint_t
        expected = [max(1, math.ceil((t1 - t0) / h)) for t0, t1 in zip(t[:-1], t[1:]) if t1 > t0]
        assert counted == expected and all(type(n) is int for n in counted)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(5e-324)
@example(2.0**-54)
@example(2.0**-53)
@example(math.nextafter(0.5, 0.0))
@example(0.5)
@example(math.nextafter(0.5, 1.0))
@example(1.0 - 2.0**-53)
@example(1.0)
def test_linear_couplings_sum_to_exactly_one(s):
    # why evolve's step is 1 / ode_steps_per_unit_time with no norm factor:
    # |f| + |g| = (1 - s) + s of the linear path rounds to 1 at every double
    # s in [0, 1] (1 - s is exact for s >= 1/2, and below that its rounding
    # error of at most 2^-54 rounds away in the sum)
    path = LinearSchedule()
    assert (1.0 - s) + s == 1.0
    assert abs(path.f(s)) + abs(path.g(s)) == 1.0


def test_report_counts_the_steps_the_budget_bounds(monkeypatch):
    # n = 2, [2]: the hand count of the benchmark's counter test, one solve
    splitting = make_splitting(2, [2])
    precision = Precision(epsilon=0.2)
    schedule_t = optimal_schedule(splitting, precision)
    report = evolve(splitting, MarkedState.zeros(2), schedule_t, precision)
    s_checks = np.linspace(0.0, 1.0, 101)
    t_checks = np.asarray(schedule_t.t_of_s(s_checks), dtype=float)
    t_checks[0], t_checks[-1] = 0.0, schedule_t.total_time
    t_checks = np.maximum.accumulate(t_checks)
    h = 1.0 / precision.ode_steps_per_unit_time
    expected = sum(max(1, math.ceil((t1 - t0) / h)) for t0, t1 in zip(t_checks, t_checks[1:]) if t1 > t0)
    assert type(report.steps) is int and report.steps == expected
    # the steps of every rk4_propagate call, over all solves
    counted = []

    def counted_rk4(apply, psi, t0, t1, nsteps, stages):
        counted.append(nsteps)
        return rk4_propagate(apply, psi, t0, t1, nsteps, stages)

    monkeypatch.setattr(dynamics, "rk4_propagate", counted_rk4)
    for parts, solves in (([1, 3], 2), ([2, 2], 1)):
        counted.clear()
        report = _optimal_report(4, parts, 0.2)
        assert report.steps == sum(counted) and len(counted) == 100 * solves, parts
    # a quench takes no step
    counted.clear()
    assert evolve(splitting, MarkedState.zeros(2), TimeSchedule.quench(), precision).steps == 0
    assert counted == []


def test_step_counts_too_large_for_an_int_are_refused():
    # the step count is a float until it has passed the budget: a step rate
    # past the largest double, or a count past it, reads inf
    splitting = make_splitting(1, [1])
    schedule_t = optimal_schedule(splitting)
    cases = [
        (schedule_t, Precision(ode_steps_per_unit_time=10**400)),
        (schedule_t.scaled(1e300), Precision(ode_steps_per_unit_time=10**20)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, precision in cases:
            with pytest.raises(ValueError, match=r"the run needs inf RK4 steps \(inf for each of 1 block sizes\)"):
                evolve(splitting, MarkedState.zeros(1), run, precision)


def test_rk4_order_against_matrix_exponential():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((8, 8))
    frozen = (raw + raw.T) / 2.0
    psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi0 /= np.linalg.norm(psi0)
    duration = 3.0
    exact = expm(-1j * frozen * duration) @ psi0

    errors = []
    for nsteps in (30, 60, 120, 240):
        psi = rk4_propagate(lambda f, g, v: frozen @ v, psi0, 0.0, duration, nsteps, [[0.0] * nsteps] * 3)
        errors.append(np.linalg.norm(psi - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    for order in orders:
        assert abs(order - 4.0) <= 0.3


def _stage_lists(sigma, t0, t1, nsteps):
    """The three stage lists of rk4_propagate for s = sigma(t), at the stage
    times t0 + k * h, + 0.5 * h and + h with h = (t1 - t0) / nsteps."""
    h = (t1 - t0) / nsteps
    starts = [t0 + k * h for k in range(nsteps)]
    return [[sigma(t + offset) for t in starts] for offset in (0.0, 0.5 * h, h)]


def _textbook_rk4(apply_h, psi, t0, t1, nsteps):
    """Classical RK4 as printed: k_i = -1j H psi_i, psi + (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    h = (t1 - t0) / nsteps
    for k in range(nsteps):
        t = t0 + k * h
        k1 = -1j * apply_h(t, psi)
        k2 = -1j * apply_h(t + 0.5 * h, psi + (0.5 * h) * k1)
        k3 = -1j * apply_h(t + 0.5 * h, psi + (0.5 * h) * k2)
        k4 = -1j * apply_h(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def test_rk4_rounds_as_the_textbook_form():
    # the folded -1j and the in-place stage sum change no bit of the result
    rng = np.random.default_rng(8)
    applier = MatrixFreeHamiltonian(make_splitting(5, [5]), MarkedState.from_string("10110"))
    raw = rng.standard_normal((8, 8))
    frozen = (raw + raw.T) / 2.0

    def sigma(t):
        return math.sin(t) ** 2

    def fg(t):
        return (1.0 - sigma(t), sigma(t))

    cases = [(applier.apply, 32), (lambda f, g, v: frozen @ v, 8)]
    for apply, dim in cases:
        # evolve's real uniform start, then a generic complex state
        uniform = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        for psi in (uniform, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)):
            for t0, t1, nsteps in ((0.0, 3.0, 40), (0.3, 0.7, 1)):
                expected = _textbook_rk4(lambda t, v: apply(*fg(t), v), psi, t0, t1, nsteps)
                stages = _stage_lists(sigma, t0, t1, nsteps)
                assert np.array_equal(rk4_propagate(apply, psi, t0, t1, nsteps, stages), expected)


def test_rk4_validates_steps():
    with pytest.raises(ValueError):
        rk4_propagate(lambda f, g, v: v, np.ones(2, dtype=complex), 0.0, 1.0, 0, [[]] * 3)


def test_quench_probability_is_uniform_weight():
    for n, parts in [(2, [2]), (3, [1, 2])]:
        splitting = make_splitting(n, parts)
        report = evolve(splitting, MarkedState.zeros(n), TimeSchedule.quench(), Precision(epsilon=0.5))
        p = report.success_probability
        assert p == pytest.approx(2.0**-n, abs=1e-12)
        assert not report.guarantee_met
        assert report.total_time == 0.0
        # one checkpoint at s = 1, reached without a step; the norm is measured
        uniform = [np.full(2**q, 1.0 / math.sqrt(2**q), dtype=complex) for q in parts]
        norm = math.prod(float(np.linalg.norm(block)) for block in uniform)
        assert report.checkpoint_t.tolist() == [0.0]
        assert report.checkpoint_s.tolist() == [1.0]
        assert report.checkpoint_overlap.tolist() == [p]
        assert report.checkpoint_lhs.tolist() == [0.0]
        assert report.checkpoint_norm.tolist() == [norm]
        assert report.norm_drift == abs(norm - 1.0)
        assert report.max_adiabaticity_lhs == 0.0


def test_marked_length_is_refused_by_block_values_alone():
    splitting = make_splitting(2, [2])
    marked = MarkedState.zeros(3)
    with pytest.raises(ValueError) as expected:
        marked.block_values(splitting)
    precision = Precision()
    calls = [
        lambda: final_diagonal(splitting, marked),
        lambda: MatrixFreeHamiltonian(splitting, marked),
        lambda: final_terms(splitting, marked),
        lambda: evolve(splitting, marked, optimal_schedule(splitting, precision), precision),
        lambda: evolve(splitting, marked, TimeSchedule.quench(), precision),
    ]
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == str(expected.value)


def test_norm_conservation_at_default_resolution():
    report = _optimal_report(2, [2], 0.2)
    assert report.norm_drift / report.total_time < 1e-9


def test_frozen_success_probabilities():
    # converged integrator values (stable to 1e-10 across 64 vs 256 steps)
    frozen = {
        (2, (2,), 0.1): 0.9747890507,
        (3, (1, 1, 1), 0.1): 0.9887707162,
        (3, (3,), 0.1): 0.9994822801,
        (1, (1,), 0.1): 0.9777901328,
        (1, (1,), 0.2): 0.8990109626,
    }
    for (n, parts, eps), expected in frozen.items():
        report = _optimal_report(n, list(parts), eps)
        assert report.success_probability == pytest.approx(expected, abs=1e-6)


def test_success_examples_that_meet_the_estimate():
    report = _optimal_report(3, [1, 1, 1], 0.1)
    assert report.success_probability >= 0.98
    assert report.guarantee_met
    # slower drive at the same structure comes even closer to certainty
    report = _optimal_report(3, [1, 1, 1], 0.05)
    assert report.success_probability >= 0.99


def test_marked_state_independence():
    rng = np.random.default_rng(8)
    splitting = make_splitting(3, [1, 2])
    precision = Precision(epsilon=0.2)
    schedule_t = optimal_schedule(splitting, precision)
    baseline = evolve(splitting, MarkedState.zeros(3), schedule_t, precision)
    for _ in range(3):
        bits = MarkedState(tuple(int(b) for b in rng.integers(0, 2, 3)))
        report = evolve(splitting, bits, schedule_t, precision)
        assert report.success_probability == pytest.approx(
            baseline.success_probability, abs=1e-9
        )


def test_checkpoint_lhs_is_the_scalar_adiabaticity_lhs():
    # evolve takes the diagnostic at every checkpoint in one array pass
    for parts in ([2, 10], [1, 3], [3, 3], [1] * 12, [1] * 10 + [2]):
        n = sum(parts)
        splitting = make_splitting(n, parts)
        precision = Precision(epsilon=0.2)
        schedule_t = optimal_schedule(splitting, precision)
        report = evolve(splitting, MarkedState.zeros(n), schedule_t, precision)
        rates = schedule_t.rate(report.checkpoint_s).tolist()
        expected = [
            adiabaticity_lhs(splitting, s, rate)
            for s, rate in zip(report.checkpoint_s.tolist(), rates)
        ]
        assert report.checkpoint_lhs.tolist() == expected, parts


def test_scalar_adiabaticity_lhs_is_the_array_row():
    # evolve's cap keeps the checkpoint test below 13 qubits; this one reaches
    # 11 blocks of three sizes, which the ratio sums as three weighted terms.
    # The time integrand and adiabaticity_lhs call the same ratio with Python
    # floats.
    sched = LinearSchedule()
    s = np.linspace(0.0, 1.0, 101)[:, None]
    f, g = sched.f(s), sched.g(s)
    rates = 0.5 + s[:, 0]
    for parts in ([2, 10], [1] * 10 + [2], [8, 8, 8, 3, 8, 8, 8, 1, 1, 3, 1]):
        splitting = make_splitting(sum(parts), parts)
        ratio = adiabatic_ratio(splitting)
        ratios = ratio(sched.difference(s, 0.0), f, g)
        floats = [ratio(sched.difference(x, 0.0), sched.f(x), sched.g(x)) for x in s[:, 0].tolist()]
        assert ratios.tolist() == floats, parts
        scalar = [adiabaticity_lhs(splitting, x, r) for x, r in zip(s[:, 0].tolist(), rates.tolist())]
        assert (ratios * rates).tolist() == scalar, parts


def test_checkpoint_lhs_reads_epsilon_along_the_optimal_schedule():
    # optimal_schedule holds the root-sum-square of the block ratios at eps,
    # on mixed splits too; the diagnostic does not depend on the step size
    for parts in ([2, 10], [1, 11], [1, 2, 9], [6, 6], [12]):
        report = _optimal_report(12, parts, 0.2, steps=16)
        assert report.checkpoint_lhs.size == 101
        assert np.allclose(report.checkpoint_lhs, 0.2, rtol=1e-5, atol=0.0), parts


def test_schedule_rates_times_the_ratio_read_epsilon_past_the_evolution_cap():
    # the checkpoint test above stops at evolve's 12-qubit cap; the schedule's
    # rates are epsilon over the same ratio, so on blocks of up to 64 qubits
    # every node reads epsilon to rounding: measured within 2 ulps (4.4e-16),
    # here held to 1e-15, with f - g taken at s as evolve takes it
    eps = 0.2
    for parts in ([30], [64], [32, 32], [20, 10], [1, 63]):
        splitting = make_splitting(sum(parts), parts)
        schedule_t = optimal_schedule(splitting, Precision(epsilon=eps))
        base = LinearSchedule()
        s = schedule_t.s_nodes[:, None]
        ratio = adiabatic_ratio(splitting)
        lhs = ratio(base.difference(s, 0.0), base.f(s), base.g(s)) * schedule_t.rate_nodes
        assert lhs.size == 1001
        assert np.max(np.abs(lhs / eps - 1.0)) <= 1e-15, parts


def test_adiabaticity_zero_rate():
    assert adiabaticity_lhs(make_splitting(2, [2]), 0.3, 0.0) == 0.0


def test_adiabaticity_saturated_along_optimal_schedule():
    for n in (1, 2, 4):
        splitting = make_splitting(n, [n])
        precision = Precision(epsilon=0.2)
        schedule_t = optimal_schedule(splitting, precision)
        for s in np.linspace(0.0, 1.0, 11):
            value = adiabaticity_lhs(splitting, float(s), float(schedule_t.rate(s)))
            assert value == pytest.approx(precision.epsilon, rel=0.01)


def test_adiabaticity_linear_in_time_bound():
    # driving uniformly over T = N / eps keeps the diagnostic below eps
    eps = 0.1
    for n in (1, 2, 3):
        splitting = make_splitting(n, [n])
        dim = 2.0**n
        rate = eps / dim
        values = []
        for s in np.linspace(0.0, 1.0, 101):
            values.append(adiabaticity_lhs(splitting, float(s), rate))
        assert max(values) <= eps * (1.0 + 1e-9)
        assert max(values) == pytest.approx(eps * math.sqrt((dim - 1.0) / dim), rel=1e-6)


def test_equal_splits_warn_nothing_and_square_to_the_summed_condition():
    # a degenerate first excited level needs no warning: the root-sum-square
    # element already makes the square of the value the summed condition
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adiabaticity_lhs(make_splitting(3, [1, 1, 1]), 0.5, 0.1)
        adiabaticity_lhs(make_splitting(6, [3, 3]), 0.3, 0.1)


def test_degenerate_condition_refuses_what_the_closed_form_refuses():
    for n in (0, 65):
        with pytest.raises(ValueError):
            closed_form_eps_t(n, n)
        with pytest.raises(ValueError):
            adiabaticity_lhs(equal_splitting(n, n), 0.5, 0.1)


def test_diagnostics_refuse_s_outside_the_unit_interval():
    sched = LinearSchedule()
    splitting = make_splitting(2, [1, 1])
    state = np.full(4, 0.5, dtype=complex)
    calls = [
        lambda s: adiabaticity_lhs(splitting, s, 0.1),
        lambda s: instantaneous_ground_overlap(state, splitting, MarkedState.zeros(2), sched, s),
    ]
    for call in calls:
        for s in (1.5, -0.2, math.nan, np.float64(1.0 + 1e-12)):
            with pytest.raises(ValueError, match=r"s must be in \[0, 1\]"):
                call(s)
        for s in (0.0, 1.0):
            assert math.isfinite(call(s))


def test_diagnostics_refuse_a_non_finite_rate():
    for ds_dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="ds_dt must be finite"):
            adiabaticity_lhs(make_splitting(3, [1, 2]), 0.4, ds_dt)
        with pytest.raises(ValueError, match="ds_dt must be finite"):
            adiabaticity_lhs(equal_splitting(3, 3), 0.4, ds_dt)
    # a finite rate whose product overflows reads inf, with no numpy warning
    assert adiabaticity_lhs(make_splitting(2, [2]), 0.5, 1e308) == math.inf


def test_degenerate_condition_scales_linearly_with_qubits():
    one = adiabaticity_lhs(equal_splitting(1, 1), 0.4, 0.07) ** 2
    four = adiabaticity_lhs(equal_splitting(4, 4), 0.4, 0.07) ** 2
    assert four == pytest.approx(4.0 * one, rel=1e-12)


def test_degenerate_condition_saturates_at_eps_squared():
    eps = 0.1
    for n in (1, 5):
        schedule_t = optimal_schedule(make_splitting(n, [1] * n), Precision(epsilon=eps))
        for s in (0.0, 0.3, 0.5, 0.9, 1.0):
            value = adiabaticity_lhs(equal_splitting(n, n), s, float(schedule_t.rate(s))) ** 2
            assert value == pytest.approx(eps**2, rel=1e-6)


def test_sqrt_n_time_from_saturating_the_summed_condition():
    # integrate the saturated path directly and compare with the closed form
    for n in (7, 13):
        integrand = lambda s: 0.5 * math.sqrt(n) * ((1.0 - s) ** 2 + s * s) ** -1.5
        eps_t, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)
        assert eps_t == pytest.approx(math.sqrt(n), rel=1e-8)
        assert eps_t == pytest.approx(closed_form_eps_t(n, n), rel=1e-8)


def test_ground_overlap_boundaries():
    # from 11 qubits on, the ground vector used to come from a Lanczos solve
    # that returned a degenerate pair at s = 1 (gap 1e-16): the overlap raised
    # "near-degenerate", and the last checkpoint at n=12 read 1.6e-5, not p
    sched = LinearSchedule()
    for parts, bits in [([2], "00"), ([5, 6], "10110011010"), ([12], "011010011101")]:
        n = sum(parts)
        splitting = make_splitting(n, parts)
        marked = MarkedState.from_string(bits)
        uniform = np.full(1 << n, 2.0 ** (-0.5 * n), dtype=complex)
        target = np.zeros(1 << n, dtype=complex)
        target[marked.index] = 1.0
        for state, s in ((uniform, 0.0), (target, 1.0)):
            overlap = instantaneous_ground_overlap(state, splitting, marked, sched, s)
            assert overlap == pytest.approx(1.0, abs=1e-12)
    for parts, bits, eps in [([2], "00", 0.1), ([6, 6], "110100101101", 0.2)]:
        n = sum(parts)
        splitting = make_splitting(n, parts)
        precision = Precision(epsilon=eps)
        report = evolve(
            splitting, MarkedState.from_string(bits), optimal_schedule(splitting, precision), precision
        )
        assert report.checkpoint_overlap[-1] == pytest.approx(report.success_probability, abs=1e-9)
        assert report.checkpoint_overlap[0] == pytest.approx(1.0, abs=1e-9)


def test_closed_form_probe_matches_dense_diagonalization():
    # Oracle: the full operator from build_initial + final_diagonal,
    # diagonalized densely, [5,5] at the 1024 dimensions where the library
    # used to switch from this to Lanczos. The ratio over unit ds/dt is the
    # sum over states sqrt(sum_{e>0} |<e|dH/ds|0>|^2 / (E_e - E_0)^4), which
    # does not depend on the basis eigh picks inside a degenerate level.
    sched = LinearSchedule()
    cases = [
        ([1, 3], "0110"), ([2, 1, 1], "1011"), ([3, 3], "101001"), ([2, 4], "100110"),
        ([1, 5], "011010"), ([5, 5], "1100110101"),
    ]
    for parts, bits in cases:
        n = sum(parts)
        splitting = make_splitting(n, parts)
        marked = MarkedState.from_string(bits)
        h_initial = build_initial(splitting)
        h_final = final_diagonal(splitting, marked)
        for s in (0.0, 0.3, 0.5, 0.77, 1.0):
            f, g = sched.f(s), sched.g(s)
            vals, vecs = eigh(f * h_initial + np.diag(g * h_final))
            # dH/ds = f' H_initial + g' H_final with f' = -1 and g' = 1
            drive = -(h_initial @ vecs[:, 0]) + h_final * vecs[:, 0]
            dense_ratio = math.sqrt(np.sum((vecs[:, 1:].T @ drive) ** 2 / (vals[1:] - vals[0]) ** 4))

            gap = subsystem_gap(splitting.block_dims, f, g).min()
            assert gap == pytest.approx(vals[1] - vals[0], abs=1e-10)
            overlap = instantaneous_ground_overlap(vecs[:, 0], splitting, marked, sched, s)
            assert overlap == pytest.approx(1.0, abs=1e-10)
            assert adiabaticity_lhs(splitting, s, 1.0) == pytest.approx(dense_ratio, rel=1e-10)


def test_ground_overlap_matches_the_dense_ground_vector():
    # random normalized states against |<ground|state>|^2 with the ground
    # vector from eigh, at marked states whose block values are not all zero
    rng = np.random.default_rng(15)
    sched = LinearSchedule()
    cases = [([1, 3], "0110"), ([2, 1, 1], "1011"), ([3, 3], "101001"), ([5, 5], "1100110101")]
    for parts, bits in cases:
        n = sum(parts)
        splitting = make_splitting(n, parts)
        marked = MarkedState.from_string(bits)
        h_initial = build_initial(splitting)
        h_final = final_diagonal(splitting, marked)
        for s in (0.0, 0.3, 0.5, 0.77, 1.0):
            _, vecs = eigh(sched.f(s) * h_initial + np.diag(sched.g(s) * h_final))
            for _ in range(3):
                state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
                state /= np.linalg.norm(state)
                expected = abs(np.vdot(vecs[:, 0], state)) ** 2
                overlap = instantaneous_ground_overlap(state, splitting, marked, sched, s)
                assert overlap == pytest.approx(expected, abs=1e-12), (parts, s)


def test_stage_couplings_equal_scalar_schedule_calls():
    # evolve evaluates the schedule for the whole run in chunks of 512 steps;
    # every column must be exactly the s that scalar evaluations at the
    # integrator's stage times give, so the success probability is unchanged
    schedule_t = pchip_time_schedule([0.0, 1.5, 2.0, 7.0], [0.0, 0.3, 0.6, 1.0])
    t_checks = schedule_t.t_of_s(np.array([0.0, 0.29, 0.29, 0.61, 0.8, 1.0]))
    # the second interval with steps straddles the chunk boundary at column 512
    steps = [0, 300, 0, 400, 1, 9]
    stages = dynamics._stage_points(schedule_t, t_checks, steps)
    assert stages.shape == (3, sum(steps)) and sum(steps) > dynamics._STAGE_CHUNK

    def sigma(t):
        return float(schedule_t.s_of_t(t))

    expected = [[], [], []]
    for t0, t1, nsteps in zip(t_checks, t_checks[1:], steps[1:]):
        if nsteps:
            for row, values in zip(expected, _stage_lists(sigma, t0, t1, nsteps)):
                row += values
    assert stages.tolist() == expected


def test_rk4_refuses_couplings_of_the_wrong_length(monkeypatch):
    psi = np.ones(2, dtype=complex)
    # lists too short or too long, too few, one short, and the six (f, g) lists of the old format
    wrong = [[[1.0] * 3] * 3, [[1.0] * 5] * 3, [[1.0] * 4] * 2, [[1.0] * 4] * 2 + [[1.0] * 3], [[1.0] * 4] * 6]
    for stages in wrong:
        with pytest.raises(ValueError, match="stage lists of nsteps=4"):
            rk4_propagate(lambda f, g, v: v, psi, 0.0, 1.0, 4, stages)
    # a stage table one step short reaches the integrator as a short last interval
    stage_points = dynamics._stage_points
    monkeypatch.setattr(dynamics, "_stage_points", lambda *args: stage_points(*args)[:, :-1])
    with pytest.raises(ValueError, match="stage lists"):
        _optimal_report(2, [2], 0.2)


def test_ground_overlap_stays_high_along_slow_run():
    report = _optimal_report(3, [3], 0.1)
    assert report.checkpoint_overlap.min() >= 0.95


def test_norm_drift_error_guidance():
    # one step per unit time over a long run leaves visible norm drift
    splitting = make_splitting(2, [2])
    precision = Precision(epsilon=0.05, ode_steps_per_unit_time=1)
    schedule_t = optimal_schedule(splitting, precision)
    with pytest.raises(NormDriftError, match="ode_steps_per_unit_time"):
        evolve(splitting, MarkedState.zeros(2), schedule_t, precision)


def test_evolve_validates_inputs():
    with pytest.raises(ValueError):
        evolve(
            make_splitting(13, [13]),
            MarkedState.zeros(13),
            TimeSchedule.quench(),
            Precision(),
        )
    with pytest.raises(ValueError):
        evolve(
            make_splitting(2, [2]),
            MarkedState.zeros(3),
            TimeSchedule.quench(),
            Precision(),
        )

