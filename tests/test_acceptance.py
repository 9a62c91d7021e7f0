"""End-to-end acceptance checks.

Each test covers one criterion at its pinned tolerance and prints a single
PASS/FAIL line (run with ``pytest -s`` to see the lines as they appear).
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh

from adiasearch import cli
from adiasearch.core import LinearSchedule, MarkedState, Precision, make_splitting
from adiasearch.dynamics import adiabaticity_lhs, evolve
from adiasearch.hamiltonian import final_diagonal, final_terms
from adiasearch.runtime import (
    closed_form_eps_t,
    optimal_schedule,
    reproduce_table,
    running_time_integral,
)
from adiasearch.spectral import max_structured_degeneracy, max_structured_eigenvalue

from conftest import compositions, distinct_levels, max_word_weight, predicted_success
from oracles import build_initial

TABLE_6 = [
    (1, 7.94, 0.9962, math.inf),
    (2, 3.74, 0.9518, 3.8074),
    (3, 3.00, 0.8842, 2.0000),
    (6, 2.45, 0.7211, 1.0000),
]
TABLE_30 = [
    (1, 32768.00, 1.0000, math.inf),
    (2, 256.00, 1.0000, 16.0000),
    (3, 55.40, 0.9999, 7.3084),
    (5, 17.75, 0.9973, 3.5743),
    (6, 13.64, 0.9940, 2.9165),
    (10, 8.37, 0.9695, 1.8451),
    (15, 6.71, 0.9297, 1.4057),
    (30, 5.48, 0.8307, 1.0000),
]


def _report(name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check_table_rows(rows, reference, eps_t_abs_tol):
    failures = []
    for result, (m_ref, eps_t_ref, alpha_ref, beta_ref) in zip(rows, reference):
        m = result.splitting.num_blocks
        if m != m_ref:
            failures.append(f"row m={m} != reference m={m_ref}")
            continue
        eps_t_tol = max(eps_t_abs_tol, 1e-4 * abs(eps_t_ref))
        if abs(result.eps_t - eps_t_ref) > eps_t_tol:
            failures.append(f"m={m}: eps_T {result.eps_t:.6f} vs {eps_t_ref}")
        if abs(result.alpha - alpha_ref) > 5e-4:
            failures.append(f"m={m}: alpha {result.alpha:.6f} vs {alpha_ref}")
        if math.isinf(beta_ref):
            if not math.isinf(result.beta):
                failures.append(f"m={m}: beta {result.beta} should be inf")
        elif abs(result.beta - beta_ref) > 5e-4:
            failures.append(f"m={m}: beta {result.beta:.6f} vs {beta_ref}")
    if len(rows) != len(reference):
        failures.append(f"{len(rows)} rows vs {len(reference)} expected")
    return failures


def test_criterion_1_table_n6_reference():
    start = time.perf_counter()
    rows = reproduce_table(6)
    elapsed = time.perf_counter() - start
    failures = _check_table_rows(rows, TABLE_6, eps_t_abs_tol=0.005)
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, expected < 1s")
    _report("1 table n=6 reference", failures, f"{elapsed:.2f}s")


def test_criterion_2_table_n30_reference():
    start = time.perf_counter()
    rows = reproduce_table(30)
    elapsed = time.perf_counter() - start
    failures = _check_table_rows(rows, TABLE_30, eps_t_abs_tol=0.05)
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, expected < 10s")
    _report("2 table n=30 reference", failures, f"{elapsed:.2f}s")


def test_criterion_3_quadrature_matches_closed_form():
    configs = [(6, m) for m in (1, 2, 3, 6)]
    configs += [(30, m) for m in (1, 2, 3, 5, 6, 10, 15, 30)]
    configs += [(12, m) for m in (1, 2, 3, 4, 6, 12)]
    failures = []
    for n, blocks in configs:
        splitting = make_splitting(n, [n // blocks] * blocks)
        result = running_time_integral(splitting, LinearSchedule())
        expected = closed_form_eps_t(n, blocks)
        rel = abs(result.eps_t - expected) / expected
        if rel > 1e-6:
            failures.append(f"(n={n}, m={blocks}): relative error {rel:.2e}")
    _report("3 quadrature vs closed form", failures, f"{len(configs)} configurations")


def test_criterion_4_fully_split_spectrum():
    sched = LinearSchedule()
    failures = []
    for n in range(2, 7):
        splitting = make_splitting(n, [1] * n)
        mixing = build_initial(splitting)
        problem = np.diag(final_diagonal(splitting, MarkedState.zeros(n)))
        for s in np.linspace(0.0, 1.0, 11):
            f, g = float(sched.f(s)), float(sched.g(s))
            values = eigh(f * mixing + g * problem, eigvals_only=True)
            ladder = np.sort(
                np.concatenate(
                    [
                        np.full(
                            max_structured_degeneracy(n, k),
                            max_structured_eigenvalue(n, k, f, g),
                        )
                        for k in range(n + 1)
                    ]
                )
            )
            if np.abs(values - ladder).max() > 1e-10:
                failures.append(f"n={n}, s={s:.1f}: spectrum off by {np.abs(values - ladder).max():.2e}")
                continue
            levels, counts = distinct_levels(values, tol=1e-8)
            if counts[1] != n:
                failures.append(f"n={n}, s={s:.1f}: first excited multiplicity {counts[1]} != {n}")
            if abs((levels[1] - levels[0]) - math.hypot(f, g)) > 1e-10:
                failures.append(f"n={n}, s={s:.1f}: gap mismatch")
    _report("4 fully split spectrum", failures, "n=2..6, 11 points each")


def test_criterion_5_fully_split_time_is_sqrt_n():
    failures = []
    for n in range(1, 31):
        # saturating the summed (degenerate) condition fixes
        # dt/ds = sqrt(n) |f'g - g'f| / (2 eps omega^3) with omega^2 = f^2 + g^2
        integrand = lambda s: 0.5 * math.sqrt(n) * ((1.0 - s) ** 2 + s * s) ** -1.5
        eps_t, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)
        if abs(eps_t - math.sqrt(n)) > 1e-6 * math.sqrt(n):
            failures.append(f"n={n}: eps_T {eps_t:.8f} vs sqrt(n) {math.sqrt(n):.8f}")
    _report("5 fully split time = sqrt(n)", failures, "n=1..30")


# C in |p - p_pred| <= C * eps**3 over all 30 pairs; the largest observed
# coefficient is 6.4 ([1,3] and [3,1] at eps = 0.2).
SUCCESS_RESIDUAL_COEFF = 8.0


def test_criterion_6_adiabatic_success_estimate():
    # A schedule that holds the adiabaticity ratio at eps everywhere leaves
    # boundary excitations of up to 4 eps**2 (see predicted_success), so
    # 1 - eps**2 is not a floor it obeys; p_pred is.
    start = time.perf_counter()
    failures = []
    worst = {0.2: 0.0, 0.1: 0.0}
    for n in range(1, 5):
        for parts in compositions(n):
            splitting = make_splitting(n, parts)
            marked = MarkedState.zeros(n)
            for eps in worst:
                precision = Precision(epsilon=eps)
                schedule_t = optimal_schedule(splitting, precision)
                p = evolve(splitting, marked, schedule_t, precision).success_probability
                expected = predicted_success(parts, eps)
                residual = abs(p - expected)
                worst[eps] = max(worst[eps], residual)
                if residual > SUCCESS_RESIDUAL_COEFF * eps**3:
                    failures.append(
                        f"n={n} parts={parts} eps={eps}: p={p:.5f} vs predicted {expected:.5f} "
                        f"(residual {residual / eps**3:.2f} eps^3)"
                    )
    # the 4 eps^2 sin^2 law is the leading term: halving eps must shrink the
    # worst residual faster than eps^2 does
    if worst[0.1] > 0.25 * worst[0.2]:
        failures.append(
            f"worst residual {worst[0.1]:.4f} at eps=0.1 is not below a quarter "
            f"of {worst[0.2]:.4f} at eps=0.2"
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, expected < 60s")
    # p_pred >= 1 - 4 eps**2, so the residual bound implies this floor on p
    floors = ", ".join(
        f"p >= {1.0 - 4.0 * e**2 - SUCCESS_RESIDUAL_COEFF * e**3:.3f} at eps={e}" for e in worst
    )
    _report(
        "6 adiabatic success estimate",
        failures,
        f"{elapsed:.1f}s; worst |p - p_pred| {worst[0.2]:.4f} at eps=0.2, "
        f"{worst[0.1]:.4f} at eps=0.1; {floors}",
    )


def test_evolve_caps_the_block_not_the_register(tmp_path):
    # evolve holds one vector per distinct block size, so the paper's wide
    # rows with small blocks run, and meet the estimate as the n <= 4 splits do
    failures = []
    worst = 0.0
    for n, block_counts in ((30, (5, 6, 10, 15, 30)), (64, (16, 32, 64))):
        for m in block_counts:
            parts = [n // m] * m
            splitting = make_splitting(n, parts)
            for eps in (0.2, 0.1):
                precision = Precision(epsilon=eps)
                schedule_t = optimal_schedule(splitting, precision)
                p = evolve(splitting, MarkedState.zeros(n), schedule_t, precision).success_probability
                coeff = abs(p - predicted_success(parts, eps)) / eps**3
                worst = max(worst, coeff)
                if coeff > SUCCESS_RESIDUAL_COEFF:
                    failures.append(f"n={n} m={m} eps={eps}: residual {coeff:.2f} eps^3")
    assert cli.main(["evolve", "--n", "30", "--m", "10", "--out", str(tmp_path / "run.csv")]) == 0
    _report("evolve past 12 qubits, 12 per block", failures, f"worst |p - p_pred| {worst:.2f} eps^3")


def test_criterion_7_expansion_locality():
    rng = np.random.default_rng(77)
    failures = []
    for case in range(20):
        n = int(rng.integers(2, 9))
        parts = []
        left = n
        while left:
            p = int(rng.integers(1, left + 1))
            parts.append(p)
            left -= p
        splitting = make_splitting(n, parts)
        marked = MarkedState(tuple(int(b) for b in rng.integers(0, 2, n)))
        weight = max_word_weight(final_terms(splitting, marked))
        if weight != max(parts):
            failures.append(f"case {case}: weight {weight} != {max(parts)} for {parts}")
    coeff = dict((w, c) for c, w in final_terms(make_splitting(6, [6]), MarkedState.zeros(6)))["Z" * 6]
    if coeff != -(2.0**-6):
        failures.append(f"full-weight word coefficient {coeff} != -2^-6")
    _report("7 expansion locality", failures, "20 randomized cases")


def test_criterion_8_structure_monotonicity():
    failures = []
    for n in (6, 12):
        rows = reproduce_table(n)
        eps_ts = [r.eps_t for r in rows]
        if not all(a > b for a, b in zip(eps_ts, eps_ts[1:])):
            failures.append(f"n={n}: eps_T not strictly decreasing: {eps_ts}")
    balanced = running_time_integral(make_splitting(6, [3, 3])).eps_t
    lopsided = running_time_integral(make_splitting(6, [4, 2])).eps_t
    extreme = running_time_integral(make_splitting(6, [5, 1])).eps_t
    if not balanced < lopsided < extreme:
        failures.append(f"equal split not optimal: {balanced:.4f}, {lopsided:.4f}, {extreme:.4f}")
    _report("8 structure monotonicity", failures)


def test_criterion_9_saturation_uniformity():
    eps = 0.2
    failures = []
    for n in range(1, 7):
        splitting = make_splitting(n, [n])
        schedule_t = optimal_schedule(splitting, Precision(epsilon=eps))
        worst = 0.0
        for s in np.linspace(0.0, 1.0, 101):
            value = adiabaticity_lhs(splitting, float(s), float(schedule_t.rate(s)))
            worst = max(worst, abs(value / eps - 1.0))
        if worst > 0.02:
            failures.append(f"n={n}: saturation off by {worst:.3%}")
    _report("9 saturation uniformity", failures, "m=1, n=1..6, 101 checkpoints")
