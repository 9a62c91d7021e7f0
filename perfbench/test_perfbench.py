"""Tests of the benchmark itself: failure accounting, counters, names."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import adiasearch as a  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_corrupted_table_result_is_counted_as_failed():
    op = workloads.build("table", seed=3).ops[0]
    good = op.run()
    corrupted = workloads.Outcome(
        table={n: [dataclasses.replace(r, eps_t=r.eps_t * 1.001) for r in rows] for n, rows in good.table.items()}
    )
    tally = run.Tally()
    run.run_op(op, tally)
    op.run = lambda: corrupted
    run.run_op(op, tally)
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)


def test_raising_op_is_counted_as_failed():
    def boom():
        raise ValueError("bad input")

    op = workloads.Op("boom", boom, lambda outcome: [])
    tally = run.Tally()
    run.run_op(op, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_evolution_checks_separate_wrong_values_from_the_known_red_case():
    eps, p_ref = 0.1, 0.9663465677062365  # n=4 [2,2], below 1 - eps**2 - 0.01
    assert workloads.check_evolution(p_ref, 1e-12, False, eps, p_ref, "x") == []
    assert workloads.check_evolution(p_ref + 1e-6, 1e-12, False, eps, p_ref, "x")
    assert workloads.check_evolution(p_ref, 1e-5, False, eps, p_ref, "x")
    assert workloads.check_evolution(p_ref, 1e-12, True, eps, p_ref, "x")
    check = workloads._cli_evolve_checker(eps, p_ref)
    report = {"success_probability": p_ref, "norm_drift": 0.0, "guarantee_met": False}
    assert check(4, json.dumps(report)) == []
    assert check(0, json.dumps(report))
    assert check(2, "")


def test_schedule_check_rejects_wrong_total_and_non_increasing_nodes():
    assert workloads.check_schedule([0.0, 1.0, 2.0], 2.0, 0.5, 1.0, "x") == []
    assert workloads.check_schedule([0.0, 1.0, 2.0], 2.0, 0.5, 1.01, "x")
    assert workloads.check_schedule([0.0, 1.0, 1.0], 1.0, 1.0, 1.0, "x")


def _traced_n2():
    splitting = a.make_splitting(2, [2])
    precision = a.Precision(epsilon=0.2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        schedule_t = a.optimal_schedule(splitting, precision)
        after_schedule = tracer.counts()
        a.evolve(splitting, a.MarkedState.zeros(2), schedule_t, precision)
    finally:
        tracer.uninstall()
    return schedule_t, precision, after_schedule, tracer


def test_counters_on_a_tiny_configuration_match_hand_computed_values():
    schedule_t, precision, after_schedule, tracer = _traced_n2()
    counts = tracer.counts()
    # the step rule evolve documents: h = 1 / (steps per unit time * norm
    # bound), norm bound = max(|f| + |g|) * blocks = 1 for one linear block,
    # and every checkpoint interval gets ceil(dt / h) steps
    s_checks = np.linspace(0.0, 1.0, 101)
    t_checks = np.asarray(schedule_t.t_of_s(s_checks), dtype=float)
    t_checks[0], t_checks[-1] = 0.0, schedule_t.total_time
    t_checks = np.maximum.accumulate(t_checks)
    h = 1.0 / precision.ode_steps_per_unit_time
    expected = sum(max(1, math.ceil((t1 - t0) / h)) for t0, t1 in zip(t_checks, t_checks[1:]) if t1 > t0)
    assert counts["dynamics.rk4_steps"] == expected
    assert counts["hamiltonian.matvec_calls"] >= 4 * expected
    # per apply: a real or complex state in, the float diagonal, a result out
    calls, dim = counts["hamiltonian.matvec_calls"], 4
    assert calls * dim * (8 + 8 + 8) <= counts["hamiltonian.matvec_bytes"] <= calls * dim * (16 + 8 + 16)
    # schedule evaluations are counted inside runtime spans only
    assert after_schedule["runtime.integrand_calls"] > 1000
    assert counts["runtime.integrand_calls"] == after_schedule["runtime.integrand_calls"]
    assert counts["runtime.integrand_points"] >= counts["runtime.integrand_calls"]
    assert [name for name, *_ in tracer.spans].count("dynamics.rk4") == 100
    assert _traced_n2()[3].counts() == counts


def test_tracer_restores_every_patched_attribute():
    before = {(m, attr): getattr(m, attr) for m, attr, _ in tracing.SPANNED}
    apply = a.MatrixFreeHamiltonian.apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert a.runtime.optimal_schedule is not before[a.runtime, "optimal_schedule"]
        assert a.optimal_schedule is a.runtime.optimal_schedule
    finally:
        tracer.uninstall()
    assert all(getattr(m, attr) is fn for (m, attr), fn in before.items())
    assert a.optimal_schedule is before[a.runtime, "optimal_schedule"]
    assert a.MatrixFreeHamiltonian.apply is apply


def test_metric_names_and_units_agree_with_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = list(end_to_end) + list(per_layer) + list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit) for unit in {**end_to_end, **per_layer}.values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 21))) == (10, "p50")
    assert run.tail(list(range(1, 101))) == (90, "p90")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert run.tail(list(range(1, 20))) == (19, "max")


def test_importtime_parser_reads_cumulative_microseconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      9303 |     726110 |   adiasearch.core\n"
        "import time:      8825 |      45853 |     adiasearch.runtime\n"
        "import time:       837 |     791731 | adiasearch\n"
    )
    assert run.parse_importtime(text) == {"core": 0.72611, "runtime": 0.045853}


def test_speed_scale_recovers_reference_time_across_two_levels():
    # 30 ticks of 20 ms wall at the reference speed, 70 at a level 1.9x
    # slower: the work done is what 30 + 70 / 1.9 ticks do at reference speed
    speeds = [1.0] * 30 + [1 / 1.9] * 70
    wall = 0.02 * len(speeds)
    assert math.isclose(wall * speed.scale(speeds), 0.02 * (30 + 70 / 1.9))


def test_op_time_leaves_out_probe_bursts():
    probe = speed.SpeedProbe()
    slow = speed.Kernel(lambda: time.sleep(0.2), 0.2)

    def run_with_burst():
        probe.burst(slow)
        time.sleep(0.01)
        return workloads.Outcome()

    op = workloads.Op("sleepy", run_with_burst, lambda outcome: [])
    elapsed, _ = run.run_op(op, run.Tally(), probe)
    assert 0.01 <= elapsed < 0.1 and probe.busy_s >= 0.2


def test_child_samples_its_speed_and_passes_the_exit_code_on(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    record = tmp_path / "probe.json"
    for args, expected in ((["import"], 0), (["cli", "no-such-command"], 2)):
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(record), *args], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == expected, done.stderr
        probe = json.loads(record.read_text())
        assert probe["bursts"] > 0 and probe["scale"] > 0 and probe["busy_s"] > 0
