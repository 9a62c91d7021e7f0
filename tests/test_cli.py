import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adiasearch
from adiasearch import cli

# child interpreters import the package from where this one found it
_CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(adiasearch.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
)


def run_cli(*argv):
    return cli.main(list(argv))


def test_table_n6_csv_content(tmp_path, capsys):
    out = tmp_path / "table6.csv"
    assert run_cli("table", "--n", "6", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines == [
        "m,n_per_m,eps_T,alpha,beta",
        "1,6,7.94,0.9962,inf",
        "2,3,3.74,0.9518,3.8074",
        "3,2,3.00,0.8842,2.0000",
        "6,1,2.45,0.7211,1.0000",
    ]


def test_table_stdout_and_determinism(tmp_path, capsys):
    assert run_cli("table", "--n", "6") == 0
    first = capsys.readouterr().out
    assert run_cli("table", "--n", "6") == 0
    second = capsys.readouterr().out
    assert first == second
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli("table", "--n", "6", "--out", str(out_a))
    run_cli("table", "--n", "6", "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_table_json_format(tmp_path):
    out = tmp_path / "table.json"
    assert run_cli("table", "--n", "6", "--format", "json", "--out", str(out)) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["beta"] == "inf"
    assert rows[0]["eps_T"] == 7.94
    assert [row["m"] for row in rows] == [1, 2, 3, 6]


def test_table_n64_single_block_row_is_exact(capsys):
    # eps*T = sqrt(2^64 - 1), which rounds to 2^32 at two decimals
    assert run_cli("table", "--n", "64") == 0
    assert capsys.readouterr().out.split("\n")[1] == "1,64,4294967296.00,1.0000,inf"


def test_unwritable_out_is_config_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run_cli("table", "--n", "6", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("adia table: error: ") and err.count("\n") == 1
    assert list(tmp_path.rglob(".adia-*.tmp")) == []


def test_table_check_passes(capsys):
    assert run_cli("table", "--n", "6", "--check") == 0
    captured = capsys.readouterr()
    assert "all 4 rows match" in captured.err


def test_table_check_detects_drift(monkeypatch, capsys):
    wrong = [row[:2] + (row[2] + 1.0,) + row[3:] for row in cli.REFERENCE_TABLES[6]]
    monkeypatch.setitem(cli.REFERENCE_TABLES, 6, wrong)
    assert run_cli("table", "--n", "6", "--check") == 3
    assert "MISMATCH" in capsys.readouterr().err


def test_table_invalid_n_is_config_error(capsys):
    for value in ("0", "65"):
        assert run_cli("table", "--n", value) == 2
        assert capsys.readouterr().err == f"adia table: error: n must be in [1, 64], got {value}\n"


def test_unknown_flag_is_config_error(capsys):
    assert run_cli("table", "--n", "6", "--bogus") == 2
    # the table depends on quad_tol only, so it takes no --eps
    assert run_cli("table", "--n", "6", "--eps", "0.2") == 2


def test_gap_profile_csv(tmp_path):
    out = tmp_path / "gap.csv"
    assert run_cli("gap", "--n", "6", "--parts", "6", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,omega_1,omega_global"
    assert len(lines) == 1002
    mid = lines[1 + 500].split(",")
    assert float(mid[0]) == 0.5
    assert float(mid[2]) == pytest.approx(0.125, abs=1e-12)
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(values) == pytest.approx(0.125, abs=1e-12)


def test_gap_equal_split_flag(tmp_path):
    out = tmp_path / "gap2.csv"
    assert run_cli("gap", "--n", "4", "--m", "2", "--grid", "11", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,omega_1,omega_2,omega_global"
    assert len(lines) == 12


def test_schedule_export(tmp_path):
    out = tmp_path / "schedule.csv"
    assert run_cli(
        "schedule", "--n", "4", "--parts", "2,2", "--eps", "0.1", "--out", str(out)
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,s,ds_dt"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    times = [row[0] for row in rows]
    assert times == sorted(times)
    assert times[-1] * 0.1 == pytest.approx(math.sqrt(6.0), abs=1e-3)


def test_pauli_output(capsys):
    assert run_cli("pauli", "--n", "2", "--parts", "2", "--marked", "00") == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0.75\tII", "-0.25\tIZ", "-0.25\tZI", "-0.25\tZZ"]


def test_pauli_term_budget_is_config_error(capsys):
    for n, parts in (("40", "20,20"), ("60", "20,20,20")):
        assert run_cli("pauli", "--n", n, "--parts", parts) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "term budget of 1048576" in err


def test_pauli_maximal_weight_one(capsys):
    assert run_cli("pauli", "--n", "4", "--parts", "1,1,1,1") == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n"):
        word = line.split("\t")[1]
        assert sum(1 for c in word if c != "I") <= 1


def test_evolve_quench_misses_guarantee(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "evolve", "--n", "2", "--parts", "2", "--eps", "0.5", "--total-time", "0",
        "--out", str(out),
    )
    assert code == 4
    report = json.loads(out.read_text())
    assert report["success_probability"] == pytest.approx(0.25, abs=1e-12)
    assert report["total_time"] == 0.0


def test_evolve_maximal_meets_guarantee(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "evolve", "--n", "3", "--parts", "1,1,1", "--eps", "0.1", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["success_probability"] >= 0.98
    assert report["guarantee_met"] is True


def test_evolve_total_time_tracks_closed_form(tmp_path):
    out = tmp_path / "report.json"
    run_cli("evolve", "--n", "4", "--parts", "2,2", "--eps", "0.1", "--out", str(out))
    report = json.loads(out.read_text())
    assert report["total_time"] * 0.1 == pytest.approx(math.sqrt(6.0), abs=1e-3)


def test_evolve_checkpoint_csv(tmp_path):
    out = tmp_path / "checkpoints.csv"
    run_cli(
        "evolve", "--n", "2", "--parts", "1,1", "--eps", "0.2", "--format", "csv",
        "--out", str(out),
    )
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,s,overlap,lhs,norm"
    assert len(lines) == 102


def test_evolve_bad_marked_is_config_error(capsys):
    assert run_cli("evolve", "--n", "3", "--parts", "3", "--marked", "01") == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_total_time_is_config_error(capsys):
    for value in ("nan", "inf"):
        assert run_cli("evolve", "--n", "2", "--m", "1", "--total-time", value) == 2
        assert "total time must be finite" in capsys.readouterr().err


def test_collapsing_total_time_is_config_error(capsys):
    # the stretched time nodes collapse (5e-324) or overflow the interpolant
    for value in ("1e-300", "5e-324"):
        assert run_cli("evolve", "--n", "1", "--m", "1", "--total-time", value) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"total time {float(value)!r} is too short" in err


def test_grid_cap_is_config_error(capsys):
    for command in ("gap", "schedule", "evolve"):
        assert run_cli(command, "--n", "2", "--m", "1", "--grid", "65537") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "65536 samples, got 65537" in err


def test_oversized_block_is_config_error(capsys):
    # blocks past 64 qubits used to overflow (2000) or divide by zero (1023)
    for argv in (
        ("gap", "--n", "2000", "--m", "1"),
        ("schedule", "--n", "2000", "--m", "1"),
        ("schedule", "--n", "1023", "--m", "1"),
        ("gap", "--n", "66", "--parts", "1,65"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cap of 64 qubits per block" in err


def test_evolve_cap_is_checked_before_tabulating(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("optimal_schedule ran for a state over the evolution cap")

    monkeypatch.setattr(cli.runtime, "optimal_schedule", must_not_run)
    assert run_cli("evolve", "--n", "13", "--parts", "13", "--grid", "5000") == 2
    assert "evolution cap of 12 qubits" in capsys.readouterr().err


def test_evolve_step_budget_is_checked_before_stepping(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("stepping work began for a run over the step budget")

    # the stage tabulation comes first and would take gigabytes here
    monkeypatch.setattr(cli.dynamics, "_stage_couplings", must_not_run)
    monkeypatch.setattr(cli.dynamics, "rk4_propagate", must_not_run)
    assert run_cli("evolve", "--n", "2", "--m", "1", "--total-time", "1e9") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over the budget of 1048576" in err


def test_parts_and_m_are_exclusive():
    assert run_cli("gap", "--n", "4", "--parts", "2,2", "--m", "2") == 2
    assert run_cli("gap", "--n", "4") == 2


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "adiasearch", "table", "--n", "6"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("m,n_per_m,eps_T,alpha,beta")


def test_package_and_commands_run_without_scipy():
    # scipy is a test dependency only: with its import blocked, the package
    # and every computing command still run
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import adiasearch\n"
        "from adiasearch import cli\n"
        "for argv in (['table', '--n', '6'], ['schedule', '--n', '6', '--m', '2'],\n"
        "             ['gap', '--n', '4', '--m', '2'], ['evolve', '--n', '4', '--m', '2']):\n"
        "    code = cli.main(argv)\n"
        "    assert code in (0, 4), (argv, code)\n"
        "assert not [name for name in sys.modules if name.startswith('scipy.')]\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_CHILD_ENV)
    assert result.returncode == 0, result.stderr


# Repeated entries weight the draws toward valid input, so that examples
# also reach the computations and not only the argument checks.
_ODD_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "5e-324", "x", "")
_FLAG_VALUES = {
    "--eps": _ODD_VALUES + ("0.2", "0.5", "1"),
    "--grid": _ODD_VALUES + ("1", "2", "100", "137", "137", "65537"),
    "--total-time": _ODD_VALUES + ("1", "1e-99", "1e9"),
    "--steps": _ODD_VALUES + ("1", "64", "100000000"),
    "--marked": ("0", "01", "0000", "1010", "2", ""),
    "--format": ("csv", "json", "xml"),
}
_COMMAND_FLAGS = {
    "table": ("--format",),
    "gap": ("--grid", "--format"),
    "schedule": ("--eps", "--grid", "--format"),
    "pauli": ("--marked",),
    "evolve": ("--eps", "--total-time", "--steps", "--grid", "--marked", "--format"),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    parts = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    n = draw(st.sampled_from((str(sum(parts)),) * 3 + ("-1", "0", "65")))
    argv = [command, "--n", n]
    if command == "table":
        if draw(st.booleans()):
            argv.append("--check")
    elif draw(st.booleans()):
        odd_parts = ("", ",", "1,,2", "0,2", "-1,3", "1.5", "x", "65")
        argv += ["--parts", draw(st.sampled_from((",".join(map(str, parts)),) * 3 + odd_parts))]
    else:
        argv += ["--m", draw(st.sampled_from(("1", "1", "2", "0", "-1", "x")))]
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_argv())
def test_every_argv_gives_a_documented_exit_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
