import contextlib
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adiasearch
from adiasearch import cli
from adiasearch.core import MarkedState, Precision, equal_splitting, make_splitting
from adiasearch.dynamics import evolve
from adiasearch.runtime import RunTimeResult, optimal_schedule, reproduce_table, scaling_coefficients
from adiasearch.spectral import gap_profile

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


def test_table_n1_row_prints_a_plain_zero_alpha(tmp_path):
    csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
    assert run_cli("table", "--n", "1", "--out", str(csv_out)) == 0
    assert csv_out.read_text() == "m,n_per_m,eps_T,alpha,beta\n1,1,1.00,0.0000,inf\n"
    assert run_cli("table", "--n", "1", "--format", "json", "--out", str(json_out)) == 0
    assert '"alpha": 0.0,' in json_out.read_text()
    assert json.loads(json_out.read_text()) == [{"m": 1, "n_per_m": 1, "eps_T": 1.0, "alpha": 0.0, "beta": "inf"}]
    # an eps_t one ulp under the closed form's 1 gives a tiny negative alpha,
    # and the row stays the same: it does not depend on the quadrature's last bit
    eps_t = math.nextafter(1.0, 0.0)
    result = RunTimeResult(equal_splitting(1, 1), eps_t, *scaling_coefficients(eps_t, 1, 1))
    assert result.alpha < 0.0
    assert "".join(cli.format_table([result], "csv")) == csv_out.read_text()
    assert "".join(cli.format_table([result], "json")) == json_out.read_text()


def test_unwritable_out_is_config_error(monkeypatch, tmp_path, capsys):
    # reported by the path given, never by the random temp file name; a
    # directory, and the empty path, once got a temp file in the parent of
    # the path's directory and then failed the rename; a FIFO (or a device
    # node) was once replaced by the renamed temp file, and the run exited 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    made = []
    os_open = cli.os.open
    monkeypatch.setattr(cli.os, "open", lambda path, *args: made.append(path) or os_open(path, *args))
    for out, reason in (
        (tmp_path / "missing" / "x.csv", "No such file or directory"),
        (tmp_path, "Is a directory"),
        (pipe, "not a regular file"),
    ):
        assert run_cli("table", "--n", "6", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"adia table: error: cannot write {out}: {reason}\n"
        assert ".adia-" not in err
    assert list(tmp_path.rglob(".adia-*.tmp")) == list(tmp_path.parent.glob(".adia-*.tmp")) == []
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert run_cli("table", "--n", "6", "--out", "") == 2
    assert capsys.readouterr().err == "adia table: error: cannot write : No such file or directory\n"
    # only the missing directory got as far as asking for a temp file
    assert [os.path.dirname(path) for path in made] == [str(tmp_path / "missing")]
    assert all(os.path.basename(path).startswith(".adia-") and path.endswith(".tmp") for path in made)


def test_out_file_gets_the_mode_of_a_plain_open(tmp_path):
    # a new file gets 0o666 less the umask, not mkstemp's 0o600, and a
    # replaced file keeps its own mode, as open(path, "w") leaves them
    for umask, mode in ((0o022, 0o644), (0o027, 0o640), (0o077, 0o600)):
        out = tmp_path / f"table-{umask:o}.csv"
        previous = os.umask(umask)
        try:
            assert run_cli("table", "--n", "6", "--out", str(out)) == 0
            assert stat.S_IMODE(os.stat(out).st_mode) == mode
            for kept in (0o600, 0o664):
                out.chmod(kept)
                assert run_cli("table", "--n", "6", "--out", str(out)) == 0
                assert stat.S_IMODE(os.stat(out).st_mode) == kept
        finally:
            os.umask(previous)


def test_out_file_mode_leaves_the_umask_alone(monkeypatch, tmp_path):
    # the kernel applies the umask when the temp file is created; the writer
    # once read the umask by setting it to 0 and back, so for that moment a
    # file any other thread created got mode 0o666
    def no_umask(mask):
        raise AssertionError("os.umask called")

    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", no_umask)
            out = tmp_path / "table.csv"
            assert run_cli("table", "--n", "6", "--out", str(out)) == 0
            assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
            out.chmod(0o604)
            assert run_cli("table", "--n", "6", "--out", str(out)) == 0
            assert stat.S_IMODE(os.stat(out).st_mode) == 0o604
    finally:
        os.umask(previous)


def test_symlinked_out_is_written_through(tmp_path, capsys):
    # as with `> link.csv`: the link stays and its target gets the bytes; the
    # rename once replaced the link with a regular file and left the target
    # empty. A dangling link makes its target, and a looping one is refused.
    plain = tmp_path / "plain.csv"
    assert run_cli("table", "--n", "6", "--out", str(plain)) == 0
    (tmp_path / "live-target.csv").write_text("")
    for name in ("live", "dangling"):
        link, target = tmp_path / f"{name}.csv", tmp_path / f"{name}-target.csv"
        link.symlink_to(target.name)
        assert run_cli("table", "--n", "6", "--out", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert not target.is_symlink() and target.read_bytes() == plain.read_bytes()
    loop = tmp_path / "loop.csv"
    loop.symlink_to(loop.name)
    assert run_cli("table", "--n", "6", "--out", str(loop)) == 2
    assert capsys.readouterr().err == f"adia table: error: cannot write {loop}: Too many levels of symbolic links\n"
    assert loop.is_symlink() and list(tmp_path.glob(".adia-*.tmp")) == []


def test_failed_replace_leaves_no_temp_file_and_the_old_bytes(monkeypatch, tmp_path, capsys):
    # the temp file is written in full, then os.replace fails: a full disk
    # exits 2 naming the path given, an interrupt propagates, and neither
    # leaves the temp file behind or touches the existing target
    out = tmp_path / "table.csv"
    out.write_bytes(b"old bytes\n")
    replaced = []

    def replace_raising(exc):
        def fail(src, dst):
            replaced.append(Path(src).name)
            assert Path(src).read_text().startswith("m,n_per_m,")
            raise exc

        return fail

    monkeypatch.setattr(cli.os, "replace", replace_raising(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
    assert run_cli("table", "--n", "6", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"adia table: error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    monkeypatch.setattr(cli.os, "replace", replace_raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        run_cli("table", "--n", "6", "--out", str(out))
    assert len(replaced) == 2 and all(name.startswith(".adia-") and name.endswith(".tmp") for name in replaced)
    assert list(tmp_path.glob(".adia-*.tmp")) == [] and out.read_bytes() == b"old bytes\n"


def test_formatter_failing_midstream_leaves_no_temp_file_and_the_old_bytes(monkeypatch, tmp_path, capsys):
    # the artifact is written as the formatter yields it: a formatter that
    # fails after its first line exits 2 with one line, and the target keeps
    # its old bytes, because the partial text only ever reached the temp file
    out = tmp_path / "table.csv"
    out.write_bytes(b"old bytes\n")

    def failing_format(results, fmt):
        yield "m,n_per_m,eps_T,alpha,beta\n"
        raise ValueError("formatting failed")

    monkeypatch.setattr(cli, "format_table", failing_format)
    assert run_cli("table", "--n", "6", "--out", str(out)) == 2
    assert capsys.readouterr().err == "adia table: error: formatting failed\n"
    assert out.read_bytes() == b"old bytes\n" and list(tmp_path.glob(".adia-*.tmp")) == []


def test_table_check_passes(capsys):
    assert run_cli("table", "--n", "6", "--check") == 0
    captured = capsys.readouterr()
    assert "all 4 rows match" in captured.err


def test_table_check_without_reference_is_refused_before_tabulating(monkeypatch, tmp_path, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("reproduce_table ran for a --check with no reference table")

    monkeypatch.setattr(cli.runtime, "reproduce_table", must_not_run)
    out = tmp_path / "x.csv"
    assert run_cli("table", "--n", "12", "--check", "--out", str(out)) == 2
    assert capsys.readouterr().err == "adia table: error: no built-in reference table for n=12 (have [6, 30])\n"
    assert list(tmp_path.iterdir()) == []


def test_table_check_detects_drift(monkeypatch, capsys):
    wrong = [row[:2] + (row[2] + 1.0,) + row[3:] for row in cli.REFERENCE_TABLES[6]]
    monkeypatch.setitem(cli.REFERENCE_TABLES, 6, wrong)
    assert run_cli("table", "--n", "6", "--check") == 3
    assert "MISMATCH" in capsys.readouterr().err


def test_table_check_names_each_mismatch(monkeypatch, capsys):
    # rows spoiled in alpha, beta, order and count; each printed row that
    # differs gets one line, with the printed and the published row
    rows = reproduce_table(6)
    published = [cli._table_line(row) for row in cli.REFERENCE_TABLES[6]]
    cases = [
        ([rows[0], replace(rows[1], alpha=0.9618), *rows[2:]], ["row 2: 2,3,3.74,0.9618,3.8074 vs reference {1}"]),
        ([*rows[:2], replace(rows[2], beta=2.01), rows[3]], ["row 3: 3,2,3.00,0.8842,2.0100 vs reference {2}"]),
        ([rows[0], replace(rows[1], beta=math.inf), *rows[2:]], ["row 2: 2,3,3.74,0.9518,inf vs reference {1}"]),
        ([rows[1], rows[0], *rows[2:]], ["row 1: {1} vs reference {0}", "row 2: {0} vs reference {1}"]),
        (rows[:3], ["row count: printed 3, reference 4"]),
    ]
    for spoiled, lines in cases:
        monkeypatch.setattr(cli.runtime, "reproduce_table", lambda n, spoiled=spoiled: spoiled)
        assert run_cli("table", "--n", "6", "--check") == cli.EXIT_GOLDEN
        expected = "".join(f"check n=6: MISMATCH {line.format(*published)}\n" for line in lines)
        assert capsys.readouterr().err == expected


def test_table_check_refuses_digits_the_table_does_not_print(monkeypatch, capsys):
    # eps_T off by 2 at m = 1 and by 0.03 at m = 3, alpha off by 4 units of
    # the last printed digit at m = 2: tolerances of 1e-4 relative or 0.05
    # on eps_T and 5e-4 on each exponent once passed all three
    drifted = list(cli.REFERENCE_TABLES[30])
    drifted[0] = (1, 30, 32770.00, 1.0000, math.inf)
    drifted[1] = (2, 15, 256.00, 1.0004, 16.0000)
    drifted[2] = (3, 10, 55.43, 0.9999, 7.3084)
    monkeypatch.setitem(cli.REFERENCE_TABLES, 30, drifted)
    assert run_cli("table", "--n", "30", "--check") == cli.EXIT_GOLDEN
    captured = capsys.readouterr()
    printed = ["1,30,32768.00,1.0000,inf", "2,15,256.00,1.0000,16.0000", "3,10,55.40,0.9999,7.3084"]
    assert captured.out.split("\n")[1:4] == printed
    assert captured.err == (
        "check n=30: MISMATCH row 1: 1,30,32768.00,1.0000,inf vs reference 1,30,32770.00,1.0000,inf\n"
        "check n=30: MISMATCH row 2: 2,15,256.00,1.0000,16.0000 vs reference 2,15,256.00,1.0004,16.0000\n"
        "check n=30: MISMATCH row 3: 3,10,55.40,0.9999,7.3084 vs reference 3,10,55.43,0.9999,7.3084\n"
    )


def test_table_check_compares_the_n_per_m_column(monkeypatch, capsys):
    wrong = list(cli.REFERENCE_TABLES[6])
    wrong[1] = (2, 4, 3.74, 0.9518, 3.8074)
    monkeypatch.setitem(cli.REFERENCE_TABLES, 6, wrong)
    assert run_cli("table", "--n", "6", "--check") == cli.EXIT_GOLDEN
    assert capsys.readouterr().err == (
        "check n=6: MISMATCH row 2: 2,3,3.74,0.9518,3.8074 vs reference 2,4,3.74,0.9518,3.8074\n"
    )


def test_table_invalid_n_is_config_error(capsys):
    for value in ("0", "65"):
        assert run_cli("table", "--n", value) == 2
        assert capsys.readouterr().err == f"adia table: error: n must be in [1, 64], got {value}\n"


def test_unknown_flag_is_config_error(capsys):
    assert run_cli("table", "--n", "6", "--bogus") == 2
    # the table's rows depend on no precision setting, so it takes no --eps
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


def test_gap_artifacts_are_the_plain_format_of_each_block_column():
    # the formatter formats each size's column once and gives it to every
    # block of that size; the text stays that of formatting each block's
    # values, also for a profile built by hand whose 3-qubit column is scaled
    profile = gap_profile(make_splitting(9, [3, 1, 3, 2]), grid=17)
    edited = replace(profile, size_gaps=profile.size_gaps * [1.0, 1.0, 0.5])
    for p in (profile, edited):
        block_gaps = p.size_gaps[:, [2, 0, 2, 1]]  # the columns of sizes 1, 2, 3, picked for blocks 3, 1, 3, 2
        plain = {"s": p.s, "block_gaps": block_gaps, "global_gap": p.global_gap}
        plain.update(omega_min=p.omega_min, s_min=p.s_min)
        plain_json = json.dumps(plain, indent=2, default=lambda a: a.tolist())
        assert "".join(cli.format_gap(p, "json")) == plain_json + "\n"
        rows = zip(p.s.tolist(), *block_gaps.T.tolist(), p.global_gap.tolist())
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert "".join(cli.format_gap(p, "csv")) == "\n".join(["s,omega_1,omega_2,omega_3,omega_4,omega_global", *lines]) + "\n"


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
    # 19,18 and 27 single qubits: 786,458 terms of 64 letters
    for n, parts in (("40", "20,20"), ("60", "20,20,20"), ("64", "19,18" + ",1" * 27)):
        assert run_cli("pauli", "--n", n, "--parts", parts) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "letter budget of 20971520" in err


def test_pauli_maximal_weight_one(capsys):
    assert run_cli("pauli", "--n", "4", "--parts", "1,1,1,1") == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n"):
        word = line.split("\t")[1]
        assert sum(1 for c in word if c != "I") <= 1


def test_evolve_quench_misses_guarantee(monkeypatch, tmp_path):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a quench took an RK4 step")

    monkeypatch.setattr(cli.dynamics, "rk4_propagate", must_not_run)
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
    # at 5e-324 the stretched rates overflow; at 1e-300 the run is a
    # quench in all but name and misses the target with p = 1/2
    assert run_cli("evolve", "--n", "1", "--m", "1", "--total-time", "5e-324") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "total time 5e-324 is too short" in err
    assert run_cli("evolve", "--n", "1", "--m", "1", "--total-time", "1e-300") == 4
    assert json.loads(capsys.readouterr().out)["success_probability"] == pytest.approx(0.5, rel=1e-12)


def test_overlong_total_time_is_config_error(capsys):
    # eps = 1e-150 gives time steps of 4.9e147; the schedule is written, and
    # evolve refuses the run for its step count, not for the cubic of s(t)
    assert run_cli("schedule", "--n", "4", "--m", "2", "--eps", "1e-150") == 0
    assert capsys.readouterr().err == ""
    assert run_cli("evolve", "--n", "4", "--m", "2", "--eps", "1e-150") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "the run needs 1.57e+152 RK4 steps" in err
    assert "over the budget of 1048576" in err
    # a total so long that a cubic of the stretched table overflows is
    # refused by that total, as a total too short is
    assert run_cli("evolve", "--n", "2", "--m", "1", "--total-time", "1e308") == 2
    assert capsys.readouterr().err == (
        "adia evolve: error: total time 1e+308 is too long: "
        "the monotone cubic through values up to 1e+308 overflows\n"
    )


def test_huge_step_counts_are_config_errors(capsys):
    # a step rate too large for a float, or a step count too large for an
    # int, is counted as inf and refused with the budget's one line
    for argv in (("--steps", "1" + "0" * 400), ("--total-time", "1e300", "--steps", "100000000000000000000")):
        assert run_cli("evolve", "--n", "1", "--m", "1", *argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "the run needs inf RK4 steps" in err
    # a count that fits is written to three digits, not as a 100-digit int
    assert run_cli("evolve", "--n", "1", "--m", "1", "--total-time", "1e100") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "the run needs 6.4e+101 RK4 steps" in err


def test_epsilon_whose_total_time_overflows_is_config_error(capsys):
    assert run_cli("schedule", "--n", "64", "--m", "1", "--eps", "1e-308") == 2
    err = capsys.readouterr().err
    # the raw total is twice the half-line integral: sqrt(2**64 - 1), correctly rounded
    assert err.count("\n") == 1 and "epsilon 1e-308 is too small: the total time 4294967296 / epsilon" in err


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
        # a block of 2^70 qubits: refused before its dimension, which overflows, is built
        ("gap", "--n", str(2**70), "--m", "1"),
        ("schedule", "--n", str(2**70 + 1), "--parts", f"{2**70},1"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cap of 64 qubits per block" in err


def test_unbounded_inputs_are_refused_before_any_work(capsys):
    # each would build a tuple of 10^9 entries (block sizes or marked bits)
    # or write N words of N letters if it got past its cap
    huge = "1000000000"
    for argv, message in (
        (("gap", "--n", huge, "--m", huge), "cap of 64 blocks"),
        (("schedule", "--n", "65", "--parts", ",".join(["1"] * 65)), "cap of 64 blocks"),
        (("evolve", "--n", huge, "--parts", huge), "evolution cap of 12 qubits"),
        (("pauli", "--n", huge, "--m", "1"), "expansion cap of 20"),
        (("pauli", "--n", "2000", "--m", "2000"), "cap of 64 blocks"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, argv


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
    monkeypatch.setattr(cli.dynamics, "_stage_points", must_not_run)
    monkeypatch.setattr(cli.dynamics, "rk4_propagate", must_not_run)
    assert run_cli("evolve", "--n", "2", "--m", "1", "--total-time", "1e9") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over the budget of 1048576" in err
    # the budget counts steps times solves, one solve per distinct block size
    assert run_cli("evolve", "--n", "4", "--parts", "1,3", "--steps", "100000000") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "for each of 2 block sizes" in err


# Golden artifacts: display-rounded or dyadic, so exact on every platform.
_GOLDEN = {
    ("table", "--n", "6"): (
        "m,n_per_m,eps_T,alpha,beta\n1,6,7.94,0.9962,inf\n2,3,3.74,0.9518,3.8074\n"
        "3,2,3.00,0.8842,2.0000\n6,1,2.45,0.7211,1.0000\n"
    ),
    ("table", "--n", "6", "--format", "json"): (
        '[\n  {\n    "m": 1,\n    "n_per_m": 6,\n    "eps_T": 7.94,\n    "alpha": 0.9962,\n'
        '    "beta": "inf"\n  },\n  {\n    "m": 2,\n    "n_per_m": 3,\n    "eps_T": 3.74,\n'
        '    "alpha": 0.9518,\n    "beta": 3.8074\n  },\n  {\n    "m": 3,\n    "n_per_m": 2,\n'
        '    "eps_T": 3.0,\n    "alpha": 0.8842,\n    "beta": 2.0\n  },\n  {\n    "m": 6,\n'
        '    "n_per_m": 1,\n    "eps_T": 2.45,\n    "alpha": 0.7211,\n    "beta": 1.0\n  }\n]\n'
    ),
    ("table", "--n", "64"): (
        "m,n_per_m,eps_T,alpha,beta\n1,64,4294967296.00,1.0000,inf\n2,32,92681.90,1.0000,33.0000\n"
        "4,16,512.00,1.0000,9.0000\n8,8,45.17,0.9995,3.6648\n16,4,15.49,0.9884,1.9767\n"
        "32,2,9.80,0.9407,1.3170\n64,1,8.00,0.8571,1.0000\n"
    ),
    # every value is dyadic, so the bytes are the same on every platform
    ("gap", "--n", "2", "--parts", "2", "--grid", "3", "--format", "json"): (
        '{\n  "s": [\n    0.0,\n    0.5,\n    1.0\n  ],\n  "block_gaps": [\n    [\n      1.0\n    ],\n'
        '    [\n      0.5\n    ],\n    [\n      1.0\n    ]\n  ],\n  "global_gap": [\n    1.0,\n    0.5,\n'
        '    1.0\n  ],\n  "omega_min": 0.5,\n  "s_min": 0.5\n}\n'
    ),
    # s_min = 1/2 is no sample of two: the minimum is the closed form, not the grid's
    ("gap", "--n", "2", "--parts", "2", "--grid", "2", "--format", "json"): (
        '{\n  "s": [\n    0.0,\n    1.0\n  ],\n  "block_gaps": [\n    [\n      1.0\n    ],\n    [\n      1.0\n    ]\n'
        '  ],\n  "global_gap": [\n    1.0,\n    1.0\n  ],\n  "omega_min": 0.5,\n  "s_min": 0.5\n}\n'
    ),
    ("pauli", "--n", "4", "--parts", "2,2", "--marked", "0110"): (
        "1.5\tIIII\n-0.25\tIIIZ\n0.25\tIIZI\n0.25\tIZII\n-0.25\tZIII\n0.25\tIIZZ\n0.25\tZZII\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN))
def test_golden_artifact_bytes(argv, tmp_path):
    out = tmp_path / "artifact"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.read_bytes() == _GOLDEN[argv].encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("gap", "--n", "5", "--parts", "2,3", "--grid", "101"),
        ("schedule", "--n", "5", "--parts", "1,4", "--eps", "0.1", "--grid", "101"),
        ("evolve", "--n", "3", "--parts", "1,2", "--marked", "101"),
    ],
)
def test_two_runs_write_equal_bytes(argv, fmt, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    codes = [run_cli(*argv, "--format", fmt, "--out", str(out)) for out in (first, second)]
    assert codes[0] == codes[1] and codes[0] in (0, 4)
    assert first.read_bytes() == second.read_bytes()


def test_table_csv_and_json_formats():
    rows = reproduce_table(6)
    csv_text = "".join(cli.format_table(rows, "csv"))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "m,n_per_m,eps_T,alpha,beta"
    assert lines[1] == "1,6,7.94,0.9962,inf"
    assert lines[2] == "2,3,3.74,0.9518,3.8074"
    assert lines[3] == "3,2,3.00,0.8842,2.0000"
    assert lines[4] == "6,1,2.45,0.7211,1.0000"

    payload = json.loads("".join(cli.format_table(rows, "json")))
    assert payload[0]["beta"] == "inf"
    assert payload[1]["eps_T"] == 3.74
    assert payload[3]["beta"] == 1.0


def test_round_half_away():
    assert cli.round_half_away(2.4451, 2) == 2.45
    assert cli.round_half_away(-2.4451, 2) == -2.45
    # 0.125 is an exact binary tie: away from zero, not to even
    assert cli.round_half_away(0.125, 2) == 0.13
    assert cli.round_half_away(-0.125, 2) == -0.13
    # a negative value that rounds to zero gives +0.0, which prints without a sign
    for x in (-1e-17, -0.00004, -0.0):
        assert math.copysign(1.0, cli.round_half_away(x, 4)) == 1.0
    assert f"{cli.round_half_away(-1e-17, 4):.4f}" == "0.0000"


def test_evolve_report_serialization():
    splitting, precision = make_splitting(2, [1, 1]), Precision(epsilon=0.2)
    report = evolve(splitting, MarkedState.zeros(2), optimal_schedule(splitting, precision), precision)
    payload = json.loads("".join(cli.format_evolution(report, "json")))
    assert payload["n"] == 2
    assert payload["parts"] == [1, 1]
    assert len(payload["checkpoints"]["t"]) == 101
    csv_text = "".join(cli.format_evolution(report, "csv"))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,s,overlap,lhs,norm"
    assert len(lines) == 102


@pytest.mark.parametrize("parts", ["1,,2", ",3", "3,", ",", ""])
def test_parts_with_an_empty_item_is_config_error(parts, capsys):
    # empty items were once dropped, so "1,,2" ran as the split 1,2
    for command in ("gap", "schedule", "evolve", "pauli"):
        assert run_cli(command, "--n", "3", "--parts", parts) == 2
        err = capsys.readouterr().err
        assert err == f"adia {command}: error: --parts must be comma-separated integers, got {parts!r}\n"


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


# Both ways the interpreter can write stdout and stderr: through its default
# buffers, where a failed write stays buffered for the flush at exit, and
# unbuffered, where one write of a long text can be cut short without an error
_BUFFERING = {
    "buffered": {k: v for k, v in _CHILD_ENV.items() if k != "PYTHONUNBUFFERED"},
    "unbuffered": {**_CHILD_ENV, "PYTHONUNBUFFERED": "1"},
}
# a standard stream closed before the interpreter starts (missing) or after (vanished)
_CLOSED_STREAMS = {
    "stdout missing": ("sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "adiasearch"),
    "stdout vanished": (sys.executable, "-c", "import os; from adiasearch import cli; os.close(1); cli.run()"),
    "stderr missing": ("sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "adiasearch"),
    "stderr vanished": (sys.executable, "-c", "import os; from adiasearch import cli; os.close(2); cli.run()"),
}


@pytest.mark.parametrize("buffering", sorted(_BUFFERING))
@pytest.mark.parametrize("case", sorted(_CLOSED_STREAMS))
def test_closed_stdout_or_stderr_exits_2_without_a_traceback(case, buffering):
    # a closed stdout once raised AttributeError (exit 1 with a traceback),
    # and a closed stderr failed on the check's status line (exit 1) or,
    # where the interpreter started without it, printed that line on stdout
    argv = [*_CLOSED_STREAMS[case], "table", "--n", "6", "--check"]
    result = subprocess.run(argv, capture_output=True, text=True, env=_BUFFERING[buffering], timeout=120)
    assert result.returncode == 2
    if case.startswith("stdout"):
        assert (result.stdout, result.stderr) == ("", "adia table: error: [Errno 9] Bad file descriptor\n")
    else:
        assert result.stdout == "".join(cli.format_table(reproduce_table(6), "csv")) and result.stderr == ""


def test_unbuffered_stdout_gets_the_same_bytes_in_few_writes(monkeypatch):
    # under python -u stdout is a write-through text layer over a raw
    # stream, which once took one write per line
    class CountingRaw(io.RawIOBase):
        def __init__(self):
            self.data, self.writes = bytearray(), 0

        def writable(self):
            return True

        def write(self, b):
            self.data += b
            self.writes += 1
            return len(b)

    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
    lines = [f"{i}\t\u03c9\n" for i in range(10000)]
    cli._emit("stdout", lines)
    assert raw.data == "".join(lines).encode() and raw.writes <= len(lines) // 100
    sys.stdout.write("after\n")  # the raw stream stays open and under stdout
    assert raw.data.endswith(b"after\n") and not raw.closed


@pytest.mark.parametrize(
    "argv",
    [
        ("pauli", "--n", "16", "--parts", "16"),
        ("gap", "--n", "30", "--m", "3", "--grid", "65536", "--format", "json"),
        ("schedule", "--n", "30", "--m", "1", "--grid", "20000"),
    ],
)
@pytest.mark.parametrize("buffering", sorted(_BUFFERING))
def test_reader_that_leaves_early_gets_exit_2_and_one_line(argv, buffering):
    # each artifact is larger than a pipe's buffer, so the child is still
    # writing when the reader closes after the first line. Unbuffered, the
    # one write of the whole text once came back short without an error and
    # the child exited 0; the flush at exit must not add an "Exception
    # ignored ... BrokenPipeError" report
    child = subprocess.Popen(
        [sys.executable, "-m", "adiasearch", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_BUFFERING[buffering],
    )
    assert child.stdout.readline()
    child.stdout.close()
    assert child.wait(timeout=120) == 2
    assert child.stderr.read() == f"adia {argv[0]}: error: [Errno 32] Broken pipe\n"
    child.stderr.close()


def test_artifacts_at_the_caps_are_written_without_their_whole_text_in_memory(tmp_path):
    """Each capped artifact is written by a child process to --out, and the
    child's peak resident memory (VmHWM, read from its own /proc/self/status)
    is compared with a `table --n 6` child's: streamed text adds little more
    than the result arrays. Holding each artifact as one string added
    205 MB (gap CSV), 354 MB (gap JSON) and 146 MB (pauli), and a gap column
    per block, not per size, added about 40 MB (gap). Skipped where
    /proc/self/status does not exist.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read the peak resident memory from")
    script = (
        "import sys\n"
        "from adiasearch import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(int(status.split('VmHWM:')[1].split()[0]) / 1024, code)\n"
    )

    def peak_mb(*argv):
        out = tmp_path / "artifact"
        result = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(out)],
            capture_output=True, text=True, env=_CHILD_ENV, timeout=300,
        )
        peak, code = result.stdout.split()
        assert (result.returncode, code, result.stderr) == (0, "0", ""), argv
        assert out.stat().st_size > 0
        return float(peak)

    baseline = peak_mb("table", "--n", "6")
    for fmt in ("csv", "json"):
        assert peak_mb("gap", "--n", "64", "--m", "64", "--grid", "65536", "--format", fmt) <= baseline + 24, fmt
    assert peak_mb("pauli", "--n", "20", "--parts", "20") <= baseline + 16


# Configurations whose bytes once followed the host's SIMD level, BLAS core
# or libm variant
_HOST_ARGVS = (
    ("schedule", "--n", "30", "--m", "1"),
    ("schedule", "--n", "64", "--parts", "1,63", "--grid", "65536"),
    ("schedule", "--n", "64", "--m", "1", "--grid", "65536"),
    ("evolve", "--n", "12", "--m", "2"),
    ("evolve", "--n", "6", "--parts", "3,1,2"),
)
_NO_FMA = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F"}


def _numpy_simd_targets() -> list:
    """The dispatch targets that numpy found on this CPU above its baseline: numpy.show_runtime()'s "found" list."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__[name]]


def test_artifacts_are_the_same_bytes_at_every_simd_level_and_blas_core():
    """Each configuration prints the same stdout bytes and exit code plain,
    with OpenBLAS held to its Prescott kernels, with every numpy dispatch
    target above the baseline disabled, and with glibc's FMA variants of libm
    turned off, each set in the child's environment only.

    On a host where numpy found no target above its baseline, the numpy
    variant is skipped and the test checks less. Where numpy does not use
    OpenBLAS, or the libm is not glibc's, that variant changes nothing.
    """
    plain = {k: v for k, v in _CHILD_ENV.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", *_NO_FMA)}
    variants = [{"OPENBLAS_CORETYPE": "Prescott"}, _NO_FMA]
    targets = _numpy_simd_targets()
    if targets:
        variants.append({"NPY_DISABLE_CPU_FEATURES": ",".join(targets)})
    for argv in _HOST_ARGVS:
        children = [
            subprocess.Popen([sys.executable, "-m", "adiasearch", *argv], stdout=subprocess.PIPE, env={**plain, **env})
            for env in ({}, *variants)
        ]
        (stdout, code), *others = [(child.communicate(timeout=300)[0], child.returncode) for child in children]
        assert code in (0, 4) and stdout, argv
        for env, other in zip(variants, others):
            assert other == (stdout, code), (argv, env)


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
    "--eps": _ODD_VALUES + ("0.2", "0.5", "1", "1e308"),
    "--grid": _ODD_VALUES + ("1", "2", "99", "100", "137", "137", "65537"),
    "--total-time": _ODD_VALUES + ("1", "1e-99", "1e9", "-0", "1e-320", "1e308"),
    "--steps": _ODD_VALUES + ("1", "64", "100000000"),
    "--marked": ("0", "01", "0000", "1010", "2", ""),
    "--format": ("csv", "json", "xml"),
    # names inside the test's temporary directory; "" and "." are refused
    "--out": ("artifact", "artifact", "no-such-dir/artifact", "", "."),
}
_COMMAND_FLAGS = {
    "table": ("--format", "--out"),
    "gap": ("--grid", "--format", "--out"),
    "schedule": ("--eps", "--grid", "--format", "--out"),
    "pauli": ("--marked", "--out"),
    "evolve": ("--eps", "--total-time", "--steps", "--grid", "--marked", "--format", "--out"),
}
# The slowest call the pool draws takes about 0.1 s; the bound catches a call
# that hangs or does work past a cap, not a slow machine.
_CALL_WALL_BOUND_S = 5.0


# Values past a cap: each argv holding one must exit 2 before any work.
_HUGE = "1000000000"
_MANY_PARTS = ",".join(["1"] * 65)


def _must_refuse(argv) -> bool:
    return _HUGE in argv or _MANY_PARTS in argv or (argv[:3] == ["table", "--n", "12"] and "--check" in argv)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    parts = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    # only the table takes n = 12 (no reference table); elsewhere it would run a 12-qubit evolution
    odd_n = ("-1", "0", "65", _HUGE) + (("12",) if command == "table" else ())
    n = draw(st.sampled_from((str(sum(parts)),) * 3 + odd_n))
    argv = [command, "--n", n]
    if command == "table":
        if draw(st.booleans()):
            argv.append("--check")
    elif draw(st.booleans()):
        odd_parts = (
            "", ",", "1,,2", "0,2", "-1,3", "+1,+1", "1.5", "1.0,1", "x", " 1", "1, 1", "1 2",
            "13", "65", _MANY_PARTS, ",".join(map(str, parts[::-1])),
        )
        argv += ["--parts", draw(st.sampled_from((",".join(map(str, parts)),) * 3 + odd_parts))]
    else:
        argv += ["--m", draw(st.sampled_from(("1", "1", "2", "0", "-1", "x", _HUGE)))]
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv-out")


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(_argv())
def test_every_argv_gives_a_documented_exit_code_and_no_traceback(out_dir, argv):
    """Exit 0, 2, 3 or 4 with no traceback, within a wall bound per call.

    An exit 2 leaves one error line, the last on stderr (argparse prints
    its usage first). --out names a path in one temporary directory, which no
    call leaves a temp file in. The pool leaves out the two caps that take
    seconds by design: pauli at 20 qubits and gap at 65,536 x 64.
    """
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = [*argv[:at], str(out_dir / argv[at]) if argv[at] else "", *argv[at + 1:]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < _CALL_WALL_BOUND_S, argv
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if _must_refuse(argv):
        assert code == 2, argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], (argv, lines)
    assert not list(out_dir.glob(".adia-*")), argv


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # under the suite's warnings-as-errors config, a property test that fails
    # (as the argv test above would on a regression) must read as one failure
    (tmp_path / "test_failing_property.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "test_failing_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_CHILD_ENV,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
