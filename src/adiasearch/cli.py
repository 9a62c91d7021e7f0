"""Command-line surface: table reproduction, gap and schedule export,
dynamics runs, and term-expansion inspection.

Exit codes: 0 ok, 2 bad configuration (an unwritable --out included) or
failed computation, 3 a printed table row differs from the published row
(`table --check`), 4 dynamics below the
success-probability target 1 - eps**2 - 0.01. Exit 4 is a result, not a
fault: a bound-saturating schedule leaves boundary excitations of up to
4 eps**2 at leading order and can miss that target. Output is data files
only; point a plotting tool at the CSV columns.

This module is the only one that turns results into text: the library's
result types carry data, and every artifact's CSV, JSON or term-list
format is written here.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import stat
import sys

from . import dynamics, hamiltonian, runtime, spectral
from .core import DEFAULT_GRID, MarkedState, Precision, Splitting, equal_splitting, make_splitting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GOLDEN = 3
EXIT_GUARANTEE = 4

# Published rows (m, n/m, eps_T, alpha, beta) of the two reference tables,
# as the table prints them; `table --check` compares the printed rows with these.
REFERENCE_TABLES = {
    6: [
        (1, 6, 7.94, 0.9962, math.inf),
        (2, 3, 3.74, 0.9518, 3.8074),
        (3, 2, 3.00, 0.8842, 2.0000),
        (6, 1, 2.45, 0.7211, 1.0000),
    ],
    30: [
        (1, 30, 32768.00, 1.0000, math.inf),
        (2, 15, 256.00, 1.0000, 16.0000),
        (3, 10, 55.40, 0.9999, 7.3084),
        (5, 6, 17.75, 0.9973, 3.5743),
        (6, 5, 13.64, 0.9940, 2.9165),
        (10, 3, 8.37, 0.9695, 1.8451),
        (15, 2, 6.71, 0.9297, 1.4057),
        (30, 1, 5.48, 0.8307, 1.0000),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adia",
        description="Structured adiabatic search: running times, gaps, schedules, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p, marked=False):
        p.add_argument("--n", type=int, required=True, help="total qubit count")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--parts", type=str, help="comma-separated block sizes")
        group.add_argument("--m", type=int, help="equal split into this many blocks")
        if marked:
            p.add_argument("--marked", type=str, default=None, help="marked bitstring (default all zeros)")

    p_table = sub.add_parser("table", help="running times for every divisor split of n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", type=str, default=None)
    p_table.add_argument("--check", action="store_true", help="compare against the built-in reference values")

    p_evolve = sub.add_parser("evolve", help="integrate the optimal-schedule dynamics")
    add_problem_flags(p_evolve, marked=True)
    p_evolve.add_argument("--eps", type=float, default=Precision.epsilon)
    p_evolve.add_argument("--total-time", type=float, default=None, help="override the total time (0 = instant quench)")
    p_evolve.add_argument("--format", choices=("json", "csv"), default="json")
    p_evolve.add_argument("--out", type=str, default=None)

    p_gap = sub.add_parser("gap", help="per-block and global gap profile")
    add_problem_flags(p_gap)
    p_gap.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_gap.add_argument("--format", choices=("csv", "json"), default="csv")
    p_gap.add_argument("--out", type=str, default=None)

    p_schedule = sub.add_parser("schedule", help="bound-saturating time parameterization s(t)")
    add_problem_flags(p_schedule)
    p_schedule.add_argument("--eps", type=float, default=Precision.epsilon)
    p_schedule.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_schedule.add_argument("--format", choices=("csv", "json"), default="csv")
    p_schedule.add_argument("--out", type=str, default=None)

    p_pauli = sub.add_parser("pauli", help="problem-operator expansion, one term per line")
    add_problem_flags(p_pauli, marked=True)
    p_pauli.add_argument("--out", type=str, default=None)

    return parser


def _splitting_from_args(args) -> Splitting:
    if args.parts is not None:
        try:
            parts = [int(p) for p in args.parts.split(",")]
        except ValueError:
            raise ValueError(f"--parts must be comma-separated integers, got {args.parts!r}")
        return make_splitting(args.n, parts)
    return equal_splitting(args.n, args.m)


def _marked_from_args(args, n: int) -> MarkedState:
    if getattr(args, "marked", None) is None:
        return MarkedState.zeros(n)
    marked = MarkedState.from_string(args.marked)
    if marked.n != n:
        raise ValueError(f"--marked has {marked.n} bits, expected {n}")
    return marked


def _emit(name: str, lines) -> None:
    """Write lines to sys.stdout or sys.stderr, by name, and flush them; a
    stream the process started without raises EBADF. A failed write (a closed
    descriptor, or EPIPE from a reader that has gone) points the descriptor
    at os.devnull, as Python's SIGPIPE note does, so exit's flush cannot fail.
    Under python -u, where each line would be one write(2) to the raw stream,
    the lines go through io's default buffered writer on it, detached after."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    writer = stream
    if getattr(stream, "write_through", False) and isinstance(stream.buffer, io.RawIOBase):
        writer = io.TextIOWrapper(io.BufferedWriter(stream.buffer), stream.encoding, stream.errors)
    try:
        writer.writelines(lines)
        writer.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise
    finally:
        if writer is not stream:  # after a failed write, the rest goes to os.devnull
            writer.detach().detach()


def _write_output(chunks, out_path: str | None):
    """Write a formatter's text as it yields it, to stdout or atomically (temp
    file + rename); a failure partway leaves no temp file and the old target.

    A path that cannot be written is reported by that path, not by the temp
    file's; an empty path, a directory and any other existing path that is
    not a regular file (a FIFO, a socket, a device) are refused before any
    temp file is made. A symbolic link is written through, as a shell
    redirection writes it: the checks, the temp file and the rename act on
    the path it resolves to, so the link stays and its target gets the
    bytes. The file gets the mode open(path, "w") would leave: a replaced
    file keeps its mode, and a new one gets 0o666 less the umask, which the
    kernel applies when the temp file is created.
    """
    if out_path is None:
        _emit("stdout", chunks)
        return
    try:
        if not out_path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        target = os.path.realpath(out_path)
        if os.path.islink(target):  # realpath stops at a link that loops
            raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        mode = None
        if os.path.exists(target):
            if not os.path.isfile(target):
                raise OSError(errno.EINVAL, "not a regular file")
            mode = stat.S_IMODE(os.stat(target).st_mode)
        tmp_path = os.path.join(os.path.dirname(target), f".adia-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                if mode is not None:
                    os.fchmod(fd, mode)
                handle.writelines(chunks)
            os.replace(tmp_path, target)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def round_half_away(x: float, decimals: int) -> float:
    """Round with ties away from zero, as the published tables do; a value
    that rounds to zero gives +0.0, so that it never prints as -0.0000."""
    scale = 10.0**decimals
    return math.copysign(math.floor(abs(x) * scale + 0.5), x) / scale + 0.0


def _csv(header, columns, picks=None):
    """A header line, then one line per index: field j is column picks[j] (or j), each value formatted once."""
    yield ",".join(header) + "\n"
    for texts in ([f"{v:.17g}" for v in row] for row in zip(*[column.tolist() for column in columns])):
        yield ",".join(texts if picks is None else [texts[i] for i in picks]) + "\n"


def _json(payload):
    """Indented JSON in the encoder's chunks; numpy arrays are written as lists of their values."""
    yield from json.JSONEncoder(indent=2, default=lambda array: array.tolist()).iterencode(payload)
    yield "\n"


def _table_row(result) -> tuple:
    """The row the table prints: (m, n/m, eps_T to 2 decimals, alpha and beta
    to 4), rounded half away from zero; one block's beta stays inf."""
    m = result.splitting.num_blocks
    beta = result.beta if math.isinf(result.beta) else round_half_away(result.beta, 4)
    return (m, result.splitting.n // m, round_half_away(result.eps_t, 2), round_half_away(result.alpha, 4), beta)


def _table_line(row) -> str:
    """A row as its CSV line; an infinite beta formats as "inf"."""
    m, n_per_m, eps_t, alpha, beta = row
    return f"{m},{n_per_m},{eps_t:.2f},{alpha:.4f},{beta:.4f}"


def format_table(results, fmt: str):
    """The printed rows of `_table_row`, as CSV or JSON."""
    header = ("m", "n_per_m", "eps_T", "alpha", "beta")
    rows = [_table_row(result) for result in results]
    if fmt == "json":
        # JSON has no infinity: a single block's beta is the string "inf"
        return _json([dict(zip(header, (*row[:4], "inf" if math.isinf(row[4]) else row[4]))) for row in rows])
    return (line + "\n" for line in [",".join(header), *map(_table_line, rows)])


def format_gap(profile, fmt: str):
    sizes = [size for size, _ in profile.splitting.size_counts()]
    picks = [sizes.index(part) for part in profile.splitting.parts]
    if fmt == "csv":
        header = ["s", *(f"omega_{i + 1}" for i in range(len(picks))), "omega_global"]  # global: the last size's
        yield from _csv(header, [profile.s, *profile.size_gaps.T], [0, *(1 + i for i in picks), len(sizes)])
        return
    keys = ("s", "block_gaps", "global_gap", "omega_min", "s_min")
    # json's own text of each value: a one-line list holds them split by ", "
    texts = (json.dumps(row)[1:-1].split(", ") for row in zip(*profile.size_gaps.T.tolist()))
    # block_gaps is the payload's one None, so its text is the one "null" chunk
    for chunk in _json({key: None if key == "block_gaps" else getattr(profile, key) for key in keys}):
        if chunk == "null":
            for index, t in enumerate(texts):
                yield ("," if index else "[") + "\n    [\n      " + ",\n      ".join([t[i] for i in picks]) + "\n    ]"
            chunk = "\n  ]"
        yield chunk


def format_schedule(schedule_t, fmt: str):
    columns = {"t": schedule_t.t_nodes, "s": schedule_t.s_nodes, "ds_dt": schedule_t.rate_nodes}
    if fmt == "json":
        return _json({"total_time": schedule_t.total_time, **columns})
    return _csv(columns, columns.values())


# An evolution report's scalars, in the order its JSON lists them.
_EVOLUTION_SCALARS = (
    "n", "parts", "marked", "epsilon", "total_time", "success_probability",
    "guarantee_threshold", "guarantee_met", "max_adiabaticity_lhs", "norm_drift",
)


def format_evolution(report, fmt: str):
    columns = [report.checkpoint_t, report.checkpoint_s, report.checkpoint_overlap]
    columns += [report.checkpoint_lhs, report.checkpoint_norm]
    if fmt == "csv":
        return _csv(["t", "s", "overlap", "lhs", "norm"], columns)
    payload = {key: getattr(report, key) for key in _EVOLUTION_SCALARS}
    payload["checkpoints"] = dict(zip(["t", "s", "ground_overlap", "adiabaticity_lhs", "norm"], columns))
    return _json(payload)


def format_pauli(terms):
    """One term per line: coefficient, a tab, then the word."""
    return (f"{coeff:.17g}\t{word}\n" for coeff, word in terms)


def _check_table(n: int, results) -> list[str]:
    """One line per printed row that is not the published row, and one if
    the row counts differ."""
    reference = REFERENCE_TABLES[n]
    rows = [_table_row(result) for result in results]
    mismatches = [
        f"row {i}: {_table_line(row)} vs reference {_table_line(ref)}"
        for i, (row, ref) in enumerate(zip(rows, reference), start=1)
        if row != ref
    ]
    if len(rows) != len(reference):
        mismatches.append(f"row count: printed {len(rows)}, reference {len(reference)}")
    return mismatches


def cmd_table(args) -> int:
    if args.check and args.n not in REFERENCE_TABLES:
        raise ValueError(f"no built-in reference table for n={args.n} (have {sorted(REFERENCE_TABLES)})")
    results = runtime.reproduce_table(args.n)
    _write_output(format_table(results, args.format), args.out)
    if args.check:
        mismatches = _check_table(args.n, results)
        if mismatches:
            _emit("stderr", (f"check n={args.n}: MISMATCH {line}\n" for line in mismatches))
            return EXIT_GOLDEN
        _emit("stderr", [f"check n={args.n}: all {len(results)} rows match the reference values\n"])
    return EXIT_OK


def cmd_evolve(args) -> int:
    splitting = _splitting_from_args(args)
    dynamics.check_evolution_cap(splitting)
    marked = _marked_from_args(args, splitting.n)
    precision = Precision(args.eps)
    if args.total_time == 0.0:
        schedule_t = runtime.TimeSchedule.quench()
    else:
        schedule_t = runtime.optimal_schedule(splitting, precision)
        if args.total_time is not None:
            schedule_t = schedule_t.scaled(args.total_time)
    report = dynamics.evolve(splitting, marked, schedule_t, precision)
    _write_output(format_evolution(report, args.format), args.out)
    return EXIT_OK if report.guarantee_met else EXIT_GUARANTEE


def cmd_gap(args) -> int:
    splitting = _splitting_from_args(args)
    profile = spectral.gap_profile(splitting, grid=args.grid)
    _write_output(format_gap(profile, args.format), args.out)
    return EXIT_OK


def cmd_schedule(args) -> int:
    splitting = _splitting_from_args(args)
    schedule_t = runtime.optimal_schedule(splitting, Precision(args.eps), grid=args.grid)
    _write_output(format_schedule(schedule_t, args.format), args.out)
    return EXIT_OK


def cmd_pauli(args) -> int:
    splitting = _splitting_from_args(args)
    hamiltonian.check_expansion_budget(splitting)
    marked = _marked_from_args(args, splitting.n)
    _write_output(format_pauli(hamiltonian.final_terms(splitting, marked)), args.out)
    return EXIT_OK


_COMMANDS = {
    "table": cmd_table,
    "evolve": cmd_evolve,
    "gap": cmd_gap,
    "schedule": cmd_schedule,
    "pauli": cmd_pauli,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    # OSError: an --out path that cannot be written, or a stdout or stderr that is closed or has no reader
    except (ValueError, OSError, runtime.QuadratureError, dynamics.NormDriftError) as exc:
        try:
            _emit("stderr", [f"adia {args.command}: error: {exc}\n"])
        except OSError:  # with stderr gone too, the exit code alone reports the error
            pass
        return EXIT_CONFIG


def run():
    raise SystemExit(main())
