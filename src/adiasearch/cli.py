"""Command-line surface: table reproduction, gap and schedule export,
dynamics runs, and term-expansion inspection.

Exit codes: 0 ok, 2 bad configuration (an unwritable --out included) or
failed computation, 3 reference check mismatch, 4 dynamics below the
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
import json
import math
import os
import stat
import sys
import tempfile

from . import dynamics, hamiltonian, runtime, spectral
from .core import MarkedState, Precision, Splitting, equal_splitting, make_splitting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GOLDEN = 3
EXIT_GUARANTEE = 4

# Golden rows (m, n/m, eps_T, alpha, beta) for the two reference tables.
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
_EPS_T_ABS_TOL = {6: 0.005, 30: 0.05}
_EPS_T_REL_TOL = 1e-4
_EXPONENT_TOL = 5e-4


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
    p_evolve.add_argument("--eps", type=float, default=0.2)
    p_evolve.add_argument("--total-time", type=float, default=None, help="override the total time (0 = instant quench)")
    p_evolve.add_argument("--steps", type=int, default=None, help="integrator steps per unit time and block norm |f|+|g|")
    p_evolve.add_argument("--grid", type=int, default=1001, help="schedule tabulation samples")
    p_evolve.add_argument("--format", choices=("json", "csv"), default="json")
    p_evolve.add_argument("--out", type=str, default=None)

    p_gap = sub.add_parser("gap", help="per-block and global gap profile")
    add_problem_flags(p_gap)
    p_gap.add_argument("--grid", type=int, default=1001)
    p_gap.add_argument("--format", choices=("csv", "json"), default="csv")
    p_gap.add_argument("--out", type=str, default=None)

    p_schedule = sub.add_parser("schedule", help="bound-saturating time parameterization s(t)")
    add_problem_flags(p_schedule)
    p_schedule.add_argument("--eps", type=float, default=0.2)
    p_schedule.add_argument("--grid", type=int, default=1001)
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


def _write_output(text: str, out_path: str | None):
    """Write atomically (temp file + rename) or to stdout.

    A path that cannot be written is reported by that path, not by the temp
    file's; an empty path, a directory and any other existing path that is
    not a regular file (a FIFO, a socket, a device) are refused before any
    temp file is made. A symbolic link is written through, as a shell
    redirection writes it: the checks, the temp file and the rename act on
    the path it resolves to, so the link stays and its target gets the
    bytes. The file gets the mode open(path, "w") would leave,
    not mkstemp's 0o600: a replaced file keeps its mode, and a new one gets
    0o666 less the umask.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        if not out_path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        target = os.path.realpath(out_path)
        if os.path.islink(target):  # realpath stops at a link that loops
            raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.exists(target):
            if not os.path.isfile(target):
                raise OSError(errno.EINVAL, "not a regular file")
            mode = stat.S_IMODE(os.stat(target).st_mode)
        else:
            umask = os.umask(0)  # the umask is read only by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        directory = os.path.dirname(target)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".adia-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def round_half_away(x: float, decimals: int) -> float:
    """Round with ties away from zero, as the published tables do."""
    scale = 10.0**decimals
    return math.copysign(math.floor(abs(x) * scale + 0.5), x) / scale


def _csv(header, columns) -> str:
    """A header line, then one line per index of the columns, each value to 17 significant digits."""
    rows = zip(*(column.tolist() for column in columns))
    return "\n".join([",".join(header), *(",".join(f"{v:.17g}" for v in row) for row in rows)]) + "\n"


def _json(payload) -> str:
    """Indented JSON; numpy arrays are written as lists of their values."""
    return json.dumps(payload, indent=2, default=lambda array: array.tolist()) + "\n"


def format_table(results, fmt: str) -> str:
    """Display-rounded table rows: eps_T to 2 decimals, the exponents to 4."""
    header = ("m", "n_per_m", "eps_T", "alpha", "beta")
    rows = []
    for result in results:
        m = result.splitting.num_blocks
        eps_t, alpha = round_half_away(result.eps_t, 2), round_half_away(result.alpha, 4)
        beta = result.beta if math.isinf(result.beta) else round_half_away(result.beta, 4)
        rows.append((m, result.splitting.n // m, eps_t, alpha, beta))
    if fmt == "json":
        # JSON has no infinity: a single block's beta is the string "inf"
        return _json([dict(zip(header, (*row[:4], "inf" if math.isinf(row[4]) else row[4]))) for row in rows])
    # an infinite beta formats as "inf"
    lines = [f"{m},{n_per_m},{eps_t:.2f},{alpha:.4f},{beta:.4f}" for m, n_per_m, eps_t, alpha, beta in rows]
    return "\n".join([",".join(header), *lines]) + "\n"


def format_gap(profile, fmt: str) -> str:
    if fmt == "json":
        keys = ("s", "block_gaps", "global_gap", "omega_min", "s_min")
        return _json({key: getattr(profile, key) for key in keys})
    names = [f"omega_{i + 1}" for i in range(profile.splitting.num_blocks)]
    return _csv(["s", *names, "omega_global"], [profile.s, *profile.block_gaps.T, profile.global_gap])


def format_schedule(schedule_t, fmt: str) -> str:
    columns = {"t": schedule_t.t_nodes, "s": schedule_t.s_nodes, "ds_dt": schedule_t.rate_nodes}
    if fmt == "json":
        return _json({"total_time": schedule_t.total_time, **columns})
    return _csv(columns, columns.values())


# An evolution report's scalars, in the order its JSON lists them.
_EVOLUTION_SCALARS = (
    "n", "parts", "marked", "epsilon", "total_time", "success_probability",
    "guarantee_threshold", "guarantee_met", "max_adiabaticity_lhs", "norm_drift",
)


def format_evolution(report, fmt: str) -> str:
    columns = [report.checkpoint_t, report.checkpoint_s, report.checkpoint_overlap]
    columns += [report.checkpoint_lhs, report.checkpoint_norm]
    if fmt == "csv":
        return _csv(["t", "s", "overlap", "lhs", "norm"], columns)
    payload = {key: getattr(report, key) for key in _EVOLUTION_SCALARS}
    payload["checkpoints"] = dict(zip(["t", "s", "ground_overlap", "adiabaticity_lhs", "norm"], columns))
    return _json(payload)


def format_pauli(terms) -> str:
    """One term per line: coefficient, a tab, then the word."""
    return "\n".join(f"{coeff:.17g}\t{word}" for coeff, word in terms) + "\n"


def _check_table(n: int, results) -> list[str]:
    reference = REFERENCE_TABLES[n]
    mismatches = []
    for result, (m_ref, _, eps_t_ref, alpha_ref, beta_ref) in zip(results, reference):
        m = result.splitting.num_blocks
        if m != m_ref:
            mismatches.append(f"row order: computed m={m}, reference m={m_ref}")
            continue
        tol = max(_EPS_T_ABS_TOL[n], _EPS_T_REL_TOL * abs(eps_t_ref))
        if abs(result.eps_t - eps_t_ref) > tol:
            mismatches.append(
                f"m={m}: eps_T {result.eps_t:.6f} vs reference {eps_t_ref} (tol {tol:g})"
            )
        if abs(result.alpha - alpha_ref) > _EXPONENT_TOL:
            mismatches.append(f"m={m}: alpha {result.alpha:.6f} vs reference {alpha_ref}")
        both_inf = math.isinf(result.beta) and math.isinf(beta_ref)
        if not both_inf and abs(result.beta - beta_ref) > _EXPONENT_TOL:
            mismatches.append(f"m={m}: beta {result.beta:.6f} vs reference {beta_ref}")
    if len(results) != len(reference):
        mismatches.append(f"row count: computed {len(results)}, reference {len(reference)}")
    return mismatches


def cmd_table(args) -> int:
    if args.check and args.n not in REFERENCE_TABLES:
        raise ValueError(f"no built-in reference table for n={args.n} (have {sorted(REFERENCE_TABLES)})")
    results = runtime.reproduce_table(args.n)
    _write_output(format_table(results, args.format), args.out)
    if args.check:
        mismatches = _check_table(args.n, results)
        if mismatches:
            for line in mismatches:
                print(f"check n={args.n}: MISMATCH {line}", file=sys.stderr)
            return EXIT_GOLDEN
        print(f"check n={args.n}: all {len(results)} rows match the reference values", file=sys.stderr)
    return EXIT_OK


def cmd_evolve(args) -> int:
    splitting = _splitting_from_args(args)
    dynamics.check_evolution_cap(splitting)
    marked = _marked_from_args(args, splitting.n)
    kwargs = {"epsilon": args.eps}
    if args.steps is not None:
        kwargs["ode_steps_per_unit_time"] = args.steps
    precision = Precision(**kwargs)
    if args.total_time is not None and args.total_time == 0.0:
        schedule_t = runtime.TimeSchedule.quench()
    else:
        schedule_t = runtime.optimal_schedule(splitting, precision, grid=args.grid)
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
    schedule_t = runtime.optimal_schedule(splitting, Precision(epsilon=args.eps), grid=args.grid)
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
    # OSError: an --out path that cannot be written
    except (ValueError, OSError, runtime.QuadratureError, dynamics.NormDriftError) as exc:
        print(f"adia {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run():
    raise SystemExit(main())
