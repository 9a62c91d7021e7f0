"""Command-line surface: table reproduction, gap and schedule export,
dynamics runs, and term-expansion inspection.

Exit codes: 0 ok, 2 bad configuration (an unwritable --out included) or
failed computation, 3 reference check mismatch, 4 dynamics below the
success-probability target 1 - eps**2 - 0.01. Exit 4 is a result, not a
fault: a bound-saturating schedule leaves boundary excitations of up to
4 eps**2 at leading order and can miss that target. Output is data files
only; point a plotting tool at the CSV columns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import dynamics, hamiltonian, runtime, spectral
from .core import MarkedState, Precision, Splitting, equal_splitting, linear_schedule, make_splitting

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
    p_evolve.add_argument("--steps", type=int, default=None, help="integrator steps per unit time and norm")
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
            parts = [int(p) for p in args.parts.split(",") if p != ""]
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
    """Write atomically (temp file + rename) or to stdout."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".adia-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _check_table(n: int, results) -> list[str]:
    reference = REFERENCE_TABLES.get(n)
    if reference is None:
        raise ValueError(f"no built-in reference table for n={n} (have {sorted(REFERENCE_TABLES)})")
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
    results = runtime.reproduce_table(args.n)
    text = runtime.table_to_csv(results) if args.format == "csv" else runtime.table_to_json(results)
    _write_output(text, args.out)
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
    marked = _marked_from_args(args, splitting.n)
    dynamics.check_evolution_cap(splitting)
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
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        text = report.checkpoints_to_csv()
    _write_output(text, args.out)
    return EXIT_OK if report.guarantee_met else EXIT_GUARANTEE


def cmd_gap(args) -> int:
    splitting = _splitting_from_args(args)
    profile = spectral.gap_profile(splitting, linear_schedule(), grid=args.grid)
    if args.format == "csv":
        text = profile.to_csv()
    else:
        text = json.dumps(
            {
                "s": [float(x) for x in profile.s],
                "block_gaps": [[float(v) for v in row] for row in profile.block_gaps],
                "global_gap": [float(x) for x in profile.global_gap],
                "omega_min": profile.omega_min,
                "s_min": profile.s_min,
            },
            indent=2,
        ) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_schedule(args) -> int:
    splitting = _splitting_from_args(args)
    precision = Precision(epsilon=args.eps)
    schedule_t = runtime.optimal_schedule(splitting, precision, grid=args.grid)
    if args.format == "csv":
        lines = ["t,s,ds_dt"]
        for k in range(schedule_t.t_nodes.size):
            lines.append(
                f"{schedule_t.t_nodes[k]:.17g},{schedule_t.s_nodes[k]:.17g},"
                f"{schedule_t.rate_nodes[k]:.17g}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {
                "total_time": schedule_t.total_time,
                "t": [float(x) for x in schedule_t.t_nodes],
                "s": [float(x) for x in schedule_t.s_nodes],
                "ds_dt": [float(x) for x in schedule_t.rate_nodes],
            },
            indent=2,
        ) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_pauli(args) -> int:
    splitting = _splitting_from_args(args)
    marked = _marked_from_args(args, splitting.n)
    _write_output(hamiltonian.final_terms(splitting, marked).to_text(), args.out)
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
