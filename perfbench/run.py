"""adiasearch benchmark: one closed-loop client drives the library and the
`adia` command line for one workload, checks every output and prints the
metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 16 --trace 0

Run it from the root of a source tree; the program is imported from src/.
--trace 0 reports the end-to-end metrics, --trace 1 installs the wrappers
from tracing.py and reports the per-layer metrics. The last line of
standard output is the result object, the line before it the run record.
README.md in this directory describes the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
IMPORTTIME_REPS = 3
# Share of --seconds given to in-process rounds; the rest goes to CLI legs.
IN_PROCESS_SHARE = 0.6
CLI_TIMEOUT_S = 150.0
# One BLAS thread unless the caller set one: on a 2-core machine a second
# thread only spins, doubling CPU time for the same wall time and making the
# runs sensitive to anything else on the machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYER_MODULES = ("core", "runtime", "dynamics", "hamiltonian", "spectral")
TAIL_BEYOND = 10

# End-to-end metrics held to a bound in BENCHMARK.json. Their times are
# given at the reference speed of speed.py.
END_TO_END_UNITS = {
    "setup_s": "s",
    "call_mean_s": "s",
    "cli_mean_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with them but not bounded: raw wall-clock percentiles, which on a
# host whose speed switches between levels depend on the level the run
# happened to get (see README.md).
UNBOUNDED_UNITS = {"call_p50_s": "s", "call_tail_s": "s", "cli_p50_s": "s", "cli_tail_s": "s"}
PER_LAYER_UNITS = {
    **{f"{m}.import_s": "s" for m in LAYER_MODULES},
    "runtime.running_time_s": "s",
    "runtime.tabulate_s": "s",
    "runtime.integrand_calls": "count",
    "runtime.integrand_points": "count",
    "runtime.s_of_t_us": "us",
    "hamiltonian.matvec_us": "us",
    "hamiltonian.matvec_bytes": "B_computed",
    "hamiltonian.matvec_calls": "count",
    "hamiltonian.rk4_matvec_share": "ratio",
    "dynamics.evolve_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_s": "s",
    "dynamics.rk4_step_us": "us",
    "dynamics.diagnostics_s": "s",
    "cli.main_s": "s",
    "cli.format_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}


# ---- statistics ---------------------------------------------------------------


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def tail(samples) -> tuple[float, str]:
    """The highest nearest-rank percentile with at least ten samples beyond
    it, with its label. Below twenty samples that percentile would sit under
    the median, so the maximum is reported instead, labelled "max"."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), "max"
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], f"p{pct}"


class Tally:
    """Ops attempted and failed, over in-process ops and CLI legs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---- in-process ops ------------------------------------------------------------


def run_op(op, tally: Tally, probe: speed.SpeedProbe | None = None):
    """Time one op, then check it outside the timed region. Speed-probe
    bursts that interrupted the op are not counted in its time."""
    probe = probe or speed.SpeedProbe()
    busy = probe.busy_s
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        elapsed = time.perf_counter() - start - (probe.busy_s - busy)
        tally.record(op.label, [f"raised {type(exc).__name__}: {exc}"])
        return elapsed, None
    elapsed = time.perf_counter() - start - (probe.busy_s - busy)
    try:
        problems = op.check(outcome)
    except Exception as exc:  # malformed output cannot be checked
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(op.label, problems)
    return elapsed, outcome


def run_round(workload, tally: Tally, probe: speed.SpeedProbe | None = None) -> list[float]:
    """Every op of the workload once, in the next seeded order; returns latencies."""
    return [run_op(op, tally, probe)[0] for op in workload.round_ops()]


def step_counts(workload, seconds: float) -> tuple[int, int]:
    """Rounds and CLI legs in a run. They follow from --seconds and the
    workload's nominal costs, not from the clock, so every run of a workload
    takes the same samples however fast the host happens to be."""
    rounds = max(1, round(seconds * IN_PROCESS_SHARE / workload.round_s))
    legs = max(1, round(seconds * (1.0 - IN_PROCESS_SHARE) / workload.leg_s))
    return rounds, legs


def interleave(rounds: int, legs: int, do_round, do_leg):
    """Run the rounds and legs spread evenly through the run."""
    done_rounds = done_legs = 0
    while done_rounds < rounds or done_legs < legs:
        if done_legs == legs or (done_rounds < rounds and done_rounds / rounds <= done_legs / legs):
            do_round()
            done_rounds += 1
        else:
            do_leg()
            done_legs += 1


# ---- subprocesses ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class _ChildTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _ChildTimeout()


def run_child(argv: list[str], stderr_path: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB).

    os.wait4 gives this child's own resource usage; a timer signal bounds the
    wait without a helper thread.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err) as proc:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _ChildTimeout:
                proc.kill()
                proc.wait()
                return time.perf_counter() - start, -1, 0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per adiasearch module from `python -X importtime`."""
    found = {}
    for line in text.splitlines():
        match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match and match.group(3).startswith("adiasearch."):
            found[match.group(3).split(".", 1)[1]] = int(match.group(2)) / 1e6
    return found


def measure_imports(scratch: Path, tally: Tally) -> dict[str, float]:
    per_module = {m: [] for m in LAYER_MODULES}
    for _ in range(IMPORTTIME_REPS):
        stderr_path = scratch / "importtime.txt"
        _, code, _ = run_child([sys.executable, "-X", "importtime", "-c", "import adiasearch"], stderr_path)
        found = parse_importtime(stderr_path.read_text())
        missing = [m for m in LAYER_MODULES if m not in found]
        tally.record("python -X importtime", [f"exit {code}, no import line for {missing}"] if code or missing else [])
        for m in LAYER_MODULES:
            per_module[m].append(found.get(m, 0.0))
    return {f"{m}.import_s": median(v) for m, v in per_module.items()}


def run_probed(args: list[str], scratch: Path, stderr_path: Path) -> tuple[float, int, int, float | None]:
    """Run child.py with `args`: (wall seconds less the probe's bursts, exit
    code, max RSS in KiB, factor to the reference speed or None when the
    child left no probe record)."""
    probe_path = scratch / "probe.json"
    probe_path.unlink(missing_ok=True)
    wall, code, maxrss = run_child([sys.executable, str(HERE / "child.py"), str(probe_path), *args], stderr_path)
    try:
        probe = json.loads(probe_path.read_text())
    except (OSError, ValueError):
        return wall, code, maxrss, None
    return wall - probe["busy_s"], code, maxrss, probe["scale"]


def measure_setup(scratch: Path, tally: Tally) -> tuple[list[float], list[float]]:
    """Fresh-import wall times, unscaled and at the reference speed."""
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        wall, code, _, factor = run_probed(["import"], scratch, scratch / "setup.err")
        problems = [f"exit {code}"] if code != 0 else []
        tally.record("import adiasearch", problems + ["no speed probe record"] * (factor is None))
        walls.append(wall)
        scaled.append(wall * (factor or 1.0))
    return walls, scaled


def run_cli_leg(workload, scratch: Path, tally: Tally) -> tuple[float, float, int]:
    """One `python -m adiasearch` run (the `adia` entry point): (wall,
    wall at the reference speed, max RSS KiB)."""
    out_path = scratch / "cli.out"
    out_path.unlink(missing_ok=True)
    wall, code, maxrss, factor = run_probed(["cli", *workload.cli_args, "--out", str(out_path)], scratch, scratch / "cli.err")
    problems = check_cli_output(workload, code, out_path)
    if problems and code not in (0, 4):
        problems.append((scratch / "cli.err").read_text().strip()[-300:])
    if factor is None:
        problems.append("no speed probe record")
    tally.record("adia " + " ".join(workload.cli_args), problems)
    return wall, wall * (factor or 1.0), maxrss


def check_cli_output(workload, code: int, out_path: Path) -> list[str]:
    text = out_path.read_text() if out_path.exists() else ""
    try:
        return workload.check_cli(code, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---- run record -----------------------------------------------------------------


def machine_description(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "commit": commit,
        # identifies the measured code where there is no git metadata
        "source_sha256": hashlib.sha256(
            b"".join(path.read_bytes() for path in sorted(SRC.rglob("*.py")))
        ).hexdigest(),
        "workload_seed": seed,
    }


# ---- the two kinds of run -------------------------------------------------------


def end_to_end(workload, seconds: float, scratch: Path, tally: Tally, record: dict) -> dict:
    setup_raw, setup = measure_setup(scratch, tally)
    probe, kernel = speed.SpeedProbe(), speed.array_kernel()
    probe.warm(kernel)
    run_op(workload.warmup, tally)
    calls, call_speeds, cli_walls, cli_scaled, rss_kib = [], [], [], [], []
    rounds, legs = step_counts(workload, seconds)

    def do_round():
        with probe.sampling(kernel, call_speeds):
            calls.extend(run_round(workload, tally, probe))

    def do_leg():
        wall, scaled, maxrss = run_cli_leg(workload, scratch, tally)
        cli_walls.append(wall)
        cli_scaled.append(scaled)
        rss_kib.append(maxrss)

    interleave(rounds, legs, do_round, do_leg)
    call_tail, call_pct = tail(calls)
    cli_tail, cli_pct = tail(cli_walls)
    call_scale = speed.scale(call_speeds)
    record["samples"] = {
        "setup_s": f"median of {len(setup)}, each at reference speed",
        "call_mean_s": f"mean of {len(calls)} ops in {rounds} rounds, at reference speed ({len(call_speeds)} bursts)",
        "cli_mean_s": f"mean of {len(cli_walls)} runs, each at reference speed",
        "call_p50_s": f"p50 of {len(calls)} ops, raw",
        "call_tail_s": f"{call_pct} of {len(calls)} ops, raw",
        "cli_p50_s": f"p50 of {len(cli_walls)} runs, raw",
        "cli_tail_s": f"{cli_pct} of {len(cli_walls)} runs, raw",
        "peak_rss_mb": f"max of {len(rss_kib)} runs",
    }
    record["call_speed_scale"] = call_scale
    record["quartiles"] = {
        name: [min(v), *statistics.quantiles(v, n=4), max(v)] if len(v) > 1 else v
        for name, v in (("setup_raw_s", setup_raw), ("call_s", calls), ("cli_s", cli_walls))
    }
    return {
        "setup_s": median(setup),
        "call_mean_s": statistics.fmean(calls) * call_scale,
        "cli_mean_s": statistics.fmean(cli_scaled),
        "call_p50_s": median(calls),
        "call_tail_s": call_tail,
        "cli_p50_s": median(cli_walls),
        "cli_tail_s": cli_tail,
        "peak_rss_mb": max(rss_kib) / 1024.0,
    }


def micro_us(fn, number: int, repeat: int = 5) -> float:
    """Median over repeats of the per-call time, in microseconds."""
    return median(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def count_delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def per_layer(workload, seconds: float, scratch: Path, tally: Tally, record: dict) -> dict:
    """Untraced and traced rounds in pairs, so that the overhead compares like
    with like, interleaved with traced in-process `cli.main` legs."""
    import numpy as np

    import adiasearch as a
    from adiasearch import cli
    from tracing import Tracer

    metrics = measure_imports(scratch, tally)
    run_op(workload.warmup, tally)
    tracer = Tracer()
    untraced, traced, round_counts, first_round = [], [], [], []
    out_path = scratch / "cli_main.out"
    argv = [*workload.cli_args, "--out", str(out_path)]

    def do_round():
        untraced.extend(run_round(workload, tally))
        tracer.install()
        try:
            round_before = tracer.counts()
            for op in workload.round_ops():
                op_before = tracer.counts()
                elapsed, outcome = run_op(op, tally)
                traced.append(elapsed)
                if not round_counts:
                    first_round.append((op, outcome, elapsed, count_delta(tracer.counts(), op_before)))
            round_counts.append(count_delta(tracer.counts(), round_before))
        finally:
            tracer.uninstall()

    def do_leg():
        out_path.unlink(missing_ok=True)
        tracer.install()
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
        finally:
            tracer.uninstall()
        problems = check_cli_output(workload, code, out_path)
        tally.record("cli.main " + " ".join(workload.cli_args), problems + [err.getvalue()] * bool(problems))

    interleave(*step_counts(workload, seconds), do_round, do_leg)

    spans = tracer.spans
    children = tracer.child_totals()
    root = []
    for _, parent, _, _ in spans:
        root.append(len(root) if parent is None else root[parent])
    in_cli = [spans[r][0] == "cli.main" for r in root]

    def op_spans(name):
        return [i for i, span in enumerate(spans) if span[0] == name and not in_cli[i]]

    def span_len(i):
        return spans[i][3] - spans[i][2]

    counts = round_counts[0]
    evolve_idx = op_spans("dynamics.evolve")
    main_idx = [i for i, span in enumerate(spans) if span[0] == "cli.main"]
    rk4_total = sum(span_len(i) for i in op_spans("dynamics.rk4"))
    steps_total = sum(c["dynamics.rk4_steps"] for c in round_counts)
    schedules = [o.schedule_t for _, o, _, _ in first_round if o is not None and o.schedule_t is not None]
    configs = [op.problem for op, _, _, _ in first_round if op.problem is not None]
    rng = np.random.default_rng(0)
    matvec = []
    for splitting, marked in configs:
        applier = a.MatrixFreeHamiltonian(splitting, marked)
        psi = rng.standard_normal(splitting.dim) + 1j * rng.standard_normal(splitting.dim)
        matvec.append(micro_us(lambda: applier.apply(0.5, 0.5, psi), max(20, 200_000 // splitting.dim)))
    s_of_t = [micro_us(lambda: ts.s_of_t(0.37 * ts.total_time), 500) for ts in schedules]

    metrics.update(
        {
            "runtime.running_time_s": median([span_len(i) for i in op_spans("runtime.running_time")]),
            "runtime.tabulate_s": median([span_len(i) for i in op_spans("runtime.tabulate")]),
            "runtime.integrand_calls": counts["runtime.integrand_calls"],
            "runtime.integrand_points": counts["runtime.integrand_points"],
            "runtime.s_of_t_us": median(s_of_t),
            "hamiltonian.matvec_us": median(matvec),
            "hamiltonian.matvec_bytes": counts["hamiltonian.matvec_bytes"],
            "hamiltonian.matvec_calls": counts["hamiltonian.matvec_calls"],
            "hamiltonian.rk4_matvec_share": (
                4 * counts["dynamics.rk4_steps"] / counts["hamiltonian.matvec_calls"]
                if counts["hamiltonian.matvec_calls"]
                else 0.0
            ),
            "dynamics.evolve_s": median([span_len(i) for i in evolve_idx]),
            "dynamics.rk4_steps": counts["dynamics.rk4_steps"],
            "dynamics.rk4_s": median([children[i, "dynamics.rk4"] for i in evolve_idx]),
            "dynamics.rk4_step_us": rk4_total / steps_total * 1e6 if steps_total else 0.0,
            "dynamics.diagnostics_s": median([span_len(i) - children[i, "dynamics.rk4"] for i in evolve_idx]),
            "cli.main_s": median([span_len(i) for i in main_idx]),
            "cli.format_s": median([span_len(i) - children[i, None] for i in main_idx]),
            "cli.output_bytes": out_path.stat().st_size if out_path.exists() else 0,
            "trace.overhead_pct": (median(traced) / median(untraced) - 1.0) * 100.0,
        }
    )
    record["samples"] = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "rounds": len(round_counts),
        "cli_main_runs": len(main_idx),
        "counts_repeat_every_round": all(c == counts for c in round_counts),
    }
    record["per_op"] = [
        {"op": op.label, "seconds": elapsed, **{k: v for k, v in delta.items() if v}}
        for op, _, elapsed, delta in first_round
    ]
    if configs:
        record["matvec_us_by_dim"] = {str(c[0].dim): us for c, us in zip(configs, matvec)}
    return metrics


def main(argv=None) -> int:
    if not (SRC / "adiasearch" / "__init__.py").is_file():
        print(f"perfbench: no adiasearch sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tally = Tally()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        workload = workloads.build(args.workload, args.seed)
        record["machine"] = machine_description(args.seed)
        if args.trace:
            values = per_layer(workload, args.seconds, scratch, tally, record)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(workload, args.seconds, scratch, tally, record)
            units = {**END_TO_END_UNITS, **UNBOUNDED_UNITS}
        record["error_rate"] = f"{tally.failed}/{tally.attempted} = {tally.error_rate}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in values.items():
        note = record["samples"].get(name, "")
        print(f"  {name:<30} {value:>14.6g} {units[name]:<10} {note}")
    reported = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"  {'error_rate':<30} {tally.error_rate:>14.6g} {'ratio':<10} {tally.failed} of {tally.attempted} ops")
    print(json.dumps({"run_record": record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
