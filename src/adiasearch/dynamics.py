"""Direct integration of the time-dependent search dynamics.

Each block term acts only on its own qubits and the start state is a
product, so the state stays a product of block states. A fixed-step
4th-order integrator drives one 2^{n_i} block vector per distinct block
size (Splitting.size_counts) through that block's term of H(s(t)), with no
dense matrix; blocks of one size share a solve, because the marked bits
only relabel a block's basis states. s(t) at every RK4 stage of the run
comes from one chunked pass over the time schedule and reaches the
integrator as plain lists, step by step; the integrator applies the linear
path's couplings (f, g) = (1 - s, s). Ground-state overlap, the
adiabaticity diagnostic and norm drift are recorded at uniform checkpoints
in s, the overlap and norm as products over the blocks. Norm drift is
never corrected, only watched: exceeding the limit is an error, not a
warning, because renormalizing would mask step-size problems.

The diagnostics diagonalize nothing and build no ground vector: each block
term keeps span{|marked_i>, |uniform_i>} invariant, so an overlap with the
product ground state is two terms per block. On the linear path f = 1 - s
and g = s are never both 0, so every block term has a ground state. The
adiabaticity diagnostic is spectral.adiabatic_ratio times |ds/dt|, the
quantity optimal_schedule saturates, so it reads epsilon along that
schedule on any split; ds/dt is the slope of the s(t) that RK4 follows.
What does not depend on the state is computed for all checkpoints in one
array pass; only the overlaps and norms are taken checkpoint by checkpoint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import MarkedState, Precision, Splitting, _integer, _real, make_splitting
from .hamiltonian import DENSE_CAP, MatrixFreeHamiltonian
from .runtime import TimeSchedule
from .spectral import adiabatic_ratio, subsystem_gap

CHECKPOINT_COUNT = 101
NORM_DRIFT_LIMIT = 1e-6
# Largest number of RK4 steps one evolve may take, summed over its solves.
RK4_STEP_BUDGET = 1 << 20
_STAGE_CHUNK = 512  # RK4 steps per schedule evaluation, to keep its temporaries small
# 1 - eps**2 - GUARANTEE_SLACK is a target, not a promise: a schedule that
# saturates the bound leaves boundary excitations of up to 4 eps**2 at
# leading order, so it can miss the target.
GUARANTEE_SLACK = 0.01


class NormDriftError(RuntimeError):
    """State norm drifted beyond the allowed limit during integration."""


def check_evolution_cap(splitting: Splitting):
    """Refuse a block of more than DENSE_CAP qubits, before any work; evolve holds one vector per block size."""
    if max(splitting.parts) > DENSE_CAP:
        raise ValueError(
            f"block of {max(splitting.parts)} qubits exceeds the evolution cap of {DENSE_CAP} qubits per block"
        )


def rk4_propagate(apply, psi: np.ndarray, t0: float, t1: float, nsteps: int, stages) -> np.ndarray:
    """Integrate i * dpsi/dt = H psi with classical fixed-step RK4 from t0 to t1
    along the linear path, H = apply(1 - s, s, .).

    ``stages`` is three lists of ``nsteps`` entries, s at each step's start,
    midpoint and end; ``apply(f, g, v)`` must return H @ v as a new array.
    Returns the state at t1 without renormalizing. The -1j of
    k_i = -1j H psi_i is folded into the stage coefficients and
    H psi_1 + 2 H psi_2 + 2 H psi_3 + H psi_4 is summed in place in that
    order, which rounds exactly as the textbook form does.
    """
    nsteps = _integer(nsteps, "nsteps")
    if nsteps < 1:
        raise ValueError(f"nsteps must be >= 1, got {nsteps}")
    if list(map(len, stages)) != [nsteps] * 3:
        raise ValueError(f"need 3 stage lists of nsteps={nsteps} entries, got {list(map(len, stages))}")
    h = (t1 - t0) / nsteps
    half, full, sixth = -1j * (0.5 * h), -1j * h, -1j * (h / 6.0)
    for s0, s_mid, s1 in zip(*stages):
        f_mid = 1.0 - s_mid
        a1 = apply(1.0 - s0, s0, psi)
        a2 = apply(f_mid, s_mid, psi + half * a1)
        a3 = apply(f_mid, s_mid, psi + half * a2)
        a4 = apply(1.0 - s1, s1, psi + full * a3)
        a1 += 2.0 * a2
        a1 += 2.0 * a3
        a1 += a4
        psi = psi + sixth * a1
    return psi


def _stage_points(schedule_t: TimeSchedule, t_checks: np.ndarray, steps) -> np.ndarray:
    """(3, sum(steps)) array of s at the start, midpoint and end of each step
    of a run whose steps[k] steps lead from t_checks[k - 1] to t_checks[k].
    Stage times are t0 + i * h, then + 0.5 * h and + h, with rk4_propagate's
    h = (t1 - t0) / nsteps, so each entry equals a scalar schedule call's.
    """
    active = np.flatnonzero(steps)
    nsteps = np.asarray(steps)[active]
    t0 = t_checks[active - 1]
    h = (t_checks[active] - t0) / nsteps
    first = np.cumsum(nsteps) - nsteps  # each interval's first column
    out = np.empty((3, int(nsteps.sum())))
    for lo in range(0, out.shape[1], _STAGE_CHUNK):
        col = np.arange(lo, min(lo + _STAGE_CHUNK, out.shape[1]))
        k = np.searchsorted(first, col, side="right") - 1
        start = t0[k] + (col - first[k]) * h[k]
        s = schedule_t.s_of_t(np.concatenate([start, start + 0.5 * h[k], start + h[k]]))
        out[:, col] = s.reshape(3, -1)
    return out


def _ground_amplitudes(dims: np.ndarray, f, g):
    """(c_marked, c_perp): each block's ground vector is
    c_marked |m> + c_perp |m_perp>; f and g broadcast against ``dims``.

    With |u> = a|m> + b|m_perp> and a^2 = 1/N, a block term reads
    [[f b^2, -f a b], [-f a b, f a^2 + g]] on (|m>, |m_perp>); its ground
    vector comes from half-angle forms, each taken where it does not cancel.
    """
    gaps = subsystem_gap(dims, f, g)
    weight = 1.0 / dims
    cos_2chi = (f * (1.0 - 2.0 * weight) - g) / gaps
    large = np.sqrt(0.5 * (1.0 + np.abs(cos_2chi)))
    small = f * np.sqrt(weight * (1.0 - weight)) / (gaps * large)
    past_crossing = cos_2chi >= 0.0
    return np.where(past_crossing, small, large), np.where(past_crossing, large, small)


def _ground_amplitude(x: np.ndarray, index: int, c_marked, c_perp):
    """<ground|x> over x's leading axis, for the block ground vector
    c_marked |m> + c_perp |m_perp> with |m> at ``index``; |m_perp> =
    (|u> - a|m>) / b is 1/sqrt(N - 1) off the marked entry."""
    return c_marked * x[index] + c_perp / math.sqrt(x.shape[0] - 1.0) * (x.sum(0) - x[index])


def adiabaticity_lhs(splitting: Splitting, s: float, ds_dt: float) -> float:
    """Root-sum-square over the blocks of each block's adiabaticity ratio at s.

    This is the quantity optimal_schedule saturates, so it reads epsilon
    along that schedule on any split. It is spectral.adiabatic_ratio, which
    evolve takes at its checkpoints as one array, so the two agree bit for
    bit; it does not depend on the marked state.
    """
    s, ds_dt = _real(s, "s"), _real(ds_dt, "ds_dt")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    if not math.isfinite(ds_dt):
        raise ValueError(f"ds_dt must be finite, got {ds_dt}")
    # a Python float product overflows to inf without numpy's warning
    return float(adiabatic_ratio(splitting)(1.0 - 2.0 * s, 1.0 - s, s)) * abs(ds_dt)


@dataclass(frozen=True)
class EvolutionReport:
    """Outcome of one schedule-driven evolution with checkpoint diagnostics."""

    n: int
    parts: tuple[int, ...]
    marked: str
    epsilon: float
    total_time: float
    success_probability: float
    guarantee_threshold: float
    guarantee_met: bool
    max_adiabaticity_lhs: float
    norm_drift: float
    checkpoint_t: np.ndarray
    checkpoint_s: np.ndarray
    checkpoint_overlap: np.ndarray
    checkpoint_lhs: np.ndarray
    checkpoint_norm: np.ndarray
    steps: int  # RK4 steps summed over the solves, the count RK4_STEP_BUDGET bounds; 0 for a quench


def evolve(
    splitting: Splitting,
    marked: MarkedState,
    schedule_t: TimeSchedule,
    precision: Precision = Precision(),
) -> EvolutionReport:
    """Integrate from the uniform superposition to the end of the schedule.

    The state is a product of block states, so one 2^{n_i} vector is
    integrated per distinct block size, with the marked entry at index 0.
    The step size is 1 / ode_steps_per_unit_time, trimmed so checkpoints
    are hit exactly; runs are deterministic for a fixed precision. A
    zero-duration schedule is an instant quench: it has one checkpoint, at
    s = 1, and takes no step, so the success probability is the uniform
    weight on the marked state. A run whose steps times solves exceed
    RK4_STEP_BUDGET is refused before the first step; ``steps`` reports
    that product for a run that is taken.
    """
    check_evolution_cap(splitting)
    marked.block_values(splitting)  # refuses a marked state of the wrong length
    # one solve per distinct block size, its marked entry at index 0
    sizes, counts = zip(*splitting.size_counts())
    dims = [1 << size for size in sizes]
    appliers = [MatrixFreeHamiltonian(make_splitting(q, [q]), MarkedState.zeros(q)) for q in sizes]
    psis = [np.full(dim, 1.0 / math.sqrt(dim), dtype=complex) for dim in dims]
    threshold = 1.0 - precision.epsilon**2 - GUARANTEE_SLACK

    total_time = schedule_t.total_time
    s_checks = np.linspace(0.0, 1.0, CHECKPOINT_COUNT) if total_time > 0.0 else np.ones(1)
    t_checks = schedule_t.t_of_s(s_checks)
    t_checks = np.maximum.accumulate(t_checks)

    # the schedule at the checkpoints, one row each
    s_col = s_checks[:, None]
    f, g = 1.0 - s_col, s_col
    rate_checks = schedule_t.rate(s_checks)
    # steps are counted in floats, so a count too large for an int is refused, not converted
    h_target = 1.0 / float(min(precision.ode_steps_per_unit_time, sys.float_info.max))
    # steps[k] RK4 steps lead from checkpoint k - 1 to checkpoint k
    widths = np.diff(t_checks)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        steps = np.where(widths > 0.0, np.maximum(1.0, np.ceil(widths / h_target)), 0.0)
        per_solve = float(steps.sum())
    if per_solve * len(sizes) > RK4_STEP_BUDGET:
        raise ValueError(
            f"the run needs {per_solve * len(sizes):.3g} RK4 steps ({per_solve:.3g} for each of "
            f"{len(sizes)} block sizes), over the budget of {RK4_STEP_BUDGET}; "
            "shorten the total time or lower ode_steps_per_unit_time"
        )
    steps = [0] + steps.astype(int).tolist()

    # the diagnostics that do not depend on the state, at every checkpoint at once
    c_marked, c_perp = _ground_amplitudes(np.array(dims, dtype=float), f, g)
    lhs_vals = adiabatic_ratio(splitting)(1.0 - 2.0 * s_col, f, g) * np.abs(rate_checks)

    # s at every RK4 stage of the run in one pass, split by checkpoint interval
    stages = np.split(_stage_points(schedule_t, t_checks, steps), np.cumsum(steps)[:-1], axis=1)
    overlaps, norms = np.zeros((2, s_checks.size))
    drift = 0.0
    for k, (nsteps, stage) in enumerate(zip(steps, stages)):
        if nsteps:
            t0, t1, points = t_checks[k - 1], t_checks[k], stage.tolist()
            psis = [rk4_propagate(a.apply, psi, t0, t1, nsteps, points) for a, psi in zip(appliers, psis)]
        # each norm is the root of the summed squares of psi's real and imaginary parts, by numpy's sum, not BLAS
        norm = math.prod(math.sqrt(np.square(psi.view(float)).sum()) ** c for c, psi in zip(counts, psis))
        norms[k] = norm
        drift = max(drift, abs(norm - 1.0))
        if abs(norm - 1.0) > NORM_DRIFT_LIMIT:
            raise NormDriftError(
                f"norm drifted by {abs(norm - 1.0):.3e} at s={s_checks[k]:.3f}; raise "
                f"ode_steps_per_unit_time (currently {precision.ode_steps_per_unit_time})"
            )
        overlaps[k] = math.prod(
            abs(_ground_amplitude(psi, 0, cm, cp)) ** (2 * c)
            for c, cm, cp, psi in zip(counts, c_marked[k], c_perp[k], psis)
        )

    p = float(math.prod(abs(psi[0]) ** (2 * c) for c, psi in zip(counts, psis)))
    return EvolutionReport(
        splitting.n, splitting.parts, marked.to_string(), precision.epsilon, total_time,
        p, threshold, p >= threshold, float(lhs_vals.max()), drift,
        t_checks, s_checks, overlaps, lhs_vals, norms, int(per_solve) * len(sizes),
    )
