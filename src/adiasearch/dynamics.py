"""Direct integration of the time-dependent search dynamics.

Each block term acts only on its own qubits and the start state is a
product, so the state stays a product of block states. A fixed-step
4th-order integrator drives one 2^{n_i} block vector per distinct block
size through that block's term of H(s(t)), without building dense
matrices; blocks of one size share a solve, because the marked bits only
relabel a block's basis states. Ground-state overlap, the adiabaticity
diagnostic and norm drift are recorded at uniform checkpoints in s, the
overlap and norm as products over the blocks. Norm drift is never
corrected, only watched: exceeding the limit is an error, not a warning,
because renormalizing would mask step-size problems.

The diagnostics diagonalize nothing: each block term keeps
span{|marked_i>, |uniform_i>} invariant, so the ground state is a product of
per-block two-level ground vectors, the gap is the smallest block gap, and
the drive couples each block only to its own excited direction. What does
not depend on the state (ground amplitudes, gap, cluster and transition
element) is computed for all checkpoints in one array pass; only the
overlaps and norms are taken checkpoint by checkpoint.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import MarkedState, Precision, Schedule, Splitting, make_splitting
from .hamiltonian import DENSE_CAP, MatrixFreeHamiltonian
from .runtime import TimeSchedule
from .spectral import max_structured_matrix_element, subsystem_gap

CHECKPOINT_COUNT = 101
NORM_DRIFT_LIMIT = 1e-6
# Largest number of RK4 steps one evolve may take, summed over its solves.
RK4_STEP_BUDGET = 1 << 20
# 1 - eps**2 - GUARANTEE_SLACK is a target, not a promise: a schedule that
# saturates the bound leaves boundary excitations of up to 4 eps**2 at
# leading order, so it can miss the target.
GUARANTEE_SLACK = 0.01

# Blocks with gaps this close to the smallest share the first excited level.
_CLUSTER_TOL = 1e-8


class NormDriftError(RuntimeError):
    """State norm drifted beyond the allowed limit during integration."""


class DegenerateLevelWarning(UserWarning):
    """First excited level is degenerate; the summed condition applies."""


def check_evolution_cap(splitting: Splitting):
    """Refuse a state of more than DENSE_CAP qubits, before any work for it."""
    if splitting.n > DENSE_CAP:
        raise ValueError(f"n={splitting.n} exceeds the evolution cap of {DENSE_CAP} qubits")


def rk4_propagate(apply_h, psi: np.ndarray, t0: float, t1: float, nsteps: int) -> np.ndarray:
    """Integrate i * dpsi/dt = H(t) psi with classical fixed-step RK4.

    ``apply_h(t, v)`` must return H(t) @ v as a new array. Returns the state at
    t1 without renormalizing. The -1j of k_i = -1j H psi_i is folded into the
    stage coefficients and H psi_1 + 2 H psi_2 + 2 H psi_3 + H psi_4 is summed
    in place in that order, which rounds exactly as the textbook form does.
    """
    if nsteps < 1:
        raise ValueError(f"nsteps must be >= 1, got {nsteps}")
    h = (t1 - t0) / nsteps
    half, full, sixth = -1j * (0.5 * h), -1j * h, -1j * (h / 6.0)
    for k in range(nsteps):
        t = t0 + k * h
        a1 = apply_h(t, psi)
        a2 = apply_h(t + 0.5 * h, psi + half * a1)
        a3 = apply_h(t + 0.5 * h, psi + half * a2)
        a4 = apply_h(t + h, psi + full * a3)
        a1 += 2.0 * a2
        a1 += 2.0 * a3
        a1 += a4
        psi = psi + sixth * a1
    return psi


def _stage_couplings(schedule_t: TimeSchedule, t0, t1, nsteps: int) -> dict:
    """{t: (f, g)} for every stage time of ``rk4_propagate(_, _, t0, t1, nsteps)``,
    formed with the integrator's own float expressions so that its lookups
    hit exactly; a time it lacks raises KeyError instead of a fallback.
    """
    h = (t1 - t0) / nsteps
    starts = t0 + np.arange(nsteps) * h
    times = np.concatenate([starts, starts + 0.5 * h, starts + h])
    s = schedule_t.s_of_t(times)
    base = schedule_t.base
    return dict(zip(times.tolist(), zip(base.f(s).tolist(), base.g(s).tolist())))


def _ground_amplitudes(dims: np.ndarray, f, g):
    """(gaps, c_marked, c_perp): each block's ground vector is
    c_marked |m> + c_perp |m_perp>; f and g broadcast against ``dims``.

    With |u> = a|m> + b|m_perp> and a^2 = 1/N, a block term reads
    [[f b^2, -f a b], [-f a b, f a^2 + g]] on (|m>, |m_perp>); its ground
    vector comes from half-angle forms, each taken where it does not cancel.
    """
    if np.any((f == 0.0) & (g == 0.0)):
        raise ValueError("the operator is zero where f = g = 0; no ground state")
    gaps = subsystem_gap(dims, f, g)
    weight = 1.0 / dims
    cos_2chi = (f * (1.0 - 2.0 * weight) - g) / gaps
    large = np.sqrt(0.5 * (1.0 + np.abs(cos_2chi)))
    small = f * np.sqrt(weight * (1.0 - weight)) / (gaps * large)
    past_crossing = cos_2chi >= 0.0
    return gaps, np.where(past_crossing, small, large), np.where(past_crossing, large, small)


def _block_ground_vector(dim: int, index: int, c_marked, c_perp) -> np.ndarray:
    # |m_perp> = (|u> - a|m>) / b is 1/sqrt(N - 1) off the marked entry
    block = np.full(dim, c_perp / math.sqrt(dim - 1.0))
    block[index] = c_marked
    return block


def _ground_state(splitting: Splitting, marked: MarkedState, f: float, g: float):
    """(E0, ground eigenvector) as a product of per-block closed forms."""
    dims = splitting.float_block_dims()
    gaps, c_marked, c_perp = _ground_amplitudes(dims, f, g)
    vector = np.ones(1)
    blocks = zip(splitting.block_dims, marked.block_values(splitting), c_marked, c_perp)
    for dim, index, cm, cp in blocks:
        vector = np.kron(vector, _block_ground_vector(dim, index, cm, cp))
    weight = 1.0 / dims
    return float(np.sum(2.0 * f * g * (1.0 - weight) / (f + g + gaps))), vector


def _transition_element(splitting: Splitting, f, g, df, dg):
    """(element, gap, cluster size) for the drive dH/ds coupling the ground
    state into the first excited level, one smallest block gap above it.

    Each block couples only to its own excited direction, with strength
    |f'g - g'f| sqrt(N-1) / (N * omega_block); the element is the
    root-sum-square over the blocks at the smallest gap, which the cluster
    counts. The rest of a block's space sits at f + g, level with the
    excited direction only where f * g = 0, and never couples. f, g, df and
    dg are scalars, or arrays of shape (k, 1) that give results of shape (k,).
    """
    dims = splitting.float_block_dims()
    gaps = subsystem_gap(dims, f, g)
    omega = gaps.min(axis=-1, keepdims=True)
    at_min = gaps - omega <= _CLUSTER_TOL * np.maximum(1.0, omega)
    elements = np.abs(df * g - dg * f) * np.sqrt(dims - 1.0) / (dims * gaps)
    cluster = at_min.sum(axis=-1)
    # each cluster summed on its own: padding it with zeros would regroup np.sum's pairwise adds
    rows = zip((elements**2).reshape(-1, dims.size), at_min.reshape(-1, dims.size))
    element = np.sqrt([np.sum(row[mask]) for row, mask in rows]).reshape(cluster.shape)
    return element, omega[..., 0], cluster


def adiabaticity_lhs(splitting: Splitting, schedule: Schedule, s: float, ds_dt: float) -> float:
    """Drive matrix element times |ds/dt| over the squared gap at s.

    Computed from the per-block closed forms; when several blocks share
    the smallest gap the element is the root-sum-square over their excited
    states (a warning points callers at the summed condition, whose square
    root this value already is). Gaps and element magnitudes do not depend
    on the marked state.
    """
    f = float(schedule.f(s))
    g = float(schedule.g(s))
    if f == 0.0 and g == 0.0:
        raise ValueError(f"schedule vanishes at s={s}; the operator is zero there")
    if ds_dt == 0.0:
        return 0.0
    element, omega, cluster_size = _transition_element(
        splitting, f, g, float(schedule.df(s)), float(schedule.dg(s))
    )
    if cluster_size > 1:
        warnings.warn(
            f"first excited level is {cluster_size}-fold degenerate at s={s}; "
            "use degenerate_adiabaticity_lhs for the summed condition",
            DegenerateLevelWarning,
            stacklevel=2,
        )
    return float(element) * abs(ds_dt) / float(omega) ** 2


def degenerate_adiabaticity_lhs(n: int, schedule: Schedule, s: float, ds_dt: float) -> float:
    """Summed squared condition for the fully split search.

    All n first-excited states couple with the same per-qubit element, so
    the left side is n * (element * ds/dt)**2 / omega**4 with
    omega**2 = f**2 + g**2; a schedule saturating this at epsilon**2 runs
    for total time sqrt(n)/epsilon.
    """
    f = float(schedule.f(s))
    g = float(schedule.g(s))
    element = max_structured_matrix_element(f, g, float(schedule.df(s)), float(schedule.dg(s)))
    omega_sq = f * f + g * g
    return n * (element * ds_dt) ** 2 / omega_sq**2


def instantaneous_ground_overlap(
    state: np.ndarray,
    splitting: Splitting,
    marked: MarkedState,
    schedule: Schedule,
    s: float,
) -> float:
    """Squared overlap of ``state`` with the instantaneous ground state."""
    _, ground = _ground_state(splitting, marked, float(schedule.f(s)), float(schedule.g(s)))
    return float(abs(np.vdot(ground, state)) ** 2)


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


def evolve(
    splitting: Splitting,
    marked: MarkedState,
    schedule_t: TimeSchedule,
    precision: Precision | None = None,
) -> EvolutionReport:
    """Integrate from the uniform superposition to the end of the schedule.

    The state is a product of block states, so one 2^{n_i} vector is
    integrated per distinct block size, with the marked entry at index 0.
    The step size is 1 / (ode_steps_per_unit_time * max block operator
    norm), trimmed so checkpoints are hit exactly; runs are deterministic
    for a fixed precision. A zero-duration schedule is an instant quench:
    it has one checkpoint, at s = 1, and takes no step, so the success
    probability is the uniform weight on the marked state. A run whose
    steps times solves exceed RK4_STEP_BUDGET is refused before the first
    step.
    """
    precision = precision if precision is not None else Precision()
    check_evolution_cap(splitting)
    marked.block_values(splitting)  # refuses a marked state of the wrong length
    # one solve per distinct block size, its marked entry at index 0
    sizes, counts = zip(*sorted(Counter(splitting.parts).items()))
    dims = [1 << size for size in sizes]
    appliers = [
        MatrixFreeHamiltonian(make_splitting(size, [size]), MarkedState.zeros(size))
        for size in sizes
    ]
    psis = [np.full(dim, 1.0 / math.sqrt(dim), dtype=complex) for dim in dims]
    threshold = 1.0 - precision.epsilon**2 - GUARANTEE_SLACK

    base = schedule_t.base
    total_time = schedule_t.total_time
    s_checks = np.linspace(0.0, 1.0, CHECKPOINT_COUNT) if total_time > 0.0 else np.ones(1)
    t_checks = np.asarray(schedule_t.t_of_s(s_checks), dtype=float)
    t_checks[0], t_checks[-1] = 0.0, total_time
    t_checks = np.maximum.accumulate(t_checks)

    # the schedule at the checkpoints, one row each
    f, g, df, dg = (np.asarray(fn(s_checks), dtype=float)[:, None] for fn in (base.f, base.g, base.df, base.dg))
    rate_checks = np.asarray(schedule_t.rate(s_checks), dtype=float)
    # every block operator has the same bound, |f| + |g|
    norm_bound = float(appliers[0].norm_bound(f, g).max())
    h_target = 1.0 / (precision.ode_steps_per_unit_time * norm_bound)
    # steps[k] RK4 steps lead from checkpoint k - 1 to checkpoint k
    steps = [0] + [
        max(1, int(math.ceil((t1 - t0) / h_target))) if t1 > t0 else 0
        for t0, t1 in zip(t_checks[:-1], t_checks[1:])
    ]
    total_steps = sum(steps) * len(sizes)
    if total_steps > RK4_STEP_BUDGET:
        raise ValueError(
            f"the run needs {total_steps} RK4 steps ({sum(steps)} for each of {len(sizes)} "
            f"block sizes), over the budget of {RK4_STEP_BUDGET}; "
            "shorten the total time or lower ode_steps_per_unit_time"
        )

    # the diagnostics that do not depend on the state, at every checkpoint at once
    _, c_marked, c_perp = _ground_amplitudes(np.array(dims, dtype=float), f, g)
    element, omega, _ = _transition_element(splitting, f, g, df, dg)
    lhs_vals = element * np.abs(rate_checks) / omega**2

    couplings: dict = {}
    block_hs = [lambda t, v, apply=applier.apply: apply(*couplings[t], v) for applier in appliers]
    overlaps = np.zeros(s_checks.size)
    norms = np.zeros(s_checks.size)
    drift = 0.0
    for k, nsteps in enumerate(steps):
        if nsteps:
            t0, t1 = t_checks[k - 1], t_checks[k]
            couplings = _stage_couplings(schedule_t, t0, t1, nsteps)
            psis = [rk4_propagate(h, psi, t0, t1, nsteps) for h, psi in zip(block_hs, psis)]
        norm = math.prod(float(np.linalg.norm(psi)) ** c for c, psi in zip(counts, psis))
        norms[k] = norm
        drift = max(drift, abs(norm - 1.0))
        if abs(norm - 1.0) > NORM_DRIFT_LIMIT:
            raise NormDriftError(
                f"norm drifted by {abs(norm - 1.0):.3e} at s={s_checks[k]:.3f}; raise "
                f"ode_steps_per_unit_time (currently {precision.ode_steps_per_unit_time})"
            )
        overlaps[k] = math.prod(
            abs(np.vdot(_block_ground_vector(dim, 0, cm, cp), psi)) ** (2 * c)
            for dim, c, cm, cp, psi in zip(dims, counts, c_marked[k], c_perp[k], psis)
        )

    p = float(math.prod(abs(psi[0]) ** (2 * c) for c, psi in zip(counts, psis)))
    return EvolutionReport(
        splitting.n,
        splitting.parts,
        marked.to_string(),
        precision.epsilon,
        total_time,
        p,
        threshold,
        p >= threshold,
        float(lhs_vals.max()),
        drift,
        t_checks,
        s_checks,
        overlaps,
        lhs_vals,
        norms,
    )
