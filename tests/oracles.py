"""Dense reference implementations that the tests compare the package against.

The package holds H(s) only in its block structure: closed forms, the
closed-form word expansion ``final_terms`` and the per-block applier. The
oracles here build the full 2^n operators instead, expand a dense operator
word by word by Walsh transforms into a plain tuple of (coefficient, word)
pairs, rebuild a dense matrix from such pairs, and contract a dense state
against the product ground state. ``two_level_success`` solves each block
in its own two-level adiabatic frame, on the exact rate of the linear
schedule, with no state vector and no time table. ``equal_split_time`` is
the bound-saturating schedule of an equal split in closed form, and
``equal_split_s`` its inverse.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from adiasearch.core import LinearSchedule, MarkedState, Splitting
from adiasearch.dynamics import _ground_amplitude, _ground_amplitudes
from adiasearch.hamiltonian import _check_dense_cap

# Word-by-word dense expansion costs O(6^n); refuse above this qubit count.
EXPANSION_CAP = 10
# Transform coefficients below this are rounding of a zero and are pruned.
COEFF_PRUNE_TOL = 1e-14


def build_initial(splitting: Splitting) -> np.ndarray:
    """Mixing Hamiltonian: one uniform-superposition projector penalty per block.

    Each block contributes identity minus the projector onto its local
    uniform superposition, acting as identity elsewhere, so the total ground
    state is the global uniform superposition at energy zero and the blocks
    evolve independently.
    """
    _check_dense_cap(splitting.n)
    dim = splitting.dim
    dense = np.zeros((dim, dim))
    left = 1
    for block_dim in splitting.block_dims:
        right = dim // (left * block_dim)
        block = np.eye(block_dim) - np.full((block_dim, block_dim), 1.0 / block_dim)
        dense += np.kron(np.kron(np.eye(left), block), np.eye(right))
        left *= block_dim
    return dense


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    """Parity of the bits selected by ``mask`` in each value (vectorized)."""
    v = np.bitwise_and(values, mask)
    for shift in (16, 8, 4, 2, 1):
        v = np.bitwise_xor(v, v >> shift)
    return np.bitwise_and(v, 1)


def _word_masks(n: int, word: str) -> tuple[int, int]:
    """Bit masks of the X and Z letters; qubit 1 maps to the top bit."""
    x_mask = z_mask = 0
    for pos, letter in enumerate(word):
        bit = 1 << (n - 1 - pos)
        if letter == "X":
            x_mask |= bit
        elif letter == "Z":
            z_mask |= bit
    return x_mask, z_mask


def to_dense(terms, n: int) -> np.ndarray:
    """Rebuild the dense matrix of (coefficient, word) pairs over n qubits (bounded by the dense cap)."""
    _check_dense_cap(n)
    dim = 1 << n
    idx = np.arange(dim)
    out = np.zeros((dim, dim))
    for coeff, word in terms:
        x_mask, z_mask = _word_masks(n, word)
        signs = 1.0 - 2.0 * _parity(idx, z_mask)
        out[np.bitwise_xor(idx, x_mask), idx] += coeff * signs
    return out


def _masks_to_word(n: int, x_mask: int, z_mask: int) -> str:
    letters = []
    for pos in range(n):
        bit = 1 << (n - 1 - pos)
        if x_mask & bit:
            letters.append("X")
        elif z_mask & bit:
            letters.append("Z")
        else:
            letters.append("I")
    return "".join(letters)


def _walsh_transform(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, out[z] = sum_u (-1)^{z.u} vec[u]."""
    out = vec.copy()
    h = 1
    while h < out.size:
        out = out.reshape(-1, 2 * h)
        top = out[:, :h] + out[:, h:]
        bot = out[:, :h] - out[:, h:]
        out = np.concatenate([top, bot], axis=1)
        h *= 2
    return out.reshape(-1)


def pauli_expansion(op: np.ndarray) -> tuple[tuple[float, str], ...]:
    """Expand a real symmetric operator over I/X/Z tensor-product words.

    Returns (coefficient, word) pairs, qubit 1 the leftmost letter, one per
    word whose coefficient is not pruned, in the order the transform finds them.

    Exact for everything the builders produce (projector sums, diagonal
    clause counters, and their interpolations). Inputs with components
    outside that family, or larger than the expansion cap, are rejected.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    dim = op.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 1:
        raise ValueError(f"operator dimension {dim} is not a power of two")
    if n > EXPANSION_CAP:
        raise ValueError(f"n={n} exceeds the expansion cap of {EXPANSION_CAP} qubits")
    if np.iscomplexobj(op):
        if np.abs(op.imag).max() > 1e-12:
            raise ValueError("unsupported operator: complex entries")
        op = op.real
    op = op.astype(float)
    if np.abs(op - op.T).max() > 1e-12:
        raise ValueError("unsupported operator: not symmetric")

    idx = np.arange(dim)
    terms = []
    captured = 0.0
    for x_mask in range(dim):
        # fix the flip pattern, then read all phase patterns in one transform
        slice_vals = op[np.bitwise_xor(idx, x_mask), idx]
        coeffs = _walsh_transform(slice_vals) / dim
        for z_mask in np.nonzero(np.abs(coeffs) > COEFF_PRUNE_TOL)[0]:
            z_mask = int(z_mask)
            if z_mask & x_mask:
                continue  # overlapping X and Z on one site is outside the family
            coeff = float(coeffs[z_mask])
            captured += coeff * coeff
            terms.append((coeff, _masks_to_word(n, x_mask, z_mask)))
    total = float(np.sum(op * op))
    if total - captured * dim > 1e-10 * max(total, 1.0):
        raise ValueError(
            "unsupported operator: contains factors outside the identity/flip/phase family"
        )
    return tuple(terms)


def instantaneous_ground_overlap(
    state: np.ndarray,
    splitting: Splitting,
    marked: MarkedState,
    schedule: LinearSchedule,
    s: float,
) -> float:
    """Squared overlap of ``state`` with the instantaneous ground state,
    contracted one block axis at a time against the block closed forms."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    dims = np.array(splitting.block_dims, dtype=float)
    c_marked, c_perp = _ground_amplitudes(dims, float(schedule.f(s)), float(schedule.g(s)))
    amplitude = np.asarray(state).reshape(splitting.block_dims)
    for index, cm, cp in zip(marked.block_values(splitting), c_marked, c_perp):
        amplitude = _ground_amplitude(amplitude, index, cm, cp)
    return float(abs(amplitude) ** 2)


# 3-point Gauss-Legendre rule on [-1, 1]
_GAUSS_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
# 2 pi to the digits of the extended precision that the phase is formed in
_TWO_PI = np.longdouble("6.283185307179586476925286766559005768")
# Steps per block of the phase's cumulative sum: the partial sums of reduced
# increments stay below 2 pi times this, so they keep about 1e-13 rad.
_PHASE_BLOCK = 256
# Below this |dTheta| the Filon weights come from their series, whose closed
# forms cancel there.
_SERIES_BELOW = 1.0
_SERIES_TERMS = 20


def two_level_success(parts, epsilon: float, steps: int) -> float:
    """Success probability of the bound-saturating search on the linear
    schedule, each block solved in its own adiabatic frame.

    Block i keeps span{|m_i>, |m_i^perp>}. In its instantaneous eigenbasis
    the amplitudes obey c0' = a e^{-i Theta} c1 and c1' = -a e^{i Theta} c0,
    with a = chi' ds/du, chi' = (f'g - g'f) sqrt(N - 1) / (N omega**2) the
    rate of the mixing angle, and Theta the integral of the gap omega over t.
    The start state is each block's ground state, so p = prod_i |c0_i(1)|**2.

    dt/ds is sqrt(sum_i (f + g)**2 (N_i - 1) / (N_i**2 omega_i**6)) / epsilon,
    summed here block by block in the given order, not taken from the
    package's ratio, and formed from the offset x = s - 1/2 = w sinh(u) with
    LinearSchedule.difference, as the running time is. The steps
    are uniform in u and tile [u(0), u(1)] by their own edges. Each is one
    first-order Magnus rotation (Iserles, BIT 42, 561 (2002)), whose
    z = integral of a e^{i Theta} du is a Filon rule in the phase: b =
    chi' / (omega dt/ds) taken linear in Theta across the step. dTheta is
    3-point Gauss-Legendre on each step.

    On [1,63] the small block turns about 1e10 rad, and p moves about 0.17
    per radian of it. So Theta is carried reduced mod 2 pi, and its rate is
    formed in np.longdouble: in doubles, its rounding alone moves p by about
    3e-9 from one step count to the next. Where np.longdouble is a double,
    that noise stays.
    """
    schedule = LinearSchedule()
    dims = np.array([2.0**p for p in parts])
    sizes, block_size = np.unique(dims, return_inverse=True)
    width = 0.25 / math.sqrt(dims.max())  # the narrowest peak's half-width in s
    u_end = math.asinh(0.5 / width)
    edges = np.linspace(-u_end, u_end, steps + 1)
    h = np.diff(edges)

    def frame(u):
        """(omega, dt/du, ds/du, f'g - g'f) at u, in u's precision; omega per distinct size, on a trailing axis."""
        x = np.clip(width * np.sinh(u), -0.5, 0.5)[..., None]
        s = 0.5 + x
        f, g = schedule.f(s), schedule.g(s)
        difference = schedule.difference(0.5, x)
        ds_du = (width * np.cosh(u))[..., None]
        drive = f + g
        block_gaps_sq = difference * difference + 4.0 * f * g / dims
        dt_ds = np.sqrt(np.sum(drive * drive * (dims - 1.0) / (dims * dims * block_gaps_sq**3), axis=-1))
        dt_du = dt_ds[..., None] / epsilon * ds_du
        # f'g - g'f on the linear path, where f' = -1 and g' = 1
        return np.sqrt(difference * difference + 4.0 * f * g / sizes), dt_du, ds_du, -drive

    omega, dt_du, _, _ = frame((edges[:-1, None] + h[:, None] * (0.5 + 0.5 * _GAUSS_NODES)).astype(np.longdouble))
    d_theta = 0.5 * h[:, None] * np.einsum("j,kjm->km", _GAUSS_WEIGHTS.astype(np.longdouble), omega * dt_du)
    theta = _reduced_left_sums(np.remainder(d_theta, _TWO_PI).astype(float))
    d_theta = d_theta.astype(float)
    omega, dt_du, ds_du, drive = frame(edges)
    # b = chi' / (omega dt/ds), with chi' = drive sqrt(N - 1) / (N omega**2)
    b = drive * np.sqrt(sizes - 1.0) / sizes * ds_du / (omega**3 * dt_du)
    z = np.exp(1j * theta) * d_theta * (b[:-1] * _filon_flat(d_theta) + (b[1:] - b[:-1]) * _filon_ramp(d_theta))

    # exp([[0, conj(z)], [-z, 0]]) per step, later steps on the left
    angle = np.abs(z)
    sinc = np.sinc(angle / math.pi)
    rotations = np.empty((sizes.size, steps, 2, 2), dtype=complex)
    rotations[..., 0, 0] = rotations[..., 1, 1] = np.cos(angle).T
    rotations[..., 0, 1] = (sinc * np.conj(z)).T
    rotations[..., 1, 0] = -(sinc * z).T
    while rotations.shape[1] > 1:
        if rotations.shape[1] % 2:
            rotations = np.concatenate([rotations, np.broadcast_to(np.eye(2), (sizes.size, 1, 2, 2))], axis=1)
        rotations = rotations[:, 1::2] @ rotations[:, 0::2]
    block_p = np.abs(rotations[:, 0, 0, 0]) ** 2
    return float(np.prod(block_p[block_size]))


def _reduced_left_sums(reduced: np.ndarray) -> np.ndarray:
    """Running sums mod 2 pi before each row of ``reduced``, increments already in [0, 2 pi).

    A plain cumsum of phases that reach 1e10 rad would round every later
    increment to 1e-6 rad; here the rows are summed within blocks of
    _PHASE_BLOCK, and the blocks are joined by a reduced carry.
    """
    rows, columns = reduced.shape
    two_pi = float(_TWO_PI)
    padded = np.concatenate([np.zeros((1, columns)), reduced, np.zeros((-(rows + 1) % _PHASE_BLOCK, columns))])
    local = np.cumsum(padded.reshape(-1, _PHASE_BLOCK, columns), axis=1)
    carry = np.remainder(np.cumsum(np.remainder(local[:, -1], two_pi), axis=0), two_pi)
    carry = np.concatenate([np.zeros((1, columns)), carry[:-1]])
    return np.remainder(local + carry[:, None], two_pi).reshape(-1, columns)[:rows]


def _filon_weight(delta: np.ndarray, closed, coefficient) -> np.ndarray:
    """closed(delta) where |delta| >= _SERIES_BELOW, else the series
    sum_k coefficient(k) (i delta)**k by Horner's rule."""
    small = np.abs(delta) < _SERIES_BELOW
    safe = np.where(small, 1.0, delta)
    series = np.zeros(delta.shape, dtype=complex)
    for k in reversed(range(_SERIES_TERMS)):
        series = series * (1j * delta) + coefficient(k)
    return np.where(small, series, closed(safe))


def _filon_flat(delta):
    """(1/delta) * integral_0^delta e^{i tau} d tau."""
    return _filon_weight(delta, lambda d: (np.exp(1j * d) - 1.0) / (1j * d), lambda k: 1.0 / math.factorial(k + 1))


def _filon_ramp(delta):
    """(1/delta**2) * integral_0^delta tau e^{i tau} d tau."""
    return _filon_weight(
        delta, lambda d: (np.exp(1j * d) * (1.0 - 1j * d) - 1.0) / (d * d), lambda k: 1.0 / (math.factorial(k) * (k + 2))
    )


def equal_split_time(size: int, count: int, epsilon: float, s_values) -> list:
    """t(s) of the bound-saturating linear schedule of ``count`` blocks of
    2**size states, at each s, in closed form, as 50-digit mpmath numbers.

    On an equal split eps*dt/ds = K / (N omega**3), with N = 2**size,
    K = sqrt(count (N - 1)), x = 2s - 1 and omega**2 = (1 - 1/N) x**2 + 1/N,
    and it integrates to eps*t(s) = (K/2)(1 + x/omega): 0 at s = 0 and K at
    s = 1, the running time of closed_form_eps_t. Nothing from the package
    under test.
    """
    with mp.workdps(50):
        dim = mp.mpf(2) ** size
        half_k = mp.sqrt(count * (dim - 1)) / 2
        out = []
        for s in s_values:
            x = 2 * mp.mpf(s) - 1
            out.append(half_k * (1 + x / mp.sqrt((1 - 1 / dim) * x * x + 1 / dim)) / mp.mpf(epsilon))
    return out


def equal_split_s(size: int, count: int, epsilon: float, t_values) -> list:
    """s(t), the inverse of ``equal_split_time``, at each t in [0, K / eps],
    in closed form, as 50-digit mpmath numbers.

    With y = 2 eps t / K - 1, a = 1 - 1/N and b = 1/N, y = x / omega
    inverts to x = y sqrt(b / (1 - a y**2)), and s = (1 + x) / 2. Nothing
    from the package under test.
    """
    with mp.workdps(50):
        dim = mp.mpf(2) ** size
        half_k = mp.sqrt(count * (dim - 1)) / 2
        out = []
        for t in t_values:
            y = mp.mpf(t) * mp.mpf(epsilon) / half_k - 1
            out.append((1 + y * mp.sqrt((1 / dim) / (1 - (1 - 1 / dim) * y * y))) / 2)
    return out
