"""QUADPACK's 21-point Gauss-Kronrod quadrature (Piessens et al., 1983).

The qk21 rule, the globally adaptive qagp driver that every time integral
goes through, its ``QuadratureError``, and the node read-off behind the
tabulated schedule's grid-node times. Only this module knows what a piece holds.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator

import numpy as np

_QUAD_LIMIT = 500  # most bisections per integral, over all its panels
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float | None = None, estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


# QUADPACK qk21 on [-1, 1]: the Kronrod nodes x >= 0 (the odd positions are
# the 10-point Gauss nodes) with their Kronrod weights, and the Gauss weights
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208703099141, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = _XGK + tuple(-x for x in _XGK[:-1])  # plain floats: the integrand is scalar
# each node's (Kronrod weight, Gauss weight), in _NODES order
_NODE_WEIGHTS = tuple((_WGK[j], _WG[j // 2] if j % 2 else 0.0) for j in (*range(11), *range(10)))


def _left_sum(terms):  # left to right, as sum() added floats before Python 3.12 compensated it
    return functools.reduce(operator.add, terms, 0.0)


def _qk21(integrand, lo: float, hi: float) -> tuple[float, float, np.ndarray]:
    """(integral, error estimate, the 21 node values) over [lo, hi] from QUADPACK's qk21.

    The integrand is called at the 21 nodes one point at a time. The error
    estimate is QUADPACK's: the Kronrod-Gauss difference scaled by
    resasc * min(1, (200 |K - G| / resasc)**1.5), floored at 50 eps resabs.
    """
    half, center = 0.5 * (hi - lo), 0.5 * (hi + lo)
    values = np.array([integrand(center + half * x) for x in _NODES])
    # node by node in one order, so no BLAS kernel or SIMD level picks the bits
    points = list(zip(_NODE_WEIGHTS, values.tolist()))
    kronrod = _left_sum(wk * v for (wk, _), v in points)
    gauss = _left_sum(wg * v for (_, wg), v in points)
    err = abs((kronrod - gauss) * half)
    resabs = _left_sum(wk * abs(v) for (wk, _), v in points) * abs(half)
    resasc = _left_sum(wk * abs(v - 0.5 * kronrod) for (wk, _), v in points) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return kronrod * half, float(err), values


def integrate(integrand, edges, rel_tol: float, context: str) -> tuple[float, list]:
    """(total, pieces) of ``integrand`` from edges[0] to edges[-1], globally adaptive.

    QUADPACK's qagp with qk21: one piece per panel between consecutive
    edges, then the piece with the largest error estimate, in whichever
    panel, is bisected until the summed estimate is within rel_tol of the
    summed integral. It stops early after _QUAD_LIMIT bisections, at a piece
    too narrow to bisect, at a non-finite estimate, or when repeated
    bisections stop reducing the estimate (roundoff). Roundoff chatter from
    pieces that sit right on the peak is tolerated: only a summed estimate
    above 10 rel_tol of the integral raises. The pieces come back left to
    right as (a, b, integral, the 21 node values), for node_integrals.
    """
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        value, err, values = _qk21(integrand, lo, hi)
        pieces.append((-err, lo, hi, value, values))
    heapq.heapify(pieces)
    total = _left_sum(piece[3] for piece in pieces)
    err_total = _left_sum(-piece[0] for piece in pieces)
    bisections = stalled = grown = 0
    while not err_total <= rel_tol * abs(total) and math.isfinite(err_total) and bisections < _QUAD_LIMIT:
        neg_err, a, b, value, _ = pieces[0]
        mid = 0.5 * (a + b)
        if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            break
        left, left_err, left_values = _qk21(integrand, a, mid)
        right, right_err, right_values = _qk21(integrand, mid, b)
        heapq.heapreplace(pieces, (-left_err, a, mid, left, left_values))
        heapq.heappush(pieces, (-right_err, mid, b, right, right_values))
        bisections += 1
        total += left + right - value
        err_total += left_err + right_err + neg_err
        # QUADPACK's roundoff tests: the halves agree with their parent but
        # their estimate does not fall, or the estimate grows (qag's last > 10)
        if abs(value - (left + right)) <= 1e-5 * abs(left + right) and left_err + right_err >= -0.99 * neg_err:
            stalled += 1
        if bisections >= 10 and left_err + right_err > -neg_err:
            grown += 1
        if stalled >= 6 or grown >= 20:
            break
    err_total = _left_sum(-piece[0] for piece in pieces)
    pieces = sorted(piece[1:] for piece in pieces)
    total = _left_sum(piece[2] for piece in pieces)
    # written so that a nan total or estimate fails too
    if not err_total <= 10.0 * rel_tol * total:
        raise QuadratureError(
            f"quadrature did not converge for {context}: value {total!r}, "
            f"summed error estimate {err_total!r}",
            value=total,
            estimate=err_total,
        )
    return total, pieces


def _legendre(x: np.ndarray, degree: int):
    """P_0 .. P_degree at x, one array each, by Bonnet's recurrence."""
    below, here = np.ones_like(x), x
    yield below
    for j in range(1, degree + 1):
        yield here
        below, here = here, ((2 * j + 1) * x * here - j * below) / (j + 1)


def _legendre_integrals(tau: np.ndarray):
    """Integrals from -1 to tau of P_0 .. P_20, one array each.

    tau + 1 for P_0 and (P_j+1(tau) - P_j-1(tau)) / (2j + 1) above; every
    one vanishes at tau = -1.
    """
    yield tau + 1.0
    p = _legendre(tau, 21)
    below, here = next(p), next(p)
    for j, above in enumerate(p, start=1):
        yield (above - below) / (2 * j + 1)
        below, here = here, above


@functools.cache
def _legendre_inverse() -> np.ndarray:
    """Inverse of V[i, j] = P_j(x_i) at the 21 Kronrod nodes.

    It maps a piece's 21 node values to the Legendre coefficients of the
    degree-20 polynomial through them. Gauss-Jordan elimination with partial
    pivoting: numpy's solvers load LAPACK, which adds about half a megabyte
    to the peak memory of a process that calls them.
    """
    a = np.hstack((np.column_stack(list(_legendre(np.array(_NODES), 20))), np.eye(21)))
    for k in range(21):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, pivot]] = a[[pivot, k]]
        a[k] /= a[k, k]
        column = a[:, k].copy()
        column[k] = 0.0
        a -= column[:, None] * a[k]
    inverse = a[:, 21:]
    inverse.flags.writeable = False
    return inverse


def node_integrals(pieces, u: np.ndarray) -> np.ndarray:
    """Integral from the first piece's start to each u in the pieces' span.

    A node's value is the sum of the pieces to its left plus the integral,
    from its own piece's start, of the degree-20 polynomial through that
    piece's 21 integrand values. The work is a few arrays the size of u.
    """
    lo, hi, integrals, values = (np.array(column) for column in zip(*pieces))
    k = np.clip(np.searchsorted(lo, u, side="right") - 1, 0, lo.size - 1)
    half = 0.5 * (hi[k] - lo[k])
    tau = np.clip((u - lo[k]) / half - 1.0, -1.0, 1.0)
    # row j: P_j's coefficient in each piece (einsum, not BLAS, whose first
    # matrix product adds a quarter megabyte of buffers)
    coefficients = np.einsum("jl,pl->jp", _legendre_inverse(), values)
    inside = _left_sum(c[k] * q for c, q in zip(coefficients, _legendre_integrals(tau)))
    starts = np.concatenate(([0.0], np.cumsum(integrals[:-1])))
    return starts[k] + half * inside
