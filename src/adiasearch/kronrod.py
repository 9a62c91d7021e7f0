"""QUADPACK's 21-point Gauss-Kronrod rule and the interpolant through its nodes.

The rule's nodes and weights on [-1, 1] (Piessens et al., *QUADPACK*,
1983), and the integrals, from the start of a converged quadrature piece to
any point in it, of the degree-20 polynomial through the piece's 21 node
values. The schedule tabulation reads its grid-node times off those.
"""

from __future__ import annotations

import functools

import numpy as np

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
NODES = _XGK + tuple(-x for x in _XGK[:-1])  # plain floats: the integrand is scalar
WEIGHTS = np.zeros((2, len(NODES)))  # Kronrod row, then Gauss row
WEIGHTS[0] = _WGK + _WGK[:-1]
WEIGHTS[1, 1:10:2] = WEIGHTS[1, 12::2] = _WG


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
    a = np.hstack((np.column_stack(list(_legendre(np.array(NODES), 20))), np.eye(21)))
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
    inside = sum(c[k] * q for c, q in zip(coefficients, _legendre_integrals(tau)))
    starts = np.concatenate(([0.0], np.cumsum(integrals[:-1])))
    return starts[k] + half * inside
