import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from adiasearch.runtime import TimeSchedule


def compositions(n):
    """All ordered block-size lists summing to n."""
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [first] + rest


def max_word_weight(terms):
    """Largest count of non-identity letters over the words of (coefficient, word) pairs."""
    return max(sum(letter != "I" for letter in word) for _, word in terms)


def predicted_success(parts, eps):
    """First-order adiabatic estimate of the success probability reached by
    the bound-saturating schedule for f = 1 - s, g = s.

    Each block i (dimension N_i) is a driven two-level system. Holding the
    summed ratio at eps fixes dt/ds = I(s) / eps with
    I(s) = sqrt(sum_j w_j / omega_j**6), w_j = (N_j - 1) / N_j**2 and
    omega_j = sqrt((1 - 2s)**2 + 4 s (1 - s) / N_j). Block i's own ratio is
    then eps * sqrt(w_i) / (omega_i**3 I), which at both endpoints
    (omega = 1) equals eps_i = eps * sqrt(w_i / sum_j w_j). First-order
    adiabatic perturbation theory leaves the excitation amplitude
    eps_i * (1 - exp(i Theta_i)) made of the two boundary terms, with the
    accumulated gap phase Theta_i = (1/eps) * integral of omega_i I ds, so
    p = prod_i (1 - 4 eps_i**2 sin(Theta_i / 2)**2) up to O(eps**3).

    Closed forms and quadrature only: nothing from the package under test.
    """
    dims = [2.0**p for p in parts]
    weights = [(d - 1.0) / d**2 for d in dims]
    total_weight = sum(weights)

    def omega(s, d):
        return math.sqrt((1.0 - 2.0 * s) ** 2 + 4.0 * s * (1.0 - s) / d)

    def rate_integrand(s):
        return math.sqrt(sum(w / omega(s, d) ** 6 for w, d in zip(weights, dims)))

    p = 1.0
    for w, d in zip(weights, dims):
        phase, _ = quad(
            lambda s: omega(s, d) * rate_integrand(s), 0.0, 1.0,
            points=[0.5], epsabs=0.0, epsrel=1e-10,
        )
        theta = phase / eps
        p *= 1.0 - 4.0 * eps**2 * (w / total_weight) * math.sin(0.5 * theta) ** 2
    return p


def pchip_time_schedule(t_nodes, s_nodes):
    """A TimeSchedule through sampled (t, s) from t = 0 to T, its rates the node slopes of scipy's PCHIP.

    The PCHIP is taken in t / T, where no weight of its slope rule underflows, and its slopes divided by T.
    """
    t_nodes, s_nodes = np.asarray(t_nodes, dtype=float), np.asarray(s_nodes, dtype=float)
    rate_nodes = PchipInterpolator(t_nodes / t_nodes[-1], s_nodes).derivative()(t_nodes / t_nodes[-1]) / t_nodes[-1]
    return TimeSchedule(float(t_nodes[-1]), t_nodes, s_nodes, rate_nodes)


def distinct_levels(values, tol=1e-9):
    """Cluster sorted values into distinct levels with multiplicities."""
    levels, counts = [], []
    for v in np.sort(np.asarray(values, dtype=float)):
        if levels and v - levels[-1] <= tol:
            counts[-1] += 1
        else:
            levels.append(float(v))
            counts.append(1)
    return levels, counts


def random_splitting(rng, n):
    """Uniformly sampled ordered composition of n."""
    parts = []
    left = n
    while left > 0:
        p = int(rng.integers(1, left + 1))
        parts.append(p)
        left -= p
    return parts


def linear_eps_t_oracle(parts, dps=40):
    """eps*T of a split search under f = 1 - s, g = s by mpmath quadrature.

    With x = s - 1/2, omega_i**2 = 4 x**2 (1 - 1/N_i) + 1/N_i and
    |f'g - g'f| = 1, so eps*T = 2 * integral over [0, 1/2] of
    sqrt(sum_i w_i / omega_i**6). Each block peaks at x = 0 with half-width
    1 / (2 sqrt(N_i - 1)); the panels end on a ladder of powers of 4 of
    every half-width. Nothing from the package under test.
    """
    import mpmath as mp

    with mp.workdps(dps):
        dims = [mp.mpf(2) ** p for p in parts]
        weights = [(d - 1) / d**2 for d in dims]

        def integrand(x):
            return mp.sqrt(mp.fsum(
                w / (4 * x**2 * (1 - 1 / d) + 1 / d) ** 3 for w, d in zip(weights, dims)
            ))

        half = mp.mpf(1) / 2
        points = {mp.mpf(0), half}
        for d in dims:
            h = 1 / (2 * mp.sqrt(d - 1))
            while h < half:
                points.add(h)
                h *= 4
        return float(2 * mp.quad(integrand, sorted(points)))


def linear_node_eps_t_oracle(parts, x_nodes):
    """eps*t at s = 1/2 + x for each x of an increasing array starting at -1/2,
    under f = 1 - s, g = s, by one scipy quad per cell, summed cell by cell.

    With x = s - 1/2, eps*dt/ds = sqrt(sum_i w_i / omega_i**6) and
    omega_i**2 = 4 x**2 (1 - 1/N_i) + 1/N_i. Each cell is integrated in u,
    x = h sinh(u) with h = 1 / (2 sqrt(N_max)) the narrowest peak
    half-width, so every peak is at least one unit wide in u. For a
    schedule with f + g = 1, eps*t(s) is this function at x = g(s) - 1/2.
    Nothing from the package under test.
    """
    dims = [2.0**p for p in parts]
    terms = [((d - 1.0) / d**2, 1.0 - 1.0 / d, 1.0 / d) for d in dims]
    h = 0.5 / math.sqrt(max(dims))

    def integrand(u):
        x = h * math.sinh(u)
        x_sq = 4.0 * x * x
        return math.sqrt(sum(w / (x_sq * a + b) ** 3 for w, a, b in terms)) * h * math.cosh(u)

    u_nodes = np.arcsinh(np.asarray(x_nodes, dtype=float) / h)
    cells = [
        quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(u_nodes, u_nodes[1:])
    ]
    return np.concatenate(([0.0], np.cumsum(cells)))
