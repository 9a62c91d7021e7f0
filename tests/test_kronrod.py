import math
import types

import numpy as np
import pytest

import adiasearch
from adiasearch import kronrod, runtime
from adiasearch.core import LinearSchedule, make_splitting
from adiasearch.kronrod import QuadratureError
from adiasearch.runtime import optimal_schedule, running_time_integral

from conftest import compositions, random_splitting

# the package's public names; a move between modules must keep every one
PUBLIC_NAMES = {
    "DENSE_CAP", "EvolutionReport", "GapProfile", "LinearSchedule", "MarkedState",
    "MatrixFreeHamiltonian", "NormDriftError", "Precision", "QuadratureError",
    "RunTimeResult", "Splitting", "TimeSchedule",
    "adiabaticity_lhs", "closed_form_eps_t", "equal_splitting", "evolve", "final_diagonal",
    "final_terms", "gap_profile", "make_splitting", "max_structured_degeneracy",
    "max_structured_eigenvalue", "optimal_schedule", "reproduce_table",
    "running_time_integral", "scaling_coefficients", "subsystem_gap",
}


def test_public_surface_keeps_its_names_and_one_quadrature_error():
    public = {
        name
        for name, value in vars(adiasearch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    assert adiasearch.QuadratureError is adiasearch.runtime.QuadratureError is adiasearch.kronrod.QuadratureError


def test_legendre_integrals_of_the_interpolant_are_exact_to_degree_20():
    nodes = np.array(kronrod._NODES)
    tau = np.linspace(-1.0, 1.0, 41)
    # row r: the weights on the 21 node values that give the integral from
    # -1 to tau[r] of the degree-20 polynomial through them
    weights = np.column_stack(list(kronrod._legendre_integrals(tau))) @ kronrod._legendre_inverse()
    assert np.all(weights[0] == 0.0)
    assert np.max(np.abs(weights[-1] - [wk for wk, _ in kronrod._NODE_WEIGHTS])) <= 1e-15
    rng = np.random.default_rng(11)
    for degree in range(21):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        exact = poly.integ()(tau) - poly.integ()(-1.0)
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(1.0)
        assert np.max(np.abs(weights @ poly(nodes) - exact)) <= 1e-14 * scale, degree


def test_kronrod_rule_is_exact_on_polynomials_up_to_degree_31():
    rng = np.random.default_rng(5)
    lo, hi = -0.3, 1.7
    for degree in range(32):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        exact = poly.integ()(hi) - poly.integ()(lo)
        value, err, _ = kronrod._qk21(poly, lo, hi)
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(2.0)
        assert abs(value - exact) <= 1e-14 * scale, degree
        # the embedded 10-point Gauss rule is exact to degree 19
        if degree <= 19:
            assert err <= 50.0 * np.finfo(float).eps * scale, degree
    # a tiling of fixed unit panels resolves a Gaussian with no bisection
    gaussian, _ = kronrod.integrate(lambda u: math.exp(-u * u), np.arange(-6.0, 7.0).tolist(), 1e-12, "a Gaussian")
    assert gaussian == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_node_integrals_at_piece_edges_are_the_running_sums_of_the_pieces():
    edges = [-6.0, -4.0, -2.0, -1.0, 0.5, 2.0, 4.0, 6.0]
    total, pieces = kronrod.integrate(lambda u: math.exp(-u * u), edges, 1e-12, "a Gaussian")
    # one piece per panel, left to right, on the panel's own edges
    assert [piece[:2] for piece in pieces] == list(zip(edges, edges[1:]))
    at_edges = kronrod.node_integrals(pieces, np.array(edges))
    for k in range(len(pieces)):
        assert at_edges[k] == kronrod._left_sum(piece[2] for piece in pieces[:k]), k
    assert at_edges[-1] == pytest.approx(total, rel=1e-15)


def test_quadrature_error_reports_plain_floats(monkeypatch):
    splitting = make_splitting(2, [2])
    integrate = runtime.integrate
    panels = []
    rule_calls = [0]

    def counted_panels(integrand, edges, *args):
        panels.append(len(edges) - 1)
        rule_calls[0] = 0
        return integrate(integrand, edges, *args)

    monkeypatch.setattr(runtime, "integrate", counted_panels)
    ones = np.ones(21)
    # an estimate as large as the value, and a nan value and estimate, which
    # fail the convergence rule too
    for rule in (lambda lo, hi: (1.0, 1.0, ones), lambda lo, hi: (math.nan, math.nan, ones)):

        def never_converges(integrand, lo, hi, rule=rule):
            rule_calls[0] += 1
            return rule(lo, hi)

        monkeypatch.setattr(kronrod, "_qk21", never_converges)
        for call in (lambda: running_time_integral(splitting), lambda: optimal_schedule(splitting)):
            with pytest.raises(QuadratureError, match="did not converge") as caught:
                call()
            assert "np.float64" not in str(caught.value)
            assert type(caught.value.value) is float and type(caught.value.estimate) is float
            # one rule per panel, and no bisection
            assert rule_calls[0] == panels[-1] == 3


def test_every_panel_estimate_is_under_tolerance_on_every_split():
    # no panel is bisected, so each must converge on its own: measured, every
    # estimate sits at qk21's roundoff floor of 50 eps of its integral
    rng = np.random.default_rng(48)
    splits = [parts for n in range(1, 13) for parts in compositions(n)]
    splits += [random_splitting(rng, int(n)) for n in rng.integers(1, 65, size=200)]
    for parts in splits:
        integrand, edges = runtime._time_integrand(make_splitting(sum(parts), parts), LinearSchedule().f)
        for lo, hi in zip(edges, edges[1:]):
            value, err, _ = kronrod._qk21(integrand, lo, hi)
            assert err <= runtime.QUAD_TOL * value, (parts, lo, hi)
