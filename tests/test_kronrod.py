import math
import types

import numpy as np
import pytest

import adiasearch
from adiasearch import kronrod, runtime
from adiasearch.core import make_splitting
from adiasearch.kronrod import QuadratureError
from adiasearch.runtime import optimal_schedule, running_time_integral

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
    gaussian, _ = kronrod.integrate(lambda u: math.exp(-u * u), [-6.0, 6.0], 1e-12, "a Gaussian")
    assert gaussian == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_node_integrals_at_piece_edges_are_the_running_sums_of_the_pieces():
    edges = [-6.0, 0.5, 6.0]
    total, pieces = kronrod.integrate(lambda u: math.exp(-u * u), edges, 1e-12, "a Gaussian")
    lo = [piece[0] for piece in pieces]
    # the pieces tile the panels left to right, each panel's edges kept
    assert lo[0] == edges[0] and pieces[-1][1] == edges[-1] and 0.5 in lo
    assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:]))
    assert len(pieces) > len(edges) - 1
    at_edges = kronrod.node_integrals(pieces, np.array(lo + [edges[-1]]))
    for k in range(len(pieces)):
        assert at_edges[k] == kronrod._left_sum(piece[2] for piece in pieces[:k]), k
    assert at_edges[-1] == pytest.approx(total, rel=1e-15)


def test_quadrature_error_reports_plain_floats(monkeypatch):
    splitting = make_splitting(2, [2])
    integrate = runtime.integrate
    budgets = []
    rule_calls = [0]

    def counted_panels(integrand, edges, *args):
        # the rule evaluations one integral may make: a piece per panel,
        # then two per bisection
        budgets.append(len(edges) - 1 + 2 * kronrod._QUAD_LIMIT)
        rule_calls[0] = 0
        return integrate(integrand, edges, *args)

    monkeypatch.setattr(runtime, "integrate", counted_panels)
    ones = np.ones(21)
    for rule, uses_the_budget in (
        # the estimate grows at every bisection, which stops it early
        (lambda lo, hi: (1.0, 1.0, ones), False),
        # a nan value or estimate fails the convergence rule too
        (lambda lo, hi: (math.nan, math.nan, ones), False),
        # halves' estimates fall by 1/sqrt(2), so neither roundoff test
        # fires and only the budget stops the bisection
        (lambda lo, hi: (hi - lo, (hi - lo) ** 1.5, ones), True),
    ):

        def never_converges(integrand, lo, hi, rule=rule):
            rule_calls[0] += 1
            return rule(lo, hi)

        monkeypatch.setattr(kronrod, "_qk21", never_converges)
        for call in (lambda: running_time_integral(splitting), lambda: optimal_schedule(splitting)):
            with pytest.raises(QuadratureError, match="did not converge") as caught:
                call()
            assert "np.float64" not in str(caught.value)
            assert type(caught.value.value) is float and type(caught.value.estimate) is float
            assert 0 < rule_calls[0] <= budgets[-1]
            assert (rule_calls[0] == budgets[-1]) == uses_the_budget


def test_integrate_stops_early_at_a_narrow_piece_and_at_roundoff(monkeypatch):
    # each stop comes well before the _QUAD_LIMIT bisections: a jump at
    # u = 0.3 bisected to a piece too narrow to split at an unreachable
    # tolerance, and an oscillation too fast to resolve, whose halves' estimates
    # stop falling (QUADPACK's roundoff test)
    rule = kronrod._qk21
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return rule(*args)

    monkeypatch.setattr(kronrod, "_qk21", counted)
    for integrand, rel_tol, bisections in (
        (lambda u: 1.0 if u < 0.3 else 2.0, 1e-20, 50),
        (lambda u: 1.0 + 1e-6 * math.sin(1e7 * u), 1e-9, 11),
    ):
        calls[0] = 0
        with pytest.raises(QuadratureError, match="did not converge"):
            kronrod.integrate(integrand, [0.0, 1.0], rel_tol, "an early stop")
        assert calls[0] == 1 + 2 * bisections < 1 + 2 * kronrod._QUAD_LIMIT
