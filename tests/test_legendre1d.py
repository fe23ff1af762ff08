"""Tests for the 1D Legendre / Gauss layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from qncfem.legendre1d import (
    gauss_lobatto_nodes,
    gauss_rule,
    interp_gauss_1d,
    l2_project_1d,
    lagrange_basis,
    legendre_eval,
    legendre_eval_with_deriv,
    legendre_leading_coeff,
)


class TestLegendreEval:
    def test_degree_zero(self):
        assert legendre_eval(0, 0.3) == 1.0

    def test_value_at_one(self):
        assert legendre_eval(3, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_value_at_minus_one(self):
        for n in range(8):
            assert legendre_eval(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-13)

    def test_root_of_l2(self):
        assert abs(legendre_eval(2, 0.5773502691896257)) < 1e-14

    def test_matches_numpy(self):
        x = np.linspace(-1, 1, 41)
        for n in range(12):
            c = np.zeros(n + 1)
            c[n] = 1.0
            ref = np.polynomial.legendre.legval(x, c)
            assert np.max(np.abs(legendre_eval(n, x) - ref)) < 1e-12

    def test_derivative_finite_difference(self):
        x = np.linspace(-0.9, 0.9, 19)
        h = 1e-6
        for n in (1, 3, 6):
            _, dp = legendre_eval_with_deriv(n, x)
            fd = (legendre_eval(n, x + h) - legendre_eval(n, x - h)) / (2 * h)
            assert np.max(np.abs(dp - fd)) < 1e-8

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)


class TestLeadingCoeff:
    def test_linear(self):
        assert legendre_leading_coeff(1) == 1.0

    def test_cubic(self):
        assert legendre_leading_coeff(3) == 2.5

    def test_quintic(self):
        # expand L_5 by the recurrence and read the x^5 coefficient
        assert legendre_leading_coeff(5) == pytest.approx(7.875, rel=1e-14)

    def test_matches_expansion(self):
        for n in range(11):
            coeffs = np.polynomial.legendre.leg2poly(np.eye(n + 1)[n])
            assert legendre_leading_coeff(n) == pytest.approx(coeffs[-1], rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            legendre_leading_coeff(-1)
        with pytest.raises(ValueError):
            legendre_leading_coeff(41)


class TestGaussRule:
    def test_one_point(self):
        r = gauss_rule(1)
        assert np.allclose(r.nodes, [0.0])
        assert np.allclose(r.weights, [2.0])

    def test_two_point(self):
        r = gauss_rule(2)
        assert np.allclose(r.nodes, [-0.5773502691896257, 0.5773502691896257])
        assert np.allclose(r.weights, [1.0, 1.0])

    def test_three_point(self):
        r = gauss_rule(3)
        assert np.allclose(r.nodes, [-0.7745966692414834, 0.0, 0.7745966692414834])
        assert np.allclose(r.weights, [5 / 9, 8 / 9, 5 / 9])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_monomial_exactness(self, n):
        r = gauss_rule(n)
        for p in range(2 * n):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            got = float(np.dot(r.weights, r.nodes**p))
            assert abs(got - exact) < 1e-13

    @pytest.mark.parametrize("n", range(1, 21))
    def test_skew_symmetry(self, n):
        x = gauss_rule(n).nodes
        assert np.max(np.abs(x + x[::-1])) < 1e-15

    def test_weights_positive_and_sum(self):
        for n in range(1, 30):
            w = gauss_rule(n).weights
            assert np.all(w > 0)
            assert abs(np.sum(w) - 2.0) < 1e-13

    def test_large_orders_converge(self):
        # the Newton iteration must succeed through n = 64
        for n in (32, 48, 64):
            r = gauss_rule(n)
            assert np.all(np.diff(r.nodes) > 0)
            assert abs(np.sum(r.weights) - 2.0) < 1e-12

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_quadrule_integrate(self):
        r = gauss_rule(4)
        assert r.integrate(lambda x: x**4) == pytest.approx(0.4, abs=1e-13)


class TestGaussLobatto:
    def test_endpoints(self):
        for n in (2, 3, 5, 8):
            x = gauss_lobatto_nodes(n)
            assert x[0] == -1.0 and x[-1] == 1.0
            assert len(x) == n

    def test_three_point(self):
        assert np.allclose(gauss_lobatto_nodes(3), [-1.0, 0.0, 1.0])


class TestLagrangeBasis:
    def test_cardinal_at_own_node(self):
        assert lagrange_basis([-1, 0, 1], 1, 0.0) == 1.0

    def test_cardinal_at_other_node(self):
        assert lagrange_basis([-1, 0, 1], 1, 1.0) == 0.0

    def test_value(self):
        # l_2(x) = (x+1) x / 2 at 0.5
        assert lagrange_basis([-1, 0, 1], 2, 0.5) == pytest.approx(0.375)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            lagrange_basis([0.0, 0.0, 1.0], 0, 0.5)

    def test_partition_of_unity(self):
        nodes = np.array([-0.9, -0.2, 0.4, 1.0])
        x = np.linspace(-1, 1, 11)
        s = sum(lagrange_basis(nodes, i, x) for i in range(4))
        assert np.max(np.abs(s - 1.0)) < 1e-12


class TestL2Project:
    def test_identity_on_target_space(self):
        p = l2_project_1d(lambda x: x**2, 2)
        assert np.allclose(p.coef, (0.0, 0.0, 1.0), atol=1e-13)

    def test_cubic_projects_to_linear(self):
        # x^3 = (2/5) L_3 + (3/5) L_1
        p = l2_project_1d(lambda x: x**3, 2)
        assert p(0.5) == pytest.approx(0.3, abs=1e-13)
        assert p.trim(1e-13).degree() == 1
        assert p.coef[1] == pytest.approx(0.6, abs=1e-13)

    def test_orthogonality_kills_l5(self):
        p = l2_project_1d(lambda x: legendre_eval(5, x), 4, npoints=8)
        assert np.max(np.abs(p.coef)) < 1e-13


class TestInterpGauss:
    def test_reproduces_linear(self):
        p = interp_gauss_1d(lambda x: x, 3)
        assert np.allclose(p.trim(1e-13).coef, (0.0, 1.0), atol=1e-13)

    def test_kills_l3(self):
        p = interp_gauss_1d(lambda x: legendre_eval(3, x), 3)
        assert np.max(np.abs(p.coef)) < 1e-13

    def test_cubic(self):
        p = interp_gauss_1d(lambda x: x**3, 3)
        assert p(0.5) == pytest.approx(0.3, abs=1e-13)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            interp_gauss_1d(lambda x: x, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_interp_equals_projection_on_pm(self, coeffs):
        """Both operators kill exactly the L_m component of a P_m polynomial."""
        m = 5
        p = Polynomial(coeffs)
        pi = interp_gauss_1d(p, m)
        pr = l2_project_1d(p, m - 1, npoints=m + 2)
        ca = np.zeros(m)
        cb = np.zeros(m)
        ca[: len(pi.coef)] = pi.coef[:m]
        cb[: len(pr.coef)] = pr.coef[:m]
        assert np.max(np.abs(ca - cb)) < 1e-12
