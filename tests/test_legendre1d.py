"""Tests for the 1D Legendre / Gauss rules of the reference element."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as L
from numpy.polynomial import polynomial as P

from qncfem.refelem import (
    _legendre_eval_with_deriv,
    gauss_lobatto_nodes,
    gauss_rule,
    lagrange_basis,
)


def legendre_eval(n, x):
    return _legendre_eval_with_deriv(n, x)[0]


class TestLegendreEval:
    """The three-term recurrence behind the Newton step of `gauss_rule`."""

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
            _, dp = _legendre_eval_with_deriv(n, x)
            fd = (legendre_eval(n, x + h) - legendre_eval(n, x - h)) / (2 * h)
            assert np.max(np.abs(dp - fd)) < 1e-8

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)


class TestGaussRule:
    def test_one_point(self):
        nodes, weights = gauss_rule(1)
        assert np.allclose(nodes, [0.0])
        assert np.allclose(weights, [2.0])

    def test_two_point(self):
        nodes, weights = gauss_rule(2)
        assert np.allclose(nodes, [-0.5773502691896257, 0.5773502691896257])
        assert np.allclose(weights, [1.0, 1.0])

    def test_three_point(self):
        nodes, weights = gauss_rule(3)
        assert np.allclose(nodes, [-0.7745966692414834, 0.0, 0.7745966692414834])
        assert np.allclose(weights, [5 / 9, 8 / 9, 5 / 9])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_monomial_exactness(self, n):
        nodes, weights = gauss_rule(n)
        for p in range(2 * n):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            got = float(np.dot(weights, nodes**p))
            assert abs(got - exact) < 1e-13

    @pytest.mark.parametrize("n", range(1, 21))
    def test_skew_symmetry(self, n):
        x = gauss_rule(n)[0]
        assert np.max(np.abs(x + x[::-1])) < 1e-15

    def test_weights_positive_and_sum(self):
        for n in range(1, 30):
            w = gauss_rule(n)[1]
            assert np.all(w > 0)
            assert abs(np.sum(w) - 2.0) < 1e-13

    def test_large_orders_converge(self):
        # the Newton iteration must succeed through n = 64
        for n in (32, 48, 64):
            nodes, weights = gauss_rule(n)
            assert np.all(np.diff(nodes) > 0)
            assert abs(np.sum(weights) - 2.0) < 1e-12

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_read_only(self):
        # the rule is cached, so a write would change every later caller's rule
        for n in (1, 4):
            nodes, weights = gauss_rule(n)
            assert not nodes.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.5
            with pytest.raises(ValueError):
                weights[0] = 0.5


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


class TestInterpGauss:
    """Interpolation at the m Gauss points equals L2 projection on P_m: both
    drop exactly the L_m component, which vanishes at the nodes."""

    def test_kills_l3(self):
        assert np.max(np.abs(L.legval(gauss_rule(3)[0], [0, 0, 0, 1]))) < 1e-15

    def test_cubic(self):
        # x^3 = (2/5) L_3 + (3/5) L_1: the interpolant is 0.6 x
        x = gauss_rule(3)[0]
        assert np.allclose(P.polyfit(x, x**3, 2), (0.0, 0.6, 0.0), atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_interp_equals_projection_on_pm(self, coeffs):
        m = 5
        x = gauss_rule(m)[0]
        interp = P.polyfit(x, P.polyval(x, coeffs), m - 1)
        t = np.linspace(-1.0, 1.0, 11)
        proj = L.legval(t, L.poly2leg(coeffs)[:m])
        assert np.max(np.abs(P.polyval(t, interp) - proj)) < 1e-12
