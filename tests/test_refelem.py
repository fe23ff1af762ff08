"""Tests for the reference-element layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_identities import discrete_bubble, simplified_constraint_weights
from qncfem import refelem
from qncfem.legendre1d import gauss_rule
from qncfem.refelem import (
    EDGE_PARAM_POINT,
    Family,
    boundary_dof_points,
    build_reference_element,
    build_shape_space,
    constraint_weights,
    constraint_weights_oracle,
    gauss_grid,
    interior_dof_points,
    verify_relation,
)

polyval2d = np.polynomial.polynomial.polyval2d

ALL_FAMILIES = [
    (Family("R"), (1, 3, 5, 7)),
    (Family("R", "tilde"), (3, 5, 7)),
    (Family("ER"), (1, 3, 5, 7)),
    (Family("RPlus"), (2, 4, 6)),
]


def monomial(i, j):
    """Coefficient table of x^i y^j."""
    c = np.zeros((i + 1, j + 1))
    c[i, j] = 1.0
    return c


def edge_trace(c, edge):
    """Monomial coefficients of the restriction of the polynomial with
    coefficient table c to edge 1..4 in the edge parameter (y on e1/e3, x on
    e2/e4)."""
    s = -1.0 if edge in (1, 2) else 1.0
    if edge in (1, 3):
        return s ** np.arange(c.shape[0]) @ c
    return c @ s ** np.arange(c.shape[1])


def random_member(rng, family, m):
    basis = build_shape_space(family, m)
    return np.tensordot(rng.standard_normal(len(basis)), basis, 1)


class TestFamily:
    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            Family("R").check_order(2)
        with pytest.raises(ValueError):
            Family("RPlus").check_order(3)
        with pytest.raises(ValueError):
            Family("ER").check_order(0)

    def test_tilde_restrictions(self):
        with pytest.raises(ValueError):
            Family("ER", "tilde")
        with pytest.raises(ValueError):
            Family("R", "tilde").check_order(1)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            Family("Q")


class TestShapeSpace:
    def test_r1_is_p1(self):
        basis = build_shape_space(Family("R"), 1)
        assert len(basis) == 3  # span{1, x, y}
        degs = sorted(max(i + j for i, j in zip(*np.nonzero(b))) for b in basis)
        assert degs == [0, 1, 1]

    def test_er1_rotated_q1(self):
        basis = build_shape_space(Family("ER"), 1)
        assert len(basis) == 4
        # last member is x^2 - y^2
        last = basis[-1]
        x = np.array([0.5, -0.3])
        y = np.array([0.1, 0.7])
        assert np.allclose(polyval2d(x, y, last), x**2 - y**2)

    def test_rplus2_dim8(self):
        basis = build_shape_space(Family("RPlus"), 2)
        assert len(basis) == 8

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_dimension_formula(self, family, orders):
        for m in orders:
            basis = build_shape_space(family, m)
            extra = {"R": 1, "ER": 2, "RPlus": 2}[family.tag]
            if family.tag == "R" and family.variant == "standard" and m == 1:
                extra = 0  # the antisymmetric enrichment vanishes at m = 1
            if family.tag == "ER" and m == 1:
                extra = 1
            assert len(basis) == (m + 1) * (m + 2) // 2 + extra

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_linear_independence(self, family, orders):
        rng = np.random.default_rng(0)
        for m in orders:
            basis = build_shape_space(family, m)
            pts = rng.uniform(-1, 1, size=(3 * len(basis), 2))
            V = np.column_stack([polyval2d(pts[:, 0], pts[:, 1], b) for b in basis])
            assert np.linalg.matrix_rank(V, tol=1e-9) == len(basis)

    def test_trace_degree(self):
        """R / RPlus traces have degree <= m; ER traces <= m+1."""
        for family, orders in ALL_FAMILIES:
            cap = {"R": 0, "RPlus": 0, "ER": 1}[family.tag]
            for m in orders:
                for b in build_shape_space(family, m):
                    for edge in (1, 2, 3, 4):
                        tr = edge_trace(b, edge)
                        nz = np.nonzero(np.abs(tr) > 1e-13)[0]
                        deg = int(nz[-1]) if nz.size else -1
                        assert deg <= m + cap


class TestDofPoints:
    def test_r1_midpoints(self):
        pts = boundary_dof_points(Family("R"), 1)
        assert pts.tolist() == [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]

    def test_rplus2_points_and_corner(self):
        pts = boundary_dof_points(Family("RPlus"), 2)
        assert pts.shape == (9, 2)
        g = 0.5773502691896257
        for x, y in pts[:-1]:
            assert {abs(round(x, 13)), abs(round(y, 13))} == {1.0, round(g, 13)}
        assert pts[-1].tolist() == [1.0, 1.0]
        ref = build_reference_element(Family("RPlus"), 2)
        # the corner dof follows the 4m edge dofs, so it belongs to no edge
        assert len(ref.points) == 9 and ref.points[4 * 2].tolist() == [1.0, 1.0]

    def test_r3_uses_three_point_nodes(self):
        pts = boundary_dof_points(Family("R"), 3)
        assert pts.shape == (12, 2)
        params = sorted({round(abs(c), 13) for c in pts.ravel()})
        assert params == [0.0, round(np.sqrt(3 / 5), 13), 1.0]

    def test_canonical_edge_order(self):
        """The local dof order that build_global_space derives from m, for
        every family and order: dof j < 4m is Gauss point j % m (increasing
        parameter) of edge j // m + 1, the RPlus corner is dof 4m, and
        R / RPlus retain every dof except dof m."""
        for family, m in ((f, m) for f, orders in ALL_FAMILIES for m in orders):
            ref = build_reference_element(family, m)
            t = gauss_rule(m).nodes
            assert np.all(np.diff(t) > 0)
            for j in range(4 * m):
                x, y = EDGE_PARAM_POINT[j // m + 1](t[j % m])
                assert ref.points[j].tolist() == [x, y]
            n_corner = 1 if family.tag == "RPlus" else 0
            if n_corner:
                assert ref.points[4 * m].tolist() == [1.0, 1.0]
            interior = interior_dof_points(family, m)
            assert ref.points[4 * m + n_corner :].tolist() == interior.tolist()
            ndofs = len(ref.points)
            if family.tag == "ER":
                assert ref.retained.tolist() == list(range(ndofs))
            else:
                assert ref.retained.tolist() == [j for j in range(ndofs) if j != m]

    def test_interior_r3_empty(self):
        assert interior_dof_points(Family("R"), 3).shape == (0, 2)

    def test_interior_rplus4_centroid(self):
        pts = interior_dof_points(Family("RPlus"), 4)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((-1 / 6, -1 / 6))
        ref = build_reference_element(Family("RPlus"), 4)
        # the interior dof follows the 4m edge dofs and the corner
        assert len(ref.points) == 4 * 4 + 2
        assert ref.points[-1].tolist() == pts[0].tolist()

    def test_interior_r5_triangle_vertices(self):
        pts = {tuple(p) for p in interior_dof_points(Family("R"), 5)}
        assert pts == {(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)}

    def test_interior_counts(self):
        for m in (5, 7):
            k = (m - 1) // 2
            assert len(interior_dof_points(Family("R"), m)) == (2 * k - 1) * (k - 1)
        for m in (4, 6):
            k = m // 2
            assert len(interior_dof_points(Family("RPlus"), m)) == (2 * k - 3) * (
                k - 1
            )


class TestConstraintWeights:
    def test_r1_midpoint_relation(self):
        w = constraint_weights(Family("R"), 1)
        # v(-1,0) + v(1,0) - v(0,-1) - v(0,1) = 0 scaled by gamma_0 = 4
        assert np.allclose(w, [4.0, -4.0, 4.0, -4.0])

    def test_r3_values(self):
        gamma = constraint_weights(Family("R"), 3)[:3]
        assert gamma == pytest.approx([10 / 3, -8 / 3, 10 / 3], rel=1e-13)

    def test_rplus2_values(self):
        w = constraint_weights(Family("RPlus"), 2)
        g = 1 / np.sqrt(3)
        expect = 1.0 / (g * (1 - g**2))
        # canonical order e1,e2,e3,e4 with signs (-,+,+,-); weights odd in g
        assert w[2] == pytest.approx(-w[3], rel=1e-13)
        assert abs(w[3]) == pytest.approx(expect, rel=1e-13)
        assert w[-1] == 0.0  # corner carries no weight

    def test_er_has_no_relation(self):
        with pytest.raises(ValueError):
            constraint_weights(Family("ER"), 3)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_oracle_collinear(self, m):
        gamma = constraint_weights(Family("R"), m)[:m]
        oracle = constraint_weights_oracle(m)
        cos = np.dot(gamma, oracle) / (
            np.linalg.norm(gamma) * np.linalg.norm(oracle)
        )
        assert abs(1.0 - cos) < 1e-12

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_simplified_form_positive_multiple(self, m):
        a = constraint_weights(Family("R"), m)
        b = simplified_constraint_weights(m)
        ratio = np.dot(a, b) / np.dot(b, b)
        assert ratio > 0
        assert np.max(np.abs(a - ratio * b)) < 1e-12 * np.max(np.abs(a))


class TestRelation:
    def test_m1_xy(self):
        assert verify_relation(1, Family("R"), monomial(1, 1)) < 1e-15

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_odd_qm_montecarlo(self, m):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            v = rng.standard_normal((m + 1, m + 1))
            worst = max(worst, verify_relation(m, Family("R"), v))
        assert worst < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_even_shape_space_montecarlo(self, m):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            v = random_member(rng, Family("RPlus"), m)
            worst = max(worst, verify_relation(m, Family("RPlus"), v))
        assert worst < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    def test_relation_on_q3_monomials(self, i, j):
        assert verify_relation(3, Family("R"), monomial(i, j)) < 1e-13


class TestDiscreteBubble:
    def test_k1_formula(self):
        b = discrete_bubble(1)
        x = np.array([0.2, -0.8])
        y = np.array([0.5, 0.1])
        assert np.allclose(polyval2d(x, y, b), x**2 + y**2 - 4 / 3)

    def test_k1_vanishes_at_edge_gauss_point(self):
        b = discrete_bubble(1)
        assert abs(polyval2d(1.0, 1 / np.sqrt(3), b)) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vanishes_on_gplus(self, k):
        b = discrete_bubble(k)
        x, y = boundary_dof_points(Family("RPlus"), 2 * k)[: 8 * k].T
        assert np.max(np.abs(polyval2d(x, y, b))) < 1e-13

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            discrete_bubble(0)


class TestReferenceElement:
    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_unisolvency_rank(self, family, orders):
        for m in orders:
            ref = build_reference_element(family, m)
            assert np.linalg.matrix_rank(ref.vandermonde, tol=1e-8) == ref.dim

    @pytest.mark.parametrize("family,m", [(Family("ER"), 13), (Family("R"), 13),
                                          (Family("R", "tilde"), 13),
                                          (Family("RPlus"), 14)])
    def test_unisolvent_at_high_order(self, family, m):
        # sigma_min / sigma_max is 1e-10 to 1e-11 here, far above roundoff:
        # the rank test is relative to the largest singular value
        ref = build_reference_element(family, m)
        assert np.linalg.matrix_rank(ref.vandermonde) == ref.dim

    def test_deficient_dof_set_rejected(self, monkeypatch):
        lattice = refelem.interior_dof_points

        def repeated(family, m):
            pts = lattice(family, m)
            pts[-1] = pts[0]  # one lattice point twice, one missing
            return pts

        monkeypatch.setattr(refelem, "interior_dof_points", repeated)
        with pytest.raises(RuntimeError, match="unisolvency failure"):
            refelem.build_reference_element.__wrapped__(Family("ER"), 7)

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_tabulate_is_scalar_polyval(self, family, orders):
        """Every column of `tabulate` equals polyval2d of that nodal
        function's coefficient table and of its two derivatives, bitwise."""
        polyder = np.polynomial.polynomial.polyder
        rng = np.random.default_rng(2)
        for m in orders:
            ref = build_reference_element(family, m)
            X, Y, _ = gauss_grid(m + 3)
            x = np.concatenate([X, rng.uniform(-1, 1, 7)])
            y = np.concatenate([Y, rng.uniform(-1, 1, 7)])
            tab = ref.tabulate(x, y)
            for j, c in enumerate(ref.nodal_coeffs):
                for got, table in zip(tab, (c, polyder(c, axis=0), polyder(c, axis=1))):
                    assert np.array_equal(got[:, j], polyval2d(x, y, table))

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_null_vector_collinear_with_constraint(self, family, orders):
        if family.tag == "ER":
            pytest.skip("square Vandermonde, no null vector")
        for m in orders:
            ref = build_reference_element(family, m)
            _, s, vt = np.linalg.svd(ref.vandermonde.T)
            null = vt[-1]
            w = np.zeros(len(ref.sampling))
            w[: len(ref.constraint)] = ref.constraint
            cos = abs(np.dot(null, w)) / (np.linalg.norm(null) * np.linalg.norm(w))
            assert 1.0 - cos < 1e-10

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_nodal_cardinality(self, family, orders):
        for m in orders:
            ref = build_reference_element(family, m)
            vals = np.column_stack([
                ref.sampling[ref.retained] @ polyval2d(*ref.points.T, c)
                for c in ref.nodal_coeffs
            ])
            assert np.max(np.abs(vals - np.eye(ref.n_retained))) < 1e-11

    def test_dropped_dof_is_first_e2_point(self):
        for m in (1, 3, 5):
            ref = build_reference_element(Family("R"), m)
            dropped = np.setdiff1d(np.arange(len(ref.points)), ref.retained)
            assert dropped.tolist() == [m]
            # dof m is Gauss point 0 of edge 2 (y = -1, parameter x)
            x, y = EDGE_PARAM_POINT[2](gauss_rule(m).nodes[:1])
            assert ref.points[m].tolist() == [x[0], y[0]]

    def test_dropped_value_recovered_by_relation(self):
        """A nodal basis function's value at the dropped point follows from
        the relation applied to its retained boundary values."""
        ref = build_reference_element(Family("R"), 3)
        w = ref.constraint
        (dropped,) = np.setdiff1d(np.arange(len(ref.points)), ref.retained)
        for col in range(ref.n_retained):
            p = ref.nodal_coeffs[col]
            bvals = ref.sampling[: len(w)] @ polyval2d(*ref.points.T, p)
            # relation says w . bvals = 0; solve for the dropped entry
            rest = np.dot(w, bvals) - w[dropped] * bvals[dropped]
            assert bvals[dropped] == pytest.approx(-rest / w[dropped], abs=1e-11)

    def test_caching_returns_same_object(self):
        a = build_reference_element(Family("ER"), 3)
        b = build_reference_element(Family("ER"), 3)
        assert a is b

    def test_tabulate_gradients_fd(self):
        ref = build_reference_element(Family("RPlus"), 4)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, 8)
        y = rng.uniform(-0.9, 0.9, 8)
        h = 1e-6
        phi, dpx, dpy = ref.tabulate(x, y)
        fx = (ref.tabulate(x + h, y)[0] - ref.tabulate(x - h, y)[0]) / (2 * h)
        fy = (ref.tabulate(x, y + h)[0] - ref.tabulate(x, y - h)[0]) / (2 * h)
        assert np.max(np.abs(dpx - fx)) < 1e-6
        assert np.max(np.abs(dpy - fy)) < 1e-6


class TestSampling:
    def test_point_rows_evaluate(self):
        # point rows are identity rows: the dofs of x^2 y are its values at
        # the points; the first e2 dof of ER3 is (-sqrt(3/5), -1)
        ref = build_reference_element(Family("ER"), 3)
        assert np.array_equal(ref.sampling, np.eye(len(ref.points)))
        x, y = ref.points.T
        vals = ref.sampling @ (x**2 * y)
        assert vals[3] == pytest.approx(-0.6, rel=1e-14)

    @pytest.mark.parametrize("family,orders", ALL_FAMILIES)
    def test_point_vandermonde_is_scalar_polyval(self, family, orders):
        for m in orders:
            ref = build_reference_element(family, m)
            for i, (x, y) in enumerate(ref.points):
                for j, b in enumerate(ref.basis):
                    assert ref.vandermonde[i, j] == polyval2d(x, y, b)
