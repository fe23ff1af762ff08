"""Tests for global space construction, dimensions, and interpolation."""

import tracemalloc

import numpy as np
import pytest

from paper_identities import edge_elements, jump_functionals
from qncfem.mesh import (
    MeshError,
    QuadMesh,
    bilinear_map,
    perturbed_mesh,
    refine,
    uniform_rect_mesh,
)
from qncfem.refelem import (
    CHILD_OFFSETS,
    EDGE_PARAM_POINT,
    Family,
    gauss_lobatto_nodes,
    gauss_rule,
)
from qncfem.solve import error_norms
from qncfem.space import (
    FeFunction,
    build_global_space,
    expected_dimension,
    interpolate,
    prolong,
)
from schwarz_spy import assemble_with_operators

FAMILY_ORDERS = [
    (Family("R"), 3),
    (Family("R"), 5),
    (Family("ER"), 3),
    (Family("ER"), 5),
    (Family("RPlus"), 2),
    (Family("RPlus"), 4),
]
# appended, so that the ids of the FAMILY_ORDERS cases stay as they were
DIMENSION_CASES = FAMILY_ORDERS + [
    (Family("ER"), 1),
    (Family("R"), 1),
    (Family("R", "tilde"), 3),
    (Family("RPlus"), 6),
]


def rotated_listing(mesh):
    """The same mesh with every other quad listed from its last corner."""
    quads = mesh.quads.copy()
    quads[1::2] = np.roll(quads[1::2], 1, axis=1)
    return QuadMesh(mesh.vertices, quads)


def kernel_dimension(space):
    if space.constraints is None:
        return space.n_free
    rank = np.linalg.matrix_rank(space.constraints.toarray(), tol=1e-9)
    return space.n_free - rank


class TestDimensions:
    def test_er3_on_4x4(self):
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        assert space.n_free == 72
        assert expected_dimension(space) == 72

    def test_r3_on_4x4(self):
        space = build_global_space(uniform_rect_mesh(4), Family("R"), 3)
        assert space.n_free == 72
        assert space.constraints.shape[0] == 16
        rank = np.linalg.matrix_rank(space.constraints.toarray(), tol=1e-9)
        assert rank == 15
        assert kernel_dimension(space) == 57 == expected_dimension(space)

    def test_rplus2_on_4x4(self):
        space = build_global_space(uniform_rect_mesh(4), Family("RPlus"), 2)
        assert kernel_dimension(space) == 49 == expected_dimension(space)

    def test_r5_on_2x2(self):
        space = build_global_space(uniform_rect_mesh(2), Family("R"), 5)
        assert kernel_dimension(space) == 29 == expected_dimension(space)

    @pytest.mark.parametrize("family,m", DIMENSION_CASES)
    @pytest.mark.parametrize("meshgen", ["u2", "u3", "u4", "p4"])
    def test_dimension_theorem_all_combinations(self, family, m, meshgen):
        """Computed kernel dimension equals the dof count on every listed
        mesh/family/order combination (40 cases)."""
        if meshgen.startswith("u"):
            mesh = uniform_rect_mesh(int(meshgen[1]))
        else:
            mesh = perturbed_mesh(int(meshgen[1]), seed=1)
        space = build_global_space(mesh, family, m)
        assert kernel_dimension(space) == expected_dimension(space)

    @pytest.mark.parametrize("keep,euler", [(np.arange(9) != 4, 0), ([0, 8], 2)],
                             ids=["one-cell-hole", "two-components"])
    def test_not_simply_connected_rejected(self, keep, euler):
        mesh = uniform_rect_mesh(3)
        quads = mesh.quads[keep]
        used, quads = np.unique(quads, return_inverse=True)
        mesh = QuadMesh(mesh.vertices[used], quads.reshape(-1, 4))
        space = build_global_space(mesh, Family("R"), 3)
        with pytest.raises(ValueError, match=f"V - E \\+ F = {euler}$"):
            expected_dimension(space)

    @pytest.mark.parametrize("family,m", [(Family("R"), 3), (Family("RPlus"), 2)])
    def test_constraint_rank_is_elements_minus_one(self, family, m):
        for n in (2, 3, 4):
            mesh = uniform_rect_mesh(n)
            space = build_global_space(mesh, family, m)
            rank = np.linalg.matrix_rank(space.constraints.toarray(), tol=1e-9)
            assert rank == mesh.n_elements - 1


class TestContinuity:
    def _point_jump(self, space, coeffs):
        mesh, m = space.mesh, space.m
        t = gauss_rule(m)[0]
        cloc = space.local_values(coeffs)
        worst = 0.0
        for inc in edge_elements(mesh):
            if len(inc) < 2:
                continue
            vals = []
            for (e, le, same) in inc:
                xh, yh = EDGE_PARAM_POINT[le](t if same else t[::-1])
                phi, _, _ = space.ref.tabulate(xh, yh)
                vals.append(phi @ cloc[e])
            worst = max(worst, float(np.max(np.abs(vals[0] - vals[1]))))
        return worst

    @pytest.mark.parametrize("family,m", FAMILY_ORDERS)
    def test_point_continuity_random_coeffs(self, family, m):
        # the perturbed mesh runs interior edges against their global
        # direction, but in both elements; only on the mesh with rotated
        # quad listings do two neighbours run along their shared edge in
        # opposite directions, so that the slot reversal of
        # build_global_space decides continuity
        rotated = rotated_listing(uniform_rect_mesh(3))
        assert any(len(inc) == 2 and inc[0][2] != inc[1][2]
                   for inc in edge_elements(rotated))
        for mesh in (uniform_rect_mesh(3), perturbed_mesh(4, seed=1), rotated):
            space = build_global_space(mesh, family, m)
            rng = np.random.default_rng(0)
            coeffs = rng.standard_normal(space.n_free)
            if space.constraints is not None:
                # project onto the admissible set first
                C = space.constraints.toarray()[:-1]
                coeffs -= C.T @ np.linalg.solve(C @ C.T, C @ coeffs)
            assert self._point_jump(space, coeffs) < 1e-10

    def test_boundary_values_masked(self):
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(space.n_free)
        cloc = space.local_values(coeffs)
        t = gauss_rule(3)[0]
        mesh = space.mesh
        incidences = edge_elements(mesh)
        for edge in np.nonzero(mesh.edge_is_boundary)[0]:
            (e, le, same), = incidences[edge]
            xh, yh = EDGE_PARAM_POINT[le](t)
            phi, _, _ = space.ref.tabulate(xh, yh)
            assert np.max(np.abs(phi @ cloc[e])) < 1e-12


class TestQInterpolate:
    """R / RPlus interpolate through the elementwise Q_m interpolant, which
    reproduces Q_m: on an affine mesh, the dofs of u with u o F_K in Q_m are
    the values of u at the dof points."""

    def _dof_values(self, space, u):
        """Retained dof values of interpolate(space, u) next to u at the dof
        points, (ne, nret) each."""
        got = space.local_values(interpolate(space, u).coeffs)
        mesh, ref = space.mesh, space.ref
        (px, py), _ = bilinear_map(mesh.corner_array(), *ref.points[ref.retained].T)
        return got, u(px, py)

    def test_reproduces_constant(self):
        space = build_global_space(uniform_rect_mesh(2), Family("R"), 3,
                                   homogeneous=False)
        got, _ = self._dof_values(space, lambda x, y: np.ones_like(x))
        assert np.max(np.abs(got - 1.0)) < 1e-12

    def test_reproduces_qm(self):
        for family, m in ((Family("R"), 3), (Family("R", "tilde"), 5),
                          (Family("RPlus"), 4)):
            space = build_global_space(uniform_rect_mesh(3), family, m,
                                       homogeneous=False)
            u = lambda x, y: (2 * x - 1) ** m * (2 * y - 1) ** m  # Q_m o F^{-1}
            got, expect = self._dof_values(space, u)
            assert np.max(np.abs(got - expect)) < 1e-11

    def test_affine_composition(self):
        space = build_global_space(uniform_rect_mesh(2), Family("RPlus"), 2,
                                   homogeneous=False)
        got, expect = self._dof_values(space, lambda x, y: x + y)
        assert np.max(np.abs(got - expect)) < 1e-12


def _interpolate_per_element(space, u):
    """Reference for `interpolate`: the local dofs of one element at a time,
    from the dof definitions (ER: point values; R / RPlus through the Q_m
    interpolant at the Gauss-Lobatto nodes, by its monomial Vandermonde)."""
    mesh, ref, m = space.mesh, space.ref, space.m
    vals = np.empty(space.dofs.shape)
    for e in range(mesh.n_elements):
        corners = mesh.vertices[mesh.quads[e]]
        geom = lambda xh, yh: bilinear_map(corners, xh, yh)[0]
        if ref.family.tag != "ER":
            nodes = gauss_lobatto_nodes(m + 1)
            X, Y = np.meshgrid(nodes, nodes, indexing="ij")
            vinv = np.linalg.inv(np.polynomial.polynomial.polyvander(nodes, m))
            c = vinv @ u(*geom(X, Y)) @ vinv.T
            vals[e] = np.polynomial.polynomial.polyval2d(*ref.points.T, c)
        else:
            vals[e] = u(*geom(*ref.points.T))
    return space.scatter(vals)


class TestInterpolate:
    # explicit ids keep each case's test id stable when the list changes
    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("ER"), 3, id="family0-3-point"),
            pytest.param(Family("R"), 3, id="family2-3-point"),
            pytest.param(Family("R", "tilde"), 5, id="family3-5-point"),
            pytest.param(Family("RPlus"), 4, id="family4-4-point"),
        ],
    )
    @pytest.mark.parametrize("mesh", [uniform_rect_mesh(3),
                                      perturbed_mesh(4, seed=4)],
                             ids=["uniform", "perturbed"])
    def test_matches_per_element_reference(self, family, m, mesh):
        space = build_global_space(mesh, family, m, homogeneous=False)
        u = lambda x, y: np.sin(np.pi * x) * np.cos(0.7 * y) + x * y**2
        got = interpolate(space, u).coeffs
        assert np.max(np.abs(got - _interpolate_per_element(space, u))) < 1e-12

    @pytest.mark.parametrize(
        "family,m", [(Family("ER"), 3), (Family("R"), 3), (Family("RPlus"), 4)],
        ids=["ER3", "R3", "RPlus4"],
    )
    @pytest.mark.parametrize("constant", [lambda x, y: 2.5, lambda x, y: np.array([2.5])],
                             ids=["scalar", "shape1"])
    def test_constant(self, family, m, constant):
        """A u that returns a constant, as `assemble` accepts for f, gives
        that constant on every free dof (interpolate raises unless the
        R / RPlus relations hold)."""
        space = build_global_space(perturbed_mesh(4, seed=4), family, m,
                                   homogeneous=False)
        coeffs = interpolate(space, constant).coeffs
        assert coeffs.shape == (space.n_free,)
        assert np.max(np.abs(coeffs - 2.5)) <= 1e-14

    @pytest.mark.parametrize(
        "family,m", [(Family("ER"), 3), (Family("R"), 3), (Family("RPlus"), 4)],
        ids=["ER3", "R3", "RPlus4"],
    )
    def test_rejects_nonzero_boundary_values(self, family, m):
        """On a homogeneous space every family rejects a u that does not
        vanish on the boundary, naming the largest masked dof value (u = 2
        on the right edge)."""
        space = build_global_space(uniform_rect_mesh(4), family, m)
        with pytest.raises(ValueError, match=r"masked dof reads 2\.000e\+00"):
            interpolate(space, lambda x, y: 1.0 + x)

    @pytest.mark.parametrize("family,m", FAMILY_ORDERS)
    def test_reproduces_pm(self, family, m):
        """The interpolant of a degree <= m polynomial is exact on affine
        elements (checked on the non-homogeneous space so boundary values
        are kept)."""
        mesh = uniform_rect_mesh(2)
        space = build_global_space(mesh, family, m, homogeneous=False)
        d = min(m, 3)
        u = lambda x, y: (x + 0.3 * y) ** d + 0.5 * x - y + 1.0
        gu = lambda x, y: (
            d * (x + 0.3 * y) ** (d - 1) + 0.5,
            0.3 * d * (x + 0.3 * y) ** (d - 1) - 1.0,
        )
        fe = interpolate(space, u)
        l2, h1 = error_norms(space, fe.coeffs, u, gu)
        assert l2 < 1e-10 and h1 < 1e-10

    @pytest.mark.parametrize("family,m", [(Family("R"), 3), (Family("RPlus"), 4)])
    def test_relation_residual_of_interpolant(self, family, m):
        """Point values of the elementwise Q_m interpolant satisfy the
        boundary relation, so interpolate() accepts them."""
        mesh = perturbed_mesh(4, seed=0)
        space = build_global_space(mesh, family, m)
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        fe = interpolate(space, u)  # raises if the residual exceeds 1e-9
        resid = np.max(np.abs(space.constraints @ fe.coeffs))
        assert resid < 1e-11 * max(1.0, np.max(np.abs(fe.coeffs)))

    def test_interpolation_order_er3(self):
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gu = lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )
        errs = []
        for level in (2, 3, 4, 5):
            mesh = uniform_rect_mesh(2 ** (level - 1))
            space = build_global_space(mesh, Family("ER"), 3)
            fe = interpolate(space, u)
            errs.append(error_norms(space, fe.coeffs, u, gu)[1])
        slopes = -np.diff(np.log2(errs))
        assert np.all(slopes >= 2.9)


class TestEvaluate:
    def test_zero_coefficients(self):
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        from qncfem.space import FeFunction

        fe = FeFunction(space, np.zeros(space.n_free))
        val, grad = fe.evaluate(0, np.array([0.1]), np.array([0.2]))
        assert val[0] == 0.0 and np.all(grad == 0.0)

    def test_reproduces_linear(self):
        mesh = perturbed_mesh(2, seed=6)
        space = build_global_space(mesh, Family("R"), 3, homogeneous=False)
        u = lambda x, y: 2.0 * x - 0.5 * y + 0.25
        fe = interpolate(space, u)
        rng = np.random.default_rng(0)
        for e in range(mesh.n_elements):
            xh = rng.uniform(-0.9, 0.9, 5)
            yh = rng.uniform(-0.9, 0.9, 5)
            val, grad = fe.evaluate(e, xh, yh)
            (px, py), _ = bilinear_map(mesh.vertices[mesh.quads[e]], xh, yh)
            assert np.max(np.abs(val - u(px, py))) < 1e-11
            assert np.max(np.abs(grad[0] - 2.0)) < 1e-10
            assert np.max(np.abs(grad[1] + 0.5)) < 1e-10

    def test_gradient_finite_difference(self):
        mesh = perturbed_mesh(2, seed=8)
        space = build_global_space(mesh, Family("ER"), 3)
        from qncfem.space import FeFunction

        rng = np.random.default_rng(1)
        fe = FeFunction(space, rng.standard_normal(space.n_free))
        e, h = 1, 1e-6
        xh = np.array([0.2, -0.4])
        yh = np.array([-0.1, 0.55])
        _, grad = fe.evaluate(e, xh, yh)
        # central differences in physical coordinates via the inverse map:
        # differentiate value(xh, yh) and divide by the Jacobian instead
        vxp, _ = fe.evaluate(e, xh + h, yh)
        vxm, _ = fe.evaluate(e, xh - h, yh)
        vyp, _ = fe.evaluate(e, xh, yh + h)
        vym, _ = fe.evaluate(e, xh, yh - h)
        gxh = (vxp - vxm) / (2 * h)
        gyh = (vyp - vym) / (2 * h)
        _, (j11, j12, j21, j22, det) = bilinear_map(mesh.vertices[mesh.quads[e]], xh, yh)
        gx = (j22 * gxh - j21 * gyh) / det
        gy = (-j12 * gxh + j11 * gyh) / det
        assert np.max(np.abs(grad[0] - gx)) < 1e-5
        assert np.max(np.abs(grad[1] - gy)) < 1e-5

    def test_one_element_values_match_all(self):
        # the boundary dofs are masked
        space = build_global_space(perturbed_mesh(4, seed=2), Family("ER"), 3)
        coeffs = np.random.default_rng(4).standard_normal(space.n_free)
        every = space.local_values(coeffs)
        for e in range(space.mesh.n_elements):
            assert np.array_equal(space.local_values(coeffs, e), every[e])

    def test_tabulation_cache_bounded(self):
        # the reference element lives as long as the process; evaluating at
        # new points must not add cache entries
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        fe = FeFunction(space, np.ones(space.n_free))
        fe.evaluate(0, np.array([0.1]), np.array([0.2]))
        size = len(space.ref._tab_cache)
        rng = np.random.default_rng(2)
        for k in range(200):
            fe.evaluate(k % 4, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        assert len(space.ref._tab_cache) == size

    def test_allocation_independent_of_n_free(self):
        # one call reads element e's coefficients alone; a copy of the whole
        # vector took 8 * n_free bytes, 190 kB at 64x64
        xh = yh = np.linspace(-0.9, 0.9, 5)
        peaks = []
        for n in (4, 64):
            space = build_global_space(uniform_rect_mesh(n), Family("ER"), 3)
            fe = FeFunction(space, np.ones(space.n_free))
            fe.evaluate(0, xh, yh)  # fills the tabulation cache
            tracemalloc.start()
            try:
                fe.evaluate(0, xh, yh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert space.n_free > 20000
        assert peaks[1] <= peaks[0] + 1024


def _refined_vertex_values(coarse_mesh, fine_mesh, vertex_values):
    """Vertex values on `fine_mesh`, numbered as `refine(coarse_mesh)`, of
    the piecewise-bilinear function with the given coarse vertex values."""
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    out = np.empty(len(fine_mesh.vertices))
    for c, offset in enumerate(CHILD_OFFSETS):
        xi = (corners + offset) / 2.0  # child corners, parent coordinates
        hats = (1 + np.outer(xi[:, 0], corners[:, 0])) * (
            1 + np.outer(xi[:, 1], corners[:, 1])) / 4.0
        out[fine_mesh.quads[c::4]] = vertex_values[coarse_mesh.quads] @ hats.T
    return out


class TestProlong:
    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("ER"), 3, id="family0-3-point"),
            pytest.param(Family("R"), 3, id="family2-3-point"),
            pytest.param(Family("R", "tilde"), 5, id="family3-5-point"),
            pytest.param(Family("RPlus"), 4, id="family4-4-point"),
            pytest.param(Family("ER"), 1, id="family0-1-point"),
            pytest.param(Family("R"), 1, id="family2-1-point"),
        ],
    )
    @pytest.mark.parametrize("fine_mesh", [uniform_rect_mesh(8),
                                           refine(uniform_rect_mesh(4))],
                             ids=["generated", "refined"])
    def test_carries_interpolant_of_pm(self, family, m, fine_mesh):
        # without masking, the coarse interpolant of u in P_m is u itself;
        # the generated 8x8 mesh numbers its children row by row, the
        # refined one in child order
        coarse, fine = (
            build_global_space(mesh, family, m, homogeneous=False)
            for mesh in (uniform_rect_mesh(4), fine_mesh)
        )
        rng = np.random.default_rng(m)
        c = rng.standard_normal((m + 1, m + 1))
        c[np.add.outer(np.arange(m + 1), np.arange(m + 1)) > m] = 0.0
        u = lambda x, y: np.polynomial.polynomial.polyval2d(x, y, c)
        got = prolong(coarse, interpolate(coarse, u).coeffs, fine)
        assert np.max(np.abs(got - interpolate(fine, u).coeffs)) < 1e-12

    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("ER"), 3, id="family0-3-point"),
            pytest.param(Family("R"), 3, id="family2-3-point"),
            pytest.param(Family("RPlus"), 4, id="family3-4-point"),
        ],
    )
    def test_carries_q1_on_perturbed_mesh(self, family, m):
        # perturbed_mesh(8) is perturbed_mesh(4) refined, in child order
        coarse_mesh = perturbed_mesh(4, seed=3)
        fine_mesh = perturbed_mesh(8, seed=3)
        coarse = build_global_space(coarse_mesh, family, m)
        fine = build_global_space(fine_mesh, family, m)
        y = np.random.default_rng(5).standard_normal(
            coarse_mesh.n_interior_vertices)
        vertex_values = np.zeros(len(coarse_mesh.vertices))
        vertex_values[~coarse_mesh.vertex_is_boundary] = y
        fine_values = _refined_vertex_values(coarse_mesh, fine_mesh, vertex_values)
        P, fine_P = (assemble_with_operators(space)[1].coarse for space in (coarse, fine))
        got = prolong(coarse, P @ y, fine)
        expect = fine_P @ fine_values[~fine_mesh.vertex_is_boundary]
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_rejects_unrefined_space(self):
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        with pytest.raises(MeshError):
            prolong(space, np.zeros(space.n_free), space)
        fine = build_global_space(perturbed_mesh(8), Family("ER"), 3)
        with pytest.raises(MeshError):
            prolong(space, np.zeros(space.n_free), fine)
        fine = build_global_space(uniform_rect_mesh(8), Family("ER"), 5)
        with pytest.raises(ValueError):
            prolong(space, np.zeros(space.n_free), fine)

    def test_rejects_fine_space_coefficients(self):
        coarse = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        fine = build_global_space(uniform_rect_mesh(8), Family("ER"), 3)
        with pytest.raises(ValueError, match="shape"):
            prolong(coarse, np.zeros(fine.n_free), fine)


class TestJumpFunctionals:
    def test_annihilates_space_members(self):
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        J = jump_functionals(space)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(space.n_free)
        broken = space.local_values(coeffs).ravel()
        assert np.max(np.abs(J @ broken)) < 1e-11

    def test_detects_discontinuity(self):
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        J = jump_functionals(space)
        broken = np.zeros(J.shape[1])
        broken[0] = 1.0  # perturb one element's first retained dof
        assert np.max(np.abs(J @ broken)) > 0.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_r_family(self, n):
        """On the broken R_3 space the jump/trace functionals have rank
        N_S(2k+1) - 1: the per-element relations force one dependency."""
        mesh = uniform_rect_mesh(n)
        space = build_global_space(mesh, Family("R"), 3)
        J = jump_functionals(space)
        rank = np.linalg.matrix_rank(J.toarray(), tol=1e-9)
        assert rank == mesh.n_edges * 3 - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_er_family_full(self, n):
        mesh = uniform_rect_mesh(n)
        space = build_global_space(mesh, Family("ER"), 3)
        J = jump_functionals(space)
        assert np.linalg.matrix_rank(J.toarray(), tol=1e-9) == mesh.n_edges * 3
