"""Tests for assembly, the CG solve, and error norms."""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qncfem.cli import StudyConfig, StudyError, run_study
from qncfem.mesh import QuadMesh, bilinear_map, perturbed_mesh, refine, uniform_rect_mesh
from qncfem.refelem import Family, gauss_grid
from qncfem.solve import (
    SolverError,
    SparseSystem,
    _element_blocks,
    _preconditioner,
    assemble,
    error_norms,
    solve,
)
from qncfem.space import FeFunction, build_global_space, coarse_prolongation, prolong
from test_space import rotated_listing


def default_u():
    u = lambda x, y: 16.0 * (x - x**6) * (y - y**2)
    gu = lambda x, y: (
        16.0 * (1 - 6 * x**5) * (y - y**2),
        16.0 * (x - x**6) * (1 - 2 * y),
    )
    f = lambda x, y: 16.0 * (30.0 * x**4 * (y - y**2) + 2.0 * (x - x**6))
    return u, gu, f


def element_stiffness(mesh, e, family, m):
    """Local stiffness over the retained dofs of element e, in local dof
    order: `assemble` on the one-element mesh of e, without boundary
    conditions."""
    one = QuadMesh(mesh.vertices[mesh.quads[e]], [[0, 1, 2, 3]])
    space = build_global_space(one, family, m, homogeneous=False)
    lf = space.local_free()
    K = assemble(space, lambda x, y: np.zeros_like(x)).matrix.toarray()
    return K[np.ix_(lf[0], lf[0])]


class TestElementStiffness:
    def test_hand_computed_lowest_order(self):
        """R_1 on the unit square keeps the left, right, and top edge
        midpoints; the nodal gradients are (-1/2,-1/2), (1/2,-1/2), (0,1)
        on the reference square, giving K = 4 * G G^T after mapping."""
        K = element_stiffness(uniform_rect_mesh(1), 0, Family("R"), 1)
        expect = np.array([[2.0, 0.0, -2.0], [0.0, 2.0, -2.0], [-2.0, -2.0, 4.0]])
        assert np.allclose(K, expect, atol=1e-12)

    @pytest.mark.parametrize(
        "family,m",
        [(Family("R"), 3), (Family("ER"), 3), (Family("RPlus"), 2), (Family("RPlus"), 4)],
    )
    def test_symmetric_psd_with_constant_null(self, family, m):
        mesh = perturbed_mesh(2, seed=0, amplitude=0.2)
        for e in range(mesh.n_elements):
            K = element_stiffness(mesh, e, family, m)
            assert np.max(np.abs(K - K.T)) < 1e-11
            w = np.linalg.eigvalsh(K)
            assert w[0] > -1e-10
            # all retained dofs are point evaluations, so the constant
            # function has coefficient vector of ones
            assert np.max(np.abs(K @ np.ones(K.shape[0]))) < 1e-10


class TestAssemble:
    def test_zero_load(self):
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        system = assemble(space, lambda x, y: np.zeros_like(x))
        assert np.max(np.abs(system.rhs)) == 0.0

    def test_matrix_symmetry(self):
        space = build_global_space(
            perturbed_mesh(4, seed=1, amplitude=0.2), Family("R"), 3
        )
        system = assemble(space, lambda x, y: np.ones_like(x))
        d = system.matrix - system.matrix.T
        assert abs(d).max() < 1e-11

    def test_constant_load_vector_sums_to_area(self):
        """Summing the load rows of a partition-of-unity interpolation
        operator recovers the mesh area; the homogeneous space clips the
        boundary so compare on the unconstrained one."""
        space = build_global_space(
            uniform_rect_mesh(2), Family("ER"), 3, homogeneous=False
        )
        system = assemble(space, lambda x, y: np.ones_like(x))
        # constant = 1 has coefficients 1 everywhere; b . 1 = integral of 1
        assert float(np.sum(system.rhs)) == pytest.approx(1.0, abs=1e-12)

    def test_energy_identity(self):
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        system = assemble(space, f)
        x, report = solve(system)
        # Galerkin: a(u_h, u_h) = (f, u_h)
        assert float(x @ (system.matrix @ x)) == pytest.approx(
            float(system.rhs @ x), rel=1e-11
        )

    def test_matches_dense_reassembly(self):
        """Scatter-add assembly agrees with a slow loop over elements."""
        space = build_global_space(uniform_rect_mesh(2), Family("ER"), 3)
        system = assemble(space, lambda x, y: np.ones_like(x))
        lf = space.local_free()
        dense = np.zeros((space.n_free, space.n_free))
        for e in range(space.mesh.n_elements):
            K = element_stiffness(space.mesh, e, Family("ER"), 3)
            for i, gi in enumerate(lf[e]):
                if gi == space.n_free:  # masked
                    continue
                for j, gj in enumerate(lf[e]):
                    if gj == space.n_free:
                        continue
                    dense[gi, gj] += K[i, j]
        assert np.max(np.abs(system.matrix.toarray() - dense)) < 1e-11


class TestSolvers:
    def test_identity_system_one_iteration(self):
        n = 40
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        system = SparseSystem(sp.identity(n, format="csr"), b)
        x, report = solve(system)
        assert report.iterations == 1
        assert np.max(np.abs(x - b)) < 1e-12

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((50, 50))
        A = A @ A.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        system = SparseSystem(sp.csr_matrix(A), b)
        x, report = solve(system)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10
        assert report.relative_residual < 1e-11

    def test_zero_rhs(self):
        system = SparseSystem(sp.identity(10, format="csr"), np.zeros(10))
        x, report = solve(system)
        assert np.all(x == 0.0) and report.iterations == 0

    def test_nonconvergence_raises(self, monkeypatch):
        # a large 1D Laplacian needs O(n) CG iterations; a budget of 100
        # cannot reach 1e-13, so the solver must report failure.  The module
        # is patched through sys.modules: `qncfem.solve` as an attribute
        # path resolves to the re-exported function, not the module.
        monkeypatch.setattr(sys.modules["qncfem.solve"], "MAX_ITER_FACTOR", 0.01)
        n = 10000
        A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
        b = np.ones(n)
        with pytest.raises(SolverError) as err:
            solve(SparseSystem(A, b))
        assert err.value.report.iterations == 100

    @pytest.mark.parametrize("diagonal", [(1.0, 0.0), (1.0, -1.0)])
    def test_breakdown_raises(self, diagonal):
        # the singular matrix has a singular 1x1 block, and the indefinite
        # one reaches a direction with p.Ap <= 0; neither may escape as a
        # LinAlgError or ZeroDivisionError
        system = SparseSystem(sp.diags(diagonal).tocsr(), np.ones(2))
        with pytest.raises(SolverError):
            solve(system)

    def test_singular_element_block_raises(self):
        # the first element's block [[1, 1], [1, 1]] is singular
        A = sp.csr_matrix(np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]]))
        system = SparseSystem(A, np.ones(3), elements=np.array([[0, 1], [2, 3]]))
        with pytest.raises(SolverError):
            solve(system)

    @pytest.mark.parametrize(
        "precondition",
        [lambda r: np.zeros_like(r), lambda r: np.array([-r[1], r[0]])],
        ids=["zero", "orthogonal"],
    )
    def test_vanishing_rz_raises(self, monkeypatch, precondition):
        # r.z = 0 exactly with r != 0: CG cannot continue and has not
        # converged; the orthogonal map used to divide 0 by 0
        monkeypatch.setattr(sys.modules["qncfem.solve"], "_preconditioner",
                            lambda *args: precondition)
        system = SparseSystem(sp.diags([1.0, 2.0]).tocsr(), np.ones(2))
        with pytest.raises(SolverError):
            solve(system)

    @pytest.mark.parametrize("family", [Family("ER"), Family("R")])
    @pytest.mark.parametrize("where", ["everywhere", "one corner element"])
    def test_nan_load_raises(self, family, where):
        # NaN compares False with any tolerance; it must not pass as converged
        def f(x, y):
            nan = np.ones_like(x, dtype=bool)
            if where != "everywhere":
                nan = (x < 0.25) & (y < 0.25)
            return np.where(nan, np.nan, 1.0)

        space = build_global_space(uniform_rect_mesh(4), family, 3)
        with pytest.raises(SolverError):
            solve(assemble(space, f))

    def test_nan_source_fails_study(self):
        u, gu, _ = default_u()
        nan = lambda x, y: np.full_like(x, np.nan)
        with pytest.raises(StudyError) as err:
            run_study(StudyConfig(family="er", m=3, levels=3, min_level=2),
                      problem=(u, gu, nan))
        assert err.value.rows == []

    def test_sum_constraint_analytic(self):
        """K = I with the constraint sum(x) = 0 projects b onto mean zero.
        The duplicated row stands in for the implied last element row that
        solve always drops."""
        n = 30
        rng = np.random.default_rng(2)
        b = rng.standard_normal(n)
        row = np.ones((1, n))
        C = sp.csr_matrix(np.vstack([row, row]))
        system = SparseSystem(sp.identity(n, format="csr"), b, constraints=C)
        x, report = solve(system)
        assert np.max(np.abs(x - (b - b.mean()))) < 1e-11
        assert report.constraint_residual < 1e-11

    def test_constrained_matches_dense_kkt(self):
        """Full pipeline on the relation-carrying family against a dense
        KKT solve of the same matrices."""
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(2), Family("R"), 3)
        system = assemble(space, f)
        x, _ = solve(system)
        K = system.matrix.toarray()
        C = system.constraints.toarray()[:-1]
        nc = C.shape[0]
        kkt = np.block([[K, C.T], [C, np.zeros((nc, nc))]])
        rhs = np.concatenate([system.rhs, np.zeros(nc)])
        ref = np.linalg.solve(kkt, rhs)[: space.n_free]
        assert np.max(np.abs(x - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_solve_dispatch(self):
        u, gu, f = default_u()
        for family in (Family("ER"), Family("R")):
            space = build_global_space(uniform_rect_mesh(2), family, 3)
            x, report = solve(assemble(space, f))
            assert report.relative_residual < 1e-11


class TestWarmStart:
    def test_projects_x0_onto_relation_kernel(self):
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(4), Family("RPlus"), 4)
        system = assemble(space, f)
        cold, report = solve(system)
        x0 = cold + 1e-3 * np.random.default_rng(3).standard_normal(system.n)
        assert np.max(np.abs(system.constraints @ x0)) > 1e-3
        warm, warm_report = solve(system, x0)
        assert warm_report.iterations < report.iterations
        assert warm_report.constraint_residual < 1e-12
        assert np.linalg.norm(warm - cold) <= 1e-10 * np.linalg.norm(cold)

    def test_drops_x0_worse_than_zero(self):
        # a random x0 has a residual far above |Pb|; started from it, CG
        # ran its whole budget at 8x8 (9,600 iterations, stalled at 4.7e-13)
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(8), Family("RPlus"), 4)
        system = assemble(space, f)
        cold, report = solve(system)
        x0 = np.random.default_rng(3).standard_normal(system.n)
        warm, warm_report = solve(system, x0)
        assert warm_report.iterations == report.iterations
        assert np.array_equal(warm, cold)

    def test_rplus4_fine_levels_within_sqrt_budget(self, monkeypatch):
        # levels 6 and 7 start warm on child-ordered meshes (`refine`); b - A x0
        # there has a range(C^T) part of the size of b, and projected only
        # once, its residue held the residual at 1.0e-13 at level 7 until r.z
        # broke down after 75 iterations (from 4x4: 1.9e-13 through the whole
        # budget); a budget of sqrt(n) fails that fast
        monkeypatch.setattr(sys.modules["qncfem.solve"], "MAX_ITER_FACTOR", 1.0)
        u, gu, f = default_u()
        mesh, prev = uniform_rect_mesh(16), None
        for level in (5, 6, 7):
            space = build_global_space(mesh, Family("RPlus"), 4)
            x0 = None if prev is None else prolong(*prev, space)
            x, report = solve(assemble(space, f), x0)
            assert report.constraint_residual < 1e-12
            prev, mesh = (space, x), refine(mesh)

    def test_unnested_level_starts_cold(self):
        # the perturbed 2x2 mesh moves the centre of the 1x1 mesh, so it
        # does not refine it and level 2 starts from zero
        config = StudyConfig(family="er", m=3, levels=3, mesh_kind="perturbed",
                             seed=3)
        rows = run_study(config)
        config.min_level = config.levels = 2
        cold = run_study(config)[0]
        assert rows[1].iterations == cold.iterations
        assert rows[1].l2_err == cold.l2_err

    @pytest.mark.parametrize(
        "family,variant,m,tol",
        [("er", "standard", 3, 1e-10), ("rplus", "standard", 4, 1e-10),
         ("r", "tilde", 5, 1e-9)],
    )
    def test_study_matches_cold_levels(self, family, variant, m, tol):
        # both solves stop at REL_TOL, which bounds how well they agree: at
        # R~5 level 4 they differ by 4.3e-10 (relative L2), the cold solve
        # being 5.1e-10 and the warm one 7.9e-11 from a sparse direct solve
        config = StudyConfig(family=family, variant=variant, m=m, levels=4,
                             min_level=2)
        warm = run_study(config)
        for row in warm[1:]:
            config.min_level = config.levels = row.level
            cold = run_study(config)[0]
            assert row.iterations <= cold.iterations
            assert abs(row.l2_err - cold.l2_err) <= tol * cold.l2_err
            assert abs(row.h1_err - cold.h1_err) <= tol * cold.h1_err


class TestErrorNorms:
    def test_zero_function_gives_solution_norms(self):
        u, gu, _ = default_u()
        space = build_global_space(uniform_rect_mesh(8), Family("ER"), 3)
        l2, h1 = error_norms(space, np.zeros(space.n_free), u, gu)
        assert l2 == pytest.approx(1.169410692, abs=1e-8)
        assert h1 == pytest.approx(5.75057850, abs=1e-7)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_wrong_length(self, extra):
        u, gu, _ = default_u()
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        with pytest.raises(ValueError, match=rf"\({space.n_free},\)"):
            error_norms(space, np.zeros(space.n_free + extra), u, gu)

    def test_quadrature_saturation(self):
        """The fixed (m+4)-point rule of `error_norms` agrees with an
        (m+7)-point reference computed here."""
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        x, _ = solve(assemble(space, f))
        a = error_norms(space, x, u, gu)
        X, Y, W = gauss_grid(space.m + 7)
        (px, py), (j11, j12, j21, j22, det) = bilinear_map(
            space.mesh.corner_array(), X, Y)
        phi, dpx, dpy = space.ref.tabulate(X, Y)
        c = space.local_values(x)  # (ne, nret)
        gxh, gyh = c @ dpx.T, c @ dpy.T
        gex, gey = gu(px, py)
        ex = (j22 * gxh - j21 * gyh) / det - gex
        ey = (-j12 * gxh + j11 * gyh) / det - gey
        l2 = np.sqrt(np.sum(W * det * (c @ phi.T - u(px, py)) ** 2))
        h1 = np.sqrt(np.sum(W * det * (ex**2 + ey**2)))
        assert a == pytest.approx((l2, h1), rel=1e-8)

    def test_broken_h1_of_interpolant(self):
        from qncfem.space import interpolate

        u, gu, _ = default_u()
        space = build_global_space(
            uniform_rect_mesh(4), Family("ER"), 3, homogeneous=False
        )
        fe = interpolate(space, u)
        zero = lambda x, y: np.zeros_like(x)
        got = error_norms(space, fe.coeffs, zero, lambda x, y: (zero(x, y),) * 2)[1]
        assert got == pytest.approx(5.75057850, rel=1e-2)


class TestElementBlockLoop:
    """The element kernels run in blocks of `BLOCK_ELEMENTS` elements; the
    block size must not change what they compute."""

    @staticmethod
    def _kernels(space, coeffs):
        u, gu, f = default_u()
        system = assemble(space, f)
        K = system.matrix
        inv = _element_blocks(K, system.elements)
        raw = [a.tobytes() for a in (K.data, K.indices, K.indptr, system.rhs, inv)]
        return raw, error_norms(space, coeffs, u, gu)

    @pytest.mark.parametrize(
        "family,m",
        [(Family("ER"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4),
         (Family("R", "tilde"), 7), (Family("ER"), 9)],
        ids=["ER3", "R~5", "RPlus4", "R~7", "ER9"],
    )
    @pytest.mark.parametrize(
        "mesh", [uniform_rect_mesh(5), perturbed_mesh(8, seed=3)],
        ids=["uniform5", "perturbed8"],
    )
    def test_block_size_invariance(self, monkeypatch, family, m, mesh):
        space = build_global_space(mesh, family, m)
        coeffs = np.random.default_rng(4).standard_normal(space.n_free)
        monkeypatch.setattr(sys.modules["qncfem.solve"], "BLOCK_ELEMENTS", 7)
        raw7, norms7 = self._kernels(space, coeffs)
        monkeypatch.setattr(sys.modules["qncfem.solve"], "BLOCK_ELEMENTS", mesh.n_elements)
        raw, norms = self._kernels(space, coeffs)
        assert raw7 == raw  # K data, indices, indptr, b and block inverses
        assert norms7 == pytest.approx(norms, rel=1e-14, abs=0.0)

    def test_jacobian_guard_names_element_beyond_first_block(self, monkeypatch):
        monkeypatch.setattr(sys.modules["qncfem.solve"], "BLOCK_ELEMENTS", 7)
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        last = space.mesh.n_elements - 1
        assert last > 7
        # the top-right corner belongs to the last element alone; pulled
        # past the element's opposite corner, the element folds over
        corner = np.argmax(space.mesh.vertices.sum(axis=1))
        space.mesh.vertices[corner] = [0.5, 0.5]
        u, gu, f = default_u()
        with pytest.raises(ValueError, match=f"nonpositive Jacobian in element {last}$"):
            assemble(space, f)
        with pytest.raises(ValueError, match=f"nonpositive Jacobian in element {last}$"):
            error_norms(space, np.zeros(space.n_free), u, gu)

    def test_peak_memory_bounded(self):
        """Traced peak allocation above the start, ER3 on a perturbed 64x64
        mesh: whole-mesh temporaries gave +47 MB (assemble) and +29 MB
        (error_norms), blocks of 256 elements +23 MB and +3 MB."""
        u, gu, f = default_u()
        space = build_global_space(perturbed_mesh(64, seed=0), Family("ER"), 3)
        coeffs = np.random.default_rng(5).standard_normal(space.n_free)
        for call, bound_mb in [(lambda: assemble(space, f), 35.0),
                               (lambda: error_norms(space, coeffs, u, gu), 12.0)]:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 1e6


class TestDistinctElements:
    """The stiffness blocks and the block inverses are computed once per
    distinct element; the results must be the bytes of the kernels run on
    every element."""

    solve_module = sys.modules["qncfem.solve"]
    families = pytest.mark.parametrize(
        "family,m", [(Family("ER"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
        ids=["ER3", "R~5", "RPlus4"],
    )

    def _kernels(self, space):
        q = space.m + 3
        system = assemble(space, default_u()[2])
        K = system.matrix
        stiffness = [self.solve_module._stiffness_blocks(space, q, jac)
                     for _, _, jac in self.solve_module._element_chunks(space, q)]
        inv = _element_blocks(K, system.elements)
        return [a.tobytes() for a in (K.data, K.indices, K.indptr, system.rhs,
                                      *stiffness, inv)]

    def _jacobian_rows(self, space):
        (_, _, jac), = self.solve_module._element_chunks(space, space.m + 3)
        return np.concatenate(jac, axis=1)

    @families
    @pytest.mark.parametrize(
        "mesh,groups",
        [(uniform_rect_mesh(8), 1), (rotated_listing(uniform_rect_mesh(8)), 2),
         (perturbed_mesh(8, seed=3), None)],
        ids=["uniform8", "rotated8", "perturbed8"],
    )
    def test_matches_every_element(self, monkeypatch, family, m, mesh, groups):
        space = build_global_space(mesh, family, m)
        found = self.solve_module._distinct_rows(self._jacobian_rows(space))
        assert (found and len(found[0])) == groups  # distinct Jacobians
        grouped = self._kernels(space)
        monkeypatch.setattr(self.solve_module, "_distinct_rows", lambda rows: None)
        assert grouped == self._kernels(space)

    @families
    def test_forced_projection_collision_is_exact(self, monkeypatch, family, m):
        uniform = build_global_space(uniform_rect_mesh(8), family, m)
        rotated = build_global_space(rotated_listing(uniform_rect_mesh(8)), family, m)
        expect = [self._kernels(space) for space in (uniform, rotated)]
        monkeypatch.setattr(self.solve_module, "_projection",
                            lambda width: np.zeros(width, dtype=np.uint64))
        # every key collides: equal rows still group, different rows do not
        assert len(self.solve_module._distinct_rows(self._jacobian_rows(uniform))[0]) == 1
        assert self.solve_module._distinct_rows(self._jacobian_rows(rotated)) is None
        assert [self._kernels(space) for space in (uniform, rotated)] == expect

    def test_signed_zeros_and_nans_keep_their_bytes(self, monkeypatch):
        nan = np.float64(np.nan)
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
                         [nan, 2.0], [nan, 2.0], [-nan, 2.0], [-0.0, 1.0]])
        first, inverse = self.solve_module._distinct_rows(rows)
        assert len(first) == 4
        assert rows[first][inverse].tobytes() == rows.tobytes()
        monkeypatch.setattr(self.solve_module, "_projection",
                            lambda width: np.zeros(width, dtype=np.uint64))
        assert self.solve_module._distinct_rows(rows) is None
        assert self.solve_module._distinct_rows(rows[[3, 4]]) is not None

    def test_no_repeat_gives_none(self):
        rows = np.random.default_rng(11).standard_normal((50, 16))
        assert self.solve_module._distinct_rows(rows) is None
        # equal in the sampled columns (every second one), distinct rows
        rows[:, ::2] = rows[0, ::2]
        assert self.solve_module._distinct_rows(rows) is None
        rows[:, 1::2] = rows[0, 1::2]
        first, inverse = self.solve_module._distinct_rows(rows)
        assert first.tolist() == [0] and inverse.tolist() == [0] * 50

    def test_uniform_mesh_runs_kernels_once_per_distinct_element(self, monkeypatch):
        space = build_global_space(uniform_rect_mesh(32), Family("R", "tilde"), 5)
        einsum, inv = np.einsum, np.linalg.inv
        stiffness_sizes, inverse_sizes = [], []

        def counting_einsum(subscripts, *operands, **kwargs):
            if subscripts == "ep,epi,epj->eij":
                stiffness_sizes.append(len(operands[0]))
            return einsum(subscripts, *operands, **kwargs)

        def counting_inv(a):
            inverse_sizes.append(len(a))
            return inv(a)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        system = assemble(space, default_u()[2])
        _element_blocks(system.matrix, system.elements)
        blocks = space.mesh.n_elements // self.solve_module.BLOCK_ELEMENTS
        assert blocks == 4
        assert stiffness_sizes == [1] * (2 * blocks)  # two einsums per block
        # with the boundary masks, at most 9 distinct blocks per 256 elements
        assert len(inverse_sizes) == blocks and max(inverse_sizes) <= 9


class TestConvergenceSmoke:
    @pytest.mark.parametrize(
        "family,m,expect_l2,expect_h1",
        [(Family("ER"), 3, 4.0, 3.0), (Family("RPlus"), 2, 3.0, 2.0)],
    )
    def test_orders(self, family, m, expect_l2, expect_h1):
        u, gu, f = default_u()
        errs = []
        for n in (4, 8, 16):
            space = build_global_space(uniform_rect_mesh(n), family, m)
            x, _ = solve(assemble(space, f))
            errs.append(error_norms(space, x, u, gu))
        errs = np.array(errs)
        l2_orders = -np.diff(np.log2(errs[:, 0]))
        h1_orders = -np.diff(np.log2(errs[:, 1]))
        # preasymptotic overshoot on the coarse pairs is normal
        assert np.all(np.abs(l2_orders - expect_l2) < 0.4)
        assert np.all(np.abs(h1_orders - expect_h1) < 0.4)


def _bilinear_values(mesh, vertex_values, e, xh, yh):
    """Piecewise-bilinear function with the given vertex values, evaluated
    on element e at reference points."""
    corners = vertex_values[mesh.quads[e]]
    sx = np.array([-1.0, 1.0, 1.0, -1.0])
    sy = np.array([-1.0, -1.0, 1.0, 1.0])
    hats = (1 + np.outer(xh, sx)) * (1 + np.outer(yh, sy)) / 4.0
    return hats @ corners


class TestCoarseSpace:
    @pytest.mark.parametrize(
        "family,m",
        [(Family("R"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
    )
    def test_prolongation_in_relation_kernel(self, family, m):
        space = build_global_space(perturbed_mesh(8, seed=0), family, m)
        P = coarse_prolongation(space)
        assert P.shape == (space.n_free, space.mesh.n_interior_vertices)
        assert abs(space.constraints @ P).max() < 1e-13

    # explicit ids keep each case's test id stable when the list changes
    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("ER"), 3, id="family0-3-point"),
            pytest.param(Family("R"), 3, id="family2-3-point"),
            pytest.param(Family("RPlus"), 4, id="family3-4-point"),
        ],
    )
    def test_prolongation_reproduces_bilinears(self, family, m):
        mesh = perturbed_mesh(8, seed=2)
        space = build_global_space(mesh, family, m)
        P = coarse_prolongation(space)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(P.shape[1])
        vertex_values = np.zeros(len(mesh.vertices))
        vertex_values[~mesh.vertex_is_boundary] = v
        fe = FeFunction(space, P @ v)
        xh, yh = rng.uniform(-1, 1, (2, 5))
        for e in range(mesh.n_elements):
            got, _ = fe.evaluate(e, xh, yh)
            expect = _bilinear_values(mesh, vertex_values, e, xh, yh)
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_no_coarse_space(self):
        # m = 1 does not contain Q1; a single element has no interior vertex
        lowest = build_global_space(uniform_rect_mesh(4), Family("ER"), 1)
        single = build_global_space(uniform_rect_mesh(1), Family("ER"), 3)
        for space in (lowest, single):
            assert coarse_prolongation(space) is None
            assert assemble(space, lambda x, y: np.ones_like(x)).coarse is None

    @pytest.mark.parametrize(
        "family,m",
        [(Family("ER"), 3), (Family("RPlus"), 4), (Family("R", "tilde"), 5)],
    )
    def test_iterations_bounded_under_refinement(self, family, m):
        # flat in h, on uniform and perturbed meshes; with a Jacobi fine
        # level these took 61, 228 and 146 iterations at 32x32
        cap = {3: 36, 4: 100, 5: 70}[m]
        u, gu, f = default_u()
        for make_mesh in (uniform_rect_mesh, lambda n: perturbed_mesh(n, seed=0)):
            its = []
            for n in (16, 32):
                space = build_global_space(make_mesh(n), family, m)
                its.append(solve(assemble(space, f))[1].iterations)
            assert its[1] <= 1.3 * its[0]
            assert its[1] <= cap

    @pytest.mark.parametrize(
        "family,m,mesh",
        [
            (Family("RPlus"), 4, uniform_rect_mesh(16)),
            (Family("ER"), 3, perturbed_mesh(16, seed=0)),
        ],
    )
    def test_two_level_matches_sparse_kkt(self, family, m, mesh):
        u, gu, f = default_u()
        space = build_global_space(mesh, family, m)
        system = assemble(space, f)
        assert system.coarse is not None
        x, _ = solve(system)
        K = system.matrix
        if system.constraints is None:
            kkt, rhs = K, system.rhs
        else:
            C = system.constraints[:-1]
            kkt = sp.bmat([[K, C.T], [C, None]])
            rhs = np.concatenate([system.rhs, np.zeros(C.shape[0])])
        ref = spla.splu(kkt.tocsc()).solve(rhs)[: space.n_free]
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def _dense_schwarz(A, elements, r):
    """sum_e R_e^T (R_e A R_e^T)^{-1} R_e r, one element at a time."""
    A = A.toarray()
    z = np.zeros_like(r)
    for row in elements:
        dofs = row[row < len(r)]  # index len(r) is masked
        z[dofs] += np.linalg.solve(A[np.ix_(dofs, dofs)], r[dofs])
    return z


class TestPreconditioner:
    @pytest.mark.parametrize(
        "family,m,mesh",
        [
            (Family("ER"), 3, perturbed_mesh(4, seed=0)),
            (Family("RPlus"), 4, uniform_rect_mesh(4)),
        ],
        ids=["ER3-perturbed", "RPlus4"],
    )
    def test_element_blocks_match_dense_loop(self, family, m, mesh):
        space = build_global_space(mesh, family, m)
        system = assemble(space, lambda x, y: np.ones_like(x))
        assert np.any(system.elements == system.n)  # masked boundary dofs
        fine = _preconditioner(system.matrix, system.elements, None)
        rng = np.random.default_rng(7)
        for _ in range(3):
            r = rng.standard_normal(system.n)
            expect = _dense_schwarz(system.matrix, system.elements, r)
            assert np.max(np.abs(fine(r) - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_two_level_adds_coarse_correction(self):
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        system = assemble(space, lambda x, y: np.ones_like(x))
        A, P = system.matrix, system.coarse
        r = np.random.default_rng(8).standard_normal(system.n)
        coarse = P @ np.linalg.solve((P.T @ A @ P).toarray(), P.T @ r)
        expect = _dense_schwarz(A, system.elements, r) + coarse
        got = _preconditioner(A, system.elements, P)(r)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_without_element_table_is_jacobi(self):
        rng = np.random.default_rng(9)
        B = sp.random(30, 30, density=0.2, random_state=10)
        A = (B @ B.T + sp.diags(rng.uniform(1.0, 5.0, 30))).tocsr()
        r = rng.standard_normal(30)
        assert np.allclose(_preconditioner(A, None, None)(r), r / A.diagonal(),
                           rtol=1e-14, atol=0.0)


class TestEdgeOrientation:
    @pytest.mark.parametrize(
        "family,m", [(Family("ER"), 3), (Family("R"), 3), (Family("RPlus"), 4)],
        ids=["ER3", "R3", "RPlus4"],
    )
    def test_rotated_listing_gives_same_errors(self, family, m):
        """Every other quad listed from its last corner reverses the local
        parameter of some edges against their global orientation.  The
        shape spaces are invariant under a quarter turn (R~ is not), so the
        discrete solution, and its errors, must not change."""
        u, gu, f = default_u()
        norms = []
        for mesh in (uniform_rect_mesh(8), rotated_listing(uniform_rect_mesh(8))):
            space = build_global_space(mesh, family, m)
            x, _ = solve(assemble(space, f))
            norms.append(error_norms(space, x, u, gu))
        assert norms[1] == pytest.approx(norms[0], rel=1e-9, abs=0.0)


class TestHighOrder:
    @pytest.mark.parametrize(
        "config",
        [
            StudyConfig(family="er", m=9, levels=4, min_level=2),
            StudyConfig(family="r", variant="tilde", m=7, levels=5, min_level=2),
        ],
        ids=["ER9", "R~7"],
    )
    def test_study_converges_at_default_budget(self, config):
        rows = run_study(config)
        assert [r.level for r in rows] == list(range(2, config.levels + 1))

    def test_r7t_finest_iterations(self):
        # two-level Jacobi needed 1,603 iterations at level 5
        config = StudyConfig(family="r", variant="tilde", m=7, levels=5, min_level=5)
        assert run_study(config)[0].iterations <= 300
