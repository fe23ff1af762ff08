"""Tests for assembly, the CG solve, and error norms."""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from qncfem.cli import StudyConfig, StudyError, default_problem, run_study
from qncfem.mesh import (
    QuadMesh,
    bilinear_coefficients,
    bilinear_map,
    perturbed_mesh,
    refine,
    uniform_rect_mesh,
)
from qncfem.refelem import Family, gauss_grid
from qncfem.solve import (
    STALL_ITERATIONS,
    SolverError,
    SparseSystem,
    _block_inverses,
    _preconditioner,
    assemble,
    error_norms,
    solve,
)
from qncfem.space import FeFunction, build_global_space, prolong
from kkt_reference import LONG_DOUBLE_REASON, refined_solution
from schwarz_spy import assemble_with_operators
from test_space import rotated_listing


three_families = pytest.mark.parametrize(
    "family,m", [(Family("ER"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
    ids=["ER3", "R~5", "RPlus4"],
)


def default_u():
    u = lambda x, y: 16.0 * (x - x**6) * (y - y**2)
    gu = lambda x, y: (
        16.0 * (1 - 6 * x**5) * (y - y**2),
        16.0 * (x - x**6) * (1 - 2 * y),
    )
    f = lambda x, y: 16.0 * (30.0 * x**4 * (y - y**2) + 2.0 * (x - x**6))
    return u, gu, f


def jacobi(A):
    """The preconditioner of a hand-built system: every dof its own 1x1
    Schwarz block, A's diagonal, and no coarse space."""
    n = A.shape[0]
    return _preconditioner(n, np.arange(n)[:, None], A.diagonal()[:, None, None],
                           None, None, None, None)[0]


def element_matrices(space):
    """The local stiffness matrices over the retained dofs, (ne, k, k) in
    local dof order, from the element kernel of `assemble` run on every
    element's own Jacobian."""
    q = space.m + 3
    X, Y, _ = gauss_grid(q)
    _, jac = bilinear_map(space.mesh.corner_array(), X, Y)
    return sys.modules["qncfem.solve"]._stiffness_blocks(space, q, jac)


def coo_element_sum(local, index, n):
    """Reference for `_element_sum`: the n x n matrix sum_e R_e^T local[e]
    R_e as COO triplets with duplicates, where R_e maps local position j to
    row index[e, j] and drops it when that is n or more."""
    keep = (index[:, :, None] < n) & (index[:, None, :] < n)
    rows = np.broadcast_to(index[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(index[:, None, :], keep.shape)[keep]
    return sp.coo_matrix((local[keep], (rows, cols)), shape=(n, n))


def assert_same_bytes(got, want):
    """Two compressed sparse matrices hold the same data (with the sign of
    every zero), indices and indptr, in the same dtypes."""
    assert got.format == want.format and got.shape == want.shape
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def element_stiffness(mesh, e, family, m):
    """Local stiffness over the retained dofs of element e.  (`assemble`
    itself cannot serve on the one-element mesh of e without boundary
    conditions: its Schwarz block is all of K, which is singular.)"""
    return element_matrices(build_global_space(mesh, family, m))[e]


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
        mesh = perturbed_mesh(2, seed=0)
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
            perturbed_mesh(4, seed=1), Family("R"), 3
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

    @pytest.mark.parametrize(
        "family,m",
        [(Family("ER"), 3), (Family("R"), 1), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
        ids=["ER3", "R1", "R~5", "RPlus4"],
    )
    @pytest.mark.parametrize(
        "mesh,homogeneous",
        [(perturbed_mesh(8, seed=3), True), (rotated_listing(uniform_rect_mesh(8)), True),
         (uniform_rect_mesh(4), False), (uniform_rect_mesh(1), False)],
        ids=["perturbed8", "rotated8", "free-boundary4", "one-element"],
    )
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_matrix_is_coo_sum(self, monkeypatch, family, m, mesh, homogeneous, block):
        """K and the coarse matrix P^T K P are the duplicate-summing COO
        builds of the element matrices K_e and L^T K_e L byte for byte:
        data (with the sign of every zero), indices and indptr, and their
        dtypes.  A coarse row has up to four holders, a row of K two.
        Without boundary conditions the boundary dofs have one holder, and
        on one element every dof has; `_preconditioner` is stubbed, since
        the one element's block is singular for some families."""
        solve_module = sys.modules["qncfem.solve"]
        space = build_global_space(mesh, family, m, homogeneous=homogeneous)
        lf, n = space.local_free(), space.n_free
        Kloc = element_matrices(space)
        expect = coo_element_sum(Kloc, lf, n).tocsr()
        if block is not None:
            monkeypatch.setattr(solve_module, "BLOCK_ELEMENTS", block)
        seen = []
        monkeypatch.setattr(solve_module, "_preconditioner",
                            lambda *args: seen.append(args) or (None, None))
        K = assemble(space, lambda x, y: np.zeros_like(x)).matrix
        assert K.has_sorted_indices
        assert_same_bytes(K, expect)
        ((*_, coarse_matrix, _),) = seen
        mesh, q1 = space.mesh, space.ref.q1
        if mesh.n_interior_vertices == 0:
            assert coarse_matrix is None
            return
        n_coarse = mesh.n_interior_vertices
        index = np.full(len(mesh.vertices), n_coarse)
        index[~mesh.vertex_is_boundary] = np.arange(n_coarse)
        L = q1[space.ref.retained]
        assert_same_bytes(coarse_matrix,
                          coo_element_sum(L.T @ Kloc @ L, index[mesh.quads], n_coarse).tocsc())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "blocks-of-7"])
    def test_element_sum_is_coo_sum(self, monkeypatch, dtype, block):
        """`_element_sum` on a random table is the COO build byte for byte:
        rows with one to five holders (more than K or P^T K P has), entries
        masked at n and beyond, and holders of one row in different blocks."""
        solve_module = sys.modules["qncfem.solve"]
        if block is not None:
            monkeypatch.setattr(solve_module, "BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(7)
        n, k = 40, 6
        # every row d < n gets h_d holders, 1 to 5, among 60 elements of k
        # slots each; each element holds a row once, as a dof table does
        holders = np.repeat(np.arange(n), rng.integers(1, 6, size=n))
        index = np.full((60, k), n, dtype=dtype)
        for d in holders:
            open_slot = np.any(index >= n, axis=1) & ~np.any(index == d, axis=1)
            e = rng.choice(np.flatnonzero(open_slot))
            index[e, rng.choice(np.flatnonzero(index[e] >= n))] = d
        # the slots left empty are dropped, at n, n + 1 or n + 2
        index[index == n] = rng.integers(n, n + 3, size=np.count_nonzero(index == n))
        counts = np.bincount(index.ravel(), minlength=n + 3)[:n]
        assert counts.min() == 1 and counts.max() == 5
        local = rng.standard_normal((60, k, k))
        got = solve_module._element_sum(local, index, n)
        assert got.has_sorted_indices
        assert_same_bytes(got, coo_element_sum(local, index, n).tocsr())


class TestSolvers:
    def test_identity_system_one_iteration(self):
        n = 40
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        A = sp.identity(n, format="csr")
        x, report = solve(SparseSystem(A, b, jacobi(A)))
        assert report.iterations == 1
        assert np.max(np.abs(x - b)) < 1e-12

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((50, 50))
        A = A @ A.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        K = sp.csr_matrix(A)
        x, report = solve(SparseSystem(K, b, jacobi(K)))
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10
        assert report.relative_residual < 1e-11

    def test_zero_rhs(self):
        A = sp.identity(10, format="csr")
        x, report = solve(SparseSystem(A, np.zeros(10), jacobi(A)))
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
            solve(SparseSystem(A, b, jacobi(A)))
        assert err.value.report.iterations == 100

    @pytest.mark.parametrize("diagonal", [(1.0, 0.0), (1.0, -1.0)])
    def test_breakdown_raises(self, diagonal):
        # the singular matrix has a singular 1x1 block, and the indefinite
        # one reaches a direction with p.Ap <= 0; neither may escape as a
        # LinAlgError or ZeroDivisionError
        A = sp.diags(diagonal).tocsr()
        with pytest.raises(SolverError):
            solve(SparseSystem(A, np.ones(2), jacobi(A)))

    def test_stalled_residual_raises_before_budget(self):
        """A system with no solution: the 1-D Laplacian with free ends,
        whose null space holds the constants, and a load with a small
        constant part (1e-11 relative) that no x can match.  CG reaches its
        least residual near that part in about n iterations and sets no new
        one after; it raises STALL_ITERATIONS later, well inside its budget
        of 400 sqrt(n) = 4,000 iterations."""
        n = 100
        A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
        A[0, 0] = A[-1, -1] = 1.0
        A = A.tocsr()
        b = A @ np.sin(np.linspace(0.0, 3.0, n))
        b += 1e-11 * np.linalg.norm(b) / np.sqrt(n)
        with pytest.raises(SolverError, match="stalled") as err:
            solve(SparseSystem(A, b, jacobi(A)))
        iterations = err.value.report.iterations
        assert STALL_ITERATIONS < iterations < n + STALL_ITERATIONS

    def test_diverged_solution_raises(self):
        """ER1 without boundary conditions and f = 1: K is singular and
        b . 1 = 1, so no x solves K x = b.  The recursive residual still
        drifts below REL_TOL, while max|x| grows past 1e13 and the true
        residual is larger than that of x = 0."""
        space = build_global_space(uniform_rect_mesh(8), Family("ER"), 1, homogeneous=False)
        with pytest.raises(SolverError, match="^CG diverged: true residual") as err:
            solve(assemble(space, lambda x, y: np.ones_like(x)))
        assert not err.value.report.relative_residual < 1.0

    def test_singular_element_block_raises(self):
        # the first element's block [[1, 1], [1, 1]] is singular
        blocks = np.array([[[1.0, 1], [1, 1]], [[1, 0], [0, 1]]])
        with pytest.raises(SolverError, match="singular diagonal block"):
            _preconditioner(3, np.array([[0, 1], [2, 3]]), blocks, None, None, None, None)

    @pytest.mark.parametrize(
        "family,m",
        [(Family("ER"), 1), (Family("R"), 1), (Family("ER"), 3), (Family("R", "tilde"), 5),
         (Family("RPlus"), 4), (Family("ER"), 5)],
        ids=["ER1", "R1", "ER3", "R~5", "RPlus4", "ER5"],
    )
    def test_constant_null_vector_block_raises(self, family, m):
        """On one element without boundary conditions the only Schwarz
        block is K_e itself, which maps the constants (every dof a point
        value of 1) to zero: `assemble` raises, however LAPACK's pivots
        round."""
        space = build_global_space(uniform_rect_mesh(1), family, m, homogeneous=False)
        with pytest.raises(SolverError, match="singular diagonal block"):
            assemble(space, lambda x, y: np.ones_like(x))

    def test_indefinite_element_block_raises(self):
        """One entry of a Schwarz block's diagonal negated: the block is
        indefinite, keeps the constants out of its null space and has an
        inverse, but no Cholesky factor, and `_preconditioner` raises."""
        ops = assemble_with_operators(build_global_space(uniform_rect_mesh(4), Family("ER"), 3))[1]
        blocks = ops.blocks.copy()
        blocks[0, 0, 0] *= -1.0
        with pytest.raises(SolverError, match="singular diagonal block.*not positive definite"):
            _preconditioner(ops.n, ops.elements, blocks, ops.classes, None, None, None)

    @pytest.mark.parametrize(
        "precondition",
        [lambda r: np.zeros_like(r), lambda r: np.array([-r[1], r[0]])],
        ids=["zero", "orthogonal"],
    )
    def test_vanishing_rz_raises(self, precondition):
        # r.z = 0 exactly with r != 0: CG cannot continue and has not
        # converged; the orthogonal map used to divide 0 by 0
        system = SparseSystem(sp.diags([1.0, 2.0]).tocsr(), np.ones(2),
                              precondition=precondition)
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

    def test_singular_block_fails_study_with_earlier_rows(self, monkeypatch):
        # `assemble` builds the preconditioner, so a singular block raises
        # there; the study still ends in StudyError with its partial table
        solve_module = sys.modules["qncfem.solve"]
        real = solve_module._block_inverses
        calls = []

        def singular_at_level_4(blocks):
            calls.append(len(blocks))  # one call per level, from level 2
            return real(np.zeros_like(blocks) if len(calls) == 3 else blocks)

        monkeypatch.setattr(solve_module, "_block_inverses", singular_at_level_4)
        with pytest.raises(StudyError, match="level 4: singular diagonal block") as err:
            run_study(StudyConfig(family="er", m=3, levels=5, min_level=2))
        assert [row.level for row in err.value.rows] == [2, 3]

    def test_sum_constraint_analytic(self):
        """K = I with the constraint sum(x) = 0 projects b onto mean zero.
        The duplicated row stands in for the implied last element row that
        the projection always drops.  Each dof is an element with a 1x1
        Schwarz block, and the one kept relation weights it by 1, so the
        projection comes from `_preconditioner` as `assemble`'s does."""
        n = 30
        rng = np.random.default_rng(2)
        b = rng.standard_normal(n)
        row = np.ones((1, n))
        C = sp.csr_matrix(np.vstack([row, row]))
        A = sp.identity(n, format="csr")
        relations = (C[:-1], np.ones((n, 1, 1)), np.zeros((n, 1), dtype=np.int64))
        precondition, projection = _preconditioner(
            n, np.arange(n)[:, None], A.diagonal()[:, None, None], None, None, None, relations)
        system = SparseSystem(A, b, precondition, constraints=C, projection=projection)
        x, report = solve(system)
        assert np.max(np.abs(x - (b - b.mean()))) < 1e-11
        assert report.constraint_residual < 1e-11

    def test_constrained_matches_dense_kkt(self):
        """Full pipeline on the relation-carrying family against the
        refined reference from a dense KKT factor of the same matrices."""
        u, gu, f = default_u()
        space = build_global_space(uniform_rect_mesh(2), Family("R"), 3)
        system = assemble(space, f)
        x, _ = solve(system)
        ref = refined_solution(system, dense=True)
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

    @pytest.mark.parametrize("shape", [(-1, 1), (1, -1)], ids=["column", "row"])
    def test_rejects_x0_of_another_shape(self, shape):
        # an (n, 1) x0 made b - A x0 an n x n matrix and was dropped silently
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        system = assemble(space, default_u()[2])
        x0 = solve(system)[0].reshape(shape)
        with pytest.raises(ValueError, match=rf"expected x0 of shape \({system.n},\), "
                                             rf"got \({x0.shape[0]}, {x0.shape[1]}\)"):
            solve(system, x0)
        with pytest.raises(ValueError, match="expected x0 of shape"):
            solve(system, np.zeros(system.n + 1))

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
        system, ops = assemble_with_operators(space, f)
        K, G = system.matrix, ops.coarse_matrix
        inv = ops.element_inverses()
        raw = [a.tobytes() for a in (K.data, K.indices, K.indptr, system.rhs, inv,
                                     G.data, G.indices, G.indptr)]
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
        assert raw7 == raw  # K, b, the block inverses and the coarse matrix
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
        mesh and R~5 on a uniform 32x32 mesh, which has 9 distinct Schwarz
        blocks.  Each bound rules out one way to use more memory:
        `assemble` (ER3 +15.4 MB, R~5 +12.9 MB) with COO triplets for K
        or whole-mesh element temporaries; `solve` (+2.0 MB) with a
        preconditioner built from K instead of in `assemble`; a level from
        the start of `assemble` to the end of `solve`, less the K build
        (+8.4 MB), with one block inverse per element instead of one per
        distinct block; `error_norms` (+3.2 MB) with whole-mesh
        temporaries."""
        u, gu, f = default_u()
        space = build_global_space(perturbed_mesh(64, seed=0), Family("ER"), 3)
        coeffs = np.random.default_rng(5).standard_normal(space.n_free)
        system = assemble(space, f)
        uniform = build_global_space(uniform_rect_mesh(32), Family("R", "tilde"), 5)

        def assemble_then_solve():
            uniform_system = assemble(uniform, f)
            tracemalloc.reset_peak()  # the K build is bounded on ER3 above
            solve(uniform_system)

        for call, bound_mb in [(lambda: assemble(space, f), 18.0),
                               (lambda: solve(system), 4.0),
                               (assemble_then_solve, 9.5),
                               (lambda: assemble(uniform, f), 14.0),
                               (lambda: error_norms(space, coeffs, u, gu), 12.0)]:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 1e6


def moved_vertex_mesh(n):
    """`uniform_rect_mesh(n)` with one interior vertex moved: the elements
    around it get blocks of their own, the others share theirs."""
    mesh = uniform_rect_mesh(n)
    vertices = mesh.vertices.copy()
    vertices[(n + 1) * (n // 2) + n // 3] += [0.1 / n, 0.15 / n]
    return QuadMesh(vertices, mesh.quads)


class TestDistinctElements:
    """The stiffness matrices, the block inverses and the products of S =
    C~ F C~^T are computed once per distinct element; the results must be
    the bytes of the kernels run on every element."""

    solve_module = sys.modules["qncfem.solve"]

    def _kernels(self, space):
        system, ops = assemble_with_operators(space, default_u()[2])
        K, C = system.matrix, ops.coarse_matrix
        S = [] if ops.relations is None else relation_matrix(ops)
        return [a.tobytes() for a in (K.data, K.indices, K.indptr, system.rhs, C.data,
                                      ops.element_blocks, ops.element_inverses(), *S)]

    @staticmethod
    def _map_key(space):
        """The rows the map classes are keyed by: (c1, c2, c3) per element."""
        c = bilinear_coefficients(space.mesh.corner_array())
        return np.concatenate([a.T for a in c[1:]], axis=1)

    @three_families
    @pytest.mark.parametrize(
        "mesh,groups",
        [(uniform_rect_mesh(8), 1), (rotated_listing(uniform_rect_mesh(8)), 2),
         (perturbed_mesh(8, seed=3), None)],
        ids=["uniform8", "rotated8", "perturbed8"],
    )
    def test_matches_every_element(self, monkeypatch, family, m, mesh, groups):
        space = build_global_space(mesh, family, m)
        found = self.solve_module._distinct_rows(self._map_key(space))
        assert (found and len(found[0])) == groups  # distinct Jacobians
        grouped = self._kernels(space)
        monkeypatch.setattr(self.solve_module, "_distinct_rows", lambda rows: None)
        assert grouped == self._kernels(space)

    @three_families
    def test_forced_projection_collision_is_exact(self, monkeypatch, family, m):
        uniform = build_global_space(uniform_rect_mesh(8), family, m)
        rotated = build_global_space(rotated_listing(uniform_rect_mesh(8)), family, m)
        expect = [self._kernels(space) for space in (uniform, rotated)]
        monkeypatch.setattr(self.solve_module, "_projection",
                            lambda width: np.zeros(width, dtype=np.uint64))
        # every key collides: equal rows still group, different rows do not
        assert len(self.solve_module._distinct_rows(self._map_key(uniform))[0]) == 1
        assert self.solve_module._distinct_rows(self._map_key(rotated)) is None
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
        matmul, cholesky = np.matmul, np.linalg.cholesky
        matmul_sizes, factor_sizes = [], []

        def counting_matmul(a, b, **kwargs):
            matmul_sizes.append(len(a))
            return matmul(a, b, **kwargs)

        def counting_cholesky(a):
            factor_sizes.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        assemble(space, default_u()[2])
        assert space.mesh.n_elements > self.solve_module.BLOCK_ELEMENTS
        k = space.ref.n_retained
        # the stiffness kernel's two products once for the mesh's one
        # Jacobian, then once per block class (the boundary masks make 9
        # block classes, 9 distinct Schwarz blocks): one Cholesky factor,
        # a product per row of its inverse X and X^T X, then the relation
        # blocks B_e^{-1} G_e and S's terms G_e^T B_e^{-1} G_e
        assert matmul_sizes == [1, 1] + [9] * (k + 1) + [9, 9]
        assert factor_sizes == [9]


four_families = pytest.mark.parametrize(
    "family,m",
    [(Family("ER"), 3), (Family("R"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
    ids=["ER3", "R3", "R~5", "RPlus4"],
)


def first_appearance(group):
    """The labels of group renumbered in order of first appearance, so that
    two groupings of the same partition compare equal."""
    _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


class TestElementClasses:
    """`assemble` keys the elements by their inputs: the map classes by
    (c1, c2, c3), the block classes by the map class and, per dof, the
    other holder's map class and local position.  With the classes forced
    off (every element its own), every result must keep its bytes."""

    solve_module = sys.modules["qncfem.solve"]

    def _results(self, space):
        system, ops = assemble_with_operators(space, default_u()[2])
        K, C = system.matrix, ops.coarse_matrix
        inv, group = inverse_groups(ops)
        r = np.sin(np.arange(system.n) + 1.0)
        applies = [system.precondition(r)]
        if system.projection is not None:
            applies.append(system.projection.residual(r))
        return ([a.tobytes() for a in (K.data, K.indices, K.indptr, system.rhs, C.data,
                                       C.indices, C.indptr, ops.element_inverses(), *applies)],
                len(inv), None if group is None else first_appearance(group).tolist())

    @four_families
    @pytest.mark.parametrize(
        "mesh,maps,blocks",
        [(uniform_rect_mesh(8), 1, 9), (rotated_listing(uniform_rect_mesh(8)), 2, 12),
         (moved_vertex_mesh(16), 5, 21), (perturbed_mesh(8, seed=3), None, None)],
        ids=["uniform8", "rotated8", "moved-vertex16", "perturbed8"],
    )
    def test_matches_classes_forced_off(self, monkeypatch, family, m, mesh, maps, blocks):
        space = build_global_space(mesh, family, m)
        first = self.solve_module._map_classes(space).first
        assert (None if first is None else len(first)) == maps
        ops = assemble_with_operators(space)[1]
        assert (None if ops.classes is None else len(ops.blocks)) == blocks
        grouped = self._results(space)
        # the block inverses still group by their bytes
        monkeypatch.setattr(self.solve_module, "_classes", lambda key: None)
        assert self._results(space) == grouped

    @four_families
    @pytest.mark.parametrize(
        "mesh",
        [uniform_rect_mesh(8), rotated_listing(uniform_rect_mesh(8)), moved_vertex_mesh(16),
         perturbed_mesh(8, seed=3)],
        ids=["uniform8", "rotated8", "moved-vertex16", "perturbed8"],
    )
    def test_block_inverses_are_symmetric(self, family, m, mesh):
        """Each block's inverse is symmetric byte for byte, and within
        1e-13 of `np.linalg.inv` relative to its largest entry."""
        ops = assemble_with_operators(build_global_space(mesh, family, m))[1]
        inv = ops.element_inverses()
        assert inv.tobytes() == np.ascontiguousarray(inv.transpose(0, 2, 1)).tobytes()
        expect = np.linalg.inv(ops.element_blocks)
        error = np.max(np.abs(inv - expect), axis=(1, 2)) / np.max(np.abs(expect), axis=(1, 2))
        assert np.max(error) <= 1e-13

    @four_families
    def test_uniform_mesh_runs_one_kernel_and_nine_inverses(self, monkeypatch, family, m):
        space = build_global_space(uniform_rect_mesh(32), family, m)
        kernel_rows, block_counts = [], []
        stiffness, inverses = (self.solve_module._stiffness_blocks,
                               self.solve_module._block_inverses)

        def counting_stiffness(space, q, jac):
            kernel_rows.append(len(jac[0]))
            return stiffness(space, q, jac)

        def counting_inverses(blocks):
            block_counts.append(len(blocks))
            inv, group = inverses(blocks)
            block_counts.append(len(inv))
            return inv, group

        monkeypatch.setattr(self.solve_module, "_stiffness_blocks", counting_stiffness)
        monkeypatch.setattr(self.solve_module, "_block_inverses", counting_inverses)
        assemble(space, default_u()[2])
        assert kernel_rows == [1]
        assert block_counts == [9, 9]


def sampled_blocks(A, elements):
    """Reference for `assemble`'s element blocks: the diagonal blocks of the
    assembled A over each row of `elements`, sampled from A, with identity
    rows and columns where an entry is masked (index n)."""
    n = A.shape[0]
    keep = (elements[:, :, None] < n) & (elements[:, None, :] < n)
    rows = np.broadcast_to(elements[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(elements[:, None, :], keep.shape)[keep]
    blocks = np.zeros(keep.shape)
    blocks[keep] = np.asarray(A[rows, cols]).ravel()
    e, j = np.nonzero(elements == n)
    blocks[e, j, j] = 1.0
    return blocks


def first_holder_prolongation(space):
    """Reference for `assemble`'s coarse prolongation: every free dof's row
    of P from the first element that lists it, found by sorting every local
    dof, with the interior vertices numbered in vertex order."""
    mesh, local = space.mesh, space.ref.q1
    n_coarse = mesh.n_interior_vertices
    number = np.full(len(mesh.vertices), n_coarse, dtype=np.int64)
    number[~mesh.vertex_is_boundary] = np.arange(n_coarse)
    index = number[mesh.quads]
    dofs, first = np.unique(space.dofs, return_index=True)
    free = dofs < space.n_free
    rows = dofs[free]
    e, j = np.unravel_index(first[free], space.dofs.shape)
    cols = index[e]  # (k, 4)
    vals = local[j]
    keep = (cols < n_coarse) & (vals != 0.0)
    rows = np.broadcast_to(rows[:, None], cols.shape)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(space.n_free, n_coarse)
    )


class TestOperatorsFromElementMatrices:
    """`assemble` builds the Schwarz blocks and the coarse matrix from the
    element matrices, and P from the dof table; they must be those of the
    assembled K, and P the first-holder build's bytes."""

    cases = pytest.mark.parametrize(
        "family,m",
        [(Family("ER"), 3), (Family("R"), 3), (Family("R", "tilde"), 5),
         (Family("RPlus"), 4), (Family("RPlus"), 6)],
        ids=["ER3", "R3", "R~5", "RPlus4", "RPlus6"],
    )
    meshes = pytest.mark.parametrize(
        "mesh",
        [uniform_rect_mesh(8), perturbed_mesh(8, seed=3),
         rotated_listing(uniform_rect_mesh(8))],
        ids=["uniform8", "perturbed8", "rotated8"],
    )

    @cases
    @meshes
    def test_block_inverses_match_sampled_blocks(self, family, m, mesh):
        system, ops = assemble_with_operators(build_global_space(mesh, family, m))
        expect = sampled_blocks(system.matrix, ops.elements)
        assert np.array_equal(ops.element_blocks, expect)
        inv, group = _block_inverses(expect.copy())
        assert (ops.element_inverses().tobytes()
                == (inv if group is None else inv[group]).tobytes())

    @cases
    @meshes
    def test_prolongation_matches_first_holder(self, family, m, mesh):
        space = build_global_space(mesh, family, m)
        P = assemble_with_operators(space)[1].coarse
        expect = first_holder_prolongation(space)
        for got, want in ((P.data, expect.data), (P.indices, expect.indices),
                          (P.indptr, expect.indptr)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @cases
    @pytest.mark.parametrize(
        "mesh,homogeneous",
        [(uniform_rect_mesh(8), True), (perturbed_mesh(8, seed=3), True),
         (rotated_listing(uniform_rect_mesh(8)), True), (uniform_rect_mesh(4), False)],
        ids=["uniform8", "perturbed8", "rotated8", "free-boundary4"],
    )
    def test_relation_blocks_match_sampled_constraints(self, family, m, mesh, homogeneous):
        """G_e, built from the dof table and the reference weights, is the
        columns of C~^T that touch element e, sampled from C, byte for byte;
        every other column of C~^T is zero on e's dofs."""
        space = build_global_space(mesh, family, m, homogeneous=homogeneous)
        ops = assemble_with_operators(space)[1]
        if space.constraints is None:
            assert ops.relations is None
            return
        Ct, G, index = ops.element_relations
        assert_same_bytes(Ct, space.constraints[:-1].tocsr())
        expect = sampled_relations(space.constraints, ops.elements)
        e, c = np.nonzero(index < Ct.shape[0])
        got = np.zeros_like(expect)
        got[e, :, index[e, c]] = G[e, :, c]  # (e, relation) pairs are distinct
        assert np.array_equal(got, expect)

    @cases
    @meshes
    def test_coarse_matrix_is_galerkin_product(self, family, m, mesh):
        system, ops = assemble_with_operators(build_global_space(mesh, family, m))
        P, G = ops.coarse, ops.coarse_matrix
        expect = (P.T @ system.matrix @ P).tocsc()
        expect.sort_indices()
        assert G.has_sorted_indices
        assert np.array_equal(G.indptr, expect.indptr)
        assert np.array_equal(G.indices, expect.indices)
        assert np.max(np.abs(G.data - expect.data)) <= 1e-12 * np.max(np.abs(expect.data))


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
    # explicit ids keep each case's test id stable when the list changes
    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("R"), 3, id="family0-3"),
            pytest.param(Family("R", "tilde"), 5, id="family1-5"),
            pytest.param(Family("RPlus"), 4, id="family2-4"),
            pytest.param(Family("R"), 1, id="R1"),
        ],
    )
    def test_prolongation_in_relation_kernel(self, family, m):
        space = build_global_space(perturbed_mesh(8, seed=0), family, m)
        P = assemble_with_operators(space)[1].coarse
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
        # m >= 2 only: there P v is the bilinear itself, but at m = 1 it is
        # the bilinear's interpolant, which agrees only at the dof points
        mesh = perturbed_mesh(8, seed=2)
        space = build_global_space(mesh, family, m)
        P = assemble_with_operators(space)[1].coarse
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

    @pytest.mark.parametrize("family", [Family("ER"), Family("R")], ids=["ER1", "R1"])
    @pytest.mark.parametrize("mesh", [uniform_rect_mesh(8), perturbed_mesh(8, seed=3)],
                             ids=["uniform8", "perturbed8"])
    def test_interpolant_coarse_matrix_is_galerkin_product(self, family, mesh):
        # at m = 1 P v is the bilinear's interpolant; both holders of an
        # edge dof give it one value, so the element sum of L^T K_e L is
        # P^T K P (by value: on a uniform mesh some of its entries cancel)
        system, ops = assemble_with_operators(build_global_space(mesh, family, 1))
        expect = (ops.coarse.T @ system.matrix @ ops.coarse).toarray()
        got = ops.coarse_matrix.toarray()
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_no_coarse_space(self):
        # a single element has no interior vertex
        single = build_global_space(uniform_rect_mesh(1), Family("ER"), 3)
        ops = assemble_with_operators(single)[1]
        assert ops.coarse is None and ops.coarse_matrix is None

    @pytest.mark.parametrize(
        "family,m",
        [
            pytest.param(Family("ER"), 3, id="family0-3"),
            pytest.param(Family("RPlus"), 4, id="family1-4"),
            pytest.param(Family("R", "tilde"), 5, id="family2-5"),
            pytest.param(Family("ER"), 1, id="ER1"),
            pytest.param(Family("R"), 1, id="R1"),
        ],
    )
    def test_iterations_bounded_under_refinement(self, family, m):
        # flat in h, on uniform and perturbed meshes; with a Jacobi fine
        # level ER3, RPlus4 and R~5 took 61, 228 and 146 iterations at
        # 32x32, and ER1 and R1 with the element blocks alone took 83 and 88
        cap = {1: 30, 3: 36, 4: 100, 5: 70}[m]
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
        system, ops = assemble_with_operators(space, f)
        assert ops.coarse is not None
        x, _ = solve(system)
        ref = refined_solution(system)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


class TestRefinedReference:
    @pytest.mark.skipif(LONG_DOUBLE_REASON is not None, reason=str(LONG_DOUBLE_REASON))
    @pytest.mark.parametrize(
        "family,m", [(Family("R", "tilde"), 5), (Family("ER"), 5)], ids=["R~5", "ER5"])
    def test_sparse_and_dense_agree(self, family, m):
        """At 752 dofs (`cli.TABLES` level 4) the refined SuperLU and dense
        LAPACK solutions agree to an ulp or two per entry, within 1e-15
        relative, where the unrefined ones differ by 2e-14 to 5e-14 and give
        L2 errors 3e-10 to 4e-10 apart."""
        _, _, f = default_problem()
        space = build_global_space(uniform_rect_mesh(8), family, m)
        assert space.n_free == 752
        system = assemble(space, f)
        sparse, dense = refined_solution(system), refined_solution(system, dense=True)
        assert np.linalg.norm(sparse - dense) <= 1e-15 * np.linalg.norm(dense)


def _dense_schwarz(A, elements, r):
    """sum_e R_e^T (R_e A R_e^T)^{-1} R_e r, one element at a time."""
    z = np.zeros_like(r)
    for row in elements:
        dofs = row[row < len(r)]  # index len(r) is masked
        z[dofs] += np.linalg.solve(A[dofs][:, dofs].toarray(), r[dofs])
    return z


def inverse_groups(ops):
    """(inv, group): the distinct inverses `_preconditioner` forms from the
    recorded operators, from a copy of their blocks, which it would
    otherwise overwrite, and the row of inv of each element, or None when
    each has its own."""
    inv, group = _block_inverses(ops.blocks.copy())
    return inv, sys.modules["qncfem.solve"]._compose(group, ops.classes)


def relation_matrix(ops):
    """The CSR arrays of S and the relation blocks H of every element, from
    `_relation_matrix` over the recorded operators."""
    S, H = ops.relation_blocks()
    return S.data, S.indices, S.indptr, H


def sampled_relations(C, elements):
    """Reference for `_relations`' G: the dense (ne, k, ne - 1) columns of
    C~^T = C[:-1]^T on each element's retained free dofs, sampled from C,
    zero where masked."""
    Ct = np.vstack([C[:-1].toarray().T, np.zeros(C.shape[0] - 1)])  # row n reads 0
    return Ct[elements]


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
        system, ops, fine = self._fine(family, m, mesh)
        assert np.any(ops.elements == system.n)  # masked boundary dofs
        rng = np.random.default_rng(7)
        for _ in range(3):
            r = rng.standard_normal(system.n)
            expect = _dense_schwarz(system.matrix, ops.elements, r)
            assert np.max(np.abs(fine(r) - expect)) <= 1e-12 * np.max(np.abs(expect))

    @staticmethod
    def _fine(family, m, mesh):
        """(system, operators, the fine Schwarz level alone), built from a
        copy of the blocks, which the preconditioner inverts in place."""
        system, ops = assemble_with_operators(build_global_space(mesh, family, m))
        return system, ops, _preconditioner(ops.n, ops.elements, ops.blocks.copy(),
                                            ops.classes, None, None, None)[0]

    @three_families
    @pytest.mark.parametrize(
        "mesh,singles",
        [(uniform_rect_mesh(16), 4), (rotated_listing(uniform_rect_mesh(16)), 4),
         (moved_vertex_mesh(16), 16)],
        ids=["uniform16", "rotated16", "moved-vertex16"],
    )
    def test_shared_blocks_match_dense_loop(self, family, m, mesh, singles):
        system, ops, fine = self._fine(family, m, mesh)
        sizes = np.bincount(inverse_groups(ops)[1])
        # blocks shared by enough elements for one product per block, and
        # blocks of one element: the corners, and on the moved-vertex mesh
        # the elements around the vertex and their neighbours
        assert np.max(sizes) >= sys.modules["qncfem.solve"].GEMM_GROUP
        assert np.sum(sizes == 1) == singles
        r = np.random.default_rng(12).standard_normal(system.n)
        expect = _dense_schwarz(system.matrix, ops.elements, r)
        assert np.max(np.abs(fine(r) - expect)) <= 1e-12 * np.max(np.abs(expect))

    @three_families
    def test_distinct_blocks_keep_stacked_product(self, family, m):
        system, ops, fine = self._fine(family, m, perturbed_mesh(8, seed=3))
        assert inverse_groups(ops)[1] is None  # no block repeats
        r = np.random.default_rng(13).standard_normal(system.n)
        x = np.append(r, 0.0)[ops.elements][:, None, :]
        z = np.matmul(x, _block_inverses(ops.element_blocks.copy())[0])
        expect = np.bincount(ops.elements.ravel(), weights=z.ravel(),
                             minlength=system.n + 1)[:system.n]
        assert fine(r).tobytes() == expect.tobytes()

    def test_two_level_adds_coarse_correction(self):
        space = build_global_space(uniform_rect_mesh(4), Family("ER"), 3)
        system, ops = assemble_with_operators(space)
        A, P = system.matrix, ops.coarse
        r = np.random.default_rng(8).standard_normal(system.n)
        coarse = P @ np.linalg.solve((P.T @ A @ P).toarray(), P.T @ r)
        expect = _dense_schwarz(A, ops.elements, r) + coarse
        got = system.precondition(r)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_without_element_table_is_jacobi(self):
        rng = np.random.default_rng(9)
        B = sp.random(30, 30, density=0.2, random_state=10)
        A = (B @ B.T + sp.diags(rng.uniform(1.0, 5.0, 30))).tocsr()
        r = rng.standard_normal(30)
        assert np.allclose(jacobi(A)(r), r / A.diagonal(), rtol=1e-14, atol=0.0)


class TestConstraintPreconditioner:
    """The projection of the relation families is oblique to the fine
    Schwarz level F: Pi_F v = v - C~^T S^{-1} C~ F v with S = C~ F C~^T.
    Since the coarse space lies in ker(C), M^{-1} Pi_F is symmetric, maps
    into ker(C) and vanishes on range(C~^T), so CG needs no projection of
    the preconditioned residual.  C~ F and F C~^T are applied through the
    relation blocks H_e = G_e^T B_e^{-1}, with no apply of F."""

    families = pytest.mark.parametrize(
        "family,m",
        [(Family("R"), 1), (Family("R"), 3), (Family("R", "tilde"), 5), (Family("RPlus"), 4)],
        ids=["R1", "R3", "R~5", "RPlus4"],
    )
    meshes = pytest.mark.parametrize(
        "mesh", [uniform_rect_mesh(4), perturbed_mesh(8, seed=3)],
        ids=["uniform4", "perturbed8"],
    )

    @staticmethod
    def _dense(family, m, mesh):
        """(system, C, Pi_F, its transpose as applied to x0, M^{-1} Pi_F),
        dense, column by column."""
        space = build_global_space(mesh, family, m)
        system = assemble(space, default_u()[2])
        apply = lambda fn, V: np.column_stack([fn(v) for v in V.T])
        identity = np.eye(system.n)
        residual = apply(system.projection.residual, identity)
        return (system, space.constraints.toarray(), residual,
                apply(system.projection.iterate, identity),
                apply(system.precondition, residual))

    @families
    @meshes
    def test_preconditioned_projection_is_symmetric(self, family, m, mesh):
        *_, MPi = self._dense(family, m, mesh)
        assert np.max(np.abs(MPi - MPi.T)) <= 1e-12 * np.max(np.abs(MPi))

    @families
    @meshes
    def test_maps_into_kernel_and_vanishes_on_relation_range(self, family, m, mesh):
        system, C, _, _, MPi = self._dense(family, m, mesh)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(system.n)
        z = MPi @ v
        assert np.linalg.norm(C @ z) <= 1e-12 * np.linalg.norm(C) * np.linalg.norm(z)
        # against M^{-1} itself on the same vector, which does not vanish
        Cty = C[:-1].T @ rng.standard_normal(C.shape[0] - 1)
        scale = np.linalg.norm(system.precondition(Cty))
        assert np.linalg.norm(MPi @ Cty) <= 1e-12 * scale

    @families
    @meshes
    def test_projection_is_idempotent_and_transposed_for_x0(self, family, m, mesh):
        system, C, Pi, PiT, _ = self._dense(family, m, mesh)
        scale = np.max(np.abs(Pi))
        assert np.max(np.abs(Pi @ Pi - Pi)) <= 1e-12 * scale
        assert np.max(np.abs(PiT - Pi.T)) <= 1e-12 * scale
        # the transpose maps any x0 into ker(C)
        assert np.max(np.abs(C @ PiT)) <= 1e-12 * np.max(np.abs(PiT))

    @staticmethod
    def _element_operators(monkeypatch, space):
        """(C~, F, v -> H v, y -> H^T y): the element operators that
        `_preconditioner` builds for `assemble(space, f)`, read by a spy on
        `_element_operator`.  H v has one entry per row of C~, and F reads
        and writes through the same table."""
        solve_module = sys.modules["qncfem.solve"]
        real, built = solve_module._element_operator, []

        def spy(n, gather, scatter, matrices, group):
            apply = real(n, gather, scatter, matrices, group)
            built.append((n, gather is scatter, apply))
            return apply

        monkeypatch.setattr(solve_module, "_element_operator", spy)
        assemble(space, default_u()[2])
        Ct = space.constraints[:-1].tocsr()
        (fine,) = (a for n, same, a in built if same)
        (relation,) = (a for n, same, a in built if n == Ct.shape[0])
        (transposed,) = (a for n, same, a in built if n == space.n_free and not same)
        return Ct, fine, relation, transposed

    @families
    @pytest.mark.parametrize(
        "mesh,homogeneous",
        [(uniform_rect_mesh(4), True), (perturbed_mesh(8, seed=3), True),
         (rotated_listing(uniform_rect_mesh(8)), True), (uniform_rect_mesh(4), False)],
        ids=["uniform4", "perturbed8", "rotated8", "free-boundary4"],
    )
    def test_relation_blocks_apply_relations_times_fine_level(
            self, monkeypatch, family, m, mesh, homogeneous):
        """H v equals C~ (F v), and H^T y equals F (C~^T y), to rounding."""
        space = build_global_space(mesh, family, m, homogeneous=homogeneous)
        Ct, fine, relation, transposed = self._element_operators(monkeypatch, space)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(space.n_free)
        y = rng.standard_normal(Ct.shape[0])
        for got, want in ((relation(v), Ct @ fine(v)), (transposed(y), fine(Ct.T @ y))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "family,m,mesh",
        [(Family("RPlus"), 4, uniform_rect_mesh(16)),
         (Family("R", "tilde"), 5, perturbed_mesh(8, seed=3))],
        ids=["RPlus4-uniform16", "R~5-perturbed8"],
    )
    def test_one_fine_apply_per_iteration(self, monkeypatch, family, m, mesh):
        """A cold solve applies the fine level once per CG iteration, in
        M^{-1}, and once for the first direction; the projection applies it
        no more.  An apply of F is counted by its products, the np.matmul
        calls by a (k x k) block inverse, k being the retained dofs."""
        system, ops = assemble_with_operators(build_global_space(mesh, family, m),
                                              default_u()[2])
        k = ops.elements.shape[1]
        matmul, calls = np.matmul, []

        def counting_matmul(a, b, **kwargs):
            calls.append(np.shape(b)[-2:] == (k, k))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        system.precondition(np.ones(system.n))
        per_apply = sum(calls)
        assert per_apply >= 1
        calls.clear()
        _, report = solve(system)
        assert report.iterations > 10
        assert sum(calls) == per_apply * (report.iterations + 1)

    @pytest.mark.parametrize(
        "family,m", [(Family("RPlus"), 4), (Family("R", "tilde"), 5)], ids=["RPlus4", "R~5"])
    def test_cold_iterations_at_32(self, family, m):
        # the Euclidean projection took 89 (RPlus4) and 63 (R~5) iterations
        space = build_global_space(uniform_rect_mesh(32), family, m)
        _, report = solve(assemble(space, default_u()[2]))
        assert report.iterations <= 50

    @pytest.mark.parametrize("family,m", [(Family("RPlus"), 2), (Family("R"), 1)],
                             ids=["RPlus2", "R1"])
    def test_cold_converges_at_128(self, family, m):
        # with the Euclidean projection CG raised SolverError after 1,851
        # iterations on RPlus2 (ROADMAP item 1); projecting A p alone in
        # place of the updated residual, R1 broke down at 1.7e-13
        space = build_global_space(uniform_rect_mesh(128), family, m)
        _, report = solve(assemble(space, default_u()[2]))
        assert report.relative_residual < 1e-10
        assert report.constraint_residual < 1e-12


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
