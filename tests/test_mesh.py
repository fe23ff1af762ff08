"""Tests for quadrilateral meshes, bilinear geometry, and mesh I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_identities import edge_elements
from qncfem.mesh import (
    LOCAL_EDGES,
    MeshError,
    QuadMesh,
    _match_points,
    bilinear_map,
    refine,
    refined_children,
    load_mesh,
    perturbed_mesh,
    save_mesh,
    uniform_rect_mesh,
)
from qncfem.refelem import EDGE_PARAM_POINT, gauss_rule

UNIT_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def one_element(corners):
    """A one-element mesh over the corners A1..A4."""
    return QuadMesh(corners, [[0, 1, 2, 3]])


def element_map(corners, xh, yh):
    """(images, Jacobian entries) of the bilinear map of a one-element mesh."""
    mesh = one_element(corners)
    return bilinear_map(mesh.vertices[mesh.quads[0]], xh, yh)


class TestGeomMap:
    """The bilinear element map, on one-element meshes."""

    def test_corner_mapping(self):
        assert element_map(UNIT_CORNERS, -1.0, -1.0)[0] == (0.0, 0.0)
        assert element_map(UNIT_CORNERS, 1.0, 1.0)[0] == (1.0, 1.0)

    def test_center(self):
        assert element_map(UNIT_CORNERS, 0.0, 0.0)[0] == (0.5, 0.5)

    def test_general_quad_corner(self):
        assert element_map([[0, 0], [2, 0], [3, 2], [0, 1]], 1.0, 1.0)[0] == (3.0, 2.0)

    def test_jacobian_affine(self):
        _, (j11, j12, j21, j22, det) = element_map(UNIT_CORNERS, 0.3, -0.2)
        assert np.allclose([[j11, j12], [j21, j22]], np.diag([0.5, 0.5]))
        assert det == pytest.approx(0.25)

    def test_jacobian_parallelogram(self):
        corners = [[0, 0], [2, 0], [3, 1], [1, 1]]
        _, jac1 = element_map(corners, -0.5, 0.7)
        _, jac2 = element_map(corners, 0.9, -0.1)
        assert np.allclose(jac1[:4], jac2[:4])  # affine map, constant Jacobian
        assert jac1[4] == pytest.approx(0.5)

    def test_jacobian_finite_difference(self):
        corners = [[0, 0], [1, 0], [1.2, 1], [0, 1]]
        F = lambda xh, yh: np.array(element_map(corners, xh, yh)[0])
        h = 1e-6
        for (xh, yh) in [(0.0, 0.0), (0.4, -0.3), (-0.8, 0.6)]:
            j11, j12, j21, j22, _ = element_map(corners, xh, yh)[1]
            fx = (F(xh + h, yh) - F(xh - h, yh)) / (2 * h)
            fy = (F(xh, yh + h) - F(xh, yh - h)) / (2 * h)
            assert np.allclose([j11, j21], fx, atol=1e-6)
            assert np.allclose([j12, j22], fy, atol=1e-6)

    @staticmethod
    def defect_and_bilinear_term(corners):
        """The distance between the midpoints of the diagonals, and twice
        the length of the x^ y^ coefficient of the map (half the change of
        dF/dx^ from y^ = -1 to y^ = 1)."""
        a1, a2, a3, a4 = np.asarray(corners, dtype=float)
        _, (j11, _, j21, _, _) = element_map(corners, np.zeros(2), np.array([-1, 1]))
        term = np.array([j11[1] - j11[0], j21[1] - j21[0]]) / 2.0
        defect = np.linalg.norm((a1 + a3) / 2 - (a2 + a4) / 2)
        return defect, 2 * np.linalg.norm(term)

    def test_bisection_defect_parallelogram(self):
        corners = [[0, 0], [2, 0], [3, 1], [1, 1]]
        assert self.defect_and_bilinear_term(corners) == (0.0, 0.0)

    def test_bisection_defect_value(self):
        # midpoints (0.5, 0.5) and (0.5, 1.0): distance 0.5
        corners = [[0, 0], [1, 0], [1, 1], [0, 2]]
        defect, term = self.defect_and_bilinear_term(corners)
        assert defect == term == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.05, 1.5), min_size=4, max_size=4),
        st.floats(0.1, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_det_is_interpolant_of_corner_crosses(self, offsets, r, x0, y0):
        """det J of a bilinear map is affine on the square, so the corner
        cross products decide its sign everywhere."""
        angles = np.arange(4) * np.pi / 2 + np.array(offsets)
        A = np.column_stack([x0 + r * np.cos(angles), y0 + r * np.sin(angles)])
        a = np.roll(A, -1, axis=0) - A  # A_{c+1} - A_c
        b = np.roll(A, 1, axis=0) - A  # A_{c-1} - A_c
        corner = (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) / 4.0
        s = np.linspace(-1.0, 1.0, 5)
        X, Y = np.meshgrid(s, s)
        det = element_map(A, X, Y)[1][4]
        interp = sum(
            d * (1 + sx * X) * (1 + sy * Y) / 4.0
            for d, (sx, sy) in zip(corner, ((-1, -1), (1, -1), (1, 1), (-1, 1)))
        )
        assert np.max(np.abs(det - interp)) < 1e-13
        assert np.max(np.abs(det[[0, 0, -1, -1], [0, -1, -1, 0]] - corner)) < 1e-13


class TestUniformMesh:
    def test_single_element(self):
        mesh = uniform_rect_mesh(1)
        assert mesh.n_elements == 1
        assert len(mesh.vertices) == 4
        assert int(mesh.edge_is_boundary.sum()) == 4
        assert mesh.n_interior_edges == 0

    def test_two_by_two_counts(self):
        mesh = uniform_rect_mesh(2)
        assert mesh.n_elements == 4
        assert mesh.n_interior_vertices == 1
        assert mesh.n_interior_edges == 4
        assert int(mesh.edge_is_boundary.sum()) == 8

    def test_four_by_four_counts(self):
        mesh = uniform_rect_mesh(4)
        assert mesh.n_elements == 16
        assert mesh.n_interior_vertices == 9
        assert mesh.n_interior_edges == 24

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_euler_identities(self, n):
        mesh = uniform_rect_mesh(n)
        assert 4 * mesh.n_elements == 2 * mesh.n_interior_edges + int(mesh.edge_is_boundary.sum())
        assert (
            2 * mesh.n_elements
            == 2 * mesh.n_interior_vertices + mesh.n_boundary_vertices - 2
        )

    def test_invalid_subdivision(self):
        with pytest.raises(ValueError):
            uniform_rect_mesh(0)

    def test_ccw_validation(self):
        with pytest.raises(MeshError):
            QuadMesh(UNIT_CORNERS, np.array([[0, 3, 2, 1]]))  # clockwise

    def test_index_validation(self):
        with pytest.raises(MeshError):
            QuadMesh(UNIT_CORNERS, np.array([[0, 1, 2, 7]]))

    def test_first_bad_corner_reported(self):
        vertices = np.concatenate([UNIT_CORNERS + 3.0, [[0, 0], [2, 0], [0.5, 0.5], [0, 2]]])
        with pytest.raises(MeshError, match=r"quad 1 .*\(corner 3\)"):
            QuadMesh(vertices, np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vertex(self, value):
        mesh = uniform_rect_mesh(2)
        vertices = mesh.vertices.copy()
        vertices[4] = value
        with pytest.raises(MeshError):
            QuadMesh(vertices, mesh.quads)

    def test_three_elements_on_one_edge(self):
        vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, -1], [1, -1],
                             [1, 2], [0, 2]], dtype=float)
        quads = np.array([[0, 1, 2, 3], [4, 5, 1, 0], [0, 1, 6, 7]])
        with pytest.raises(MeshError, match="3 incident elements"):
            QuadMesh(vertices, quads)

    @pytest.mark.parametrize("quads", [[[0, 1, 2, 3], [0, 1, 2, 3]],
                                       [[0, 1, 2, 3], [0, 1, 2, 4]]],
                             ids=["listed-twice", "two-adjacent-edges"])
    def test_quads_sharing_two_edges_rejected(self, quads):
        # the doubled quad had 4 interior edges, and CG failed after 0
        # iterations on its space
        vertices = np.concatenate([UNIT_CORNERS, [[0.5, 1.5]]])[: np.max(quads) + 1]
        with pytest.raises(MeshError, match="quads 0 and 1 share more than one edge"):
            QuadMesh(vertices, quads)

    def test_unused_vertex_rejected(self):
        # the vertex would be an interior coarse-space vertex with an empty
        # column, and the coarse LU would fail as exactly singular
        mesh = uniform_rect_mesh(4)
        vertices = np.concatenate([mesh.vertices, [[0.3, 0.7]]])
        with pytest.raises(MeshError, match="vertex 25 is used by no quad"):
            QuadMesh(vertices, mesh.quads)

    @pytest.mark.parametrize(
        "mesh", [uniform_rect_mesh(5), perturbed_mesh(8, seed=4)], ids=["uniform", "perturbed"]
    )
    def test_edges_numbered_by_first_appearance(self, mesh):
        first = np.unique(mesh.elem_edges.ravel(), return_index=True)[1]
        assert np.all(np.diff(first) > 0)
        # reference: a dict over sorted vertex pairs, filled element by element
        edge_of, incidences = {}, []
        for e, q in enumerate(mesh.quads.tolist()):
            for le, (ca, cb) in enumerate(LOCAL_EDGES):
                a, b = q[ca], q[cb]
                key = (min(a, b), max(a, b))
                if key not in edge_of:
                    edge_of[key] = len(edge_of)
                    incidences.append([])
                incidences[edge_of[key]].append((e, le + 1, a < b))
                assert mesh.elem_edges[e, le] == edge_of[key]
                assert mesh.elem_edge_orient[e, le] == (a < b)
        assert mesh.edge_vertices.tolist() == [list(k) for k in edge_of]
        assert edge_elements(mesh) == incidences

    def test_interior_edge_has_two_elements(self):
        mesh = uniform_rect_mesh(3)
        for edge, inc in enumerate(edge_elements(mesh)):
            assert len(inc) == (1 if mesh.edge_is_boundary[edge] else 2)


class TestPerturbedMesh:
    def test_positive_jacobians(self):
        mesh = perturbed_mesh(8, seed=1)
        s = np.linspace(-1.0, 1.0, 5)
        X, Y = np.meshgrid(s, s)
        det = bilinear_map(mesh.corner_array(), X.ravel(), Y.ravel())[1][4]
        assert det.shape == (mesh.n_elements, 25)
        assert np.min(det) > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refinement_restricts_parent_map(self, seed):
        parent = perturbed_mesh(4, seed=seed)
        child = refine(parent)
        nv = len(parent.vertices)
        assert np.array_equal(child.vertices[:nv], parent.vertices)
        # child k of an element is the image of the sub-square with lower-left
        # reference corner `low[k]`
        low = ((-1, -1), (0, -1), (0, 0), (-1, 0))
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
        for e in range(parent.n_elements):
            corners = parent.vertices[parent.quads[e]]
            for k, lo in enumerate(low):
                ref = square + lo
                expect = np.column_stack(bilinear_map(corners, ref[:, 0], ref[:, 1])[0])
                got = child.vertices[child.quads[4 * e + k]]
                assert np.max(np.abs(got - expect)) < 1e-13
        gaps = np.linalg.norm(
            child.vertices[:, None] - child.vertices[None], axis=-1
        )
        np.fill_diagonal(gaps, np.inf)
        assert np.min(gaps) > 1e-8

    def test_refined_uniform_mesh_keeps_dyadic_vertices(self):
        # the same points as the generated mesh, bitwise, in another order
        got = refine(uniform_rect_mesh(4)).vertices
        expect = uniform_rect_mesh(8).vertices
        assert np.array_equal(np.unique(got, axis=0), np.unique(expect, axis=0))
        assert len(got) == len(expect)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_children_in_generated_uniform_mesh(self, n):
        # row-major elements: child c of (i, j) is (2i + dx_c, 2j + dy_c)
        kids = refined_children(uniform_rect_mesh(n), uniform_rect_mesh(2 * n))
        j, i = np.divmod(np.arange(n * n), n)
        dx, dy = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
        expect = (2 * j[:, None] + dy) * 2 * n + 2 * i[:, None] + dx
        assert np.array_equal(kids, expect)

    def test_children_in_refined_and_perturbed_meshes(self):
        coarse = perturbed_mesh(4, seed=1)
        order = np.arange(64).reshape(16, 4)
        assert np.array_equal(refined_children(coarse, refine(coarse)), order)
        assert np.array_equal(
            refined_children(coarse, perturbed_mesh(8, seed=1)), order)
        mesh = uniform_rect_mesh(4)
        assert np.array_equal(refined_children(mesh, refine(mesh)), order)

    def test_match_points_across_cell_edges(self):
        # pairs 0.8 tol apart on either side of a cell edge of the unshifted
        # grid; only the half-shifted cells hold both points of a pair
        tol = 1e-9
        ij = np.array([(i, j) for i in range(5) for j in range(5)])
        base = 4 * tol * 1000 * ij
        side = np.where(ij > 0, 0.4 * tol, 0.0)  # keeps the minimum at 0
        perm = np.random.default_rng(0).permutation(len(base))
        points = (base + side)[perm]
        idx = _match_points(points, base - side, tol)
        assert np.array_equal(perm[idx], np.arange(len(base)))
        assert _match_points(points, base - 2 * side, tol) is None

    @pytest.mark.parametrize(
        "coarse,fine",
        [
            (uniform_rect_mesh(4), uniform_rect_mesh(4)),
            (uniform_rect_mesh(4), perturbed_mesh(8, seed=1)),
            (perturbed_mesh(4, seed=1), perturbed_mesh(8, seed=2)),
            (uniform_rect_mesh(1), perturbed_mesh(2)),
        ],
    )
    def test_children_rejects_non_refinement(self, coarse, fine):
        with pytest.raises(MeshError):
            refined_children(coarse, fine)

    def test_defect_decay_slope(self):
        """The largest distance between the midpoints of an element's
        diagonals decays like h^2 under refinement."""
        defects = []
        for n in (2, 4, 8, 16):
            P = perturbed_mesh(n, seed=3).corner_array()
            gap = (P[:, 0] + P[:, 2] - P[:, 1] - P[:, 3]) / 2.0
            defects.append(np.max(np.linalg.norm(gap, axis=1)))
        slopes = np.diff(np.log2(defects))
        assert np.all(-slopes >= 1.9)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"non-negative integer, got {seed!r}$"):
            perturbed_mesh(4, seed=seed)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            perturbed_mesh(3)

    def test_largest_amplitude_accepted_on_first_draw(self):
        # the centre vertex is shifted once, by at most 0.2 coarse mesh widths
        # per coordinate; every coarse quad stays strictly convex, so there is
        # nothing to retry
        coarse = uniform_rect_mesh(2)
        interior = ~coarse.vertex_is_boundary
        for seed in range(100):
            shift = np.random.default_rng(seed).uniform(
                -0.2 * 0.5, 0.2 * 0.5, size=(1, 2)
            )
            expect = coarse.vertices.copy()
            expect[interior] += shift
            mesh = perturbed_mesh(2, seed=seed)
            assert np.array_equal(mesh.vertices, expect)
            assert np.array_equal(mesh.quads, coarse.quads)

    def test_determinism(self):
        a = perturbed_mesh(4, seed=5)
        b = perturbed_mesh(4, seed=5)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.quads, b.quads)


class TestEdgeGaussPoints:
    """The physical points of the edge dofs: the bilinear map is affine on
    edges, so they are the Gauss points of the physical edge."""

    @staticmethod
    def bottom_points(m):
        """Physical points of the e2 (bottom) dofs of the unit square."""
        mesh = uniform_rect_mesh(1)
        xh, yh = EDGE_PARAM_POINT[2](gauss_rule(m)[0])
        return np.column_stack(bilinear_map(mesh.corner_array()[0], xh, yh)[0])

    def test_single_midpoint(self):
        assert np.allclose(self.bottom_points(1), [[0.5, 0.0]])

    def test_three_point_coordinates(self):
        s = np.sqrt(3 / 5)
        expect = [[(1 - s) / 2, 0.0], [0.5, 0.0], [(1 + s) / 2, 0.0]]
        assert np.allclose(self.bottom_points(3), expect)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=4))
    def test_shared_edges_consistent(self, seed, m):
        """Both incident elements see the same physical Gauss points, in the
        global orientation of the edge."""
        mesh = perturbed_mesh(4, seed=seed)
        t = gauss_rule(m)[0]
        for inc in edge_elements(mesh):
            seqs = []
            for (e, le, same) in inc:
                xh, yh = EDGE_PARAM_POINT[le](t if same else t[::-1])
                (px, py), _ = bilinear_map(mesh.vertices[mesh.quads[e]], xh, yh)
                seqs.append(np.column_stack([px, py]))
            assert np.max(np.abs(seqs[0] - seqs[-1])) < 1e-13


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = perturbed_mesh(4, seed=2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.quads, mesh.quads)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh(uniform_rect_mesh(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "quadmesh v1"
        assert int(lines[1]) == 9
        assert len(lines) == 2 + 9 + 1 + 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a mesh\n")
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)

    def test_short_quad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("quadmesh v1\n1\n0.0 0.0\n1\n0 1 2\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_index_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("quadmesh v1\n4\n0 0\n1 0\n1 1\n0 1\n1\n"
                        "0 1 2 99999999999999999999999\n")
        with pytest.raises(MeshError) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:8: expected four vertex indices"

    def test_lines_past_declared_quads_rejected(self, tmp_path):
        # one quad declared, two listed, then a garbage line: the error names
        # the second quad line (line 10)
        path = tmp_path / "bad.txt"
        path.write_text("quadmesh v1\n5\n0 0\n1 0\n1 1\n0 1\n2 2\n1\n"
                        "0 1 2 3\n1 4 2 2\ngarbage\n")
        with pytest.raises(MeshError, match=r":10: .*'1 4 2 2'"):
            load_mesh(path)

    @pytest.mark.parametrize("text,match", [
        ("quadmesh v1\n-1\n0 0\n", ":2: expected vertex count"),
        ("quadmesh v1\n4\n0 0\n1 0\n1 1\n0 1\n-2\n", ":7: expected quad count"),
    ], ids=["vertices", "quads"])
    def test_negative_count_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshError, match=match):
            load_mesh(path)

    def test_quad_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh(uniform_rect_mesh(1), path)
        lines = path.read_text().splitlines()
        lines[-2:] = ["2", lines[-1], lines[-1]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="quads 0 and 1 share more than one edge"):
            load_mesh(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh(uniform_rect_mesh(2), path)
        path.write_text(path.read_text() + "\n  \n\n")
        assert load_mesh(path).n_elements == 4

    def test_nan_vertex_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        save_mesh(uniform_rect_mesh(2), path)
        lines = path.read_text().splitlines()
        lines[2 + 4] = "nan 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_no_quads_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("quadmesh v1\n1\n0.0 0.0\n0\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_unused_vertex_file_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh(uniform_rect_mesh(4), path)
        lines = path.read_text().splitlines()
        lines[1] = "26"
        lines.insert(2 + 25, "0.3 0.7")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="used by no quad"):
            load_mesh(path)

    @pytest.mark.parametrize("text,line,expected", [
        ("quadmesh v2\n", 1, "header 'quadmesh v1'"),
        ("quadmesh v1\n2.5\n", 2, "vertex count"),
        ("quadmesh v1\n2\n0 0\n1\n", 4, "'x y' vertex line"),
        ("quadmesh v1\n1\n0 0 0\n", 3, "'x y' vertex line"),
        ("quadmesh v1\n1\n0 0\nfour\n", 4, "quad count"),
        ("quadmesh v1\n1\n0 0\n2\n0 0 0 0\n0 0 0\n", 6, "four vertex indices"),
        ("quadmesh v1\n1\n0 0\n1\n0 0 0 0.5\n", 5, "four vertex indices"),
    ], ids=["header", "vertex-count", "vertex-1-number", "vertex-3-numbers",
            "quad-count", "quad-3-indices", "quad-non-integer"])
    def test_malformed_line_message(self, tmp_path, text, line, expected):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshError) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:{line}: expected {expected}"

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("quadmesh v1\nxyz\n")
        with pytest.raises(MeshError, match=":2:"):
            load_mesh(path)
