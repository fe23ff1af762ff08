"""Quadrilateral meshes: bilinear geometry, generators, edge adjacency, I/O.

Element corners A1..A4 are counterclockwise; local edges are
e1 = (A1, A4), e2 = (A1, A2), e3 = (A2, A3), e4 = (A4, A3), matching the
reference square edges x=-1, y=-1, x=+1, y=+1.  Interior edges carry a
global orientation from the lower to the higher vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .legendre1d import gauss_rule

__all__ = [
    "GeomMap",
    "QuadMesh",
    "MeshError",
    "uniform_rect_mesh",
    "perturbed_mesh",
    "load_mesh",
    "save_mesh",
]

# local edge -> (first corner, second corner), param increases first -> second
LOCAL_EDGES = ((0, 3), (0, 1), (1, 2), (3, 2))


class MeshError(Exception):
    pass


@dataclass(frozen=True)
class GeomMap:
    """Bilinear map from [-1,1]^2 onto one quadrilateral."""

    corners: np.ndarray  # (4, 2)

    def __post_init__(self):
        object.__setattr__(self, "corners", np.asarray(self.corners, dtype=float))

    def _coeffs(self):
        a1, a2, a3, a4 = self.corners
        c0 = (a1 + a2 + a3 + a4) / 4.0
        c1 = (-a1 + a2 + a3 - a4) / 4.0
        c2 = (-a1 - a2 + a3 + a4) / 4.0
        c3 = (a1 - a2 + a3 - a4) / 4.0
        return c0, c1, c2, c3

    def __call__(self, xh, yh):
        c0, c1, c2, c3 = self._coeffs()
        xh = np.asarray(xh, dtype=float)
        yh = np.asarray(yh, dtype=float)
        x = c0[0] + c1[0] * xh + c2[0] * yh + c3[0] * xh * yh
        y = c0[1] + c1[1] * xh + c2[1] * yh + c3[1] * xh * yh
        return x, y

    def jacobian(self, xh, yh):
        """Return (J, det J) with J[i][j] = d x_i / d xh_j."""
        c0, c1, c2, c3 = self._coeffs()
        xh = np.asarray(xh, dtype=float)
        yh = np.asarray(yh, dtype=float)
        j11 = c1[0] + c3[0] * yh
        j12 = c2[0] + c3[0] * xh
        j21 = c1[1] + c3[1] * yh
        j22 = c2[1] + c3[1] * xh
        det = j11 * j22 - j12 * j21
        J = np.array([[j11, j12], [j21, j22]])
        return J, det

    def bisection_defect(self) -> float:
        """Distance between the midpoints of the two diagonals."""
        a1, a2, a3, a4 = self.corners
        return float(np.linalg.norm((a1 + a3) / 2.0 - (a2 + a4) / 2.0))


@dataclass
class QuadMesh:
    """Vertices, counterclockwise quads, and derived edge adjacency."""

    vertices: np.ndarray  # (nv, 2)
    quads: np.ndarray  # (ne, 4) vertex indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.quads = np.asarray(self.quads, dtype=np.int64)
        self._validate()
        self._build_edges()

    def _validate(self):
        if self.quads.min(initial=0) < 0 or self.quads.max(initial=-1) >= len(
            self.vertices
        ):
            raise MeshError("quad vertex index out of range")
        P = self.vertices[self.quads]  # (ne, 4, 2)
        for e in range(len(self.quads)):
            for c in range(4):
                a = P[e, (c + 1) % 4] - P[e, c]
                b = P[e, (c - 1) % 4] - P[e, c]
                cross = a[0] * b[1] - a[1] * b[0]
                if cross <= 0.0:
                    raise MeshError(
                        f"quad {e} is not strictly convex counterclockwise "
                        f"(corner {c + 1})"
                    )

    def _build_edges(self):
        edge_of = {}
        edge_verts = []
        edge_elems = []  # list of (elem, local_edge 1..4, same_orientation)
        self.elem_edges = np.empty((len(self.quads), 4), dtype=np.int64)
        self.elem_edge_orient = np.empty((len(self.quads), 4), dtype=bool)
        for e, q in enumerate(self.quads):
            for le, (ca, cb) in enumerate(LOCAL_EDGES):
                a, b = int(q[ca]), int(q[cb])
                key = (min(a, b), max(a, b))
                if key not in edge_of:
                    edge_of[key] = len(edge_verts)
                    edge_verts.append(key)
                    edge_elems.append([])
                idx = edge_of[key]
                same = a < b
                edge_elems[idx].append((e, le + 1, same))
                self.elem_edges[e, le] = idx
                self.elem_edge_orient[e, le] = same
        self.edge_vertices = np.array(edge_verts, dtype=np.int64)
        self.edge_elements = edge_elems
        for idx, inc in enumerate(edge_elems):
            if len(inc) > 2:
                raise MeshError(f"edge {idx} has {len(inc)} incident elements")
        self.edge_is_boundary = np.array(
            [len(inc) == 1 for inc in edge_elems], dtype=bool
        )
        self.vertex_is_boundary = np.zeros(len(self.vertices), dtype=bool)
        self.vertex_is_boundary[self.edge_vertices[self.edge_is_boundary]] = True

    # counts used by the dimension formulas
    @property
    def n_elements(self) -> int:
        return len(self.quads)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def n_interior_edges(self) -> int:
        return int(np.sum(~self.edge_is_boundary))

    @property
    def n_boundary_edges(self) -> int:
        return int(np.sum(self.edge_is_boundary))

    @property
    def n_interior_vertices(self) -> int:
        return len(self.vertices) - self.n_boundary_vertices

    @property
    def n_boundary_vertices(self) -> int:
        return int(np.sum(self.vertex_is_boundary))

    def geom(self, e: int) -> GeomMap:
        return GeomMap(self.vertices[self.quads[e]])

    def corner_array(self) -> np.ndarray:
        return self.vertices[self.quads]

    def max_bisection_defect(self) -> float:
        return max(self.geom(e).bisection_defect() for e in range(self.n_elements))

    def check_jacobians(self, nsample: int = 5) -> None:
        s = np.linspace(-1.0, 1.0, nsample)
        X, Y = np.meshgrid(s, s)
        for e in range(self.n_elements):
            _, det = self.geom(e).jacobian(X.ravel(), Y.ravel())
            if np.min(det) <= 0.0:
                raise MeshError(f"element {e} has nonpositive Jacobian")

    def edge_gauss_points(self, edge: int, m: int) -> np.ndarray:
        """Physical Gauss points of an edge, ordered by the global orientation
        (from the lower to the higher vertex index)."""
        a, b = self.edge_vertices[edge]
        va, vb = self.vertices[a], self.vertices[b]
        t = gauss_rule(m).nodes
        return 0.5 * np.outer(1.0 - t, va) + 0.5 * np.outer(1.0 + t, vb)


def uniform_rect_mesh(n: int, domain=(0.0, 0.0, 1.0, 1.0)) -> QuadMesh:
    """n x n grid of congruent rectangles over an axis-aligned rectangle."""
    if n < 1:
        raise ValueError("need at least one subdivision")
    x0, y0, x1, y1 = domain
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    quads = []
    for j in range(n):
        for i in range(n):
            quads.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return QuadMesh(vertices, np.array(quads))


def _midpoint_refine(mesh: QuadMesh) -> QuadMesh:
    """Split each quad into 4 children through edge midpoints and the
    bilinear center; keeps the bisection defect O(h^2)."""
    vertices = [tuple(v) for v in mesh.vertices]
    vindex = {v: i for i, v in enumerate(vertices)}

    def add_vertex(p):
        key = (round(p[0], 14), round(p[1], 14))
        if key not in vindex:
            vindex[key] = len(vertices)
            vertices.append(key)
        return vindex[key]

    # keys must match existing vertices exactly
    vindex = {(round(v[0], 14), round(v[1], 14)): i for i, v in enumerate(vertices)}
    quads = []
    for q in mesh.quads:
        p = mesh.vertices[q]
        mids = [(p[c] + p[(c + 1) % 4]) / 2.0 for c in range(4)]
        center = p.mean(axis=0)
        c0, c1, c2, c3 = (int(q[0]), int(q[1]), int(q[2]), int(q[3]))
        m01, m12, m23, m30 = (add_vertex(m) for m in mids)
        cc = add_vertex(center)
        quads.append([c0, m01, cc, m30])
        quads.append([m01, c1, m12, cc])
        quads.append([cc, m12, c2, m23])
        quads.append([m30, cc, m23, c3])
    return QuadMesh(np.array(vertices, dtype=float), np.array(quads))


def perturbed_mesh(
    n: int, seed: int = 0, amplitude: float = 0.2, domain=(0.0, 0.0, 1.0, 1.0)
) -> QuadMesh:
    """Randomly shift the interior vertices of a coarse 2x2 mesh, then refine
    by midpoint subdivision to n x n elements (n a power of two >= 2)."""
    if amplitude > 0.3:
        raise ValueError("amplitude must be at most 0.3")
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two, at least 2")
    x0, y0, x1, y1 = domain
    h = min(x1 - x0, y1 - y0) / 2.0
    for attempt in range(6):
        amp = amplitude / 2.0**attempt
        rng = np.random.default_rng(seed)
        coarse = uniform_rect_mesh(2, domain)
        interior = np.nonzero(~coarse.vertex_is_boundary)[0]
        vertices = coarse.vertices.copy()
        vertices[interior] += rng.uniform(-amp * h, amp * h, size=(len(interior), 2))
        try:
            mesh = QuadMesh(vertices, coarse.quads)
            while mesh.n_elements < n * n:
                mesh = _midpoint_refine(mesh)
            mesh.check_jacobians()
            return mesh
        except MeshError:
            continue
    raise MeshError("could not generate a valid perturbed mesh")


def save_mesh(mesh: QuadMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("quadmesh v1\n")
        fh.write(f"{len(mesh.vertices)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"{len(mesh.quads)}\n")
        for q in mesh.quads:
            fh.write(" ".join(str(int(i)) for i in q) + "\n")


def load_mesh(path) -> QuadMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    ln = 0

    def fail(msg):
        raise MeshError(f"{path}:{ln + 1}: {msg}")

    if not lines or lines[0] != "quadmesh v1":
        fail("expected header 'quadmesh v1'")
    ln = 1
    try:
        nv = int(lines[ln])
    except (ValueError, IndexError):
        fail("expected vertex count")
    vertices = []
    for i in range(nv):
        ln = 2 + i
        try:
            x, y = lines[ln].split()
            vertices.append((float(x), float(y)))
        except (ValueError, IndexError):
            fail("expected 'x y' vertex line")
    ln = 2 + nv
    try:
        ne = int(lines[ln])
    except (ValueError, IndexError):
        fail("expected quad count")
    quads = []
    for i in range(ne):
        ln = 3 + nv + i
        try:
            parts = lines[ln].split()
            if len(parts) != 4:
                raise ValueError
            quads.append([int(p) for p in parts])
        except (ValueError, IndexError):
            fail("expected four vertex indices")
    return QuadMesh(np.array(vertices), np.array(quads))
