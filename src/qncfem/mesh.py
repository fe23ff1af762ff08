"""Quadrilateral meshes of the unit square: bilinear geometry, generators,
edge adjacency, refinement, I/O.

`bilinear_map` is the one implementation of the element maps and their
Jacobians; it takes corner arrays, so it serves all elements at once or
one element alone.  It is `bilinear_coefficients` followed by
`bilinear_points` and `bilinear_jacobian`, which the assembly calls apart,
to map the points of every element but form each distinct Jacobian once.

Element corners A1..A4 are counterclockwise; local edges are
e1 = (A1, A4), e2 = (A1, A2), e3 = (A2, A3), e4 = (A4, A3), matching the
reference square edges x=-1, y=-1, x=+1, y=+1.  Interior edges carry a
global orientation from the lower to the higher vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadMesh",
    "bilinear_map",
    "bilinear_coefficients",
    "bilinear_points",
    "bilinear_jacobian",
    "MeshError",
    "uniform_rect_mesh",
    "perturbed_mesh",
    "refine",
    "refined_children",
    "load_mesh",
    "save_mesh",
]

# local edge -> (first corner, second corner), param increases first -> second
LOCAL_EDGES = ((0, 3), (0, 1), (1, 2), (3, 2))
# children of a refined quad over its corners A1..A4 (0..3), the midpoints of
# A1A2, A2A3, A3A4, A4A1 (4..7) and the center (8)
CHILDREN = ((0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3))
# largest shift of perturbed_mesh's centre vertex per coordinate, in coarse
# mesh widths
SHIFT = 0.2


class MeshError(Exception):
    pass


def bilinear_coefficients(corners):
    """The bilinear maps x = c0 + c1 xh + c2 yh + c3 xh yh of [-1,1]^2 onto
    quadrilaterals with corners A1..A4, shaped (..., 4, 2): (c0, c1, c2,
    c3), each shaped (2,) + corners.shape[:-2], the coordinate first.  The
    Jacobian depends on (c1, c2, c3) alone, so maps with equal bytes there
    have Jacobians with equal bytes."""
    a1, a2, a3, a4 = np.moveaxis(np.asarray(corners, dtype=float), (-2, -1), (0, 1))
    return ((a1 + a2 + a3 + a4) / 4.0, (-a1 + a2 + a3 - a4) / 4.0,
            (-a1 - a2 + a3 + a4) / 4.0, (a1 - a2 + a3 - a4) / 4.0)


def _at_points(c, xh):
    """The coefficients of `bilinear_coefficients`, with an axis of length
    one per axis of the reference points xh, so that they broadcast."""
    return (a.reshape(a.shape + (1,) * np.ndim(xh)) for a in c)


def bilinear_points(c, xh, yh):
    """The images (x, y) of the reference points (xh, yh) under the maps of
    coefficients c (`bilinear_coefficients`), each shaped c[0].shape[1:] +
    xh.shape."""
    c0, c1, c2, c3 = _at_points(c, xh)
    # one coordinate at a time: separate arrays, and temporaries half the size
    return tuple(c0[k] + c1[k] * xh + c2[k] * yh + c3[k] * xh * yh for k in (0, 1))


def bilinear_jacobian(c, xh, yh):
    """The Jacobian entries (j11, j12, j21, j22, det), j_ik = d x_i / d xh_k,
    of the maps of coefficients c (`bilinear_coefficients`) at the reference
    points (xh, yh), each shaped c[0].shape[1:] + xh.shape."""
    _, c1, c2, c3 = _at_points(c, xh)
    j11, j21 = (c1[k] + c3[k] * yh for k in (0, 1))
    j12, j22 = (c2[k] + c3[k] * xh for k in (0, 1))
    return j11, j12, j21, j22, j11 * j22 - j12 * j21


def bilinear_map(corners, xh, yh):
    """The bilinear maps of [-1,1]^2 onto quadrilaterals with corners A1..A4,
    shaped (..., 4, 2), at the reference points (xh, yh): the images (x, y)
    and the Jacobian entries (j11, j12, j21, j22, det), j_ik = d x_i / d xh_k,
    each shaped corners.shape[:-2] + xh.shape.  Pass `mesh.corner_array()`
    for all elements, `mesh.vertices[mesh.quads[e]]` for element e alone."""
    xh = np.asarray(xh, dtype=float)
    yh = np.asarray(yh, dtype=float)
    c = bilinear_coefficients(corners)
    return bilinear_points(c, xh, yh), bilinear_jacobian(c, xh, yh)


def _first_appearance(keys):
    """Number the distinct values of a 1-D key array in order of first
    appearance: (number of each key, position of each number's first key)."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


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
        if self.quads.ndim != 2 or self.quads.shape[1] != 4:
            raise MeshError("quads must be an (ne, 4) index array")
        if self.quads.min(initial=0) < 0 or self.quads.max(initial=-1) >= len(
            self.vertices
        ):
            raise MeshError("quad vertex index out of range")
        used = np.zeros(len(self.vertices), dtype=bool)
        used[self.quads] = True
        if not np.all(used):
            raise MeshError(f"vertex {int(np.argmin(used))} is used by no quad")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinate")
        # det J is affine on the square, so positive corner cross products
        # make it positive everywhere
        P = self.vertices[self.quads]  # (ne, 4, 2)
        a = np.roll(P, -1, axis=1) - P
        b = np.roll(P, 1, axis=1) - P
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        bad = np.argwhere(~(cross > 0.0))
        if len(bad):
            e, c = bad[0]
            raise MeshError(
                f"quad {e} is not strictly convex counterclockwise "
                f"(corner {c + 1})"
            )

    def _build_edges(self):
        """Edges numbered by first appearance over (element, local edge)."""
        first, second = (self.quads[:, list(c)] for c in zip(*LOCAL_EDGES))
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        edge, start = _first_appearance((lo * len(self.vertices) + hi).ravel())
        self.elem_edges = edge.reshape(self.quads.shape)
        self.elem_edge_orient = first < second
        self.edge_vertices = np.column_stack([lo.ravel()[start], hi.ravel()[start]])
        count = np.bincount(edge, minlength=len(start))
        if np.any(count > 2):
            idx = int(np.argmax(count > 2))
            raise MeshError(f"edge {idx} has {count[idx]} incident elements")
        # the two quads of each interior edge (the first listed first); only
        # overlapping quads share two edges
        order = np.argsort(edge, kind="stable")
        shared = edge[order[1:]] == edge[order[:-1]]
        ne = len(self.quads)
        pairs = np.sort(order[:-1][shared] // 4 * ne + order[1:][shared] // 4)
        twice = np.flatnonzero(pairs[1:] == pairs[:-1])
        if len(twice):
            a, b = divmod(int(pairs[twice[0]]), ne)
            raise MeshError(f"quads {a} and {b} share more than one edge")
        self.edge_is_boundary = count == 1
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
    def n_interior_vertices(self) -> int:
        return len(self.vertices) - self.n_boundary_vertices

    @property
    def n_boundary_vertices(self) -> int:
        return int(np.sum(self.vertex_is_boundary))

    def corner_array(self) -> np.ndarray:
        return self.vertices[self.quads]


def uniform_rect_mesh(n: int) -> QuadMesh:
    """n x n grid of congruent squares over the unit square."""
    if n < 1:
        raise ValueError("need at least one subdivision")
    t = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # vid[j, i]
    quads = np.column_stack([vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel(),
                             vid[1:, 1:].ravel(), vid[1:, :-1].ravel()])
    return QuadMesh(vertices, quads)


def _split_points(mesh: QuadMesh) -> np.ndarray:
    """(ne, 9, 2): each element's corners, the midpoints of A1A2, A2A3,
    A3A4 and A4A1, and its bilinear centre; CHILDREN indexes them."""
    P = mesh.corner_array()
    return np.concatenate(
        [P, (P + np.roll(P, -1, axis=1)) / 2.0, P.mean(axis=1)[:, None]], axis=1
    )


def refine(mesh: QuadMesh) -> QuadMesh:
    """Split each quad into 4 children through edge midpoints and the
    bilinear center; keeps the bisection defect O(h^2).

    Element 4e + c is child c of element e, in the order of CHILDREN: the
    image under e's bilinear map of the sub-square [-1,0]^2, [0,1]x[-1,0],
    [0,1]^2 or [-1,0]x[0,1], with its corners in the parent's order.  New
    vertices follow the parent's and are numbered by first appearance
    over each element's (A1A2, A2A3, A3A4, A4A1 midpoints, center); a
    midpoint is identified by its parent edge."""
    ne = mesh.n_elements
    points = _split_points(mesh)[:, 4:].reshape(-1, 2)
    # the midpoint of A_c A_{c+1} lies on local edge c + 1 (mod 4)
    keys = np.column_stack(
        [np.roll(mesh.elem_edges, -1, axis=1), mesh.n_edges + np.arange(ne)]
    ).ravel()
    new, start = _first_appearance(keys)
    local = np.column_stack([mesh.quads, len(mesh.vertices) + new.reshape(ne, 5)])
    return QuadMesh(
        np.concatenate([mesh.vertices, points[start]]),
        local[:, CHILDREN].reshape(-1, 4),
    )


def _match_points(points, targets, tol):
    """idx with |points[idx[i]] - targets[i]| <= tol for every i, or None.
    Points are keyed by their cell in a grid of spacing 4 tol, once per
    combination of unshifted and half-shifted cells on each axis: two
    points within tol share a cell in at least one combination, and cells
    this small hold one point each when the points are far apart."""
    lo = np.minimum(points.min(axis=0), targets.min(axis=0))
    idx = np.full(len(targets), -1)
    for shift in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)):
        todo = np.nonzero(idx < 0)[0]
        if todo.size == 0:
            break
        cell = lambda p: np.floor((p - lo) / (4 * tol) + shift).astype(np.int64)
        pk, tk = (c[:, 0] << 32 | c[:, 1] for c in (cell(points), cell(targets[todo])))
        order = np.argsort(pk)
        pos = np.minimum(np.searchsorted(pk, tk, sorter=order), len(pk) - 1)
        hit = pk[order[pos]] == tk
        idx[todo[hit]] = order[pos[hit]]
    if np.any(idx < 0) or np.max(np.abs(points[idx] - targets)) > tol:
        return None
    return idx


def refined_children(coarse: QuadMesh, fine: QuadMesh) -> np.ndarray:
    """kids[e, c]: the element of `fine` that is child c of element e of
    `coarse`, i.e. element 4e + c of `refine(coarse)`, found by its corners,
    so `fine` may number its vertices and elements in any order (a
    generated `uniform_rect_mesh(2n)` refines `uniform_rect_mesh(n)`).
    Raises MeshError unless every child's corners, in its corner order, lie
    within 1e-9 of the coarse mesh's extent of those of a `fine` element."""
    want = _split_points(coarse)[:, CHILDREN].reshape(-1, 4, 2)
    got = fine.corner_array()
    tol = 1e-9 * float(np.ptp(coarse.vertices, axis=0).max())
    kids = None
    if got.shape == want.shape:
        kids = _match_points(got.mean(axis=1), want.mean(axis=1), tol)
    if kids is None or np.max(np.abs(got[kids] - want)) > tol:
        raise MeshError("fine mesh is not the refinement of the coarse mesh")
    return kids.reshape(-1, 4)


def _check_integer(name: str, value, nonnegative: bool = False) -> None:
    """Raise ValueError naming the field unless value is an int or a numpy
    integer, not a bool, and at least 0 if `nonnegative`."""
    kind = "a non-negative integer" if nonnegative else "an integer"
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (nonnegative and value < 0)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def perturbed_mesh(n: int, seed: int = 0) -> QuadMesh:
    """Randomly shift the one interior vertex of a coarse 2x2 mesh of the
    unit square, its centre, by at most SHIFT * h per coordinate (h = 1/2),
    then refine by midpoint subdivision to n x n elements (n a power of two
    >= 2)."""
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two, at least 2")
    _check_integer("seed", seed, nonnegative=True)
    h = 0.5  # the coarse mesh width
    rng = np.random.default_rng(seed)
    coarse = uniform_rect_mesh(2)
    interior = np.nonzero(~coarse.vertex_is_boundary)[0]
    vertices = coarse.vertices.copy()
    vertices[interior] += rng.uniform(-SHIFT * h, SHIFT * h, size=(len(interior), 2))
    # every coarse quad stays strictly convex while the centre's shift
    # (dx, dy) has |dx| + |dy| < h; a child is its parent's bilinear map on a
    # sub-square, so it stays strictly convex too
    mesh = QuadMesh(vertices, coarse.quads)
    while mesh.n_elements < n * n:
        mesh = refine(mesh)
    return mesh


def save_mesh(mesh: QuadMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("quadmesh v1\n")
        fh.write(f"{len(mesh.vertices)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"{len(mesh.quads)}\n")
        for q in mesh.quads:
            fh.write(" ".join(str(int(i)) for i in q) + "\n")


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


def _fields(text: str, k: int, parse) -> list:
    fields = text.split()
    if len(fields) != k:
        raise ValueError(f"{len(fields)} fields, not {k}")
    return [parse(f) for f in fields]


def load_mesh(path) -> QuadMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]

    def read(ln, what, parse):
        try:
            return parse(lines[ln])
        except (ValueError, IndexError, OverflowError):
            raise MeshError(f"{path}:{ln + 1}: expected {what}")

    if not lines or lines[0] != "quadmesh v1":
        raise MeshError(f"{path}:1: expected header 'quadmesh v1'")
    nv = read(1, "vertex count", _count)
    vertices = [read(2 + i, "'x y' vertex line", lambda s: _fields(s, 2, float))
                for i in range(nv)]
    ne = read(2 + nv, "quad count", _count)
    # int64 as QuadMesh stores them: a larger index overflows here, on its line
    quads = [read(3 + nv + i, "four vertex indices", lambda s: _fields(s, 4, np.int64))
             for i in range(ne)]
    for ln in range(3 + nv + ne, len(lines)):
        if lines[ln]:
            raise MeshError(f"{path}:{ln + 1}: unexpected line after the {ne} "
                            f"declared quads: {lines[ln]!r}")
    return QuadMesh(np.array(vertices), np.array(quads))
