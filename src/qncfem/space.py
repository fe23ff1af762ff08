"""Global nonconforming finite element spaces.

Degree-of-freedom enumeration with shared interior-edge dofs, homogeneous
boundary masking, per-element constraint rows for the odd/even point families,
interpolation operators and broken evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .legendre1d import gauss_rule, gauss_lobatto_nodes, legendre_coeffs
from .mesh import QuadMesh
from .refelem import (
    EDGE_PARAM_POINT,
    Family,
    Poly2D,
    ReferenceElement,
    build_reference_element,
)

__all__ = [
    "GlobalSpace",
    "FeFunction",
    "build_global_space",
    "coarse_prolongation",
    "expected_dimension",
    "q_interpolate",
    "interpolate",
    "jump_functionals",
]


@dataclass
class GlobalSpace:
    """Global dof table for one family/order on one mesh."""

    mesh: QuadMesh
    ref: ReferenceElement
    homogeneous: bool
    n_global: int  # all global dofs, incl. masked boundary dofs
    n_free: int
    free_index: np.ndarray  # (n_global,) free index or -1 for masked
    ltg: np.ndarray  # (ne, ndofs_local) global dof per local dof
    sign: np.ndarray  # (ne, ndofs_local) orientation sign (+-1)
    constraints: sp.csr_matrix | None  # (ne, n_free) relation rows, or None

    @property
    def family(self) -> Family:
        return self.ref.family

    @property
    def m(self) -> int:
        return self.ref.m

    def local_free(self):
        """ltg and sign restricted to the retained local dofs."""
        r = self.ref.retained
        return self.free_index[self.ltg[:, r]], self.sign[:, r]

    def local_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Per-element retained dof values from a free coefficient vector,
        masked dofs contributing zero.  Shape (ne, n_retained)."""
        lf, sgn = self.local_free()
        if self.n_free == 0:
            return np.zeros(lf.shape)
        vals = np.where(lf >= 0, coeffs[np.clip(lf, 0, None)], 0.0)
        return vals * sgn

    def scatter(self, local_vals: np.ndarray) -> np.ndarray:
        """Assemble a free coefficient vector from per-element values over
        the full local dof list (ne, ndofs_local).  Shared dofs are written
        by every incident element; values must agree."""
        out = np.zeros(self.n_free)
        fi = self.free_index[self.ltg]
        keep = fi >= 0
        out[fi[keep]] = (local_vals * self.sign)[keep]
        return out


@dataclass
class FeFunction:
    """A member of a global space: coefficients over the free dofs."""

    space: GlobalSpace
    coeffs: np.ndarray

    def element_values(self) -> np.ndarray:
        return self.space.local_values(self.coeffs)

    def evaluate(self, e: int, xh, yh):
        """Value and physical gradient on element e at reference points."""
        space = self.space
        phi, dpx, dpy = space.ref.tabulate(xh, yh)
        c = self.element_values()[e]
        val = phi @ c
        gxh = dpx @ c
        gyh = dpy @ c
        J, det = space.mesh.geom(e).jacobian(
            np.asarray(xh, dtype=float).ravel(), np.asarray(yh, dtype=float).ravel()
        )
        # grad = J^{-T} grad_hat
        gx = (J[1, 1] * gxh - J[1, 0] * gyh) / det
        gy = (-J[0, 1] * gxh + J[0, 0] * gyh) / det
        return val, np.stack([gx, gy])


def _edge_dofs_per_edge(ref: ReferenceElement) -> int:
    return ref.n_edge_dofs // 4


def build_global_space(
    mesh: QuadMesh,
    family: Family,
    m: int,
    dof_mode: str = "point",
    homogeneous: bool = True,
) -> GlobalSpace:
    """Enumerate global dofs and constraint rows for a family on a mesh."""
    ref = build_reference_element(family, m, dof_mode)
    per_edge = _edge_dofs_per_edge(ref)
    ne = mesh.n_elements
    n_edge_global = mesh.n_edges * per_edge
    n_local = len(ref.dofs)

    n_nonedge_local = sum(1 for d in ref.dofs if d.cls != "edge")
    n_global = n_edge_global + ne * n_nonedge_local

    ltg = np.empty((ne, n_local), dtype=np.int64)
    sign = np.ones((ne, n_local))
    for j, dof in enumerate(ref.dofs):
        if dof.cls != "edge":
            continue
        edge = mesh.elem_edges[:, dof.edge - 1]
        same = mesh.elem_edge_orient[:, dof.edge - 1]
        if dof.kind == "point":
            slot = np.where(same, dof.slot, per_edge - 1 - dof.slot)
        else:
            slot = dof.slot
            if dof.slot % 2 == 1:
                sign[~same, j] = -1.0
        ltg[:, j] = edge * per_edge + slot
    nonedge = [j for j, d in enumerate(ref.dofs) if d.cls != "edge"]
    for pos, j in enumerate(nonedge):
        ltg[:, j] = n_edge_global + np.arange(ne) * n_nonedge_local + pos

    masked = np.zeros(n_global, dtype=bool)
    if homogeneous:
        masked[:n_edge_global] = np.repeat(mesh.edge_is_boundary, per_edge)
    free_index = np.full(n_global, -1, dtype=np.int64)
    free_index[~masked] = np.arange(int(np.sum(~masked)))
    n_free = int(np.sum(~masked))

    constraints = None
    if ref.constraint is not None:
        w = ref.constraint
        cols = free_index[ltg[:, : len(w)]]  # (ne, len(w))
        keep = (cols >= 0) & (w != 0.0)
        rows = np.broadcast_to(np.arange(ne)[:, None], cols.shape)
        vals = np.broadcast_to(w / np.max(np.abs(w)), cols.shape)
        constraints = sp.csr_matrix(
            (vals[keep], (rows[keep], cols[keep])), shape=(ne, n_free)
        )

    return GlobalSpace(
        mesh=mesh,
        ref=ref,
        homogeneous=homogeneous,
        n_global=n_global,
        n_free=n_free,
        free_index=free_index,
        ltg=ltg,
        sign=sign,
        constraints=constraints,
    )


def coarse_prolongation(space: GlobalSpace) -> sp.csr_matrix | None:
    """Embedding of the conforming isoparametric Q1 space into the free dofs.

    Column v holds the dof values of the piecewise-bilinear hat function of
    the v-th interior vertex (in vertex order).  Every shape space with
    m >= 2 contains Q1, so each dof is its functional applied to the four
    reference bilinears; a dof shared by two elements gets the same value
    from both and is stored once.  Returns None when Q1 is not in the shape
    space (m = 1) or the mesh has no interior vertex.
    """
    mesh, ref = space.mesh, space.ref
    interior = ~mesh.vertex_is_boundary
    n_coarse = int(np.sum(interior))
    if ref.m < 2 or n_coarse == 0:
        return None
    coarse_index = np.full(len(mesh.vertices), -1, dtype=np.int64)
    coarse_index[interior] = np.arange(n_coarse)
    # bilinear of corner c: (1 + sx x)(1 + sy y) / 4, corners A1..A4 CCW
    corner_signs = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    bilinears = [Poly2D(np.array([[1.0, sy], [sx, sx * sy]]) / 4.0)
                 for sx, sy in corner_signs]
    local = np.array([[d.apply(b) for b in bilinears] for d in ref.dofs])

    # every free dof once, from the first element that lists it; the hats
    # that do not vanish at a shared edge dof belong to that edge's vertices,
    # which both incident elements have
    _, first = np.unique(space.ltg, return_index=True)
    e, j = np.unravel_index(first, space.ltg.shape)
    rows = space.free_index[space.ltg[e, j]]
    e, j, rows = e[rows >= 0], j[rows >= 0], rows[rows >= 0]
    cols = coarse_index[mesh.quads[e]]  # (k, 4)
    vals = local[j] * space.sign[e, j][:, None]
    keep = (cols >= 0) & (vals != 0.0)
    rows = np.broadcast_to(rows[:, None], cols.shape)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(space.n_free, n_coarse)
    )


def expected_dimension(space: GlobalSpace) -> int:
    """Closed-form dimension of the homogeneous space on a simply connected
    mesh."""
    mesh = space.mesh
    ne, nvi, nsi = mesh.n_elements, mesh.n_interior_vertices, mesh.n_interior_edges
    m = space.m
    tag = space.family.tag
    if tag == "R":
        k = (m - 1) // 2
        return ne * (2 * k - 1) * (k - 1) + nvi + nsi * 2 * k
    if tag == "RPlus":
        k = m // 2
        return ne * ((2 * k - 3) * (k - 1) + 1) + nvi + nsi * (2 * k - 1)
    k = (m - 1) // 2
    return ne * (2 * k - 1) * (k - 1) + nsi * (2 * k + 1)


def q_interpolate(geom, m: int, u) -> Poly2D:
    """Tensor-product Q_m interpolant of u o F_K at Gauss-Lobatto nodes."""
    nodes = gauss_lobatto_nodes(m + 1)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    px, py = geom(X, Y)
    vals = np.asarray(u(px, py), dtype=float)
    vand = np.polynomial.polynomial.polyvander(nodes, m)
    vinv = np.linalg.inv(vand)
    return Poly2D(vinv @ vals @ vinv.T)


def _edge_moment_values(mesh, e: int, edge_local: int, u, degrees: int, npts: int):
    """Legendre moments of u along a local edge in the local parameter."""
    rule = gauss_rule(npts)
    t = rule.nodes
    xh, yh = EDGE_PARAM_POINT[edge_local](t)
    px, py = mesh.geom(e)(xh, yh)
    uv = np.asarray(u(px, py), dtype=float)
    out = np.empty(degrees)
    for d in range(degrees):
        ld = np.polynomial.polynomial.polyval(t, np.asarray(legendre_coeffs(d)))
        out[d] = np.dot(rule.weights, uv * ld)
    return out


def interpolate(space: GlobalSpace, u) -> FeFunction:
    """Canonical interpolation of a continuous u into the global space.

    Point ER: point values of u.  Moment ER: edge moments and interior values
    of u.  R / RPlus: point values of the elementwise Q_m interpolant, which
    satisfy the boundary relation automatically.
    """
    mesh, ref = space.mesh, space.ref
    ne = mesh.n_elements
    n_local = len(ref.dofs)
    vals = np.empty((ne, n_local))
    tag = ref.family.tag
    m = ref.m

    pts = np.array(
        [d.data if d.kind == "point" else (np.nan, np.nan) for d in ref.dofs]
    )
    point_mask = np.array([d.kind == "point" for d in ref.dofs])

    for e in range(ne):
        geom = mesh.geom(e)
        if tag == "ER" and ref.dof_mode == "point":
            px, py = geom(pts[:, 0], pts[:, 1])
            vals[e] = u(px, py)
        elif tag == "ER":
            for le in range(1, 5):
                sl = slice((le - 1) * m, le * m)
                vals[e, sl] = _edge_moment_values(mesh, e, le, u, m, m + 3)
            if np.any(point_mask):
                px, py = geom(pts[point_mask, 0], pts[point_mask, 1])
                vals[e, point_mask] = u(px, py)
        else:
            p = q_interpolate(geom, m, u)
            vals[e] = p(pts[:, 0], pts[:, 1])

    coeffs = space.scatter(vals)
    if space.constraints is not None:
        resid = np.abs(space.constraints @ coeffs)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if np.max(resid) > 1e-9 * scale:
            raise RuntimeError(
                f"interpolant violates the boundary relation: {np.max(resid):.3e}"
            )
    return FeFunction(space, coeffs)


def jump_functionals(space: GlobalSpace):
    """Jump/trace functionals at edge Gauss points, as a sparse matrix over
    the broken (elementwise) coefficient space.

    The broken space is parameterized by the retained local dofs of every
    element, stacked element by element; the value at a dropped boundary
    point is expanded through the nodal basis.
    """
    ref = space.ref
    if ref.dof_mode != "point":
        raise ValueError("jump functionals are defined for point-dof families")
    mesh = space.mesh
    m = ref.m
    nret = ref.n_retained
    # value of the function at each of the 4m boundary points, as a row over
    # the retained dofs
    bpts = [d.data for d in ref.dofs if d.cls == "edge"]
    xs = np.array([p[0] for p in bpts])
    ys = np.array([p[1] for p in bpts])
    phi, _, _ = ref.tabulate(xs, ys)  # (4m, nret)

    rows, cols, vals = [], [], []
    row = 0
    local_of_edge = {}  # (element, local_edge, slot) -> boundary point index
    for j, d in enumerate(ref.dofs):
        if d.cls == "edge":
            local_of_edge[(d.edge, d.slot)] = j

    for edge in range(mesh.n_edges):
        inc = mesh.edge_elements[edge]
        for slot in range(m):
            for s, (e, le, same) in enumerate(inc):
                lslot = slot if same else m - 1 - slot
                j = local_of_edge[(le, lslot)]
                coeff = 1.0 if s == 0 else -1.0
                for r in range(nret):
                    v = phi[j, r]
                    if v != 0.0:
                        rows.append(row)
                        cols.append(e * nret + r)
                        vals.append(coeff * v)
            row += 1
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(row, mesh.n_elements * nret)
    )
