"""Global nonconforming finite element spaces.

Degree-of-freedom enumeration with shared interior-edge dofs, homogeneous
boundary masking, per-element constraint rows for the odd/even point families,
interpolation operators and broken evaluation.  Every local dof is read
through the reference element's sampling matrix (`ref.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .legendre1d import gauss_lobatto_nodes, lagrange_basis
from .mesh import QuadMesh, bilinear_map, refined_children
from .refelem import Family, ReferenceElement, build_reference_element, poly_values

__all__ = [
    "GlobalSpace",
    "FeFunction",
    "build_global_space",
    "coarse_prolongation",
    "expected_dimension",
    "interpolate",
    "prolong",
]


@dataclass
class GlobalSpace:
    """Global dof table for one family/order on one mesh.

    `dofs[e, j]` is the free index of local dof j of element e; a masked
    (boundary) dof reads index `n_free`, one sink slot past the free dofs.
    Reads append a zero to the coefficients, writes use n_free + 1 slots and
    drop the last, filters keep indices below n_free."""

    mesh: QuadMesh
    ref: ReferenceElement
    n_free: int
    dofs: np.ndarray  # (ne, ndofs_local) free index, n_free where masked
    constraints: sp.csr_matrix | None  # (ne, n_free) relation rows, or None

    @property
    def family(self) -> Family:
        return self.ref.family

    @property
    def m(self) -> int:
        return self.ref.m

    def local_free(self) -> np.ndarray:
        """Free index (n_free where masked) of every retained local dof,
        (ne, n_retained)."""
        return self.dofs[:, self.ref.retained]

    def local_values(self, coeffs: np.ndarray, e=slice(None)) -> np.ndarray:
        """Retained dof values of element e (all elements by default) from a
        free coefficient vector, masked dofs contributing zero.  Shape
        (n_retained,) for one element, (ne, n_retained) for all.  Raises
        ValueError unless coeffs has shape (n_free,)."""
        if np.shape(coeffs) != (self.n_free,):
            raise ValueError(f"expected free coefficients of shape ({self.n_free},), "
                             f"got {np.shape(coeffs)}")
        return np.append(coeffs, 0.0)[self.dofs[e, self.ref.retained]]

    def scatter(self, local_vals: np.ndarray) -> np.ndarray:
        """Assemble a free coefficient vector from per-element values over
        the full local dof list (ne, ndofs_local).  Shared dofs are written
        by every incident element; values must agree."""
        out = np.zeros(self.n_free + 1)
        out[self.dofs] = local_vals
        return out[: self.n_free]


@dataclass
class FeFunction:
    """A member of a global space: coefficients over the free dofs."""

    space: GlobalSpace
    coeffs: np.ndarray

    def evaluate(self, e: int, xh, yh):
        """Value and physical gradient on element e at reference points."""
        space = self.space
        phi, dpx, dpy = space.ref.tabulate(xh, yh)
        c = space.local_values(self.coeffs, e)
        val = phi @ c
        gxh = dpx @ c
        gyh = dpy @ c
        mesh = space.mesh
        _, (j11, j12, j21, j22, det) = bilinear_map(
            mesh.vertices[mesh.quads[e]],
            np.asarray(xh, dtype=float).ravel(), np.asarray(yh, dtype=float).ravel()
        )
        # grad = J^{-T} grad_hat
        gx = (j22 * gxh - j21 * gyh) / det
        gy = (-j12 * gxh + j11 * gyh) / det
        return val, np.stack([gx, gy])


def build_global_space(
    mesh: QuadMesh,
    family: Family,
    m: int,
    homogeneous: bool = True,
) -> GlobalSpace:
    """Enumerate global dofs and constraint rows for a family on a mesh;
    `homogeneous` masks the boundary-edge dofs."""
    ref = build_reference_element(family, m)
    ne = mesh.n_elements
    n_edge_global = mesh.n_edges * m
    n_nonedge_local = len(ref.sampling) - 4 * m
    n_global = n_edge_global + ne * n_nonedge_local

    # local dof j < 4m is Gauss point j % m of the element's edge j // m
    # (0-based), listed along the local parameter (refelem._dof_set); the
    # corner and interior dofs follow and belong to the element alone
    ltg = np.empty((ne, len(ref.sampling)), dtype=np.int64)
    slot = np.where(mesh.elem_edge_orient[:, :, None], np.arange(m), m - 1 - np.arange(m))
    ltg[:, : 4 * m] = (mesh.elem_edges[:, :, None] * m + slot).reshape(ne, 4 * m)
    ltg[:, 4 * m :] = (n_edge_global + np.arange(ne)[:, None] * n_nonedge_local
                       + np.arange(n_nonedge_local))

    masked = np.zeros(n_global, dtype=bool)
    if homogeneous:
        masked[:n_edge_global] = np.repeat(mesh.edge_is_boundary, m)
    n_free = int(np.sum(~masked))
    free_index = np.full(n_global, n_free, dtype=np.int64)
    free_index[~masked] = np.arange(n_free)
    dofs = free_index[ltg]

    constraints = None
    if ref.constraint is not None:
        w = ref.constraint
        cols = dofs[:, : len(w)]  # (ne, len(w))
        keep = (cols < n_free) & (w != 0.0)
        rows = np.broadcast_to(np.arange(ne)[:, None], cols.shape)
        vals = np.broadcast_to(w / np.max(np.abs(w)), cols.shape)
        constraints = sp.csr_matrix(
            (vals[keep], (rows[keep], cols[keep])), shape=(ne, n_free)
        )

    return GlobalSpace(
        mesh=mesh, ref=ref, n_free=n_free, dofs=dofs, constraints=constraints
    )


def coarse_prolongation(space: GlobalSpace) -> sp.csr_matrix | None:
    """Embedding of the conforming isoparametric Q1 space into the free dofs.

    Column v holds the dof values of the piecewise-bilinear hat function of
    the v-th interior vertex (in vertex order).  Every shape space with
    m >= 2 contains Q1, so each dof is its functional applied to the four
    reference bilinears (`ref.sampling` times their values at
    `ref.points`); a dof shared by two elements gets the same value from
    both and is stored once.  Returns None when Q1 is not in the shape
    space (m = 1) or the mesh has no interior vertex.
    """
    mesh, ref = space.mesh, space.ref
    interior = ~mesh.vertex_is_boundary
    n_coarse = int(np.sum(interior))
    if ref.m < 2 or n_coarse == 0:
        return None
    coarse_index = np.full(len(mesh.vertices), n_coarse, dtype=np.int64)
    coarse_index[interior] = np.arange(n_coarse)
    # bilinear of corner c: (1 + sx x)(1 + sy y) / 4, corners A1..A4 CCW
    sx, sy = np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
    bilinears = np.moveaxis(np.array([[np.ones(4), sy], [sx, sx * sy]]), -1, 0) / 4.0
    local = ref.sampling @ poly_values(bilinears, *ref.points.T)

    # every free dof once, from the first element that lists it; the hats
    # that do not vanish at a shared edge dof belong to that edge's vertices,
    # which both incident elements have
    dofs, first = np.unique(space.dofs, return_index=True)
    free = dofs < space.n_free
    rows = dofs[free]
    e, j = np.unravel_index(first[free], space.dofs.shape)
    cols = coarse_index[mesh.quads[e]]  # (k, 4)
    vals = local[j]
    keep = (cols < n_coarse) & (vals != 0.0)
    rows = np.broadcast_to(rows[:, None], cols.shape)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(space.n_free, n_coarse)
    )


def prolong(coarse: GlobalSpace, coeffs: np.ndarray, fine: GlobalSpace) -> np.ndarray:
    """Free coefficients on `fine`, whose mesh refines `coarse.mesh` (in any
    numbering, `mesh.refined_children`) with the same element, of the coarse
    function with free coefficients `coeffs`.

    Each child takes the exact dof values of its parent's polynomial
    (`ReferenceElement.child_transfer`).  A dof on a coarse edge, shared by
    children of two parents, gets the mean of their values (the averaging
    transfer of Brenner, Math. Comp. 52, 1989); masked dofs are dropped.
    The result need not satisfy the relation rows of `fine`.  Raises
    ValueError for another element, MeshError for a mesh that is not a
    refinement.
    """
    if fine.ref is not coarse.ref:
        raise ValueError("fine and coarse spaces use different elements")
    kids = refined_children(coarse.mesh, fine.mesh)
    parent = coarse.local_values(coeffs)  # (ne_coarse, nret)
    local = np.empty(fine.dofs.shape)
    local[kids] = np.einsum("ckr,er->eck", fine.ref.child_transfer, parent)
    dofs, n = fine.dofs.ravel(), fine.n_free
    total = np.bincount(dofs, weights=local.ravel(), minlength=n + 1)[:n]
    return total / np.bincount(dofs, minlength=n + 1)[:n]


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


def interpolate(space: GlobalSpace, u) -> FeFunction:
    """Canonical interpolation of a continuous u into the global space, for
    all elements at once: the dofs of each element are `ref.sampling`
    applied to u o F_K at `ref.points`.  ER takes the values of u o F_K
    itself; R / RPlus take the values of its elementwise Q_m interpolant at
    the Gauss-Lobatto nodes, which satisfy the boundary relation
    automatically."""
    mesh, ref = space.mesh, space.ref
    if ref.family.tag == "ER":
        pts, transfer = ref.points, ref.sampling
    else:
        nodes = gauss_lobatto_nodes(ref.m + 1)
        pts = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        # the Lagrange basis l_i(x) l_j(y) of node pts[i (m+1) + j] at the points
        lx, ly = ([lagrange_basis(nodes, i, t) for i in range(len(nodes))]
                  for t in ref.points.T)
        lagrange = np.einsum("ip,jp->pij", lx, ly).reshape(len(ref.points), -1)
        transfer = ref.sampling @ lagrange
    (px, py), _ = bilinear_map(mesh.corner_array(), pts[:, 0], pts[:, 1])
    vals = np.asarray(u(px, py), dtype=float) @ transfer.T  # (ne, ndofs)

    coeffs = space.scatter(vals)
    if space.constraints is not None:
        resid = np.abs(space.constraints @ coeffs)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if np.max(resid) > 1e-9 * scale:
            raise RuntimeError(
                f"interpolant violates the boundary relation: {np.max(resid):.3e}"
            )
    return FeFunction(space, coeffs)

