"""Global nonconforming finite element spaces.

Degree-of-freedom enumeration with shared interior-edge dofs, homogeneous
boundary masking, per-element constraint rows for the odd/even point families,
interpolation operators and broken evaluation.  The dof set stays with the
reference element: this module reads `ref.sampling` only for its length,
and interpolation takes the points and the transfer `ref.interpolation`
tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import QuadMesh, bilinear_map, refined_children
from .refelem import Family, ReferenceElement, build_reference_element

__all__ = [
    "GlobalSpace",
    "FeFunction",
    "build_global_space",
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
        index = self.dofs[e, self.ref.retained]
        values = np.zeros(index.shape)
        free = index < self.n_free
        values[free] = np.asarray(coeffs)[index[free]]
        return values

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
    """Dimension of the homogeneous space on a simply connected mesh, from
    the element's dofs: its corner and interior dofs, m per interior edge,
    and for an element with a boundary relation (R, RPlus) one less per
    interior edge and one more per interior vertex.  Raises ValueError
    unless V - E + F = 1 (each one-cell hole adds one for R and RPlus)."""
    mesh = space.mesh
    euler = len(mesh.vertices) - mesh.n_edges + mesh.n_elements
    if euler != 1:
        raise ValueError(f"expected_dimension needs a simply connected mesh, "
                         f"got V - E + F = {euler}")
    ref, m = space.ref, space.m
    c = int(ref.constraint is not None)
    return (mesh.n_elements * (len(ref.sampling) - 4 * m)
            + mesh.n_interior_edges * (m - c) + mesh.n_interior_vertices * c)


def interpolate(space: GlobalSpace, u) -> FeFunction:
    """Canonical interpolation of a continuous u into the global space, for
    all elements at once: the dofs of each element are
    `transfer @ (u o F_K)(points)` with `ref.interpolation`'s (points,
    transfer), which for R / RPlus satisfy the boundary relation.  A u that
    returns a constant is broadcast to the points.  Raises ValueError when
    a masked (boundary) dof of u exceeds 1e-9 max(1, max |dof|): a
    homogeneous space holds only functions that vanish there."""
    mesh = space.mesh
    pts, transfer = space.ref.interpolation
    (px, py), _ = bilinear_map(mesh.corner_array(), pts[:, 0], pts[:, 1])
    vals = np.broadcast_to(np.asarray(u(px, py), dtype=float), px.shape) @ transfer.T
    masked = np.abs(vals[space.dofs == space.n_free])
    if masked.size and masked.max() > 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(f"u does not vanish on the boundary of a homogeneous space: "
                         f"a masked dof reads {masked.max():.3e}")
    coeffs = space.scatter(vals)
    if space.constraints is not None:
        resid = np.abs(space.constraints @ coeffs)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if np.max(resid) > 1e-9 * scale:
            raise RuntimeError(
                f"interpolant violates the boundary relation: {np.max(resid):.3e}"
            )
    return FeFunction(space, coeffs)

