"""Assembly, the conjugate-gradient solve, and error norms.

The stiffness matrix is assembled with tensor-Gauss quadrature on the
reference square, vectorized over blocks of BLOCK_ELEMENTS elements (as are
the error norms), so temporaries per quadrature point keep a fixed size as
the mesh grows.  Within a block the stiffness kernel runs once per distinct
Jacobian, and the preconditioner inverts each distinct element block once
(`_distinct_rows` compares them by their bytes), so the results are bitwise
those of running every element; every element of a uniform mesh shares one
Jacobian, so there each block runs the stiffness kernel once.
The ER families give a plain SPD system; the R / RPlus families carry one
relation row per element, and `solve` runs one preconditioned CG for both.

The preconditioner is additive two-level Schwarz (Pavarino, Numer. Math. 66,
1994; Brenner, Math. Comp. 65, 1996),
z = sum_e R_e^T (R_e K R_e^T)^{-1} R_e r + P (P^T K P)^{-1} P^T r.
The fine level inverts K on the retained free dofs of each element, so
neighbouring blocks overlap on their shared edge dofs; the distinct blocks
are inverted once, in batches, and applied with a gather, a batched product
and a scatter.  P embeds the conforming isoparametric Q1 space on the same
mesh (interior-vertex hat functions) into the nonconforming space.  Q1 lies
in every shape space with m >= 2 and, for R / RPlus, inside the relation
kernel, so the coarse term needs no projection of its own.  Iteration
counts stay bounded under refinement and grow only mildly with m.  Systems
without a coarse space (m = 1, no interior vertex) use the element blocks
alone; a system without an element table (hand-built) uses 1x1 blocks,
which is Jacobi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import bilinear_map
from .refelem import gauss_grid
from .space import GlobalSpace, coarse_prolongation

__all__ = [
    "SparseSystem",
    "SolveReport",
    "SolverError",
    "assemble",
    "solve",
    "error_norms",
]

REL_TOL = 1e-13  # relative (projected) residual at which CG stops
MAX_ITER_FACTOR = 400.0  # iteration budget max(100, int(F * sqrt(n)))
BLOCK_ELEMENTS = 256  # elements per block of the element kernels


class SolverError(Exception):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


@dataclass
class SolveReport:
    iterations: int = 0
    relative_residual: float = np.inf
    constraint_residual: float = 0.0


@dataclass
class SparseSystem:
    """Symmetric sparse system K x = b, optionally restricted to ker(C).

    `elements` (free dof per retained local dof, n where masked, one row
    per element) and `coarse` (the coarse-space prolongation, columns in
    ker(C)) define the preconditioner; `assemble` sets both."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constraints: sp.csr_matrix | None = None
    elements: np.ndarray | None = None
    coarse: sp.csr_matrix | None = None

    @property
    def n(self) -> int:
        return len(self.rhs)


def _element_chunks(space: GlobalSpace, q: int):
    """The elements in blocks of BLOCK_ELEMENTS, so that per-element
    temporaries stay bounded: for each block its slice, the quadrature
    points (px, py) of the q x q Gauss grid and the Jacobian entries
    (j11, j12, j21, j22, det), each shaped (block, q*q)."""
    X, Y, _ = gauss_grid(q)
    corners = space.mesh.corner_array()
    for start in range(0, len(corners), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        points, jac = bilinear_map(corners[sl], X, Y)
        det = jac[-1]
        if not np.min(det) > 0.0:
            bad = start + int(np.argmin(np.min(det, axis=1)))
            raise ValueError(f"nonpositive Jacobian in element {bad}")
        yield sl, points, jac


# (first, inverse) of `_distinct_rows` that keep every row in place: views
_EVERY_ROW = (slice(None), slice(None))


@functools.cache
def _projection(width: int) -> np.ndarray:
    return np.random.default_rng(0).integers(2**64, size=width, dtype=np.uint64)


def _distinct_rows(rows):
    """Group the rows of a 2-D float64 array by their bytes: (first,
    inverse) such that rows[first][inverse] equals rows byte for byte, or
    None when no row repeats.  Rows are keyed by a random projection of
    their bits (integer arithmetic, so equal bytes give equal keys in any
    summation order), first of eight sampled columns, which settles most
    arrays without a repeat, then of all; a key shared by rows with
    different bytes also gives None."""
    bits = rows.view(np.uint64)
    for part in (bits[:, ::-(-rows.shape[1] // 8)], bits):
        keys = part @ _projection(part.shape[1])
        ordered = np.sort(keys)
        if np.all(ordered[1:] != ordered[:-1]):
            return None
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if not np.array_equal(bits[first[inverse]], bits):
        return None
    return first, inverse


def _stiffness_blocks(space: GlobalSpace, q: int, jac):
    """Local stiffness blocks of one block of elements from the Jacobian
    entries `_element_chunks(space, q)` yields, computed once per distinct
    Jacobian (every element of a uniform mesh shares one)."""
    _, _, W = gauss_grid(q)
    first, inverse = _distinct_rows(np.concatenate(jac, axis=1)) or _EVERY_ROW
    j11, j12, j21, j22, det = (x[first] for x in jac)
    _, dpx, dpy = space.ref.tabulate_gauss(q)  # (nq, nret)
    a = W[None, :] / det
    # physical gradients scaled by det, (J^{-T} grad_hat) * det, one
    # component at a time to halve the (block, nq, nret) temporaries
    g = j22[:, :, None] * dpx[None]
    g -= j21[:, :, None] * dpy[None]
    K = np.einsum("ep,epi,epj->eij", a, g, g, optimize=True)
    g = j11[:, :, None] * dpy[None]
    g -= j12[:, :, None] * dpx[None]
    K += np.einsum("ep,epi,epj->eij", a, g, g, optimize=True)
    return K[inverse]


def assemble(space: GlobalSpace, f) -> SparseSystem:
    """Assemble stiffness and load over the free dofs with the (m+3)-point
    tensor Gauss rule; attach the constraint rows for the R / RPlus
    families."""
    q = space.m + 3
    _, _, W = gauss_grid(q)
    phi, _, _ = space.ref.tabulate_gauss(q)
    lf, n = space.local_free(), space.n_free
    Kloc = np.empty(lf.shape + lf.shape[1:])
    Floc = np.empty(lf.shape)
    for sl, (px, py), jac in _element_chunks(space, q):
        Kloc[sl] = _stiffness_blocks(space, q, jac)
        fv = np.asarray(f(px, py), dtype=float)
        if fv.shape != px.shape:
            fv = np.broadcast_to(fv, px.shape)
        Floc[sl] = np.einsum("ep,pi->ei", fv * jac[-1] * W[None, :], phi)

    keep = (lf[:, :, None] < n) & (lf[:, None, :] < n)
    li = lf.astype(np.int32)  # the CSR index type scipy picks anyway
    rows = np.broadcast_to(li[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(li[:, None, :], keep.shape)[keep]
    data = Kloc[keep]
    del Kloc, keep
    K = sp.coo_matrix((data, (rows, cols)),  # tocsr sums the duplicates
                      shape=(n, n)).tocsr()
    b = np.bincount(lf.ravel(), weights=Floc.ravel(), minlength=n + 1)[:n]

    return SparseSystem(matrix=K, rhs=b, constraints=space.constraints,
                        elements=lf, coarse=coarse_prolongation(space))


def _element_blocks(A, elements):
    """Transposed inverses of the diagonal blocks of A over each row of
    `elements`, (ne, k, k).  Masked entries (index n) are padded with the
    identity.  The blocks are gathered BLOCK_ELEMENTS rows at a time, and
    each distinct block is inverted once."""
    n = A.shape[0]
    inv = np.empty(elements.shape + elements.shape[1:])
    for start in range(0, len(elements), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        ix = elements[sl]
        keep = (ix[:, :, None] < n) & (ix[:, None, :] < n)
        rows = np.broadcast_to(ix[:, :, None], keep.shape)[keep]
        cols = np.broadcast_to(ix[:, None, :], keep.shape)[keep]
        blocks = np.zeros(keep.shape)
        blocks[keep] = np.asarray(A[rows, cols]).ravel()
        e, j = np.nonzero(ix == n)
        blocks[e, j, j] = 1.0
        first, inverse = _distinct_rows(blocks.reshape(len(blocks), -1)) or _EVERY_ROW
        try:
            inv[sl] = np.linalg.inv(blocks[first].transpose(0, 2, 1))[inverse]
        except np.linalg.LinAlgError as err:
            raise SolverError("singular diagonal block in the preconditioner") from err
    return inv


def _preconditioner(A, elements, coarse):
    """Element-block additive Schwarz, plus the exact coarse-space
    correction P (P^T A P)^{-1} P^T when a prolongation is given.  Without
    an element table every dof is its own block (Jacobi).  A masked entry
    reads an appended zero and writes to a slot that is dropped."""
    n = A.shape[0]
    if elements is None:
        elements = np.arange(n)[:, None]
    inv = _element_blocks(A, elements)

    def fine(r):
        # row-vector products r_e^T B_e^{-T}, faster than B_e^{-1} r_e as
        # a stack of matrix-vector products
        z = np.matmul(np.append(r, 0.0)[elements][:, None, :], inv)
        return np.bincount(elements.ravel(), weights=z.ravel(), minlength=n + 1)[:n]

    if coarse is None:
        return fine
    # a minimum-degree ordering of the symmetric coarse matrix halves the
    # factor time of the default column ordering
    lu = spla.splu((coarse.T @ A @ coarse).tocsc(), permc_spec="MMD_AT_PLUS_A")
    restrict = coarse.T.tocsr()
    return lambda r: fine(r) + coarse @ lu.solve(restrict @ r)


def solve(system: SparseSystem, x0=None):
    """Preconditioned CG on ker(C), or on the whole space when the system
    has no constraint rows.  Residuals and directions are projected onto
    ker(C) with p <- p - C~^T (C~ C~^T)^{-1} C~ p, where C~ drops the last
    (redundant) relation row.

    CG starts from x0 projected onto ker(C), or from zero; a good x0 (the
    prolonged solution of a coarser level, nested iteration) saves
    iterations, and an x0 whose residual is larger than that of zero is
    dropped.  CG stops at a relative projected residual of REL_TOL, within
    a budget of max(100, MAX_ITER_FACTOR * sqrt(n)) iterations, or earlier
    on a direction with nonpositive (or NaN) curvature p.Ap or when r.z is
    not positive (roundoff floor, or a preconditioner that is not positive
    definite).  Returns (x, SolveReport); raises SolverError when the
    residual has not reached REL_TOL, or when C x is not zero."""
    A, b, C = system.matrix, system.rhs, system.constraints
    if C is None or C.nnz == 0:
        C = None
        project = lambda v: v
    else:
        Ct = C[:-1]  # the last element's row is implied by the others
        lu = spla.splu((Ct @ Ct.T).tocsc())
        CtT = Ct.T.tocsr()
        project = lambda v: v - CtT @ lu.solve(Ct @ v)

    maxiter = max(100, int(MAX_ITER_FACTOR * np.sqrt(system.n)))
    x = np.zeros_like(b)
    r = project(b.copy())
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return x, SolveReport(relative_residual=0.0)
    if x0 is not None:
        x0 = project(np.array(x0, dtype=float))  # a copy: x is updated in place
        # b - A x0 has a range(C^T) part of the size of b, and the C~ C~^T
        # solve is accurate to about 1e-12, so one projection leaves a
        # residue near REL_TOL that CG cannot reduce; a second removes it
        r0 = project(project(b - A @ x0))
        # the accuracy CG can reach scales with the largest residual it
        # meets (Greenbaum, SIMAX 18, 1997): an x0 worse than zero is dropped
        if np.linalg.norm(r0) < bnorm:
            x, r = x0, r0
    precondition = _preconditioner(A, system.elements, system.coarse)
    z = project(precondition(r))
    p = z.copy()
    rz = float(np.dot(r, z))
    rel = np.linalg.norm(r) / bnorm
    it = 0
    while rel > REL_TOL and it < maxiter:
        Ap = project(A @ p)
        pAp = float(np.dot(p, Ap))
        if not pAp > 0.0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = project(precondition(r))
        rz_new = float(np.dot(r, z))
        it += 1
        rel = np.linalg.norm(r) / bnorm
        if not rz_new > 0.0:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    cres = float(np.max(np.abs(C @ x))) if C is not None else 0.0
    # residual of the (constrained) problem: projected true residual
    report = SolveReport(
        iterations=it,
        relative_residual=float(np.linalg.norm(project(b - A @ x)) / bnorm),
        constraint_residual=cres,
    )
    if not rel <= REL_TOL:
        raise SolverError(
            f"CG did not converge: residual {rel:.3e} after {it} iterations",
            report,
        )
    if cres > 1e-9 * max(float(np.max(np.abs(x))), 1.0):
        raise SolverError(f"constraint residual too large: {cres:.3e}", report)
    return x, report


def error_norms(space: GlobalSpace, coeffs, u_exact, grad_exact):
    """(L2 error, broken H1 seminorm error) of the FE function vs u_exact,
    by the (m+4)-point tensor Gauss rule."""
    q = space.m + 4
    _, _, W = gauss_grid(q)
    phi, dpx, dpy = space.ref.tabulate_gauss(q)
    local = space.local_values(coeffs)  # (ne, nret)
    l2sq = h1sq = 0.0
    for sl, (px, py), (j11, j12, j21, j22, det) in _element_chunks(space, q):
        cloc = local[sl]
        vals = cloc @ phi.T  # (block, nq)
        gxh = cloc @ dpx.T
        gyh = cloc @ dpy.T
        gx = (j22 * gxh - j21 * gyh) / det
        gy = (-j12 * gxh + j11 * gyh) / det
        ue = np.asarray(u_exact(px, py), dtype=float)
        gex, gey = grad_exact(px, py)
        wdet = W[None, :] * det
        l2sq += float(np.sum(wdet * (vals - ue) ** 2))
        h1sq += float(np.sum(wdet * ((gx - gex) ** 2 + (gy - gey) ** 2)))
    return float(np.sqrt(l2sq)), float(np.sqrt(h1sq))
