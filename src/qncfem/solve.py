"""Assembly, the conjugate-gradient solve, and error norms.

The stiffness matrix is assembled with tensor-Gauss quadrature on the
reference square, vectorized over blocks of BLOCK_ELEMENTS elements (as are
the error norms), so temporaries per quadrature point keep a fixed size as
the mesh grows.  `assemble` keys the elements by their inputs, once per
call, with `_distinct_rows` as the one grouping primitive (`error_norms`
keys the maps again, for its own Jacobians).  A map class is
the elements whose bilinear-map coefficients (c1, c2, c3) have the same
bytes, so equal Jacobian bytes at any points: its Jacobian, the
positivity check and the stiffness kernel run once, while f and u are
evaluated at every element's points.  A block class is the elements with
the same map class and, per retained dof, the same map class and local
position of the other holder and the same mask: its Schwarz block and
relation block are formed once, the distinct blocks are then grouped by
their bytes, and each distinct block is inverted once.  K, the coarse
matrix and S read each element's matrix through its class, so no
(elements, k, k) array exists on a mesh with repeats, and the results are
bitwise those of running every element.  A uniform mesh has one map
class and 9 block classes at 3x3 or more; a mesh where nothing repeats
has one class per element and takes the same path, forming its blocks
in place over the element matrices.  `assemble` builds the
preconditioner from the element matrices K_e, with no read of the
assembled K, and the system carries it as one operator.  K and the
coarse matrix are element sums, which `_element_sum` writes straight
into CSR arrays with no COO triplets, and the blocks are inverted in
place, so the temporaries of `assemble` stay below one copy of K.
The ER families give a plain SPD system; the R / RPlus families carry one
relation row per element, and `solve` runs one preconditioned CG for both,
on ker C with a projection for R / RPlus.

The preconditioner is additive two-level Schwarz (Pavarino, Numer. Math. 66,
1994; Brenner, Math. Comp. 65, 1996),
z = sum_e R_e^T (R_e K R_e^T)^{-1} R_e r + P (P^T K P)^{-1} P^T r.
The fine level inverts K on the retained free dofs of each element, so
neighbouring blocks overlap on their shared edge dofs.  Both come from the
dof table alone: a free dof has at most two holders, so each block is K_e
plus, for each element it shares dofs with, that element's entries on
every pair of the shared dofs: the same two-term sums as in K, so the
blocks are K's bytes.  The fine level is applied with a gather, products
and a scatter: a block that many elements share is one GEMM over their
gathered residuals, and the other elements take one stacked product of
row vectors by their own inverses.  One coarse space serves every order:
P maps the isoparametric Q1 space on the same mesh (interior-vertex hats)
to the nonconforming dofs, each free dof's row from any element that
holds it; P v is the bilinear for m >= 2 and its interpolant for m = 1
(Brenner, op. cit.; Sarkis, Numer. Math. 77, 1997).  For R / RPlus, P v
lies in ker C (Q1 satisfies the relation, at m = 1 the midpoint one), so
the coarse term needs no projection.  Each element restricts P to one
reference (n_retained x 4) matrix L, `ref.q1`, so P^T K P is the Q1
assembly of L^T K_e L; `_coarse_space` builds both.  Iterations stay
bounded under refinement and grow mildly with m.  A mesh without an
interior vertex has no coarse space.

The projection onto ker C is oblique to the fine level F, which makes M a
constraint preconditioner (Keller, Gould & Wathen, SIMAX 21, 2000; Gould,
Hribar & Nocedal, SISC 23, 2001): Pi_F v = v - C~^T S^{-1} C~ F v with
S = C~ F C~^T, where C~ drops the last relation row, which the others
imply.  S is the element sum of G_e^T B_e^{-1} G_e, G_e being the relation
rows that touch element e on its retained dofs, which `_relations` takes
from the dof table and the reference weights; `assemble` factors it once.
Since C~ P = 0, M^{-1} Pi_F is symmetric, maps into ker C and vanishes on
range C~^T, so CG projects its residual once per iteration and nothing
else.  Wrapping M^{-1} in the Euclidean projection
I - C~^T (C~ C~^T)^{-1} C~ instead takes twice the iterations (cold RPlus4
on 32x32: 89 against 43).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import bilinear_coefficients, bilinear_jacobian, bilinear_points
from .refelem import gauss_grid
from .space import GlobalSpace

__all__ = [
    "SparseSystem",
    "SolveReport",
    "SolverError",
    "assemble",
    "solve",
    "error_norms",
]

REL_TOL = 1e-13  # relative (projected) residual at which CG stops
STALL_ITERATIONS = 1000  # CG gives up after as many without a new least residual
MAX_ITER_FACTOR = 400.0  # iteration budget max(100, int(F * sqrt(n)))
BLOCK_ELEMENTS = 256  # elements per block of the element kernels
GEMM_GROUP = 16  # elements that share a Schwarz block, to apply it as one GEMM


class SolverError(Exception):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class Projection(NamedTuple):
    """The F-oblique projection along range(C~^T) onto ker(C~ F), for
    residuals, and its transpose, which maps any x into ker(C~)."""

    residual: Callable[[np.ndarray], np.ndarray]  # v - C~^T S^{-1} C~ F v
    iterate: Callable[[np.ndarray], np.ndarray]  # v - F C~^T S^{-1} C~ v


@dataclass
class SolveReport:
    """CG's iterations, the relative residual of x, ||Pi (b - K x)|| /
    ||Pi b|| with the projection Pi of `solve` (the identity without
    relation rows), and max |C x|."""

    iterations: int = 0
    relative_residual: float = np.inf
    constraint_residual: float = 0.0


@dataclass
class SparseSystem:
    """Symmetric sparse system K x = b, optionally restricted to ker(C),
    the preconditioner r -> M^{-1} r that `solve` uses and, with relation
    rows, the projection CG runs with: `assemble` sets them to the
    two-level Schwarz operator it builds from the element matrices and to
    the projection oblique to its fine level."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    precondition: Callable[[np.ndarray], np.ndarray]
    constraints: sp.csr_matrix | None = None
    projection: Projection | None = None

    @property
    def n(self) -> int:
        return len(self.rhs)


class _MapClasses(NamedTuple):
    """The elements' bilinear maps, grouped into map classes: the elements
    whose (c1, c2, c3) have the same bytes, which gives them Jacobians with
    the same bytes at any points."""

    coefficients: tuple  # (c0, c1, c2, c3) of every element, each (2, ne)
    of_classes: tuple  # the same of each class's first element
    first: np.ndarray | None  # the first element of each class, in order
    index: np.ndarray | None  # the class of each element
    # first and index are None when no two elements share a class

    def jacobians(self, rows, q: int):
        """The Jacobian entries (j11, j12, j21, j22, det) of the classes
        rows, a slice or an index array, at the q x q Gauss grid, each
        (rows, q*q).  Raises ValueError when a det is not positive, naming
        the first element of the first such class."""
        X, Y, _ = gauss_grid(q)
        jac = bilinear_jacobian(tuple(c[:, rows] for c in self.of_classes), X, Y)
        if not np.min(jac[-1]) > 0.0:
            bad = ~(np.min(jac[-1], axis=1) > 0.0)
            c = np.arange(len(self.of_classes[0][0]))[rows][np.argmax(bad)]
            raise ValueError("nonpositive Jacobian in element "
                             f"{c if self.first is None else self.first[c]}")
        return jac


def _map_classes(space: GlobalSpace) -> _MapClasses:
    """The map coefficients of every element and their map classes, keyed
    by (c1, c2, c3)."""
    c = bilinear_coefficients(space.mesh.corner_array())
    found = _classes(np.concatenate([a.T for a in c[1:]], axis=1))
    if found is None:
        return _MapClasses(c, c, None, None)
    return _MapClasses(c, tuple(a[:, found[0]] for a in c), *found)


def _classes(key):
    """(first, index) of the distinct rows of key by their bytes, numbered
    in order of first appearance: first[c] is the first row of class c, and
    index[r] the class of row r.  None when no row repeats (`_distinct_rows`)."""
    found = _distinct_rows(key)
    if found is None:
        return None
    first, inverse = found
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _compose(outer, inner):
    """outer[inner], either of them None for the identity."""
    if inner is None:
        return outer
    return inner if outer is None else outer[inner]


@functools.cache
def _projection(width: int) -> np.ndarray:
    return np.random.default_rng(0).integers(2**64, size=width, dtype=np.uint64)


def _distinct_rows(rows):
    """Group the rows of a 2-D array of 8-byte items (float64 or int64) by
    their bytes: (first, inverse) such that rows[first][inverse] equals
    rows byte for byte, or None when no row repeats.  Rows are keyed by a
    random projection of their bits (integer arithmetic, so equal bytes give
    equal keys in any summation order), first of eight sampled columns,
    which settles most arrays without a repeat, then of all; a key shared
    by rows with different bytes also gives None."""
    bits = rows.view(np.uint64)
    for part in (bits[:, ::-(-rows.shape[1] // 8)], bits):
        keys = part @ _projection(part.shape[1])
        ordered = np.sort(keys)
        if np.all(ordered[1:] != ordered[:-1]):
            return None
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # compared BLOCK_ELEMENTS rows at a time, so that no copy of rows is made
    for start in range(0, len(rows), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        if not np.array_equal(bits[first[inverse[sl]]], bits[sl]):
            return None
    return first, inverse


def _stiffness_blocks(space: GlobalSpace, q: int, jac):
    """Local stiffness blocks, one per row of the Jacobian entries jac
    (`_MapClasses.jacobians`) at the q x q Gauss grid."""
    _, _, W = gauss_grid(q)
    j11, j12, j21, j22, det = jac
    _, dpx, dpy = space.ref.tabulate_gauss(q)  # (nq, nret)
    a = W[None, :] / det
    # physical gradients scaled by det, (J^{-T} grad_hat) * det, one
    # component at a time to halve the (block, nq, nret) temporaries; each
    # adds sum_p a_p g_pi g_pj as the batched product (a g)^T g
    g = j22[:, :, None] * dpx[None]
    g -= j21[:, :, None] * dpy[None]
    K = np.matmul((a[:, :, None] * g).transpose(0, 2, 1), g)
    g = j11[:, :, None] * dpy[None]
    g -= j12[:, :, None] * dpx[None]
    K += np.matmul((a[:, :, None] * g).transpose(0, 2, 1), g)
    return K


def _partners(lf, n):
    """Flat position e k + i, in the (ne, k) free-dof table lf (n where
    masked), of the other holder of each local free dof, or -1 when the dof
    is masked or has one holder.  A free dof has at most two holders."""
    flat, pos = lf.ravel(), np.arange(lf.size)
    # the other holder's position is the sum of both positions less its own
    total = np.bincount(flat, weights=pos, minlength=n + 1)[flat].astype(np.int64)
    twice = (np.bincount(flat, minlength=n + 1)[flat] == 2) & (flat < n)
    return np.where(twice, total - pos, -1).reshape(lf.shape)


def _neighbour_sums(blocks, source, maps, reps, partner):
    """Turn element matrices into the diagonal blocks of K.  blocks[r]
    starts as source[maps[e]], the matrix of element e = reps[r] (maps and
    reps None: the identity), and takes on every pair of dofs that e shares
    with a neighbour o the sum of both elements' terms, source[maps[o]] at
    o's positions; partner[r] gives for each dof of e the flat position
    o k + i' (`_partners`), or -1.  A sum is formed once, by the first
    holder, and written into both blocks (a + b and b + a have the same
    bytes), or by e alone when o has no block of its own; so blocks may be
    source itself, every element its own block.  A block of elements at a
    time."""
    k = partner.shape[1]
    if reps is None:
        row_of = np.arange(len(blocks))  # the row of blocks of each element
    else:
        row_of = np.full(len(maps), -1)
        row_of[reps] = np.arange(len(reps))
    flat, read = blocks.reshape(-1), source.reshape(-1)
    for start in range(0, len(blocks), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        p = partner[sl]
        e = np.arange(start, start + len(p)) if reps is None else reps[sl]
        other, at = p // k, p % k  # the other holder, or -1
        row = np.where(other >= 0, row_of[other], -1)
        first = other > e[:, None]
        # (r k + i) k + j of the pairs that e's block forms: i and j have
        # one other holder o, which comes later or has no block
        pair = np.flatnonzero((other[:, :, None] == other[:, None, :])
                              & ((other >= 0) & (first | (row < 0)))[:, :, None])
        ri, j = np.divmod(pair, k)  # r k + i
        ai, aj = at.ravel()[ri], at.ravel()[ri - ri % k + j]
        own = start * k * k + pair
        o = _compose(maps, other.ravel()[ri])
        total = flat[own] = flat[own] + read[(o * k + ai) * k + aj]
        ro = row.ravel()[ri]
        both = first.ravel()[ri] & (ro >= 0)
        flat[((ro * k + ai) * k + aj)[both]] = total[both]


def _element_sum(local, index, n, classes=None) -> sp.csr_matrix:
    """The n x n matrix sum_e R_e^T local[classes[e]] R_e in CSR, where R_e
    maps local position j to row index[e, j] and drops it when that is n or
    more, and classes None reads local[e].  Row d lists the rows i of the
    local matrices with index[e, i] = d over their kept columns, in element
    order as a COO build does, so that the duplicate sum gives the COO
    build's bytes; one stable sort of index orders them, and they are
    copied as many at a time as a block of BLOCK_ELEMENTS elements has.
    The arrays keep their size with duplicates."""
    k = index.shape[1]
    free = index < n
    # the local rows e k + i by their row of the sum, the dropped ones last
    order = np.argsort(index, axis=None, kind="stable")[:np.count_nonzero(free)]
    # int32, the CSR index type scipy picks below 2**31 entries
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(index.ravel()[order], minlength=n,
                                       weights=free.sum(axis=1)[order // k]))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    rows, at = local.reshape(-1, k), 0
    for start in range(0, len(order), BLOCK_ELEMENTS * k):
        part = order[start:start + BLOCK_ELEMENTS * k]
        element = part // k
        keep = free[element]
        stop = at + np.count_nonzero(keep)
        read = part if classes is None else classes[element] * k + part % k
        data[at:stop] = rows[read][keep]
        indices[at:stop] = index[element][keep]
        at = stop
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    A.sum_duplicates()
    return A


def _coarse_space(space: GlobalSpace, Kc, classes):
    """(P, P^T K P) of the Q1 space, or (None, None) when the mesh has no
    interior vertex.  Column v of P holds the dofs of the hat function of
    interior vertex v (in vertex order), or for m = 1 of its interpolant,
    each free dof's row taken from any element that holds it.
    P^T K P assembles L^T K_e L over the element matrices, K_e being
    Kc[classes[e]], with L = `ref.q1` on the retained dofs: a masked dof
    lies on a boundary edge, where only the bilinears of its two boundary
    corners do not vanish."""
    mesh, local = space.mesh, space.ref.q1
    n_coarse, n, dofs = mesh.n_interior_vertices, space.n_free, space.dofs
    if n_coarse == 0:
        return None, None
    index = np.full(len(mesh.vertices), n_coarse, dtype=np.int64)
    index[~mesh.vertex_is_boundary] = np.arange(n_coarse)
    corners = index[mesh.quads]
    holder = np.empty(n + 1, dtype=np.int64)
    holder[dofs] = np.arange(dofs.size).reshape(dofs.shape)
    e, j = np.divmod(holder[:n], dofs.shape[1])
    cols, vals = corners[e], local[j]  # (n, 4)
    keep = (cols < n_coarse) & (vals != 0.0)
    P = sp.csr_matrix((vals[keep], (np.nonzero(keep)[0], cols[keep])), shape=(n, n_coarse))
    L = local[space.ref.retained]
    return P, _element_sum(L.T @ Kc @ L, corners, n_coarse, classes).tocsc()


def _element_terms(space: GlobalSpace, f, lf, n):
    """(Kc, b, index): the stiffness matrices of the map classes over the
    retained dofs, (classes, k, k), each computed once, the load vector
    assembled over the free dofs lf (n where masked), with f evaluated at
    every element's points, both with the (m+3)-point tensor Gauss rule,
    and the map class of each element (None: every element its own)."""
    maps = _map_classes(space)
    q = space.m + 3
    X, Y, W = gauss_grid(q)
    phi, _, _ = space.ref.tabulate_gauss(q)
    nc = len(maps.of_classes[0][0])
    Kc = np.empty((nc,) + lf.shape[1:] * 2)
    det = np.empty((nc, len(W)))  # of each class, for the load
    for start in range(0, nc, BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        jac = maps.jacobians(sl, q)
        det[sl] = jac[-1]
        Kc[sl] = _stiffness_blocks(space, q, jac)
    Floc = np.empty(lf.shape)
    for start in range(0, len(lf), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        px, py = bilinear_points(tuple(c[:, sl] for c in maps.coefficients), X, Y)
        fv = np.asarray(f(px, py), dtype=float)
        jdet = det[sl] if maps.index is None else det[maps.index[sl]]
        Floc[sl] = np.einsum("ep,pi->ei", fv * jdet * W[None, :], phi)
    return Kc, np.bincount(lf.ravel(), weights=Floc.ravel(), minlength=n + 1)[:n], maps.index


def assemble(space: GlobalSpace, f) -> SparseSystem:
    """Assemble stiffness and load over the free dofs with the (m+3)-point
    tensor Gauss rule; attach the constraint rows for the R / RPlus
    families, and the preconditioner built from the element matrices: the
    inverses of the diagonal blocks and the factored coarse matrix P^T K P.
    In order: the map classes; their element matrices and b; the coarse
    space; K, the element sum; the block classes, whose diagonal blocks
    (pair sums and boundary masks) and relation blocks are formed once
    each; the inverses, written over the blocks.  Raises SolverError when a
    diagonal block is singular."""
    lf, n = space.local_free(), space.n_free
    # a function of its own, so that the map coefficients and the
    # quadrature arrays are freed before K is built
    Kc, b, maps = _element_terms(space, f, lf, n)
    coarse, coarse_matrix = _coarse_space(space, Kc, maps)
    K = _element_sum(Kc, lf, n, maps)
    blocks, classes, relations = _element_blocks(space, lf, Kc, maps)
    precondition, projection = _preconditioner(n, lf, blocks, classes, coarse,
                                               coarse_matrix, relations)
    return SparseSystem(matrix=K, rhs=b, precondition=precondition,
                        constraints=space.constraints, projection=projection)


def _element_blocks(space: GlobalSpace, lf, Kc, maps):
    """(blocks, classes, relations): the diagonal blocks of K over the
    retained free dofs lf (identity rows and columns where masked), one per
    block class, the class of each element (None when no two elements share
    one), and the relation blocks of `_relations` for the same classes.
    Element e has the stiffness matrix
    Kc[maps[e]] (maps None: Kc[e]).  A block class is the elements whose
    map class and, for each retained dof, the map class of its other holder
    and its local position there (-1 for none, -2 where masked) are equal:
    a free dof has at most two holders, which share the edge it lies on,
    and those give the block and the relation block.  When no two
    elements share a map class either, blocks is Kc, overwritten."""
    n, ref = space.n_free, space.ref
    ne, k = lf.shape
    width = space.dofs.shape[1]
    # the other holder of each local dof, flat e' width + j', which the
    # block classes and the relation blocks read
    held = None
    if maps is not None or space.constraints is not None:
        held = _partners(space.dofs, n)
    reps, classes = None, None
    if maps is not None:
        other = held[:, ref.retained]
        key = np.empty((ne, 1 + 2 * k), dtype=np.int64)
        key[:, 0] = maps
        key[:, 1:k + 1] = np.where(other >= 0, maps[other // width], -1)
        key[:, k + 1:] = np.where(lf == n, -2, np.where(other >= 0, other % width, -1))
        reps, classes = _classes(key) or (None, None)
    partner = _compose(_partners(lf, n), reps)
    rows = _compose(maps, reps)
    blocks = Kc if rows is None else Kc[rows]
    _neighbour_sums(blocks, Kc, maps, reps, partner)
    lf = _compose(lf, reps)
    e, j = np.nonzero(lf == n)
    blocks[e, j, :] = 0.0
    blocks[e, :, j] = 0.0
    blocks[e, j, j] = 1.0
    return blocks, classes, _relations(space, lf, held, reps)


def _relations(space: GlobalSpace, lf, held, reps):
    """(C~, G, index), C~ being the relation rows but the last, which the
    others imply, or None when C~ has no entry.  G[r] (k x 5) holds the
    columns of C~^T on the retained free dofs lf[r] of element e = reps[r]
    (every element when reps is None; zero rows where masked): the relation
    of e and those of its neighbours across its edges 0-3, whose rows of C~
    `index` (ne, 5) gives for every element, or ne - 1 (past C~) for a
    missing neighbour and for the last relation.  G comes from the dof
    table, whose other holder of each local dof `held` gives
    (`_partners`), and the reference weights, not from C: an edge dof has
    at most the two holders of its edge, each weighting it by the weight at
    its own local position, and the dofs past the weights have none."""
    C = space.constraints
    if C is None or C[:-1].nnz == 0:
        return None
    ref, m, n = space.ref, space.m, space.n_free
    ne, width = held.shape
    w = ref.constraint / np.max(np.abs(ref.constraint))  # the entries of C
    own = np.zeros(width)
    own[:len(w)] = w
    G = np.zeros(lf.shape + (5,))
    G[:, :, 0] = np.where(lf < n, own[ref.retained], 0.0)
    edge = np.nonzero(ref.retained < 4 * m)[0]
    at = ref.retained[edge]
    other = _compose(held, reps)[:, at]
    G[:, edge, 1 + at // m] = np.where(other >= 0, own[other % width], 0.0)
    index = np.empty((ne, 5), dtype=np.int64)
    index[:, 0] = np.arange(ne)
    first = held[:, : 4 * m : m]  # the first dof of each edge
    index[:, 1:] = np.where(first >= 0, first // width, ne - 1)
    return C[:-1], G, index


def _block_inverses(blocks):
    """(inv, group): the transposed inverses of the distinct blocks of a
    stack, each inverted once, and the row of inv that holds each block's
    inverse, or None when no block repeats.  inv is `blocks[first]`, a view
    of `blocks` when no block repeats (so the inverses are written over
    the blocks) and a copy of the distinct blocks otherwise; it is inverted
    in place, a block of elements at a time.  Raises SolverError when a
    block is singular: when LAPACK meets a zero pivot, or when ||B 1|| <
    k eps ||B|| (infinity norm), the rounding of its k-term row sums.
    Every shape space holds the constants and every dof is a point value,
    so a block that is K_e alone (no masked dof, no neighbour term) maps
    the all-ones vector 1 to zero, which LAPACK's pivots need not show;
    the regular blocks measured keep ||B 1|| above 1e-12 ||B||."""
    first, group = _distinct_rows(blocks.reshape(len(blocks), -1)) or (slice(None), None)
    inv = blocks[first]
    k = blocks.shape[-1]
    ones = np.ones(k)
    try:
        for start in range(0, len(inv), BLOCK_ELEMENTS):
            sl = slice(start, start + BLOCK_ELEMENTS)
            # the chunk's rows, so that B 1 and |B| 1 are one BLAS product each
            rows = inv[sl].reshape(-1, k)
            image = np.abs(rows @ ones).reshape(-1, k).max(axis=1)
            if np.any(image < k * np.finfo(float).eps
                      * (np.abs(rows) @ ones).reshape(-1, k).max(axis=1)):
                raise SolverError("singular diagonal block in the preconditioner: "
                                  "the constants are in its null space")
            inv[sl] = np.linalg.inv(inv[sl].transpose(0, 2, 1))
    except np.linalg.LinAlgError as err:
        raise SolverError("singular diagonal block in the preconditioner") from err
    return inv, group


def _relation_matrix(inv, group, classes, relations):
    """S = C~ F C~^T, F = sum_e R_e^T B_e^{-1} R_e being the fine level:
    the element sum of G_e^T B_e^{-1} G_e over the `relations` (C~, G,
    index) of `_relations`, with the transposed inverses inv and their rows
    group of `_block_inverses` over the class blocks, and the block class
    of each element (None: its own).  The products run once per block
    class (nine on a uniform mesh), a block of classes at a time."""
    Ct, G, index = relations
    row = np.arange(len(G)) if group is None else group  # of inv, per class
    local = np.empty((len(G),) + G.shape[2:] * 2)
    for start in range(0, len(G), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        # (B^{-T} G)^T G = G^T B^{-1} G
        np.matmul(np.matmul(inv[row[sl]], G[sl]).transpose(0, 2, 1), G[sl], out=local[sl])
    return _element_sum(local, index, Ct.shape[0], classes)


def _preconditioner(n, elements, blocks, classes, coarse, coarse_matrix, relations):
    """(r -> M^{-1} r, Projection or None) on n dofs.  M^{-1} is
    element-block additive Schwarz over the table `elements` (free dof per
    local position, n where masked) with the matching diagonal blocks
    (identity rows and columns on masked positions), element e's being
    blocks[classes[e]] (classes None: blocks[e]), plus the exact
    coarse-space correction P (P^T A P)^{-1} P^T when the prolongation
    `coarse` and its `coarse_matrix` P^T A P are not None.  Each distinct
    block is inverted once; when no block repeats, the inverses are
    written over `blocks`, which the caller gives up.  A masked entry reads
    an appended zero and writes to a slot that is dropped.  A block that at
    least GEMM_GROUP elements share is applied as one GEMM over their
    gathered residuals; every other element takes its own row-vector
    product in one stacked product.

    With `relations` (C~, G, index) of `_relations`, G given per block
    class like the blocks, the projection is oblique to the fine level F,
    and S = C~ F C~^T is factored once.  Since C~ P = 0, M^{-1} Pi_F = F -
    F C~^T S^{-1} C~ F + Q is symmetric, maps into ker(C~) and vanishes on
    range(C~^T).  Raises SolverError when a block is singular
    (`_block_inverses`)."""
    inv, group = _block_inverses(blocks)
    if relations is not None:
        # S is SPD: a minimum-degree ordering of its pattern with diagonal
        # pivots, as for the coarse matrix
        s_lu = spla.splu(_relation_matrix(inv, group, classes, relations).tocsc(),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        Ct = relations[0]
        CtT = Ct.T.tocsr()
    group = _compose(group, classes)  # the row of inv of each element
    # the shared groups first, each a contiguous run of elements, then the
    # rest; when no block repeats, `elements` and inv serve uncopied
    products, split = [], 0
    if group is not None:
        sizes = np.bincount(group)
        shared = sizes >= GEMM_GROUP
        if np.any(shared):
            order = np.argsort(np.where(shared[group], group, len(sizes)), kind="stable")
            elements, group = elements[order], group[order]
            stops = np.cumsum(sizes[shared])
            products = list(zip(stops - sizes[shared], stops, inv[shared]))
            split = stops[-1]
        inv = inv[group[split:]]
    scatter = elements.ravel()  # a copy when the table is not C-ordered

    def fine(r):
        x = np.append(r, 0.0)[elements][:, None, :]
        z = np.empty(x.shape)
        for start, stop, b in products:
            np.matmul(x[start:stop, 0], b, out=z[start:stop, 0])
        # row-vector products r_e^T B_e^{-T}, faster than B_e^{-1} r_e as
        # a stack of matrix-vector products
        np.matmul(x[split:], inv, out=z[split:])
        return np.bincount(scatter, weights=z.ravel(), minlength=n + 1)[:n]

    projection = None if relations is None else Projection(
        residual=lambda v: v - CtT @ s_lu.solve(Ct @ fine(v)),
        iterate=lambda v: v - fine(CtT @ s_lu.solve(Ct @ v)))
    if coarse is None:
        return fine, projection
    # a minimum-degree ordering of the symmetric coarse matrix halves the
    # factor time of the default column ordering
    lu = spla.splu(coarse_matrix, permc_spec="MMD_AT_PLUS_A")
    restrict = coarse.T.tocsr()
    return lambda r: fine(r) + coarse @ lu.solve(restrict @ r), projection


def solve(system: SparseSystem, x0=None):
    """CG preconditioned by `system.precondition`, on ker(C) when the
    system carries a `projection`, else on the whole space.  With relation
    rows the residuals are projected with Pi_F v = v - C~^T S^{-1} C~ F v,
    S = C~ F C~^T, where F is the preconditioner's fine level and C~ drops
    the last (redundant) relation row: each iteration projects its updated
    residual r - alpha A p once, and M^{-1} of a projected residual already
    lies in ker(C), so the directions need no projection
    (`_preconditioner`).

    CG starts from x0 mapped into ker(C) by the transpose of Pi_F, or from
    zero; a good x0 (the prolonged solution of a coarser level, nested
    iteration) saves iterations, and an x0 whose residual is larger than
    that of zero is dropped.  CG stops at a relative projected residual of
    REL_TOL, within a budget of max(100, MAX_ITER_FACTOR * sqrt(n))
    iterations, or earlier on a direction with nonpositive (or NaN)
    curvature p.Ap, when r.z is not positive (roundoff floor, or a
    preconditioner that is not positive definite), or when
    STALL_ITERATIONS iterations have passed without a new least residual
    (a residual stalled on a floor above REL_TOL).
    Returns (x, SolveReport); raises SolverError when the residual has not
    reached REL_TOL ("stalled" after the last exit), when C x is not zero,
    or when the true projected residual of x is not below that of x = 0
    ("diverged": the recursive residual can reach REL_TOL on a system
    with no solution), and ValueError unless x0 has shape (n,)."""
    A, b, C = system.matrix, system.rhs, system.constraints
    if x0 is not None and np.shape(x0) != (system.n,):
        raise ValueError(f"expected x0 of shape ({system.n},), got {np.shape(x0)}")
    identity = lambda v: v
    project, project_x0 = system.projection or (identity, identity)

    maxiter = max(100, int(MAX_ITER_FACTOR * np.sqrt(system.n)))
    x = np.zeros_like(b)
    r = project(b.copy())
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return x, SolveReport(relative_residual=0.0)
    if x0 is not None:
        x0 = project_x0(np.array(x0, dtype=float))  # a copy: x is updated in place
        # b - A x0 has a range(C^T) part of the size of b, and the S solve
        # is accurate to about 1e-12, so one projection leaves a residue
        # near REL_TOL, which M^{-1} would carry out of ker(C) into the
        # first direction; a second removes it
        r0 = project(project(b - A @ x0))
        # the accuracy CG can reach scales with the largest residual it
        # meets (Greenbaum, SIMAX 18, 1997): an x0 worse than zero is dropped
        if np.linalg.norm(r0) < bnorm:
            x, r = x0, r0
    precondition = system.precondition
    z = precondition(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    rel = best = np.linalg.norm(r) / bnorm
    it = best_at = 0
    while rel > REL_TOL and it < maxiter and it - best_at < STALL_ITERATIONS:
        Ap = A @ p
        pAp = float(np.dot(p, Ap))
        if not pAp > 0.0:
            break
        alpha = rz / pAp
        x += alpha * p
        # the updated residual is projected, not A p alone: the rounding
        # residue of the S solve in range(C~^T) then stays in proportion
        # to r instead of piling up (projecting A p alone, cold R1 on
        # 128x128 broke down at 1.7e-13); p in ker(C) gives p.Ap = p.Pi_F Ap
        r -= alpha * Ap
        r = project(r)
        z = precondition(r)
        rz_new = float(np.dot(r, z))
        it += 1
        rel = np.linalg.norm(r) / bnorm
        if rel < best:
            best, best_at = rel, it
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
        stalled = it - best_at >= STALL_ITERATIONS
        raise SolverError(
            f"CG {'stalled' if stalled else 'did not converge'}: residual {rel:.3e} "
            f"after {it} iterations",
            report,
        )
    if cres > 1e-9 * max(float(np.max(np.abs(x))), 1.0):
        raise SolverError(f"constraint residual too large: {cres:.3e}", report)
    # the rule for x0 above: an x no better than zero is no solution
    if not report.relative_residual < 1.0:
        raise SolverError(f"CG diverged: true residual {report.relative_residual:.3e} "
                          f"after {it} iterations", report)
    return x, report


def error_norms(space: GlobalSpace, coeffs, u_exact, grad_exact):
    """(L2 error, broken H1 seminorm error) of the FE function vs u_exact,
    by the (m+4)-point tensor Gauss rule.  A block of elements maps its own
    points and takes each distinct Jacobian among them once."""
    q = space.m + 4
    X, Y, W = gauss_grid(q)
    phi, dpx, dpy = space.ref.tabulate_gauss(q)
    local = space.local_values(coeffs)  # (ne, nret)
    maps = _map_classes(space)
    l2sq = h1sq = 0.0
    for start in range(0, len(local), BLOCK_ELEMENTS):
        sl = slice(start, start + BLOCK_ELEMENTS)
        px, py = bilinear_points(tuple(c[:, sl] for c in maps.coefficients), X, Y)
        rows, spread = (sl, slice(None)) if maps.index is None else \
            np.unique(maps.index[sl], return_inverse=True)
        j11, j12, j21, j22, det = (a[spread] for a in maps.jacobians(rows, q))
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
