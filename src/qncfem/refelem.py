"""Reference element layer on [-1,1]^2.

Shape-function spaces for the three nonconforming families, their degree-of-
freedom sets on edge Gauss points and interior lattice points, the linear
relation satisfied by the boundary values, and nodal basis construction
with unisolvency checks.

Polynomials are monomial coefficient tables, c[i, j] <-> x^i y^j, and a
basis is a stack of them, (n, D, D) (the coefficient-array view of FIAT,
Kirby, ACM TOMS 30, 2004); `poly_values` evaluates a whole stack in one
`polyval2d` call over a trailing coefficient axis.

The dofs of any v are `sampling @ v(points)`, each a weighted sum of point
values (Kirby, op. cit.); the dofs are point values, so every row is an
identity row.

Families:
    R     (odd m)  : P_m + span{x^m y - x y^m}     (tilde variant: + {x y^m})
    ER    (odd m)  : P_m + span{x^m y - x y^m, x^{m+1} - y^{m+1}}
    RPlus (even m) : P_m + span{x^m y, x y^m}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .legendre1d import gauss_rule

__all__ = [
    "Family",
    "ReferenceElement",
    "build_shape_space",
    "poly_values",
    "boundary_dof_points",
    "interior_dof_points",
    "constraint_weights",
    "constraint_weights_oracle",
    "build_reference_element",
    "gauss_grid",
    "property_checks",
    "verify_relation",
]

# Reference square corners A1..A4 (counterclockwise) and edges:
# e1: x=-1 (param y), e2: y=-1 (param x), e3: x=+1 (param y), e4: y=+1 (param x).
EDGE_PARAM_POINT = {
    1: lambda t: (-np.ones_like(t), t),
    2: lambda t: (t, -np.ones_like(t)),
    3: lambda t: (np.ones_like(t), t),
    4: lambda t: (t, np.ones_like(t)),
}

# child c of a refined element is the image of the sub-square
# (xi + CHILD_OFFSETS[c]) / 2, xi in [-1,1]^2, in the order of mesh.refine
CHILD_OFFSETS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


def gauss_grid(q: int):
    """q x q tensor Gauss rule on [-1,1]^2 as flat arrays (X, Y, W)."""
    rule = gauss_rule(q)
    X, Y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    W = np.outer(rule.weights, rule.weights)
    return X.ravel(), Y.ravel(), W.ravel()


@dataclass(frozen=True)
class Family:
    """One of the three nonconforming element families."""

    tag: str  # "R" | "ER" | "RPlus"
    variant: str = "standard"  # "standard" | "tilde" (R only)

    def __post_init__(self):
        if self.tag not in ("R", "ER", "RPlus"):
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.variant not in ("standard", "tilde"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "tilde" and self.tag != "R":
            raise ValueError("tilde variant applies to the R family only")

    def check_order(self, m: int) -> None:
        if self.tag in ("R", "ER"):
            if m < 1 or m % 2 == 0:
                raise ValueError(f"{self.tag} family needs odd order, got {m}")
            if self.variant == "tilde" and m < 3:
                raise ValueError("tilde variant needs m >= 3")
        else:
            if m < 2 or m % 2 == 1:
                raise ValueError(f"RPlus family needs even order >= 2, got {m}")


def poly_values(tables, x, y) -> np.ndarray:
    """Values at the points (x, y) of the polynomials whose monomial
    coefficient tables are stacked in `tables`, (n, D, D) with
    tables[k, i, j] <-> x^i y^j; shape (npts, n), in C order (the products
    that use these values round differently on a transposed layout)."""
    vals = np.polynomial.polynomial.polyval2d(x, y, np.moveaxis(tables, 0, -1))
    return np.ascontiguousarray(vals.T)


def build_shape_space(family: Family, m: int) -> np.ndarray:
    """Monomial coefficient tables (dim, D, D) of the basis of P_m (by
    degree, then decreasing power of x) plus the family's enrichment
    polynomials; D = m + 2 for ER, else m + 1."""
    family.check_order(m)
    terms = [[(i, d - i, 1.0)] for d in range(m + 1) for i in range(d, -1, -1)]
    antisym = [(m, 1, 1.0), (1, m, -1.0)]  # x^m y - x y^m, zero at m = 1
    if family.tag == "R":
        if family.variant == "tilde":
            terms.append([(1, m, 1.0)])
        elif m >= 3:
            terms.append(antisym)
    elif family.tag == "ER":
        if m >= 3:
            terms.append(antisym)
        terms.append([(m + 1, 0, 1.0), (0, m + 1, -1.0)])
    else:
        terms += [[(m, 1, 1.0)], [(1, m, 1.0)]]
    size = m + 2 if family.tag == "ER" else m + 1
    basis = np.zeros((len(terms), size, size))
    for k, poly in enumerate(terms):
        for i, j, c in poly:
            basis[k, i, j] = c
    return basis


def boundary_dof_points(family: Family, m: int) -> np.ndarray:
    """Edge Gauss points in canonical order (e1, e2, e3, e4; increasing
    parameter), plus the corner (1,1) for the even-order family; (n, 2)."""
    family.check_order(m)
    t = gauss_rule(m).nodes
    pts = [np.column_stack(EDGE_PARAM_POINT[e](t)) for e in (1, 2, 3, 4)]
    if family.tag == "RPlus":
        pts.append([[1.0, 1.0]])
    return np.vstack(pts)


def interior_dof_points(family: Family, m: int) -> np.ndarray:
    """Principal-lattice points on the triangle (-1/2,-1/2), (1/2,-1/2),
    (-1/2,1/2), unisolvent for P_d with d = 2k-3 (odd families) or 2k-4;
    shape (n, 2)."""
    family.check_order(m)
    if family.tag == "RPlus":
        k = m // 2
        d = 2 * k - 4
    else:
        k = (m - 1) // 2
        d = 2 * k - 3
    if k <= 1:
        return np.empty((0, 2))
    v0 = np.array([-0.5, -0.5])
    v1 = np.array([0.5, -0.5])
    v2 = np.array([-0.5, 0.5])
    pts = []
    if d == 0:
        pts.append((v0 + v1 + v2) / 3.0)
    else:
        for i in range(d + 1):
            for j in range(d + 1 - i):
                pts.append(v0 + (i / d) * (v1 - v0) + (j / d) * (v2 - v0))
    return np.array(pts)


def _dof_set(family: Family, m: int):
    """(points, sampling) of the dof set.  Its order is the one every layer
    derives from m: local dof j < 4m is the value at Gauss point j % m
    (increasing local parameter) of edge j // m + 1, dof 4m is the RPlus
    corner (1, 1), and the interior lattice points follow."""
    points = np.vstack([boundary_dof_points(family, m), interior_dof_points(family, m)])
    return points, np.eye(len(points))


def _gamma_weights(m: int) -> np.ndarray:
    """Relation coefficients gamma over the m Gauss nodes of the odd-order
    family, ordered by increasing node."""
    k = (m - 1) // 2
    g = gauss_rule(m).nodes
    gpos = g[k + 1 :]  # g_1..g_k
    gamma = np.empty(m)
    for idx, gi in enumerate(g):
        if idx == k:  # g_0 = 0
            val = 4.0
            for gj in gpos:
                val *= (gj**2 - 1.0) / gj**2
        else:
            val = 2.0 / gi**2
            for gj in gpos:
                if abs(gj**2 - gi**2) > 1e-12:
                    val *= (1.0 - gj**2) / (gi**2 - gj**2)
        gamma[idx] = val
    return gamma


def _rel2_weights(m: int) -> np.ndarray:
    """Relation coefficients for the even-order family over the m Gauss nodes
    of the m-point rule, ordered by increasing node."""
    k = m // 2
    g = gauss_rule(m).nodes
    gpos = g[k:]  # g_1..g_k
    w = np.empty(m)
    for idx, gi in enumerate(g):
        val = 1.0 / (gi * (1.0 - gi**2))
        for gj in gpos:
            if abs(gj**2 - gi**2) > 1e-12:
                val /= gi**2 - gj**2
        w[idx] = val
    return w


def constraint_weights(family: Family, m: int) -> np.ndarray:
    """Weight vector over the boundary dofs (canonical order) whose dot
    product with the boundary values vanishes on the shape space.

    Odd family: +gamma on e1/e3, -gamma on e2/e4.  Even family: signs
    (-, +, +, -) on (e1, e2, e3, e4) with the antisymmetric rational weights;
    the corner dof carries weight zero.
    """
    family.check_order(m)
    if family.tag == "ER":
        raise ValueError("the ER family has no boundary-value relation")
    if family.tag == "R":
        gamma = _gamma_weights(m)
        return np.concatenate([gamma, -gamma, gamma, -gamma])
    w = _rel2_weights(m)
    return np.concatenate([-w, w, w, -w, [0.0]])


def constraint_weights_oracle(m: int) -> np.ndarray:
    """Independent relation coefficients alpha_i + beta_i from the two
    augmented Lagrange bases (Gauss nodes plus -1, resp. plus +1)."""
    if m % 2 == 0:
        raise ValueError("oracle is defined for odd orders")
    g = gauss_rule(m).nodes
    nodes0 = np.concatenate(([-1.0], g))
    nodes1 = np.concatenate((g, [1.0]))
    out = np.empty(m)
    for i in range(m):
        alpha = 1.0
        for nj in nodes0:
            if nj != g[i]:
                alpha *= (1.0 - nj) / (g[i] - nj)
        beta = 1.0
        for nj in nodes1:
            if nj != g[i]:
                beta *= (-1.0 - nj) / (g[i] - nj)
        out[i] = alpha + beta
    return out


def verify_relation(m: int, family: Family, v) -> float:
    """Absolute residual of the boundary-value relation for the polynomial
    with monomial coefficient table v."""
    w = constraint_weights(family, m)
    ref = build_reference_element(family, m)
    vals = np.polynomial.polynomial.polyval2d(*ref.points.T, v)
    return float(abs(np.dot(w, ref.sampling[: len(w)] @ vals)))


def property_checks():
    """The reference-element property suite, as (name, passed, detail):
    unisolvency ranks and the Vandermonde null vector against the relation
    weights (R, R~, ER, RPlus), the odd-order weights against the Lagrange
    oracle, and relation residuals on 100 random Q_m polynomials (R) or
    shape-space members (RPlus) per order."""
    rng = np.random.default_rng(0)
    for family, orders in ((Family("R"), (1, 3, 5, 7)),
                           (Family("R", "tilde"), (3, 5, 7)),
                           (Family("ER"), (1, 3, 5, 7)),
                           (Family("RPlus"), (2, 4, 6))):
        name = family.tag + ("~" if family.variant == "tilde" else "")
        for m in orders:
            ref = build_reference_element(family, m)
            rank = np.linalg.matrix_rank(ref.vandermonde)
            yield (f"unisolvency {name} m={m}", rank == ref.dim,
                   f"rank {rank} / dim {ref.dim}")
            if ref.constraint is not None:
                null = np.linalg.svd(ref.vandermonde.T)[2][-1]
                w = np.zeros(len(null))
                w[: len(ref.constraint)] = ref.constraint
                dist = 1 - abs(np.dot(null, w)) / np.linalg.norm(null) / np.linalg.norm(w)
                yield (f"null vector {name} m={m}", dist < 1e-10,
                       f"cosine distance {dist:.2e}")
    for m in (1, 3, 5, 7):
        gamma = constraint_weights(Family("R"), m)[:m]
        oracle = constraint_weights_oracle(m)
        dist = 1 - np.dot(gamma, oracle) / np.linalg.norm(gamma) / np.linalg.norm(oracle)
        yield f"gamma oracle m={m}", abs(dist) < 1e-12, f"1-cos {dist:.2e}"
        res = max(verify_relation(m, Family("R"), rng.standard_normal((m + 1, m + 1)))
                  for _ in range(100))
        yield f"relation residual R m={m}", res <= 1e-12, f"max {res:.2e}"
    for m in (2, 4, 6):
        basis = build_shape_space(Family("RPlus"), m)
        res = max(verify_relation(m, Family("RPlus"),
                                  np.tensordot(rng.standard_normal(len(basis)), basis, 1))
                  for _ in range(100))
        yield f"relation residual RPlus m={m}", res <= 1e-12, f"max {res:.2e}"


@dataclass
class ReferenceElement:
    """A nonconforming element on [-1,1]^2 with its solved nodal basis."""

    family: Family
    m: int
    basis: np.ndarray  # (dim, D, D) monomial coefficient tables
    points: np.ndarray  # (npts, 2) reference sample points
    # (ndofs, npts): dof values of v are sampling @ v(points).  Every row
    # is an identity row (point dofs); the matrix stays so that weighted
    # rows (interior Legendre moments) can join without another code path
    sampling: np.ndarray
    retained: np.ndarray  # indices into the dofs used for the nodal basis
    nodal_coeffs: np.ndarray  # (nret, D, D) monomial tables of the nodal basis
    constraint: np.ndarray | None  # weights over boundary dofs, or None
    vandermonde: np.ndarray  # full generalized Vandermonde (ndofs, dim)
    _tab_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_retained(self) -> int:
        return len(self.retained)

    def tabulate(self, x, y):
        """Values and reference gradients of the nodal basis at points (x, y).

        Returns (phi, dphix, dphiy), each shaped (npts, nret).
        """
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        c = self.nodal_coeffs
        polyder = np.polynomial.polynomial.polyder
        return tuple(poly_values(t, x, y)
                     for t in (c, polyder(c, axis=1), polyder(c, axis=2)))

    def tabulate_gauss(self, q: int):
        """`tabulate` at the points of `gauss_grid(q)`, cached by q."""
        key = ("gauss", q)
        if key not in self._tab_cache:
            X, Y, _ = gauss_grid(q)
            self._tab_cache[key] = self.tabulate(X, Y)
        return self._tab_cache[key]

    @cached_property
    def child_transfer(self) -> np.ndarray:
        """T[c, k, i] = dof_k(phi_i o (xi -> (xi + o_c) / 2)), shape
        (4, ndofs, nret): every local dof of child c (offset o_c of
        CHILD_OFFSETS) applied to the parent's nodal basis function phi_i.
        Exact, because each shape space maps into itself under these
        equal-scale maps: the top-degree part of every enrichment is only
        rescaled, and the rest lies in P_m.  Each dof is `sampling` applied
        to phi_i at the mapped points."""
        mapped = (self.points + np.array(CHILD_OFFSETS)[:, None]) / 2.0
        phi = self.tabulate(mapped[..., 0], mapped[..., 1])[0]
        return self.sampling @ phi.reshape(4, -1, self.n_retained)


@lru_cache(maxsize=None)
def build_reference_element(family: Family, m: int) -> ReferenceElement:
    """Build the nodal reference element for a family and order, once per
    (family, m)."""
    family.check_order(m)
    basis = build_shape_space(family, m)
    points, sampling = _dof_set(family, m)
    dim = len(basis)
    vand = sampling @ poly_values(basis, *points.T)

    rank = np.linalg.matrix_rank(vand)
    if rank != dim:
        raise RuntimeError(
            f"unisolvency failure for {family.tag}/{family.variant} m={m}: "
            f"rank {rank} != dim {dim}"
        )

    ndofs = len(sampling)
    retained = np.arange(ndofs)
    constraint = None
    if family.tag in ("R", "RPlus"):
        constraint = constraint_weights(family, m)
        # the relation makes one dof redundant: the first Gauss point of e2
        retained = np.delete(retained, m)
    if len(retained) != dim:
        raise RuntimeError(
            f"dof count {ndofs} inconsistent with dim {dim} for "
            f"{family.tag}/{family.variant} m={m}"
        )
    nodal = np.linalg.solve(vand[retained], np.eye(dim))
    return ReferenceElement(
        family=family,
        m=m,
        basis=basis,
        points=points,
        sampling=sampling,
        retained=retained,
        nodal_coeffs=np.einsum("bn,bij->nij", nodal, basis),
        constraint=constraint,
        vandermonde=vand,
    )
