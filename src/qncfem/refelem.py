"""Reference element layer on [-1,1]^2.

Shape-function spaces for the three nonconforming families, their degree-of-
freedom sets on edge Gauss points (or edge moments) and interior lattice
points, the linear relation satisfied by the boundary values, and nodal basis
construction with unisolvency checks.

Families:
    R     (odd m)  : P_m + span{x^m y - x y^m}     (tilde variant: + {x y^m})
    ER    (odd m)  : P_m + span{x^m y - x y^m, x^{m+1} - y^{m+1}}
    RPlus (even m) : P_m + span{x^m y, x y^m}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .legendre1d import gauss_rule, legendre_coeffs

__all__ = [
    "Poly2D",
    "Family",
    "DofFunctional",
    "ReferenceElement",
    "build_shape_space",
    "boundary_dof_points",
    "interior_dof_points",
    "constraint_weights",
    "constraint_weights_oracle",
    "simplified_constraint_weights",
    "build_reference_element",
    "discrete_bubble",
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


class Poly2D:
    """Bivariate polynomial as a dense monomial table coeffs[i, j] <-> x^i y^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @classmethod
    def monomial(cls, i: int, j: int, scale: float = 1.0) -> "Poly2D":
        c = np.zeros((i + 1, j + 1))
        c[i, j] = scale
        return cls(c)

    @classmethod
    def zero(cls) -> "Poly2D":
        return cls(np.zeros((1, 1)))

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.coeffs)

    def __add__(self, other: "Poly2D") -> "Poly2D":
        a, b = self.coeffs, other.coeffs
        n = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
        c = np.zeros(n)
        c[: a.shape[0], : a.shape[1]] += a
        c[: b.shape[0], : b.shape[1]] += b
        return Poly2D(c)

    def __sub__(self, other: "Poly2D") -> "Poly2D":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, Poly2D):
            # 2D coefficient convolution
            a, b = self.coeffs, other.coeffs
            c = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0.0:
                        c[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return Poly2D(c)
        return Poly2D(self.coeffs * float(other))

    __rmul__ = __mul__

    def grad(self):
        """Return (d/dx, d/dy) as Poly2D pair."""
        gx = np.polynomial.polynomial.polyder(self.coeffs, axis=0)
        gy = np.polynomial.polynomial.polyder(self.coeffs, axis=1)
        return Poly2D(gx), Poly2D(gy)

    def total_degree(self, tol: float = 0.0) -> int:
        deg = -1
        c = self.coeffs
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                if abs(c[i, j]) > tol:
                    deg = max(deg, i + j)
        return deg

    def edge_trace(self, edge: int) -> np.ndarray:
        """Monomial coefficients of the restriction to edge 1..4 in the edge
        parameter (y on e1/e3, x on e2/e4)."""
        c = self.coeffs
        if edge in (1, 3):
            s = -1.0 if edge == 1 else 1.0
            powers = s ** np.arange(c.shape[0])
            return powers @ c
        s = -1.0 if edge == 2 else 1.0
        powers = s ** np.arange(c.shape[1])
        return c @ powers

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def divide_1d(self, divisor, axis: int):
        """Divide by a univariate polynomial in x (axis=0) or y (axis=1).

        Returns (quotient, remainder) as Poly2D; exactness is up to rounding.
        """
        c = self.coeffs.copy()
        if axis == 1:
            c = c.T
        div = np.asarray(divisor, dtype=float)
        quo = np.zeros_like(c)
        rows = c.shape[0]
        d = len(div) - 1
        for i in range(rows - 1, d - 1, -1):
            factor = c[i] / div[d]
            quo[i - d] = factor
            for r in range(d + 1):
                c[i - d + r] -= factor * div[r]
        rem = c
        if axis == 1:
            quo, rem = quo.T, rem.T
        return Poly2D(quo), Poly2D(rem)


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


@dataclass(frozen=True)
class DofFunctional:
    """A single degree of freedom of the reference element.

    kind is "point" (data = (x, y)) or "moment" (data = (edge, degree));
    cls is "edge", "corner" or "interior".
    """

    kind: str
    cls: str
    data: tuple
    edge: int = 0  # owning edge 1..4 for edge-class dofs
    slot: int = -1  # position on the edge (point index or moment degree)

    def apply(self, p: Poly2D) -> float:
        if self.kind == "point":
            x, y = self.data
            return float(p(x, y))
        edge, degree = self.data
        trace = p.edge_trace(edge)
        leg = np.asarray(legendre_coeffs(degree))
        # exact moment: integrate monomials t^q over [-1, 1]
        n = len(trace) + len(leg) - 1
        prod = np.convolve(trace, leg)
        q = np.arange(n)
        mono_int = np.where(q % 2 == 0, 2.0 / (q + 1), 0.0)
        return float(np.dot(prod, mono_int))


def _pm_monomials(m: int) -> list[Poly2D]:
    out = []
    for d in range(m + 1):
        for i in range(d, -1, -1):
            out.append(Poly2D.monomial(i, d - i))
    return out


def build_shape_space(family: Family, m: int) -> list[Poly2D]:
    """Monomial basis of P_m plus the family's enrichment polynomials."""
    family.check_order(m)
    basis = _pm_monomials(m)
    if family.tag == "R":
        if family.variant == "tilde":
            basis.append(Poly2D.monomial(1, m))
        elif m >= 3:
            basis.append(Poly2D.monomial(m, 1) - Poly2D.monomial(1, m))
        # m == 1 standard: x y - x y vanishes; R_1 = P_1
    elif family.tag == "ER":
        if m >= 3:
            basis.append(Poly2D.monomial(m, 1) - Poly2D.monomial(1, m))
        basis.append(Poly2D.monomial(m + 1, 0) - Poly2D.monomial(0, m + 1))
    else:
        basis.append(Poly2D.monomial(m, 1))
        basis.append(Poly2D.monomial(1, m))
    return basis


def boundary_dof_points(family: Family, m: int) -> list[DofFunctional]:
    """Edge Gauss-point dofs in canonical order (e1, e2, e3, e4; increasing
    parameter), plus the corner (1,1) dof for the even-order family."""
    family.check_order(m)
    nodes = gauss_rule(m).nodes
    dofs = []
    for edge in (1, 2, 3, 4):
        xs, ys = EDGE_PARAM_POINT[edge](nodes)
        for p, (x, y) in enumerate(zip(xs, ys)):
            dofs.append(
                DofFunctional("point", "edge", (float(x), float(y)), edge=edge, slot=p)
            )
    if family.tag == "RPlus":
        dofs.append(DofFunctional("point", "corner", (1.0, 1.0)))
    return dofs


def edge_moment_dofs(m: int) -> list[DofFunctional]:
    """Legendre moment dofs of degree 0..m-1 on each edge, canonical order."""
    dofs = []
    for edge in (1, 2, 3, 4):
        for d in range(m):
            dofs.append(DofFunctional("moment", "edge", (edge, d), edge=edge, slot=d))
    return dofs


def interior_dof_points(family: Family, m: int) -> list[DofFunctional]:
    """Principal-lattice points on the triangle (-1/2,-1/2), (1/2,-1/2),
    (-1/2,1/2), unisolvent for P_d with d = 2k-3 (odd families) or 2k-4."""
    family.check_order(m)
    if family.tag == "RPlus":
        k = m // 2
        d = 2 * k - 4
    else:
        k = (m - 1) // 2
        d = 2 * k - 3
    if k <= 1:
        return []
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
    return [DofFunctional("point", "interior", (float(p[0]), float(p[1]))) for p in pts]


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


def simplified_constraint_weights(m: int) -> np.ndarray:
    """Reduced form of the odd-order relation coefficients.

    Canceling the common positive factor 2 (-1)^(k-1) prod(1 - g_j^2) from
    gamma leaves -2 / prod(g_j^2 - g_i^2) at the center node and
    1 / (g_i^2 (1 - g_i^2) prod_{j != |i|} (g_j^2 - g_i^2)) elsewhere, up to
    the overall sign (-1)^(k-1) folded in here.
    """
    k = (m - 1) // 2
    g = gauss_rule(m).nodes
    gpos = g[k + 1 :]
    sign = (-1.0) ** (k - 1)
    out = np.empty(m)
    for idx, gi in enumerate(g):
        if idx == k:
            val = -2.0
            for gj in gpos:
                val /= gj**2
        else:
            val = 1.0 / (gi**2 * (1.0 - gi**2))
            for gj in gpos:
                if abs(gj**2 - gi**2) > 1e-12:
                    val /= gj**2 - gi**2
        out[idx] = sign * val
    return np.concatenate([out, -out, out, -out])


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


def discrete_bubble(k: int) -> Poly2D:
    """prod_{i=1}^k (x^2 + y^2 - 1 - g_i^2) over the positive nodes of the
    2k-point Gauss rule; vanishes at all 4m even-family edge Gauss points."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g = gauss_rule(2 * k).nodes
    out = Poly2D(np.ones((1, 1)))
    for gi in g[k:]:
        factor = (
            Poly2D.monomial(2, 0)
            + Poly2D.monomial(0, 2)
            + Poly2D.monomial(0, 0, -(1.0 + gi**2))
        )
        out = out * factor
    return out


def verify_relation(m: int, family: Family, v: Poly2D) -> float:
    """Absolute residual of the boundary-value relation for v."""
    weights = constraint_weights(family, m)
    dofs = boundary_dof_points(family, m)
    vals = np.array([d.apply(v) for d in dofs])
    return float(abs(np.dot(weights, vals)))


@dataclass
class ReferenceElement:
    """A nonconforming element on [-1,1]^2 with its solved nodal basis."""

    family: Family
    m: int
    dof_mode: str
    basis: list
    dofs: list
    retained: np.ndarray  # indices into dofs used for the nodal basis
    dropped: int | None  # redundant boundary dof index, or None
    nodal: np.ndarray  # (dim, nret): nodal basis in `basis` coordinates
    constraint: np.ndarray | None  # weights over boundary dofs, or None
    vandermonde: np.ndarray  # full generalized Vandermonde (ndofs, dim)
    _tab_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_retained(self) -> int:
        return len(self.retained)

    @property
    def n_edge_dofs(self) -> int:
        return sum(1 for d in self.dofs if d.cls == "edge")

    def nodal_coeff_tensor(self) -> np.ndarray:
        """Monomial coefficient tables of the nodal basis, shape (nret, D, D)."""
        key = "coeff"
        if key not in self._tab_cache:
            deg = max(max(b.coeffs.shape) for b in self.basis)
            tens = np.zeros((self.n_retained, deg, deg))
            for jn in range(self.n_retained):
                acc = np.zeros((deg, deg))
                for jb, b in enumerate(self.basis):
                    c = b.coeffs
                    acc[: c.shape[0], : c.shape[1]] += self.nodal[jb, jn] * c
                tens[jn] = acc
            self._tab_cache[key] = tens
        return self._tab_cache[key]

    def tabulate(self, x, y):
        """Values and reference gradients of the nodal basis at points (x, y).

        Returns (phi, dphix, dphiy), each shaped (npts, nret).
        """
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        key = ("tab", x.tobytes(), y.tobytes())
        if key not in self._tab_cache:
            tens = self.nodal_coeff_tensor()
            polyval2d = np.polynomial.polynomial.polyval2d
            polyder = np.polynomial.polynomial.polyder
            phi = np.empty((x.size, self.n_retained))
            dphix = np.empty_like(phi)
            dphiy = np.empty_like(phi)
            for j in range(self.n_retained):
                c = tens[j]
                phi[:, j] = polyval2d(x, y, c)
                dphix[:, j] = polyval2d(x, y, polyder(c, axis=0))
                dphiy[:, j] = polyval2d(x, y, polyder(c, axis=1))
            self._tab_cache[key] = (phi, dphix, dphiy)
        return self._tab_cache[key]

    def nodal_poly(self, j: int) -> Poly2D:
        return Poly2D(self.nodal_coeff_tensor()[j])


def _dof_list(family: Family, m: int, dof_mode: str) -> list[DofFunctional]:
    if dof_mode == "point":
        return boundary_dof_points(family, m) + interior_dof_points(family, m)
    if dof_mode != "moment":
        raise ValueError(f"unknown dof mode {dof_mode!r}")
    if family.tag != "ER":
        raise ValueError("moment dofs are defined for the ER family only")
    return edge_moment_dofs(m) + interior_dof_points(family, m)


@lru_cache(maxsize=None)
def _build_cached(tag: str, variant: str, m: int, dof_mode: str) -> ReferenceElement:
    family = Family(tag, variant)
    basis = build_shape_space(family, m)
    dofs = _dof_list(family, m, dof_mode)
    dim = len(basis)
    vand = np.empty((len(dofs), dim))
    for i, d in enumerate(dofs):
        for j, b in enumerate(basis):
            vand[i, j] = d.apply(b)

    rank = np.linalg.matrix_rank(vand, tol=1e-8)
    if rank != dim:
        raise RuntimeError(
            f"unisolvency failure for {tag}/{variant} m={m} ({dof_mode}): "
            f"rank {rank} != dim {dim}"
        )

    constraint = None
    dropped = None
    if family.tag in ("R", "RPlus"):
        constraint = constraint_weights(family, m)
        # drop the first Gauss point of edge e2 (boundary index m)
        dropped = m
    if len(dofs) != dim + (1 if dropped is not None else 0):
        raise RuntimeError(
            f"dof count {len(dofs)} inconsistent with dim {dim} for "
            f"{tag}/{variant} m={m} ({dof_mode})"
        )
    retained = np.array([i for i in range(len(dofs)) if i != dropped])
    square = vand[retained]
    nodal = np.linalg.solve(square, np.eye(dim))
    return ReferenceElement(
        family=family,
        m=m,
        dof_mode=dof_mode,
        basis=basis,
        dofs=dofs,
        retained=retained,
        dropped=dropped,
        nodal=nodal,
        constraint=constraint,
        vandermonde=vand,
    )


def build_reference_element(
    family: Family, m: int, dof_mode: str = "point"
) -> ReferenceElement:
    """Build (and cache) the nodal reference element for a family and order."""
    family.check_order(m)
    return _build_cached(family.tag, family.variant, m, dof_mode)
