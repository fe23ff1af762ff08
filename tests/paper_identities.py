"""Reference implementations of paper identities that the tests compare the
library against: the reduced odd-order relation weights, the discrete
bubble of the even family, the per-edge element incidences and the jump
functionals at edge Gauss points.  The pipeline does not call them."""

import math

import numpy as np
import scipy.sparse as sp

from qncfem.refelem import gauss_rule


def simplified_constraint_weights(m: int) -> np.ndarray:
    """Reduced form of the odd-order relation coefficients.

    Canceling the common positive factor 2 (-1)^(k-1) prod(1 - g_j^2) from
    gamma leaves -2 / prod(g_j^2 - g_i^2) at the center node and
    1 / (g_i^2 (1 - g_i^2) prod_{j != |i|} (g_j^2 - g_i^2)) elsewhere, up to
    the overall sign (-1)^(k-1) folded in here.
    """
    k = (m - 1) // 2
    g = gauss_rule(m)[0]
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


def discrete_bubble(k: int) -> np.ndarray:
    """prod_{i=1}^k (x^2 + y^2 - 1 - g_i^2) over the positive nodes of the
    2k-point Gauss rule, as a monomial coefficient table (2k+1, 2k+1);
    vanishes at all 4m even-family edge Gauss points."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g = gauss_rule(2 * k)[0]
    # a polynomial in r = x^2 + y^2, and r^p = sum_l C(p, l) x^2l y^2(p-l)
    radial = np.polynomial.polynomial.polyfromroots(1.0 + g[k:] ** 2)
    out = np.zeros((2 * k + 1, 2 * k + 1))
    for p, a in enumerate(radial):
        for l in range(p + 1):
            out[2 * l, 2 * (p - l)] = a * math.comb(p, l)
    return out


def edge_elements(mesh) -> list:
    """Per edge, its (element, local edge 1..4, same orientation)
    incidences in element order."""
    out = [[] for _ in range(mesh.n_edges)]
    edges = mesh.elem_edges.ravel().tolist()
    same = mesh.elem_edge_orient.ravel().tolist()
    for k, (edge, s) in enumerate(zip(edges, same)):
        out[edge].append((k // 4, k % 4 + 1, s))
    return out


def jump_functionals(space):
    """Jump/trace functionals at edge Gauss points, as a sparse matrix over
    the broken (elementwise) coefficient space.

    The broken space is parameterized by the retained local dofs of every
    element, stacked element by element; the value at a dropped boundary
    point is expanded through the nodal basis.
    """
    ref = space.ref
    mesh = space.mesh
    m = ref.m
    nret = ref.n_retained
    # value of every dof of the function, as a row over the retained dofs
    phi = ref.sampling @ ref.tabulate(*ref.points.T)[0]  # (ndofs, nret)

    rows, cols, vals = [], [], []
    row = 0
    for inc in edge_elements(mesh):
        for slot in range(m):
            for s, (e, le, same) in enumerate(inc):
                # local dof j < 4m is Gauss point j % m of edge j // m + 1
                j = (le - 1) * m + (slot if same else m - 1 - slot)
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
