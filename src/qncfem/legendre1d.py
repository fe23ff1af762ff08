"""One-dimensional Legendre / Gauss machinery.

Legendre polynomial evaluation, Gauss-Legendre rules (Newton iteration on
Chebyshev seeds), Lagrange bases, L2 projection and Gauss-point interpolation
on [-1, 1]; the last two return `numpy.polynomial.Polynomial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "QuadRule1D",
    "legendre_eval",
    "legendre_eval_with_deriv",
    "legendre_leading_coeff",
    "gauss_rule",
    "gauss_lobatto_nodes",
    "lagrange_basis",
    "l2_project_1d",
    "interp_gauss_1d",
]


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss-Legendre rule on [-1, 1]: exact on P_{2n-1}."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def legendre_eval(n: int, x):
    """Evaluate L_n(x) by the three-term recurrence."""
    return legendre_eval_with_deriv(n, x)[0]


def legendre_eval_with_deriv(n: int, x):
    """Return (L_n(x), L_n'(x)); x may be a scalar or array."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    dp_prev = np.zeros_like(x)
    dp = np.ones_like(x)
    for j in range(1, n):
        p_next = ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp_next = ((2 * j + 1) * (p + x * dp) - j * dp_prev) / (j + 1)
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def legendre_leading_coeff(n: int) -> float:
    """Leading coefficient (2n)! / (2^n (n!)^2) of L_n, built multiplicatively."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > 40:
        raise ValueError("degree out of supported range")
    out = 1.0
    for i in range(1, n + 1):
        out *= (2 * i - 1) / i
    return out


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule1D:
    """n-point Gauss-Legendre rule: Newton iteration from Chebyshev seeds."""
    if n < 1:
        raise ValueError("need at least one point")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = legendre_eval_with_deriv(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 4e-16:
            break
    else:
        raise RuntimeError(f"Newton iteration for Gauss nodes failed at n={n}")
    x = np.sort(x)
    # enforce exact skew symmetry
    x = 0.5 * (x - x[::-1])
    if n % 2 == 1:
        x[n // 2] = 0.0
    _, dp = legendre_eval_with_deriv(n, x)
    w = 2.0 / ((1.0 - x**2) * dp**2)
    return QuadRule1D(x, w)


@lru_cache(maxsize=None)
def gauss_lobatto_nodes(n: int) -> np.ndarray:
    """n Gauss-Lobatto nodes on [-1, 1] (endpoints included), n >= 2."""
    if n < 2:
        raise ValueError("need at least two points")
    if n == 2:
        inner = np.array([])
    else:
        c = np.zeros(n)
        c[n - 1] = 1.0
        inner = np.polynomial.legendre.Legendre(c).deriv().roots()
    nodes = np.concatenate(([-1.0], np.sort(inner.real), [1.0]))
    nodes = 0.5 * (nodes - nodes[::-1])
    nodes.setflags(write=False)
    return nodes


def lagrange_basis(nodes, i: int, x):
    """Cardinal Lagrange basis l_i on the given distinct nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j, nj in enumerate(nodes):
        if j != i:
            out = out * (x - nj) / (nodes[i] - nj)
    return out


def l2_project_1d(f, d: int, npoints: int | None = None) -> Polynomial:
    """L2-orthogonal projection of f onto P_d on [-1, 1].

    For polynomial f of degree <= d+2 the default d+2 point rule is exact;
    pass npoints for rougher integrands.
    """
    if d < 0:
        raise ValueError("target degree must be nonnegative")
    rule = gauss_rule(npoints if npoints is not None else d + 2)
    fv = np.asarray(f(rule.nodes), dtype=float)
    leg = np.zeros(d + 1)
    for j in range(d + 1):
        lj = legendre_eval(j, rule.nodes)
        leg[j] = (2 * j + 1) / 2.0 * np.dot(rule.weights, fv * lj)
    return Polynomial(np.polynomial.legendre.leg2poly(leg)).trim()


def interp_gauss_1d(v, m: int) -> Polynomial:
    """Interpolate v in P_{m-1} at the m Gauss points (odd m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError("order must be odd and positive")
    nodes = gauss_rule(m).nodes
    vand = np.polynomial.polynomial.polyvander(nodes, m - 1)
    coef = np.linalg.solve(vand, np.asarray(v(nodes), dtype=float))
    return Polynomial(coef)
