"""One-dimensional Gauss machinery on [-1, 1].

Gauss-Legendre rules (Newton iteration on Chebyshev seeds, with the
Legendre three-term recurrence), Gauss-Lobatto nodes and Lagrange bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadRule1D",
    "gauss_rule",
    "gauss_lobatto_nodes",
    "lagrange_basis",
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


def _legendre_eval_with_deriv(n: int, x):
    """(L_n(x), L_n'(x)) by the three-term recurrence; x may be a scalar or
    an array."""
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


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule1D:
    """n-point Gauss-Legendre rule: Newton iteration from Chebyshev seeds."""
    if n < 1:
        raise ValueError("need at least one point")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre_eval_with_deriv(n, x)
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
    _, dp = _legendre_eval_with_deriv(n, x)
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

