"""Read the operators `assemble` builds its preconditioner from.

`SparseSystem` carries only the finished preconditioner and projection;
the tests that check their parts byte for byte read them here, through a
spy on `solve._preconditioner`, so that no test-only code lives in `src`."""

import contextlib
import sys
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from qncfem.solve import assemble

SOLVE = sys.modules["qncfem.solve"]


class Operators(NamedTuple):
    """The arguments of `_preconditioner`: the blocks and the relation
    blocks G come one per block class, and `classes` gives each element's."""

    n: int
    elements: np.ndarray  # free dof per retained local dof, n where masked
    blocks: np.ndarray  # (classes, k, k) diagonal blocks of K
    classes: np.ndarray | None  # block class of each element, None: its own
    coarse: sp.csr_matrix | None  # P
    coarse_matrix: sp.csc_matrix | None  # P^T K P
    relations: tuple | None  # (C~, G, index) of `solve._relations`, or None

    @property
    def element_blocks(self) -> np.ndarray:
        """(ne, k, k): the diagonal block of every element."""
        return self.blocks if self.classes is None else self.blocks[self.classes]

    @property
    def element_relations(self) -> tuple | None:
        """(C~, G, index) with G (ne, k, 5) of every element."""
        if self.relations is None or self.classes is None:
            return self.relations
        Ct, G, index = self.relations
        return Ct, G[self.classes], index

    def element_inverses(self) -> np.ndarray:
        """(ne, k, k): the inverse of every element's block, from
        `solve._block_inverses` over a copy of the blocks (the
        preconditioner inverts them in place)."""
        inv, group = SOLVE._block_inverses(self.blocks.copy())
        rows = SOLVE._compose(group, self.classes)
        return inv if rows is None else inv[rows]

    def relation_blocks(self) -> tuple:
        """(S, H) of `solve._relation_matrix`, formed from a copy of the
        blocks (the preconditioner inverts them in place), with H of every
        element, (ne, k, 5): S = C~ F C~^T and H_e^T = B_e^{-1} G_e, the
        relation blocks of C~ F as `_relation_matrix` stores them."""
        inv, group = SOLVE._block_inverses(self.blocks.copy())
        S, H = SOLVE._relation_matrix(inv, group, self.classes, self.relations)
        return S, H if self.classes is None else H[self.classes]


@contextlib.contextmanager
def recording():
    """Record the `Operators` of every `_preconditioner` call while active,
    in the list it yields."""
    seen = []
    real = SOLVE._preconditioner

    def spy(n, elements, blocks, classes, coarse, coarse_matrix, relations):
        # a copy: the preconditioner inverts the blocks in place
        seen.append(Operators(n, elements, blocks.copy(), classes, coarse, coarse_matrix,
                              relations))
        return real(n, elements, blocks, classes, coarse, coarse_matrix, relations)

    SOLVE._preconditioner = spy
    try:
        yield seen
    finally:
        SOLVE._preconditioner = real


def assemble_with_operators(space, f=None):
    """(system, Operators): `assemble(space, f)`, by default with zero
    load, and the operators its preconditioner is built from."""
    with recording() as seen:
        system = assemble(space, f if f is not None else lambda x, y: np.zeros_like(x))
    (operators,) = seen
    return system, operators
