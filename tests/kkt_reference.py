"""The refined direct reference for an assembled system.

An unrefined direct solve of the KKT system [[K, C~^T], [C~, 0]] (K alone
for the ER families, which have no relation rows) is accurate only to about
cond * eps, and at 752 dofs a dense LAPACK solve and a SuperLU solve already
differ by more than 1e-10.  Iterative refinement with the residual computed
in `np.longdouble` removes that: each step solves with the same factors for
the correction of a long-double solution, which settles to about 1e-17
(relative) whichever factorisation gave the first guess, so the two round
to float64 within an ulp of each other.  scipy's CSR product keeps the long
double dtype; where `np.longdouble` is no wider than float64 (its eps not
below 1e-18) the refinement cannot work, and `LONG_DOUBLE_REASON` says so
for a skip.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LONG_DOUBLE_REASON = (
    None if np.finfo(np.longdouble).eps < 1e-18
    else f"np.longdouble has eps {np.finfo(np.longdouble).eps:.1e}, no wider than float64"
)
STEPS = 2  # refinement steps; the second already meets the long-double floor


def refined_solution(system, dense=False):
    """The free-dof part of the KKT solution, rounded to float64: a
    SuperLU solve (a dense LAPACK one when `dense`) refined in STEPS steps,
    each adding the solve of the residual computed in `np.longdouble` to
    a long-double solution.  C~ drops the last relation row, which the
    others imply, as `solve` does."""
    A, rhs, C = sp.csr_matrix(system.matrix), system.rhs, system.constraints
    if C is not None and C.nnz > 0:
        A = sp.bmat([[A, C[:-1].T], [C[:-1], None]], format="csr")
        rhs = np.concatenate([rhs, np.zeros(C.shape[0] - 1)])
    if dense:
        factors = sla.lu_factor(A.toarray())
        lu_solve = lambda v: sla.lu_solve(factors, v)
    else:
        lu_solve = spla.splu(A.tocsc()).solve
    A_long, rhs_long = A.astype(np.longdouble), rhs.astype(np.longdouble)
    x = lu_solve(rhs).astype(np.longdouble)
    for _ in range(STEPS):
        x += lu_solve((rhs_long - A_long @ x).astype(float))
    return x[: system.n].astype(float)
