"""Sparse LU factorisation of the time-independent edge system.

The edge matrix of the leapfrog step does not change over a run, so it
is factored once and every step costs two triangular solves.  A
symmetric minimum-degree ordering keeps the fill low on 2-D meshes; the
matrix is symmetric positive definite, so the diagonal pivots are kept
without a threshold search.  The factorisation and the solves are
deterministic for a given SuperLU build.

The matrix is mass-dominated, so its factor's entries decay exponentially
with graph distance (Demko, Moss & Smith, Math. Comp. 43, 1984): 77% of
the full 1/80 manufactured factor is below 1e-16 of its column's largest
entry, 7,492 entries subnormal.  SuperLU's threshold-dropping ILU
(rule "basic": by column scale, never by fill) drops entries below
DROP_TOL of their column as it factors, a perturbation below roundoff;
factorize checks the residual of one solve (SolverError, exit 4).

Most supernodes here are single columns, so the transposed solve of a^T's
factor (row gathers) beats a's plain solve (column scatters) in cache.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu

DROP_TOL = 1e-17


class SolverError(RuntimeError):
    """A factorisation or solve could not produce a finite solution."""


def factorize(a: sp.spmatrix):
    """Factor the square matrix `a` once; returns a function b -> a^-1 b.

    Factors a^T, read uncopied from the CSR arrays of `a` (a non-canonical
    `a` is copied, as SuperLU sorts in place); trans="T" solves with `a`.

    Raises SolverError when `a` is singular, when the relative residual of
    the solve of a @ ones exceeds 1e-12 and, on each solve, when the
    right-hand side contains NaN or Inf.
    """
    a = sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
    a_t = sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape[::-1])
    try:
        lu = spilu(a_t, drop_tol=DROP_TOL, drop_rule="basic",
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   panel_size=4, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorisation failed: {exc}") from exc
    b = a @ np.ones(a.shape[1])
    residual = np.abs(a @ lu.solve(b, trans="T") - b).max() / np.abs(b).max()
    if not residual <= 1e-12:
        raise SolverError(f"factor's relative residual {residual:.3e} exceeds 1e-12")

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise SolverError("right-hand side contains NaN or Inf")
        return lu.solve(b, trans="T")

    return solve
