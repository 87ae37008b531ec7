"""Sparse LU factorisation of the time-independent edge system.

The edge matrix of the leapfrog step does not change over a run, so it
is factored once and every step costs two triangular solves.  A
symmetric minimum-degree ordering keeps the fill low on 2-D meshes; the
matrix is symmetric positive definite, so the diagonal pivots are kept
without a threshold search.  The factorisation and the solves are
deterministic for a given SuperLU build.

The matrix is mass-dominated, so its factor's entries decay exponentially
with graph distance (Demko, Moss & Smith, Math. Comp. 43, 1984): 28% of
the full reduced bifurcated factor is below 1e-16 of its column's largest.
SuperLU's threshold-dropping ILU (rule "basic": by column scale, never by
fill) drops entries below DROP_TOL of their column as it factors, a
perturbation below roundoff; factorize checks one solve's residual
(SolverError, exit 4).  The mesh numbers each cell's longest side last, so
the uncoupled hypotenuses of equal-weight right isosceles cells end the
matrix in diagonal-only rows: the solve divides those, and SuperLU factors
the leading block (a copy), without fill on isotropic right isosceles meshes.

Most supernodes here are single columns, so the transposed solve of a^T's
factor (row gathers) beats a's plain solve (column scatters) in cache.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu

DROP_TOL = 1e-17


class SolverError(RuntimeError):
    """A matrix is singular, or its factor fails the residual check."""


def factorize(a: sp.spmatrix):
    """Factor the square matrix `a` once; returns a function b -> a^-1 b.

    Rows and columns past the last one with an off-diagonal entry are divided;
    the leading block's CSR arrays are factored as its transpose, and trans="T"
    solves with it.  The solve checks nothing: a NaN in b stays NaN.

    Raises SolverError when `a` is singular or when the relative residual
    of the solve of a @ ones exceeds 1e-12.
    """
    a = sp.csr_matrix(a)
    diag = a.diagonal()
    k = np.flatnonzero(np.diff(a.indptr) > (diag != 0)).max(initial=-1) + 1
    k = max(k, a.indices[:a.indptr[k]].max(initial=-1) + 1)    # and the columns they couple
    diag = diag[k:]
    if np.any(diag == 0):
        raise SolverError(f"matrix is singular: row {k + np.argmax(diag == 0)} is zero")
    try:
        lu = spilu(a[:k, :k].T, drop_tol=DROP_TOL, drop_rule="basic",
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   panel_size=4, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorisation failed: {exc}") from exc

    def solve(b):
        x = np.empty(len(b))
        x[:k] = lu.solve(b[:k], trans="T")
        np.divide(b[k:], diag, out=x[k:])
        return x

    b = a @ np.ones(a.shape[1])
    residual = np.abs(a @ solve(b) - b).max() / np.abs(b).max()
    if not residual <= 1e-12:
        raise SolverError(f"factor's relative residual {residual:.3e} exceeds 1e-12")
    return solve
