"""Sparse LU factorisation of the time-independent edge system.

The edge matrix of the leapfrog step does not change over a run, so it
is factored once and every step costs two triangular solves.  A
symmetric minimum-degree ordering keeps the fill low on 2-D meshes; the
matrix is symmetric positive definite, so the diagonal pivots are kept
without a threshold search.  The factorisation and the solves are
deterministic for a given SuperLU build.

Most supernodes here are single columns, so the transposed solve of a^T's
factor (row gathers) beats a's plain solve (column scatters) in cache.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SolverError(RuntimeError):
    """A factorisation or solve could not produce a finite solution."""


def factorize(a: sp.spmatrix):
    """Factor the square matrix `a` once; returns a function b -> a^-1 b.

    Factors a^T, read uncopied from the CSR arrays of `a` (a non-canonical
    `a` is copied, as SuperLU sorts in place); trans="T" solves with `a`.

    Raises SolverError when `a` is singular and, on each solve, when the
    right-hand side contains NaN or Inf.
    """
    a = sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
    a_t = sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape[::-1])
    try:
        lu = splu(a_t, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, panel_size=4,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorisation failed: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise SolverError("right-hand side contains NaN or Inf")
        return lu.solve(b, trans="T")

    return solve
