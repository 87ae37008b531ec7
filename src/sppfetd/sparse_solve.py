"""Deterministic conjugate-gradient solves for the per-step SPD systems.

The edge systems solved each time step are mass dominated and well
conditioned at CFL-scale time steps, so Jacobi-preconditioned CG with
sequential reductions is both fast and bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class SolverError(RuntimeError):
    """CG failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int | None = None        # default 10 * number of unknowns
    preconditioner: str = "jacobi"     # "jacobi" or "none"

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.preconditioner not in ("jacobi", "none"):
            raise ValueError(f"unknown preconditioner '{self.preconditioner}'")


def solve_spd(a: sp.spmatrix, b: np.ndarray, config: SolverConfig | None = None,
              x0: np.ndarray | None = None) -> np.ndarray:
    """Preconditioned CG for symmetric positive definite `a`.

    Terminates when ||b - a x|| <= tol * ||b||; raises SolverError on
    stagnation or non-convergence, reporting the residual reached.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(b):
        raise ValueError(f"dimension mismatch: {a.shape} vs ({len(b)},)")
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side contains NaN or Inf")

    n = len(b)
    max_iter = config.max_iter if config.max_iter is not None else 10 * n
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n)

    if config.preconditioner == "jacobi":
        diag = a.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("nonpositive diagonal entry; matrix is not SPD")
        inv_diag = 1.0 / diag
    else:
        inv_diag = None

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x
    z = inv_diag * r if inv_diag is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)

    tol_abs = config.tol * b_norm
    res = np.linalg.norm(r)
    if res <= tol_abs:
        return x

    for it in range(max_iter):
        ap = a @ p
        pap = float(p @ ap)
        if not np.isfinite(pap) or pap <= 0.0:
            raise SolverError(f"breakdown at iteration {it}: p'Ap = {pap:.3e}",
                              residual=res / b_norm, iterations=it)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        if res <= tol_abs:
            return x
        z = inv_diag * r if inv_diag is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise SolverError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {res / b_norm:.3e}, target {config.tol:.3e})",
        residual=res / b_norm, iterations=max_iter)
