"""Sparse operator assembly for the leapfrog schemes.

The edge mass is integrated exactly in closed form, the curl matrix is the
signed cell-edge incidence and edge loads integrate the field's vertex
moments with a fixed degree-3 quadrature; local matrices are scattered into
CSR.  Per-cell coefficients are sampled at cell centroids, so the matrices
stay time independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import (_NEXT, _barycentric_gradients, quad_points_physical,
                       triangle_quadrature)
from .mesh import TRI_EDGE_LOCAL, CellTag, EdgeTag, Mesh


def _edge_mass_map() -> np.ndarray:
    """9x9 map from B_pq = grad(l_p) . W grad(l_q) to the local mass over |K|."""
    d = np.zeros((3, 3, 3))     # phi_k = sum over m, p of d[k, m, p] l_m grad(l_p)
    for k, (i, j) in enumerate(TRI_EDGE_LOCAL):
        d[k, i, j], d[k, j, i] = 1.0, -1.0
    moments = (1.0 + np.eye(3)) / 12.0      # integral of l_m l_n over K, per |K|
    return np.einsum("kmp,mn,lnq->klpq", d, moments, d).reshape(9, 9)


_EDGE_MASS_MAP = _edge_mass_map()
# Equal-weight couplings below this share of sqrt(m_pp m_qq) are an exact
# zero's residue: at most 4.8e-14 on the published meshes, the rest >= 0.47.
_EXACT_ZERO_TOL = 1e-12


@dataclass
class OperatorSet:
    """Assembled operators for the merged graphene/absorber step.

    m_e        : edge mass (the stepper scales it and adds an edge mass
                 over the cells whose step weights differ: the collar)
    c          : cells x edges signed incidence: the integral over K of
                 curl(phi_e) is the orientation sign of e in K; Whitney
                 curls are constant per cell, so the curl-curl matrix is
                 exactly C^T diag(1/areas) C
    g          : interface mass on the graphene curve (tangential traces)
    areas      : cell areas (diagonal of the P0 mass)
    sigma_x/y  : damping samples at cell centroids
    c1         : physical-region indicator per cell (1 - c1 marks the collar)
    pec_mask   : boolean mask of constrained edge DoFs
    """

    mesh: Mesh
    m_e: sp.csr_matrix
    c: sp.csr_matrix
    g: sp.csr_matrix
    areas: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    c1: np.ndarray
    pec_mask: np.ndarray


def _cell_coeff(mesh: Mesh, coeff) -> np.ndarray:
    """Normalise a coefficient spec to an (nt, 2) diagonal-weight array."""
    nt = mesh.n_triangles
    arr = np.asarray(1.0 if coeff is None else coeff, dtype=float)
    if arr.shape == (nt,):
        arr = arr[:, None]
    if arr.shape not in ((), (nt, 1), (nt, 2)):
        raise ValueError(f"coefficient shape {arr.shape} does not match {nt} cells")
    return np.broadcast_to(arr, (nt, 2))


def _edge_mass_kernel(mesh: Mesh, w: np.ndarray, cells=slice(None)) -> sp.csr_matrix:
    """Edge mass over `cells` with (n, 2) diagonal weights of any sign, exact:
    _EDGE_MASS_MAP applied to each cell's weighted gradient products, scaled
    by |K| and the two edge signs, summed into an edge-by-edge CSR."""
    g = _barycentric_gradients(mesh, cells)         # (3, 2, n)
    prods = w[:, 0] * (g[:, None, 0] * g[:, 0]) + w[:, 1] * (g[:, None, 1] * g[:, 1])
    local = _EDGE_MASS_MAP @ prods.reshape(9, -1)   # (9, n)
    signs = mesh.tri_edge_signs[cells].T.astype(float)  # (3, n)
    local *= mesh.areas[cells] * (signs[:, None] * signs).reshape(9, -1)
    # Equal weights zero a right isosceles cell's hypotenuse-leg couplings.
    keep = (w[:, 0] != w[:, 1]) | (local[[1, 2, 5]] ** 2 > _EXACT_ZERO_TOL ** 2
                                   * local[[0, 0, 4]] * local[[4, 8, 8]])
    tri_edges = mesh.tri_edges[cells]
    rows = np.repeat(tri_edges, 3, axis=1).ravel()
    cols = np.tile(tri_edges, (1, 3)).ravel()
    data = local.T.ravel()
    if not keep.all():
        stored = np.ones(local.shape, dtype=bool)
        stored[[1, 2, 5]] = stored[[3, 6, 7]] = keep
        stored = np.flatnonzero(stored.T)
        rows, cols, data = rows[stored], cols[stored], data[stored]
    return sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_edges,) * 2).tocsr()


def assemble_edge_mass(mesh: Mesh, coeff=None) -> sp.csr_matrix:
    """Edge mass with scalar or 2x2-diagonal per-cell coefficient.

    Entry (e, e') = sum_K integral of w1 phi_e,x phi_e',x + w2 phi_e,y phi_e',y.
    """
    w = _cell_coeff(mesh, coeff)
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("edge-mass coefficient must be finite and nonnegative")
    return _edge_mass_kernel(mesh, w)


def assemble_mixed_curl(mesh: Mesh) -> sp.csr_matrix:
    """Cells x edges matrix with entry (K, e) = integral over K of curl(phi_e).

    By Stokes the integral is the tangential moment of phi_e around the
    boundary of K, which is the orientation sign of e in K: C is the signed
    cell-edge incidence matrix, with entries exactly +1 or -1.
    """
    rows = np.repeat(np.arange(mesh.n_triangles), 3)
    return sp.coo_matrix((mesh.tri_edge_signs.ravel().astype(float),
                          (rows, mesh.tri_edges.ravel())),
                         shape=(mesh.n_triangles, mesh.n_edges)).tocsr()


def assemble_interface_mass(mesh: Mesh) -> sp.csr_matrix:
    """Tangential-trace mass on the graphene curve.

    The Whitney tangential trace along an edge is 1/length on its own edge
    and vanishes on every other edge, so the matrix is diagonal with entry
    1/length for each interface edge.
    """
    iface = mesh.interface_edges()
    ne = mesh.n_edges
    return sp.coo_matrix((1.0 / mesh.edge_lengths[iface], (iface, iface)),
                         shape=(ne, ne)).tocsr()


def assemble_edge_load(mesh: Mesh, field) -> np.ndarray:
    """Load vector b_e = integral of field . phi_e over the mesh.

    `field` maps an (n, 2) point array to (n, 2) vector values, or to
    (m, n, 2) for m fields at once, which gives (m, n_edges) loads from one
    pass.  Local edge k = (k, k+1) with sign s_k takes
    s_k (F_k . grad(l_{k+1}) - F_{k+1} . grad(l_k)), F_m being the
    integral over K of field times l_m, so no basis table is formed.
    """
    rule = triangle_quadrature(3)
    pts = quad_points_physical(mesh, rule)
    vals = np.asarray(field(pts.reshape(-1, 2)), dtype=float)
    lead = vals.shape[:-2]
    moments = (rule.weights[:, None] * rule.points).T @ vals.reshape(lead + pts.shape)
    fx, fy = moments[..., 0], moments[..., 1]       # (..., nt, 3): F_m / (2|K|)
    gx, gy = _barycentric_gradients(mesh).transpose(1, 2, 0)   # (nt, 3) each
    local = (fx * gx[:, _NEXT] + fy * gy[:, _NEXT]
             - fx[..., _NEXT] * gx - fy[..., _NEXT] * gy)
    local *= 2.0 * mesh.areas[:, None] * mesh.tri_edge_signs
    idx = mesh.tri_edges.ravel()
    out = [np.bincount(idx, w, minlength=mesh.n_edges)
           for w in local.reshape(-1, idx.size)]
    return np.reshape(out, lead + (mesh.n_edges,))


def boundary_dof_mask(mesh: Mesh) -> np.ndarray:
    """Boolean mask of PEC-constrained edge DoFs."""
    return mesh.edge_tags == EdgeTag.OUTER_BOUNDARY


def apply_pec(matrix: sp.spmatrix, mask: np.ndarray) -> sp.csr_matrix:
    """Zero constrained rows and columns and place a unit diagonal, in one pass
    over the CSR arrays.  Keeps the matrix symmetric positive definite and the
    DoF numbering intact, so states and right-hand sides need no renumbering.
    """
    mask = np.asarray(mask, dtype=bool)
    out = sp.csr_matrix(matrix, dtype=float, copy=True)
    rows = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
    out.data[mask[rows] | mask[out.indices]] = 0.0
    out.setdiag(np.where(mask, 1.0, out.diagonal()))   # inserts a missing one
    out.eliminate_zeros()
    return out


def build_operator_set(mesh: Mesh, sigma_x=None, sigma_y=None) -> OperatorSet:
    """Assemble every operator needed by the merged time step.

    sigma_x, sigma_y are damping values sampled at cell centroids (zero
    inside the physical region); omitted means no absorbing collar.
    """
    nt = mesh.n_triangles
    sigma_x = np.zeros(nt) if sigma_x is None else np.asarray(sigma_x, dtype=float)
    sigma_y = np.zeros(nt) if sigma_y is None else np.asarray(sigma_y, dtype=float)
    return OperatorSet(
        mesh=mesh,
        m_e=assemble_edge_mass(mesh),
        c=assemble_mixed_curl(mesh),
        g=assemble_interface_mass(mesh),
        areas=mesh.areas.copy(),
        sigma_x=sigma_x,
        sigma_y=sigma_y,
        c1=(mesh.cell_tags == CellTag.PHYSICAL).astype(float),
        pec_mask=boundary_dof_mask(mesh),
    )
