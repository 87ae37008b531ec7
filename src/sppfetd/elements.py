"""Reference-element machinery for the lowest-order edge/scalar pair.

The edge space is spanned per triangle by the three Whitney functions
phi_e = lambda_i grad(lambda_j) - lambda_j grad(lambda_i), one per edge,
normalised so the tangential moment over the own edge equals one.  The
scalar space is piecewise constant.  Quadrature rules are symmetric
positive-weight rules on the reference triangle (barycentric points,
weights summing to the reference measure 1/2) and Gauss rules on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TRI_EDGE_LOCAL, Mesh


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n, 3) barycentric for triangles, (n,) in [0,1] for segments
    weights: np.ndarray  # sum equals the reference measure


def _orbit3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


_TRI_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [0.5]),
    # Dunavant 6-point, exact to degree 4.
    3: (_orbit3(0.816847572980459, 0.091576213509771)
        + _orbit3(0.108103018168070, 0.445948490915965),
        [0.109951743655322 / 2] * 3 + [0.223381589678011 / 2] * 3),
}


def triangle_quadrature(degree: int) -> QuadratureRule:
    """Symmetric positive rule on the reference triangle, exact to `degree` (1 or 3)."""
    if degree not in _TRI_RULES:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    pts, w = _TRI_RULES[degree]
    return QuadratureRule(np.array(pts, dtype=float), np.array(w, dtype=float))


def segment_quadrature(degree: int) -> QuadratureRule:
    """Gauss rule on [0, 1], exact to `degree`."""
    if degree not in range(1, 6):
        raise ValueError(f"unsupported segment quadrature degree {degree}")
    n = (degree + 2) // 2
    xi, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (xi + 1.0), 0.5 * w)


def _barycentric_gradients(mesh: Mesh, cells=slice(None)) -> np.ndarray:
    """Constant barycentric gradients of `cells` (default all), (3, 2, n)."""
    # Built with the cell axis last so every product runs over all the cells.
    tris = mesh.vertices[mesh.triangles[cells]].T   # (2, 3, n)
    g = np.empty((3, 2, tris.shape[2]))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[i, 0] = tris[1, j] - tris[1, k]
        g[i, 1] = tris[0, k] - tris[0, j]
    g /= 2.0 * mesh.areas[cells]
    return g


def cell_basis_data(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Globally oriented Whitney values at the rule's points, (nt, nq, 3, 2)."""
    g = _barycentric_gradients(mesh)
    lam = rule.points                               # (nq, 3)
    signs = mesh.tri_edge_signs.T.astype(float)     # (3, nt)
    ii, jj = np.array(TRI_EDGE_LOCAL).T
    phi = lam[:, ii, None, None] * g[jj] - lam[:, jj, None, None] * g[ii]
    phi *= signs[:, None, :]
    return np.ascontiguousarray(phi.transpose(3, 0, 1, 2))


def quad_points_physical(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Physical coordinates of the rule's points on every cell, (nt, nq, 2)."""
    tris = mesh.vertices[mesh.triangles].T          # (2, 3, nt)
    pts = sum(rule.points[:, i, None, None] * tris[None, :, i] for i in range(3))
    return pts.transpose(2, 0, 1)


def eval_edge_field(mesh: Mesh, dofs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Edge-DoF field evaluated at the rule's points per cell, (nt, nq, 2)."""
    phi = cell_basis_data(mesh, rule)
    local = dofs[mesh.tri_edges]                    # (nt, 3)
    return np.einsum("tk,tqkd->tqd", local, phi)


def interpolate_hcurl(field, mesh: Mesh) -> np.ndarray:
    """Edge interpolation: DoF_e = integral over e of field . t ds.

    `field` maps an (n, 2) point array to (n, 2) vector values, or to
    (m, n, 2) for m fields at once, which gives (m, n_edges) DoFs.  The
    tangent runs from the lower-index to the higher-index endpoint.
    """
    rule = segment_quadrature(3)
    p0 = mesh.vertices[mesh.edges[:, 0]]
    p1 = mesh.vertices[mesh.edges[:, 1]]
    dofs = sum(w * np.einsum("...ed,ed->...e",
                             np.asarray(field(p0 + s * (p1 - p0)), dtype=float),
                             mesh.edge_tangents)
               for s, w in zip(rule.points, rule.weights))
    return dofs * mesh.edge_lengths


def project_l2_p0(field, mesh: Mesh) -> np.ndarray:
    """Cell-mean projection: DoF_K = (1/|K|) integral over K of field.

    `field` maps an (n, 2) point array to (n,) scalar values, or to (m, n)
    for m fields at once, which gives (m, n_cells) means.
    """
    rule = triangle_quadrature(3)
    pts = quad_points_physical(mesh, rule)
    vals = np.asarray(field(pts.reshape(-1, 2)), dtype=float)
    return 2.0 * vals.reshape(vals.shape[:-1] + pts.shape[:2]) @ rule.weights
