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
    degree: int


def _orbit3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


_TRI_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [0.5]),
    2: (_orbit3(2 / 3, 1 / 6), [1 / 6] * 3),
    # Dunavant 6-point, exact to degree 4; used for requests 3 and 4.
    3: (_orbit3(0.816847572980459, 0.091576213509771)
        + _orbit3(0.108103018168070, 0.445948490915965),
        [0.109951743655322 / 2] * 3 + [0.223381589678011 / 2] * 3),
    # Dunavant 7-point, exact to degree 5.
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.797426985353087, 0.101286507323456)
        + _orbit3(0.059715871789770, 0.470142064105115),
        [0.225 / 2] + [0.125939180544827 / 2] * 3 + [0.132394152788506 / 2] * 3),
}
_TRI_RULES[4] = _TRI_RULES[3]


def triangle_quadrature(degree: int) -> QuadratureRule:
    """Symmetric positive rule on the reference triangle, exact to `degree`."""
    if degree not in range(1, 6):
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    pts, w = _TRI_RULES[degree]
    return QuadratureRule(np.array(pts, dtype=float), np.array(w, dtype=float), degree)


def segment_quadrature(degree: int) -> QuadratureRule:
    """Gauss rule on [0, 1], exact to `degree`."""
    if degree not in range(1, 6):
        raise ValueError(f"unsupported segment quadrature degree {degree}")
    n = (degree + 2) // 2
    xi, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (xi + 1.0), 0.5 * w, degree)


def cell_basis_data(mesh: Mesh, rule: QuadratureRule):
    """Vectorised basis data for every cell of the mesh.

    Returns (phi, curls) where phi has shape (nt, nq, 3, 2) holding the
    globally oriented Whitney values at the rule's points and curls has
    shape (nt, 3).
    """
    tris = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
    g = np.empty((len(tris), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = tris[:, j, 1] - tris[:, k, 1]
        g[:, i, 1] = tris[:, k, 0] - tris[:, j, 0]
    g /= (2.0 * mesh.areas)[:, None, None]

    lam = rule.points                               # (nq, 3)
    signs = mesh.tri_edge_signs.astype(float)       # (nt, 3)
    phi = np.empty((len(tris), len(lam), 3, 2))
    curls = np.empty((len(tris), 3))
    for k, (i, j) in enumerate(TRI_EDGE_LOCAL):
        phi[:, :, k, :] = (lam[None, :, i, None] * g[:, None, j, :]
                           - lam[None, :, j, None] * g[:, None, i, :])
        phi[:, :, k, :] *= signs[:, k, None, None]
        curls[:, k] = 2.0 * signs[:, k] * (g[:, i, 0] * g[:, j, 1]
                                           - g[:, i, 1] * g[:, j, 0])
    return phi, curls


def quad_points_physical(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Physical coordinates of the rule's points on every cell, (nt, nq, 2)."""
    tris = mesh.vertices[mesh.triangles]
    return np.einsum("qi,tid->tqd", rule.points, tris)


def eval_edge_field(mesh: Mesh, dofs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Edge-DoF field evaluated at the rule's points per cell, (nt, nq, 2)."""
    phi, _ = cell_basis_data(mesh, rule)
    local = dofs[mesh.tri_edges]                    # (nt, 3)
    return np.einsum("tk,tqkd->tqd", local, phi)


def interpolate_hcurl(field, mesh: Mesh, degree: int = 3) -> np.ndarray:
    """Edge interpolation: DoF_e = integral over e of field . t ds.

    `field` maps an (n, 2) point array to (n, 2) vector values.  The tangent
    runs from the lower-index to the higher-index endpoint.
    """
    rule = segment_quadrature(degree)
    p0 = mesh.vertices[mesh.edges[:, 0]]
    p1 = mesh.vertices[mesh.edges[:, 1]]
    dofs = np.zeros(mesh.n_edges)
    for s, w in zip(rule.points, rule.weights):
        x = p0 + s * (p1 - p0)
        vals = np.asarray(field(x), dtype=float)
        dofs += w * np.einsum("ed,ed->e", vals, mesh.edge_tangents)
    return dofs * mesh.edge_lengths


def project_l2_p0(field, mesh: Mesh, degree: int = 3) -> np.ndarray:
    """Cell-mean projection: DoF_K = (1/|K|) integral over K of field.

    `field` maps an (n, 2) point array to (n,) scalar values.
    """
    rule = triangle_quadrature(degree)
    pts = quad_points_physical(mesh, rule)
    means = np.zeros(mesh.n_triangles)
    for q, w in enumerate(rule.weights):
        means += w * np.asarray(field(pts[:, q, :]), dtype=float)
    return 2.0 * means
