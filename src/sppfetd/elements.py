"""Reference-element machinery for the lowest-order edge/scalar pair.

The edge space is spanned per triangle by the three Whitney functions
phi_e = lambda_i grad(lambda_j) - lambda_j grad(lambda_i), one per edge,
normalised so the tangential moment over the own edge equals one.  The
scalar space is piecewise constant.  The scheme uses three quadrature
rules: two symmetric positive-weight rules on the reference triangle
(barycentric points, weights summing to the reference measure 1/2) and a
Gauss rule on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

# Local edge k of a cell runs from vertex k to vertex _NEXT[k] (TRI_EDGE_LOCAL).
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n, 3) barycentric for triangles, (n,) in [0,1] for segments
    weights: np.ndarray  # sum equals the reference measure


def _orbit3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


# The scheme's three rules.  One point, exact to degree 1: a Whitney field's
# cell value for the snapshots.
CENTROID = QuadratureRule(np.full((1, 3), 1 / 3), np.array([0.5]))
# Dunavant 6-point, exact to degree 4: loads, projections and L2 errors.
DEGREE3 = QuadratureRule(
    np.array(_orbit3(0.816847572980459, 0.091576213509771)
             + _orbit3(0.108103018168070, 0.445948490915965)),
    np.array([0.109951743655322 / 2] * 3 + [0.223381589678011 / 2] * 3))
# Two-point Gauss on [0, 1], exact to degree 3: edge interpolation.
_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(2)
GAUSS2 = QuadratureRule(0.5 * (_GAUSS_XI + 1.0), 0.5 * _GAUSS_W)


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


def quad_points_physical(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Physical coordinates of the rule's points on every cell, (nt, nq, 2)."""
    return rule.points @ mesh.vertices[mesh.triangles]


def eval_edge_field(mesh: Mesh, dofs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Edge-DoF field evaluated at the rule's points per cell, (nt, nq, 2).

    A Whitney field is affine on each cell, the sum over m of lambda_m V_m,
    so its three vertex values carry it: with c_k the oriented DoF of local
    edge k = (k, k+1), V_m = c_m grad(lambda_{m+1}) - c_{m-1} grad(lambda_{m-1}).
    """
    g = _barycentric_gradients(mesh)                        # (3, 2, nt)
    c = (dofs[mesh.tri_edges] * mesh.tri_edge_signs).T      # (3, nt)
    v = c[:, None] * g[_NEXT] - c[_PREV, None] * g[_PREV]  # (3, 2, nt)
    return np.tensordot(rule.points, v, axes=1).transpose(2, 0, 1)


def interpolate_hcurl(field, mesh: Mesh, edges=slice(None)) -> np.ndarray:
    """Edge interpolation: DoF_e = integral over e of field . t ds.

    `field` maps an (n, 2) point array to (n, 2) vector values, or to
    (m, n, 2) for m fields at once, which gives (m, n_edges) DoFs.  The
    tangent runs from the lower-index to the higher-index endpoint.
    `edges` (indices or a boolean mask) keeps only those edges' DoFs.
    """
    p0 = mesh.vertices[mesh.edges[edges, 0]]
    p1 = mesh.vertices[mesh.edges[edges, 1]]
    dofs = sum(w * np.einsum("...ed,ed->...e",
                             np.asarray(field(p0 + s * (p1 - p0)), dtype=float),
                             mesh.edge_tangents[edges])
               for s, w in zip(GAUSS2.points, GAUSS2.weights))
    return dofs * mesh.edge_lengths[edges]


def project_l2_p0(field, mesh: Mesh) -> np.ndarray:
    """Cell-mean projection: DoF_K = (1/|K|) integral over K of field.

    `field` maps an (n, 2) point array to (n,) scalar values, or to (m, n)
    for m fields at once, which gives (m, n_cells) means; an array holds
    them at the degree-3 `quad_points_physical`."""
    vals = np.asarray(field(quad_points_physical(mesh, DEGREE3).reshape(-1, 2))
                      if callable(field) else field, dtype=float)
    return 2.0 * vals.reshape(vals.shape[:-1] + (mesh.n_triangles, -1)) @ DEGREE3.weights
