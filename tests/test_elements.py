import math

import numpy as np
import pytest

from sppfetd.assembly import assemble_mixed_curl
from sppfetd.elements import (CENTROID, DEGREE3, GAUSS2, QuadratureRule,
                              eval_edge_field, interpolate_hcurl, project_l2_p0,
                              quad_points_physical)
from sppfetd.mesh import TRI_EDGE_LOCAL, Mesh, generate_rect_mesh

from oracles import (duffy_rule, edge_midpoints, jittered_mesh, ref_whitney,
                     table_edge_field)

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TRIANGLE_RULES = {1: CENTROID, 3: DEGREE3}     # by the degree each is exact to


def _one_cell(tri, order=(0, 1, 2)):
    """One-cell mesh of `tri` whose local vertex k has global index order[k]."""
    verts = np.empty((3, 2))
    verts[list(order)] = tri
    return Mesh(verts, [list(order)])


def _basis_at(mesh, bary):
    """Whitney values on the first cell at barycentric points in local edge
    order, (n, 3, 2): the production field of each one-hot DoF vector."""
    bary = np.atleast_2d(bary)
    rule = QuadratureRule(bary, np.full(len(bary), 0.5 / len(bary)))
    one_hot = np.eye(mesh.n_edges)[mesh.tri_edges[0]]
    return np.stack([eval_edge_field(mesh, d, rule)[0] for d in one_hot], axis=1)


def _moment_matrix(mesh):
    """Tangential moments of the three basis functions over the cell's edges."""
    rule = GAUSS2
    out = np.zeros((3, 3))
    for k, (i, j) in enumerate(TRI_EDGE_LOCAL):
        bary = np.zeros((len(rule.points), 3))
        bary[:, i] = 1.0 - rule.points
        bary[:, j] = rule.points
        e = mesh.tri_edges[0, k]
        trace = _basis_at(mesh, bary) @ mesh.edge_tangents[e]   # (nq, 3)
        out[k] = mesh.edge_lengths[e] * (rule.weights @ trace)
    return out


def test_duality_identity_on_random_triangles():
    rng = np.random.default_rng(7)
    checked = set()
    for _ in range(10):
        tri = rng.uniform(-2, 2, size=(3, 2))
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0.05:
            continue
        mesh = _one_cell(tri, rng.permutation(3))
        checked.add(tuple(mesh.tri_edge_signs[0]))
        np.testing.assert_allclose(_moment_matrix(mesh), np.eye(3), atol=1e-12)
    assert len(checked) > 1   # more than one orientation pattern was covered


def test_midpoint_tangential_value():
    # duality means the own-edge tangential trace integrates to 1, and for
    # the constant Whitney trace: value * length = 1 at the midpoint
    phi = _basis_at(_one_cell(RIGHT), [0.5, 0.5, 0.0])[0]
    tangential = phi[0] @ np.array([1.0, 0.0])
    assert tangential * 1.0 == pytest.approx(1.0, abs=1e-13)


def _cell_curls(mesh):
    """Constant Whitney curls of the first cell in local edge order: its row
    of C over |K|."""
    return assemble_mixed_curl(mesh).toarray()[0, mesh.tri_edges[0]] / mesh.areas[0]


def test_curl_constants_unit_right_triangle():
    # |curl| = 2 / (2 |K|) * 2 = 2 on the unit right triangle; the sign is
    # the mesh orientation sign of each edge
    mesh = _one_cell(RIGHT)
    np.testing.assert_allclose(_cell_curls(mesh), [2.0, 2.0, -2.0], atol=1e-13)
    flipped = _one_cell(RIGHT, order=(2, 1, 0))
    np.testing.assert_array_equal(flipped.tri_edge_signs[0], [-1, -1, 1])
    np.testing.assert_allclose(_cell_curls(flipped), [-2.0, -2.0, 2.0], atol=1e-13)


def test_degenerate_triangle_rejected():
    # a zero-area cell never reaches the basis: building its mesh fails
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="counterclockwise"):
        _one_cell(flat)


def test_piola_map_preserves_tangential_moments():
    # covariant map of the reference basis against direct evaluation on the
    # mapped triangle: same functions, so same moment matrices
    tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])
    ref_pts, _ = duffy_rule(4)
    jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        mesh = _one_cell(tri, order)
        bary = np.column_stack([1.0 - ref_pts.sum(axis=1), ref_pts])
        direct = _basis_at(mesh, bary)
        mapped = ref_whitney(ref_pts) @ np.linalg.inv(jac)
        np.testing.assert_allclose(
            direct, mapped * mesh.tri_edge_signs[0][None, :, None], atol=1e-12)


@pytest.mark.parametrize("degree", [1, 3])
def test_triangle_rule_monomial_exactness(degree):
    rule = TRIANGLE_RULES[degree]
    assert np.all(rule.weights > 0)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            xy = rule.points @ RIGHT
            approx = np.sum(rule.weights * xy[:, 0] ** p * xy[:, 1] ** q)
            # exact integral over the unit right triangle
            exact = (math.factorial(p) * math.factorial(q)
                     / math.factorial(p + q + 2))
            assert approx == pytest.approx(exact, rel=2e-14, abs=1e-16)


def test_triangle_rule_degree1_is_centroid():
    np.testing.assert_allclose(CENTROID.points, [[1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_allclose(CENTROID.weights, [0.5])


def test_triangle_rule_x_squared():
    xy = DEGREE3.points @ RIGHT
    val = np.sum(DEGREE3.weights * xy[:, 0] ** 2)
    assert val == pytest.approx(1 / 12, rel=1e-14)


def test_segment_rule_cubic():
    assert np.sum(GAUSS2.weights * GAUSS2.points ** 3) == pytest.approx(0.25, rel=1e-14)


def test_interpolation_reproduces_constants():
    m = generate_rect_mesh((0, 1, 0, 1), 3, 3, 0)
    dofs = interpolate_hcurl(lambda p: np.tile([1.0, 0.0], (len(p), 1)), m)
    vals = eval_edge_field(m, dofs, CENTROID)[:, 0, :]
    np.testing.assert_allclose(vals, np.tile([1.0, 0.0], (m.n_triangles, 1)),
                               atol=1e-12)


def test_interpolation_reproduces_rotational_mode():
    # (-y, x) spans the homogeneous part of the local space
    m = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    dofs = interpolate_hcurl(lambda p: np.column_stack([-p[:, 1], p[:, 0]]), m)
    rule = DEGREE3
    vals = eval_edge_field(m, dofs, rule)
    pts = quad_points_physical(m, rule)
    exact = np.stack([-pts[:, :, 1], pts[:, :, 0]], axis=2)
    np.testing.assert_allclose(vals, exact, atol=1e-13)


def test_projection_constant():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    np.testing.assert_allclose(
        project_l2_p0(lambda p: np.full(len(p), 5.0), m), 5.0, atol=1e-13)


def test_projection_linear_means():
    m = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    means = project_l2_p0(lambda p: p[:, 0], m)
    # lower triangle (0,0)(1,0)(1,1): mean x = 2/3; upper: 1/3
    np.testing.assert_allclose(means, [2 / 3, 1 / 3], atol=1e-14)


def test_tangential_continuity_across_interior_edges():
    # point q of the rule is the midpoint of local edge q of every cell
    m = generate_rect_mesh((0, 1, 0, 1), 3, 3, 0)
    rng = np.random.default_rng(3)
    dofs = rng.standard_normal(m.n_edges)
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    rule = QuadratureRule(mids, np.full(3, 1 / 6))
    np.testing.assert_allclose(quad_points_physical(m, rule),
                               edge_midpoints(m)[m.tri_edges], atol=1e-15)
    field = eval_edge_field(m, dofs, rule)                     # (nt, 3, 2)
    trace = np.einsum("tqd,tqd->tq", field, m.edge_tangents[m.tri_edges])
    interior = np.flatnonzero(m.edge_triangle_count == 2)
    for e in interior:
        cells, local = np.nonzero(m.tri_edges == e)
        assert trace[cells[0], local[0]] == pytest.approx(
            trace[cells[1], local[1]], abs=1e-12)


@pytest.mark.parametrize("degree", [1, 3])
def test_eval_edge_field_matches_basis_table(degree):
    # vertex values against the oriented, Piola-mapped basis table
    mesh = jittered_mesh()
    rule = TRIANGLE_RULES[degree]
    dofs = np.random.default_rng(12).standard_normal(mesh.n_edges)
    ref = table_edge_field(mesh, dofs, rule)
    got = eval_edge_field(mesh, dofs, rule)
    assert got.shape == ref.shape == (mesh.n_triangles, len(rule.weights), 2)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())


def test_cell_areas_partition_domain():
    m = generate_rect_mesh((0, 2, 0, 3), 5, 4, 0)
    assert m.areas.sum() == pytest.approx(6.0, rel=1e-12)
