import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from sppfetd import sparse_solve
from sppfetd.assembly import (apply_pec, assemble_edge_load, assemble_edge_mass,
                              assemble_interface_mass, assemble_mixed_curl,
                              build_operator_set)
from sppfetd.dynamics import LeapfrogStepper
from sppfetd.elements import DEGREE3, interpolate_hcurl
from sppfetd.harness import SCENARIO_NAMES, build_manufactured_problem, scenario
from sppfetd.mesh import (Mesh, Segment, generate_rect_mesh,
                          snap_interface)
from sppfetd.physics import MaterialParams, damping_at_centroids
from sppfetd.sparse_solve import factorize

import oracles


def curl_curl(mesh, coeff=1.0):
    """C^T diag(coeff/|K|) C: the curl-curl form as the stepper applies it."""
    c_mat = assemble_mixed_curl(mesh)
    return (c_mat.T @ sp.diags(coeff / mesh.areas) @ c_mat).tocsr()


@pytest.fixture
def small_mesh():
    # 8 triangles, the upper bound of the dense-oracle fixtures
    return generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)


@pytest.fixture
def pair_mesh():
    return generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)


def test_edge_mass_matches_quadrature_oracle(pair_mesh):
    got = assemble_edge_mass(pair_mesh, np.ones((pair_mesh.n_triangles, 2))).toarray()
    ref = oracles.dense_edge_mass(pair_mesh)
    np.testing.assert_allclose(got, ref, atol=1e-13)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_edge_mass_closed_form_on_one_cell_matches_oracle(order):
    # A sheared cell whose local vertex k has global index order[k]: the six
    # numberings give the three edges different orientation-sign patterns,
    # and each rotation puts another corner at local vertex 0.  Unequal
    # weights tell w1 from w2.
    sheared = np.array([[0.0, 0.0], [2.0, 0.3], [1.7, 1.1]])
    for shift in range(3):
        verts = np.empty((3, 2))
        verts[list(order)] = np.roll(sheared, shift, axis=0)
        mesh = Mesh(verts, [list(order)])
        for w in (np.ones((1, 2)), np.array([[0.7, 2.9]])):
            got = assemble_edge_mass(mesh, w).toarray()
            ref = oracles.dense_edge_mass(mesh, w)
            np.testing.assert_allclose(got, ref, rtol=0.0,
                                       atol=1e-13 * np.abs(ref).max())


def test_edge_mass_zero_coefficient(small_mesh):
    got = assemble_edge_mass(small_mesh, np.zeros((small_mesh.n_triangles, 2)))
    assert abs(got).max() == 0.0


def test_edge_mass_shared_edge_accumulates(pair_mesh):
    diag = pair_mesh.edge_index(0, 3)  # lower-left to upper-right diagonal
    full = assemble_edge_mass(pair_mesh, np.ones((2, 2))).toarray()[diag, diag]
    per_cell = []
    for cell in (0, 1):
        w = np.zeros((2, 2))
        w[cell] = 1.0
        per_cell.append(assemble_edge_mass(pair_mesh, w).toarray()[diag, diag])
    assert full == pytest.approx(sum(per_cell), rel=1e-13)


@pytest.mark.parametrize("mesh", [generate_rect_mesh((0, 1, 0, 1), 2, 2, 0),
                                  oracles.jittered_mesh()], ids=["grid", "jittered"])
def test_edge_mass_signed_weights_on_a_cell_subset(mesh):
    # the stepper's collar correction: weights of either sign, unequal or
    # equal (cell 5's are equal and negative: on the grid the kernel drops
    # that right isosceles cell's exact zeros), over some cells only, against
    # the oracle with zero weight on the other cells
    cells = np.array([1, 2, 5, 6])
    w = np.array([[0.7, -1.3], [-2.0, 0.4], [-0.9, -0.9], [1.5, 2.5]])
    got = assemble_edge_mass(mesh, w, cells).toarray()
    everywhere = np.zeros((mesh.n_triangles, 2))
    everywhere[cells] = w
    ref = oracles.dense_edge_mass(mesh, everywhere)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
    assert np.array_equal(got, got.T)


def _stored(mat, rows, cols):
    """Whether `mat` holds a nonzero entry at each (rows, cols) pair."""
    return np.asarray(mat[rows.ravel(), cols.ravel()]).reshape(rows.shape) != 0


def _ring_grid(pml_layers):
    """A 0.1 um criss-cross grid at the ring-resonator's coordinates, whose
    rounded vertices leave residue in the vanishing couplings, with the ring's
    SI material, step and damped collar; returns (mesh, ops, stepper)."""
    cfg = scenario("ring-resonator")
    mesh = generate_rect_mesh((16e-6, 20e-6, -20e-6, -16e-6), 40, 40, pml_layers)
    ops = build_operator_set(mesh, *damping_at_centroids(mesh))
    return mesh, ops, LeapfrogStepper(ops, cfg.resolved_material(), cfg.tau)


def _factor_sizes(monkeypatch, a):
    """The matrix `factorize(a)` hands SuperLU (its leading block, as its
    transpose), and the L+U entries of its dropped factor and of a full
    splu factor of that matrix with the same ordering options."""
    seen, spilu = {}, sparse_solve.spilu

    def spy(lead_t, **kwargs):
        seen["lu"], seen["lead_t"], seen["kwargs"] = spilu(lead_t, **kwargs), lead_t, kwargs
        return seen["lu"]

    monkeypatch.setattr(sparse_solve, "spilu", spy)
    factorize(a)
    kwargs = {k: v for k, v in seen["kwargs"].items() if not k.startswith("drop_")}
    full = splu(seen["lead_t"], **kwargs)
    return seen["lead_t"], seen["lu"].L.nnz + seen["lu"].U.nnz, full.L.nnz + full.U.nnz


def test_right_isosceles_couplings_are_exact_zeros(monkeypatch):
    # on a right isosceles cell the hypotenuse-leg couplings vanish exactly;
    # stored as rounding residue they fill the factor in
    mesh, ops, stepper = _ring_grid(pml_layers=2)
    ends = mesh.vertices[mesh.edges]
    hyp = np.flatnonzero(np.all(ends[:, 1] != ends[:, 0], axis=1))
    assert len(hyp) == mesh.n_triangles // 2
    m_e = ops.m_e
    assert np.all(np.diff(m_e.indptr)[hyp] == 1)
    assert np.all(m_e.indices[m_e.indptr[hyp]] == hyp)

    # with unequal weights (the damped collar's sides) the couplings are real
    unequal = np.flatnonzero(ops.sigma_x != ops.sigma_y)
    assert len(unequal) > 0
    local_hyp = np.isin(mesh.tri_edges[unequal], hyp)
    assert np.all(local_hyp.sum(axis=1) == 1)
    hyp_edge = mesh.tri_edges[unequal][local_hyp]
    legs = mesh.tri_edges[unequal][~local_hyp].reshape(-1, 2)
    assert np.all(_stored(stepper.a, np.repeat(hyp_edge[:, None], 2, axis=1), legs))

    # without a collar every cell is isotropic: the hypotenuses, numbered
    # last, are divided, and the factor of the rest has its pattern
    mesh, ops, stepper = _ring_grid(pml_layers=0)
    a = apply_pec(stepper.a, ops.pec_mask)
    lead, dropped, full = _factor_sizes(monkeypatch, a)
    assert dropped == full == lead.nnz + lead.shape[0]    # L's unit diagonal is stored
    ends = mesh.vertices[mesh.edges]
    hyp = np.flatnonzero(np.all(ends[:, 1] != ends[:, 0], axis=1))
    assert len(hyp) == mesh.n_triangles // 2 and hyp.min() >= lead.shape[0]


def test_step_matrix_is_exactly_symmetric():
    # step_e lifts boundary data through A's columns as if they were its rows;
    # with a damped collar A = w_phys M_E + K_collar
    _, ops, stepper = _ring_grid(pml_layers=2)
    assert len(ops.damped) > 0
    for mat in (ops.m_e, stepper.a):
        assert (mat != mat.T).nnz == 0


def _published_and_manufactured_meshes():
    specs = {(cfg.bounds, cfg.nx, cfg.ny, cfg.pml_layers)
             for cfg in map(scenario, SCENARIO_NAMES)}
    yield from (generate_rect_mesh(*spec) for spec in sorted(specs))
    for n in (10, 20, 40, 80):
        yield build_manufactured_problem(1 / n)[0]


def test_zeroed_couplings_are_far_below_kept_ones():
    # every coupling the edge mass leaves out is roundoff of an exact zero and
    # every one it keeps is far from one: the 1e-12 threshold has decades of
    # margin on both sides on the published and manufactured meshes
    zeroed_total = 0
    for mesh in _published_and_manufactured_meshes():
        local = oracles.local_edge_masses(mesh)
        p, q = [0, 0, 1], [1, 2, 2]            # the local off-diagonal pairs
        ratio = np.abs(local[:, p, q]) / np.sqrt(local[:, p, p] * local[:, q, q])
        kept = _stored(assemble_edge_mass(mesh, np.ones((mesh.n_triangles, 2))),
                       mesh.tri_edges[:, p], mesh.tri_edges[:, q])
        assert np.all(ratio[~kept] <= 1e-13)
        assert np.all(ratio[kept] >= 1e-6)
        zeroed_total += np.count_nonzero(~kept)
    assert zeroed_total > 0


def test_curl_curl_single_triangle_entries(pair_mesh):
    # constant curls +-2 on half-unit cells, area 1/2: entries +-2
    s_dense = oracles.dense_curl_curl(pair_mesh)
    got = curl_curl(pair_mesh).toarray()
    np.testing.assert_allclose(got, s_dense, atol=1e-12)
    cell_edges = pair_mesh.tri_edges[0]
    local = got[np.ix_(cell_edges, cell_edges)]
    # off-diagonal entries mix both cells only on the diagonal edge
    assert np.all(np.isin(np.round(np.abs(local), 10), [2.0, 4.0]))


def test_curl_curl_kernel_contains_gradients(small_mesh):
    s_mat = curl_curl(small_mesh)
    dofs = interpolate_hcurl(lambda p: np.column_stack([p[:, 1], p[:, 0]]),
                             small_mesh)  # grad(xy)
    assert np.abs(s_mat @ dofs).max() <= 1e-10


def test_curl_curl_rank_euler(small_mesh):
    s_mat = curl_curl(small_mesh).toarray()
    expected = small_mesh.n_edges - small_mesh.n_vertices + 1
    assert np.linalg.matrix_rank(s_mat, tol=1e-10) == expected
    mask = build_operator_set(small_mesh).pec_mask
    pecced = apply_pec(sp.csr_matrix(s_mat), mask)
    # constrained block is the identity; the interior block loses one rank
    # per interior vertex (gradients of interior hat functions)
    n_boundary = int(mask.sum())
    n_int_edges = small_mesh.n_edges - n_boundary
    boundary_verts = np.unique(small_mesh.edges[mask])
    n_int_verts = small_mesh.n_vertices - len(boundary_verts)
    assert (np.linalg.matrix_rank(pecced.toarray(), tol=1e-10)
            == n_boundary + n_int_edges - n_int_verts)


def test_mixed_curl_is_the_signed_incidence():
    # the integral of curl(phi_e) over K is the orientation sign of e in K;
    # on this coarse copy of the published region a quadrature-built C is
    # off by roundoff in about a third of its entries
    mesh = generate_rect_mesh((-30e-6, 30e-6, -10e-6, 10e-6), 10, 10, 2)
    c_mat = assemble_mixed_curl(mesh)
    assert c_mat.nnz == 3 * mesh.n_triangles
    assert np.all(np.abs(c_mat.data) == 1.0)
    rows = np.arange(mesh.n_triangles)[:, None]
    np.testing.assert_array_equal(c_mat.toarray()[rows, mesh.tri_edges],
                                  mesh.tri_edge_signs)


def test_mixed_curl_on_rotational_field(small_mesh):
    c_mat = assemble_mixed_curl(small_mesh)
    dofs = interpolate_hcurl(lambda p: np.column_stack([-p[:, 1], p[:, 0]]),
                             small_mesh)
    np.testing.assert_allclose(c_mat @ dofs, 2.0 * small_mesh.areas, rtol=1e-12)
    const = interpolate_hcurl(lambda p: np.tile([0.3, -0.7], (len(p), 1)),
                              small_mesh)
    assert np.abs(c_mat @ const).max() <= 1e-13


def test_partial_matrices(small_mesh):
    # For Whitney fields the split derivatives are +-curl/2 per cell, so the
    # stepper reuses C for both; check that against the brute-force partials.
    c_mat = assemble_mixed_curl(small_mesh)
    dx, dy = 0.5 * c_mat, -0.5 * c_mat
    np.testing.assert_allclose(dx.toarray(), oracles.dense_partial(small_mesh, "x"),
                               atol=1e-7)
    np.testing.assert_allclose(dy.toarray(), oracles.dense_partial(small_mesh, "y"),
                               atol=1e-7)
    # interpolant of (0, x) carries unit curl; the split derivative gets half
    dofs = interpolate_hcurl(lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
                             small_mesh)
    np.testing.assert_allclose(dx @ dofs, 0.5 * small_mesh.areas, rtol=1e-12)
    const = interpolate_hcurl(lambda p: np.tile([1.0, 2.0], (len(p), 1)), small_mesh)
    assert np.abs(dy @ const).max() <= 1e-13


def test_interface_mass_diagonal(small_mesh):
    edges = snap_interface(small_mesh, [Segment((0, 0.5), (1, 0.5))])
    g_mat = assemble_interface_mass(small_mesh)
    ref = oracles.dense_interface_mass(small_mesh, edges)
    np.testing.assert_allclose(g_mat.toarray(), ref, atol=1e-13)
    for e in edges:
        assert g_mat[e, e] == pytest.approx(1.0 / small_mesh.edge_lengths[e])


def test_interface_mass_empty():
    m = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    assert abs(assemble_interface_mass(m)).max() == 0.0


def test_interface_trace_same_from_both_sides(small_mesh):
    # the conforming trace makes the line integrals independent of which
    # incident triangle evaluates them
    edges = snap_interface(small_mesh, [Segment((0, 0.5), (1, 0.5))])
    e = edges[0]
    cells = np.flatnonzero((small_mesh.tri_edges == e).any(axis=1))
    assert len(cells) == 2
    vals = []
    for cell in cells:
        ref_pts, _ = oracles.duffy_rule(2)
        phi = oracles.physical_whitney(small_mesh, cell, ref_pts)
        vals.append(phi)
    # both give trace 1/L along the edge midline; compare the own-edge moment
    g_mat = assemble_interface_mass(small_mesh)
    assert g_mat[e, e] == pytest.approx(1.0 / small_mesh.edge_lengths[e])


def test_edge_load_matches_oracle(pair_mesh):
    rng = np.random.default_rng(5)
    coef = rng.standard_normal((2, 2))

    def field(p):
        return np.column_stack([coef[0, 0] + coef[0, 1] * p[:, 1],
                                coef[1, 0] + coef[1, 1] * p[:, 0]])

    got = assemble_edge_load(pair_mesh, field)
    ref_pts, wts = oracles.duffy_rule(6)
    ref = np.zeros(pair_mesh.n_edges)
    for cell in range(pair_mesh.n_triangles):
        p0, jac, _, det = oracles.cell_maps(pair_mesh, cell)
        phys = (jac @ ref_pts.T).T + p0
        phi = oracles.physical_whitney(pair_mesh, cell, ref_pts)
        vals = field(phys)
        ref[pair_mesh.tri_edges[cell]] += np.einsum(
            "q,qd,qkd->k", wts * det, vals, phi)
    np.testing.assert_allclose(got, ref, atol=1e-13)


def test_edge_load_with_mode_axis_matches_basis_table():
    # three fields at once on a mesh with jittered cells and mixed edge
    # orientations, against the basis-table load scattered cell by cell
    mesh = oracles.jittered_mesh()

    def modes(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.column_stack([np.sin(3 * x) * y, np.cos(2 * y)]),
                         np.column_stack([x * x - y, 0.5 + x * y]),
                         np.column_stack([np.exp(x - y), -np.sin(x + 2 * y)])])

    ref = oracles.table_edge_load(mesh, modes, DEGREE3)
    got = assemble_edge_load(mesh, modes)
    assert got.shape == ref.shape == (3, mesh.n_edges)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())
    single = assemble_edge_load(mesh, lambda p: modes(p)[1])
    np.testing.assert_allclose(single, ref[1], rtol=0.0, atol=1e-14 * np.abs(ref).max())


def test_apply_pec_two_triangle_mesh(pair_mesh):
    ops = build_operator_set(pair_mesh)
    mask = ops.pec_mask
    assert int(mask.sum()) == 4 and int((~mask).sum()) == 1
    m_pec = apply_pec(ops.m_e, mask)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(pair_mesh.n_edges)
    b[mask] = 0.0
    x = factorize(m_pec)(b)
    assert np.abs(x[mask]).max() == 0.0


def test_apply_pec_preserves_constrained_energy(small_mesh):
    ops = build_operator_set(small_mesh)
    mask, m_raw = ops.pec_mask, ops.m_e
    m_pec = apply_pec(m_raw, mask)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(small_mesh.n_edges)
    x[mask] = 0.0
    assert x @ (m_pec @ x) == pytest.approx(x @ (m_raw @ x), rel=1e-13)


@pytest.mark.parametrize("stored_zero_diagonal", [False, True])
def test_apply_pec_row_without_stored_diagonal(stored_zero_diagonal):
    # a masked row gets its unit diagonal whether or not the input stores
    # one there; the result equals the dense zero-and-identity form
    dense = np.array([[4.0, 1.0, 0.0, 2.0],
                      [1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 5.0, 1.0],
                      [2.0, 0.0, 1.0, 0.0]])
    rows, cols = np.nonzero(dense)
    if stored_zero_diagonal:
        rows, cols = np.append(rows, [1, 3]), np.append(cols, [1, 3])
    matrix = sp.coo_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape).tocsr()
    assert matrix.nnz == len(rows)
    mask = np.array([False, True, False, True])
    got = apply_pec(matrix, mask)
    ref = dense.copy()
    ref[mask, :] = 0.0
    ref[:, mask] = 0.0
    ref[mask, mask] = 1.0
    np.testing.assert_array_equal(got.toarray(), ref)
    assert got.has_canonical_format and np.all(got.data != 0.0)


def test_operator_set_symmetry_and_oracle(small_mesh):
    rng = np.random.default_rng(2)
    sx = np.abs(rng.standard_normal(small_mesh.n_triangles))
    sy = np.abs(rng.standard_normal(small_mesh.n_triangles))
    sx[:4] = sy[:4] = 0.0      # the lower row physical, the upper one collar
    ops = build_operator_set(small_mesh, sx, sy)
    c1 = oracles.physical(sx, sy).astype(float)
    # the physical and damping masses the step matrix combines
    m_phys = assemble_edge_mass(small_mesh, np.column_stack([c1, c1]))
    m_d1 = assemble_edge_mass(small_mesh, np.column_stack([ops.sigma_y, ops.sigma_x]))
    s_mat = (ops.c.T @ sp.diags(1.0 / ops.areas) @ ops.c).tocsr()
    s_phys = (ops.c.T @ sp.diags(c1 / ops.areas) @ ops.c).tocsr()
    for mat in (ops.m_e, m_phys, ops.g, m_d1, s_mat, s_phys):
        assert abs(mat - mat.T).max() <= 1e-13
    np.testing.assert_allclose(ops.m_e.toarray(),
                               oracles.dense_edge_mass(small_mesh), atol=1e-12)
    np.testing.assert_allclose(
        m_phys.toarray(), oracles.dense_edge_mass(small_mesh, c1), atol=1e-12)
    np.testing.assert_allclose(
        m_d1.toarray(),
        oracles.dense_edge_mass(small_mesh, np.column_stack([sy, sx])), atol=1e-12)
    np.testing.assert_allclose(s_mat.toarray(),
                               oracles.dense_curl_curl(small_mesh), atol=1e-12)
    np.testing.assert_allclose(ops.c.toarray(),
                               oracles.dense_mixed_curl(small_mesh), atol=1e-12)
    np.testing.assert_allclose(ops.areas, small_mesh.areas, atol=1e-15)


def test_step_system_matrix_positive_definite(small_mesh):
    rng = np.random.default_rng(4)
    sx = np.abs(rng.standard_normal(small_mesh.n_triangles))
    sx[:4] = 0.0
    ops = build_operator_set(small_mesh, sx, sx)
    c1 = oracles.physical(sx, sx).astype(float)
    tau, eps0, tau0 = 1e-3, 1.0, 1.0
    m_d1 = assemble_edge_mass(small_mesh, np.column_stack([ops.sigma_y, ops.sigma_x]))
    a_mat = ((eps0 / tau ** 2) * ops.m_e + (1.0 / (2 * tau)) * m_d1
             + (eps0 / (2 * tau * tau0))
             * assemble_edge_mass(small_mesh, np.column_stack([c1, c1])))
    stepper = LeapfrogStepper(ops, MaterialParams(eps0=eps0, tau0=tau0), tau)
    assert abs(stepper.a - a_mat).max() <= 1e-12 * abs(a_mat).max()
    a_pec = apply_pec(stepper.a, ops.pec_mask)
    eigvals = np.linalg.eigvalsh(a_pec.toarray())
    assert eigvals.min() > 0
