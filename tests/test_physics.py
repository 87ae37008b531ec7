import numpy as np
import pytest

from sppfetd.mesh import CellTag, Mesh, generate_rect_mesh, load_mesh
from sppfetd.physics import (HBAR, K_B, Q_E, KuboParams, ManufacturedCase,
                             MaterialParams, SourceSpec, damping_at_centroids,
                             dipole_source_cells, eval_source, kubo_sigma0,
                             locate_cell)

import oracles

UM = 1e-6

# Evaluated with a 60-digit decimal oracle of the printed closed form
# (magnitude) at the published constants; see test_kubo_decimal_oracle.
KUBO_SIGMA0_REFERENCE = 0.211883569473406053190721902469109720355647452668


def _decimal_kubo(mu_c_ev="1.5", tau0="1.2e-12"):
    from decimal import Decimal, getcontext
    getcontext().prec = 60
    q = Decimal("1.6022e-19")
    temp = Decimal("300")
    hbar = Decimal("1.0546e-34")
    k_b = Decimal("1.3806e-23")
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097")
    kbt = k_b * temp
    x = Decimal(mu_c_ev) * q / kbt
    bracket = x + 2 * ((-x).exp() + 1).ln()
    return float(q * q * kbt * Decimal(tau0) / (pi * hbar * hbar) * bracket)


def test_kubo_decimal_oracle():
    assert _decimal_kubo() == pytest.approx(KUBO_SIGMA0_REFERENCE, rel=1e-15)
    got = kubo_sigma0(KuboParams(mu_c_ev=1.5))
    assert got == pytest.approx(KUBO_SIGMA0_REFERENCE, rel=1e-12)


def test_kubo_small_chemical_potential_limit():
    kp = KuboParams(mu_c_ev=1e-12)
    pref = Q_E ** 2 * K_B * kp.temperature * kp.tau0 / (np.pi * HBAR ** 2)
    assert kubo_sigma0(kp) == pytest.approx(pref * 2.0 * np.log(2.0), rel=1e-6)


def test_kubo_linear_in_relaxation_time():
    base = kubo_sigma0(KuboParams(mu_c_ev=1.5, tau0=1.2e-12))
    double = kubo_sigma0(KuboParams(mu_c_ev=1.5, tau0=2.4e-12))
    assert double == pytest.approx(2.0 * base, rel=1e-14)


def test_kubo_monotone():
    mus = [0.5, 0.8, 1.5, 2.0]
    vals = [kubo_sigma0(KuboParams(mu_c_ev=m)) for m in mus]
    assert np.all(np.diff(vals) > 0)


def test_damping_profile_values():
    # 3 collar layers of 0.4 um: depth d = 1.2 um on both axes
    mesh = generate_rect_mesh((0.0, 1e-5, 0.0, 1e-5), 25, 25, 3)
    sigma_max = -np.log(1e-7) * 5 / (2 * 1.2e-6 * 377)
    assert sigma_max == pytest.approx(8.907e4, rel=1e-3)
    phys = mesh.cell_tags == CellTag.PHYSICAL
    for axis, sigma in enumerate(damping_at_centroids(mesh)):
        c = mesh.centroids[:, axis]
        depth = np.maximum(np.maximum(-c, c - 1e-5), 0.0)
        np.testing.assert_allclose(sigma, sigma_max * (depth / 1.2e-6) ** 4,
                                   rtol=1e-12, atol=0.0)
        assert np.all(sigma[phys] == 0.0) and np.all(sigma[~phys] >= 0.0)
        # the outermost centroids sit h/3 inside the outer edge: s = 8/9 d
        assert sigma.max() == pytest.approx(sigma_max * (8 / 9) ** 4, rel=1e-12)
    # without collar cells every value is an exact zero
    for sigma in damping_at_centroids(generate_rect_mesh((0.0, 1e-5, 0.0, 1e-5),
                                                         25, 25, 0)):
        assert np.all(sigma == 0.0)


def test_damping_profile_symmetric_sides():
    # the criss-cross mesh of a centred square is symmetric under (x, y) ->
    # (-x, -y), which takes each collar side to the opposite one
    mesh = generate_rect_mesh((-1e-5, 1e-5, -1e-5, 1e-5), 20, 20, 2)
    index = {tuple(np.round(c / mesh.h_x, 6)): k for k, c in enumerate(mesh.centroids)}
    mirror = [index[tuple(np.round(-c / mesh.h_x, 6))] for c in mesh.centroids]
    sigma_max = -np.log(1e-7) * 5 / (2 * 2e-6 * 377)
    for axis, sigma in enumerate(damping_at_centroids(mesh)):
        np.testing.assert_allclose(sigma[mirror], sigma, rtol=1e-12, atol=0.0)
        left = mesh.centroids[:, axis] < -1e-5
        assert left.any() and np.all(sigma[left] > 0.0)
        # the outermost centroids sit h/3 inside the outer edge: s = 5/6 d
        assert sigma.max() == pytest.approx(sigma_max * (5 / 6) ** 4, rel=1e-12)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(eps0=0.0)
    with pytest.raises(ValueError):
        MaterialParams(sigma0=-1.0)
    MaterialParams(sigma0=0.0)  # comparison runs switch the sheet off
    assert MaterialParams().c_v == pytest.approx(2.99792458e8, rel=1e-9)


def test_dipole_source_cells():
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    cell = int(np.flatnonzero(mesh.cell_tags == 0)[3])
    centroid = mesh.centroids[cell]
    spec = SourceSpec(((centroid[0], centroid[1], 1.0),), 1e13, 0.25)
    assert dipole_source_cells(mesh, spec) == [(cell, 1.0)]


def test_dipole_pair_straddles_interface():
    mesh = generate_rect_mesh((-30 * UM, 30 * UM, -10 * UM, 10 * UM), 50, 50, 4)
    spec = SourceSpec(((-27 * UM, 1 * UM, 1.0), (-27 * UM, -1 * UM, -1.0)),
                      1e13, 0.4 * UM)
    cells = dipole_source_cells(mesh, spec)
    assert cells[0][0] != cells[1][0]
    assert mesh.centroids[cells[0][0], 1] > 0 > mesh.centroids[cells[1][0], 1]


def test_point_on_shared_diagonal_takes_lower_cell():
    mesh = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    # the diagonal runs (0,0)-(1,1); its midpoint belongs to both triangles
    assert locate_cell(mesh, (0.5, 0.5)) == 0


def _perturbed_mesh_file(tmp_path):
    # interior vertices moved by up to 0.15 cell per axis, so cells differ in
    # shape and extent; the loader takes h_x, h_y as the largest cell extents
    mesh = generate_rect_mesh((0, 1, 0, 1), 6, 5, 2)
    interior = np.bincount(mesh.edges.ravel()) == 6
    verts = mesh.vertices.copy()
    shift = np.random.default_rng(3).uniform(-0.15, 0.15, (interior.sum(), 2))
    verts[interior] += shift * [mesh.h_x, mesh.h_y]
    path = tmp_path / "perturbed.mesh"
    oracles.save_mesh(Mesh(verts, mesh.triangles, mesh.cell_tags), path)
    return load_mesh(path)


@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_locate_cell_matches_full_scan(tmp_path, source):
    # the lowest-index cell containing the point, as a scan of every cell finds
    mesh = (generate_rect_mesh((-3 * UM, 2 * UM, 1 * UM, 5 * UM), 7, 4, 2)
            if source == "generated" else _perturbed_mesh_file(tmp_path))
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    random = lo + np.random.default_rng(11).random((200, 2)) * (hi - lo)
    # vertices and edge midpoints lie in several cells
    shared = np.concatenate([mesh.vertices, oracles.edge_midpoints(mesh)])
    n_shared = 0
    for point in np.concatenate([random, shared]):
        cells = oracles.cells_containing(mesh, point)
        assert locate_cell(mesh, point) == cells[0]
        n_shared += len(cells) > 1
    assert n_shared >= mesh.n_edges - np.sum(mesh.edge_triangle_count == 1)
    span = hi - lo
    for point in (lo - 0.01 * span, hi + 0.01 * span, (lo[0] - span[0], hi[1]),
                  (0.5 * (lo[0] + hi[0]), hi[1] + 1e-3 * span[1])):
        assert len(oracles.cells_containing(mesh, point)) == 0
        with pytest.raises(ValueError, match="outside the mesh"):
            locate_cell(mesh, point)


def test_source_in_collar_rejected():
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 2)
    spec = SourceSpec(((-0.2, 0.5, 1.0),), 1e13, 0.25)
    with pytest.raises(ValueError):
        dipole_source_cells(mesh, spec)


def test_eval_source_waveform():
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    spec = SourceSpec(((0.6, 0.6, 1.0), (0.6, 0.4, -1.0)), 1e13, 0.2 * UM)
    cells = dipole_source_cells(mesh, spec)
    assert np.all(eval_source(spec, 0.0, cells, mesh.n_triangles) == 0.0)
    quarter = 1.0 / (4.0 * spec.f0)
    ks = eval_source(spec, quarter, cells, mesh.n_triangles)
    assert ks[cells[0][0]] == pytest.approx(1.0 / (0.2 * UM))
    assert ks[cells[1][0]] == pytest.approx(-1.0 / (0.2 * UM))
    assert np.abs(ks).max() == pytest.approx(5e6)


def test_source_gating():
    spec = SourceSpec(((0.5, 0.5, 1.0),), 1e13, 1.0, n_cycles=2.0)
    assert spec.amplitude(1.3e-13) != 0.0
    assert spec.amplitude(2.1e-13) == 0.0


@pytest.fixture
def case():
    return ManufacturedCase()


def test_manufactured_zero_slices(case):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 2))
    assert np.abs(case.e_field(pts, 0.0)).max() <= 1e-15
    assert np.abs(case.h_field(pts, 0.0)).max() <= 1e-15
    edge = np.column_stack([np.zeros(20), rng.uniform(0, 1, 20)])
    assert np.abs(case.e_field(edge, 0.37)[:, 0]).max() <= 1e-15
    assert np.abs(case.h_field(edge, 0.37)).max() <= 1e-15


def test_manufactured_interface_compatibility(case):
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 100)
    above = np.column_stack([x, np.full(100, 0.5 + 1e-13)])
    below = np.column_stack([x, np.full(100, 0.5 - 1e-13)])
    t = 0.29
    assert np.abs(case.h_field(above, t) - case.h_field(below, t)).max() <= 1e-12
    on = np.column_stack([x, np.full(100, 0.5)])
    assert np.abs(case.e_field(on, t)[:, 0]).max() <= 1e-12


def _fd_time(f, pts, t, dt=1e-6):
    return (f(pts, t + dt) - f(pts, t - dt)) / (2.0 * dt)


def _fd_curl_h(case, pts, t, dx=1e-6):
    ex = np.zeros((len(pts), 2))
    up = pts.copy(); up[:, 1] += dx
    dn = pts.copy(); dn[:, 1] -= dx
    ex[:, 0] = (case.h_field(up, t) - case.h_field(dn, t)) / (2.0 * dx)
    rt = pts.copy(); rt[:, 0] += dx
    lt = pts.copy(); lt[:, 0] -= dx
    ex[:, 1] = -(case.h_field(rt, t) - case.h_field(lt, t)) / (2.0 * dx)
    return ex


def _fd_curl_e(case, pts, t, dx=1e-6):
    rt = pts.copy(); rt[:, 0] += dx
    lt = pts.copy(); lt[:, 0] -= dx
    dy_up = pts.copy(); dy_up[:, 1] += dx
    dy_dn = pts.copy(); dy_dn[:, 1] -= dx
    d_ey_dx = (case.e_field(rt, t)[:, 1] - case.e_field(lt, t)[:, 1]) / (2.0 * dx)
    d_ex_dy = (case.e_field(dy_up, t)[:, 0] - case.e_field(dy_dn, t)[:, 0]) / (2.0 * dx)
    return d_ey_dx - d_ex_dy


def manufactured_residuals(case, n_points=100, seed=2):
    """Finite-difference residuals of the sourced field equations."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n_points, 2))
    pts = pts[np.abs(pts[:, 1] - 0.5) > 0.01]
    ts = rng.uniform(0.05, 1.0, size=len(pts))
    res_e = res_h = 0.0
    p = case.params
    for i, t in enumerate(ts):
        pt = pts[i:i + 1]
        r1 = (p.eps0 * _fd_time(case.e_field, pt, t)
              - _fd_curl_h(case, pt, t) - oracles.f_vector(case, pt, t))
        r2 = (p.mu0 * _fd_time(case.h_field, pt, t)
              + _fd_curl_e(case, pt, t) - oracles.f_scalar(case, pt, t))
        res_e = max(res_e, np.abs(r1).max())
        res_h = max(res_h, np.abs(r2).max())
    return res_e, res_h


def test_manufactured_source_fd_oracle(case):
    res_e, res_h = manufactured_residuals(case)
    assert res_e <= 1e-6
    assert res_h <= 1e-6


@pytest.mark.parametrize("params", [MaterialParams.unit(),
                                    MaterialParams(eps0=2.0, mu0=0.5, tau0=0.3)])
def test_manufactured_modes_sum_to_the_sources(params):
    case = ManufacturedCase(params)
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.uniform((0.0, 0.5), (1.0, 1.0), (20, 2)),    # upper
                     rng.uniform((0.0, 0.0), (1.0, 0.5), (20, 2))])   # lower
    x, y = 2.0 * np.pi * pts.T
    v1 = np.column_stack([np.sin(x) * np.sin(y), np.cos(x) * np.cos(y)])
    # e_load_field, ks and e_field are the modal sums.
    for t in (0.0, 0.17, 0.6, 2.3):
        np.testing.assert_allclose(
            oracles.e_load_field(case, pts, t),
            oracles.f_vector(case, pts, t)
            + params.tau0 * oracles.dt_f_vector(case, pts, t),
            rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(oracles.ks(case, pts, t),
                                   -oracles.f_scalar(case, pts, t),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(case.e_field(pts, t), np.sin(2.0 * np.pi * t) * v1,
                                   rtol=0.0, atol=1e-15)


def test_manufactured_dt_consistency(case):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(30, 2))
    fd = _fd_time(lambda p, t: oracles.f_vector(case, p, t), pts, 0.4)
    assert np.abs(fd - oracles.dt_f_vector(case, pts, 0.4)).max() <= 1e-6
    assert np.abs(case.dt_e0(pts) - _fd_time(case.e_field, pts, 0.0)).max() <= 1e-6
