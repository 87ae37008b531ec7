import copy

import numpy as np
import pytest
import scipy.sparse as sp

from sppfetd import assembly, dynamics, sparse_solve
from sppfetd.assembly import build_operator_set
from sppfetd.dynamics import (BlowUpError, CflConstants, FieldState,
                              LeapfrogStepper, cfl_max_timestep,
                              discrete_energy, init_state, run_simulation)
from sppfetd.elements import interpolate_hcurl
from sppfetd.mesh import Segment, generate_rect_mesh, snap_interface
from sppfetd.physics import ManufacturedCase, MaterialParams, damping_at_centroids

import oracles

UNIT = MaterialParams.unit()
UM = 1e-6


@pytest.fixture
def small_setup():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    return mesh, build_operator_set(mesh)


def test_cfl_is_minimum_of_bound_terms():
    mesh = generate_rect_mesh((0, 1, 0, 1), 10, 10, 0)
    params = UNIT
    got = cfl_max_timestep(params, mesh, CflConstants())
    h = 0.1
    cv = 1.0
    terms = [1.0, h / (2 * cv), h / 2.0, h / np.sqrt(2.0), h]
    assert got == pytest.approx(min(terms))


def test_cfl_wave_speed_term_si():
    mesh = generate_rect_mesh((0, 1e-6, 0, 1e-6), 10, 10, 0)  # h = 0.1 um
    params = MaterialParams(tau0=1e6, sigma0=0.0)  # relaxation terms inactive
    got = cfl_max_timestep(params, mesh, CflConstants())
    assert got == pytest.approx(1.6678e-16, rel=1e-3)
    # the published run step respects the wave-speed bound at h = 0.1 um
    assert 8.3e-17 < 1e-7 / (2.0 * params.c_v)


def test_cfl_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CflConstants(c_in=0.0)


def test_init_state_zero(small_setup):
    _, ops = small_setup
    state = init_state(ops, UNIT, tau=0.01)
    assert np.all(state.e_curr == 0) and np.all(state.hz == 0)
    assert np.all(state.e_prev == 0)


def test_init_state_requires_tau(small_setup):
    # a zero default step gave a zero magnetic start and a state whose
    # energy divides by zero
    _, ops = small_setup
    with pytest.raises(TypeError, match="tau"):
        init_state(ops, UNIT)


def test_init_state_manufactured_has_zero_field_nonzero_velocity(small_setup):
    _, ops = small_setup
    case = ManufacturedCase()
    state = init_state(ops, UNIT,
                       e0=lambda p: oracles.e_field(case, p, 0.0), tau=0.01,
                       dt_e0=case.dt_e0, zero_boundary=False)
    vel = (state.e_curr - state.e_prev) / (2 * 0.01)
    assert np.abs(state.e_curr).max() <= 1e-14
    assert np.abs(vel).max() > 0.1


def test_init_state_magnetic_start_against_quadrature(small_setup):
    mesh, ops = small_setup
    tau = 0.02

    def e0(p):
        return np.column_stack([p[:, 1] ** 2, p[:, 0] * p[:, 1]])

    ks0 = np.linspace(-1, 1, mesh.n_triangles)
    state = init_state(ops, UNIT, e0=e0, ks0_cells=ks0,
                       tau=tau, zero_boundary=False)
    ref_pts, wts = oracles.duffy_rule(10)
    for cell in range(mesh.n_triangles):
        p0, jac, _, det = oracles.cell_maps(mesh, cell)
        phys = (jac @ ref_pts.T).T + p0
        # curl E0 = -y; the interpolant has the exact cell-mean curl (Stokes)
        curl_mean = np.sum(wts * det * -phys[:, 1]) / mesh.areas[cell]
        expected = tau / 2.0 * (curl_mean + ks0[cell])
        assert state.hz[cell] == pytest.approx(expected, abs=1e-12)


def test_step_h_zero(small_setup):
    mesh, ops = small_setup
    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    state = init_state(ops, UNIT, tau=0.01)
    h_term = stepper.step_h(state, np.zeros(mesh.n_triangles))
    assert np.all(state.hz == 0) and np.all(h_term == 0)


def test_step_h_rotational_field(small_setup):
    mesh, ops = small_setup
    tau = 0.01
    stepper = LeapfrogStepper(ops, UNIT, tau)
    dofs = interpolate_hcurl(lambda p: np.column_stack([-p[:, 1], p[:, 0]]), mesh)
    zero = np.zeros(mesh.n_triangles)
    state = oracles.split_state(ops, np.zeros(mesh.n_edges), dofs, zero, zero,
                                step=1, tau=tau)
    stepper.step_h(state, zero)
    np.testing.assert_allclose(state.hz / tau, -2.0 / UNIT.mu0, rtol=1e-12)


def _collar_only_setup():
    """Two-triangle mesh whose cells are both damped: all collar."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    sx = np.array([0.7, 0.7])
    sy = np.array([0.3, 0.3])
    return mesh, build_operator_set(mesh, sx, sy), sx, sy


def test_step_h_collar_recurrence_scalar_oracle():
    mesh, ops, sx, sy = _collar_only_setup()
    params = UNIT
    tau = 0.01
    # choose sigma_x = eps0 / tau so the old level drops out entirely
    sx = np.full(2, params.eps0 / tau)
    ops = build_operator_set(mesh, sx, np.zeros(2))
    stepper = LeapfrogStepper(ops, params, tau)
    rng = np.random.default_rng(0)
    e = rng.standard_normal(mesh.n_edges)
    ks = rng.standard_normal(2)
    state = oracles.split_state(ops, np.zeros_like(e), e, np.zeros(2), np.zeros(2),
                                step=1, tau=tau)
    stepper.step_h(state, ks)
    expected = (-(0.5 * ops.c @ e) / mesh.areas - 0.5 * ks) * tau / (1.5 * params.mu0)
    assert list(ops.damped) == [0, 1]
    np.testing.assert_allclose(state.hzx, expected, rtol=1e-12)
    np.testing.assert_array_equal(state.hz, state.hzx + state.hzy)


def test_step_e_zero(small_setup):
    mesh, ops = small_setup
    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    state = init_state(ops, UNIT, tau=0.01)
    e_next = stepper.step_e(state, np.zeros(mesh.n_triangles))
    assert np.abs(e_next).max() == 0.0


def test_merged_step_reduces_to_interface_scheme(small_setup):
    # no collar, no sheet: one step must equal the dense reference scheme
    mesh, ops = small_setup
    params = UNIT
    tau = 0.008
    stepper = LeapfrogStepper(ops, params, tau)
    rng = np.random.default_rng(1)
    mask = ops.pec_mask
    for _ in range(4):
        e_prev = rng.standard_normal(mesh.n_edges); e_prev[mask] = 0
        e_curr = rng.standard_normal(mesh.n_edges); e_curr[mask] = 0
        h_old = rng.standard_normal(mesh.n_triangles)
        ks = rng.standard_normal(mesh.n_triangles)
        state = oracles.split_state(ops, e_prev, e_curr, 0.5 * h_old, 0.5 * h_old,
                                    step=1, tau=tau)
        e_new = stepper.step_e(state, stepper.step_h(state, ks))
        e_ref, h_ref = oracles.dense_leapfrog_step(
            mesh, params, tau, e_prev, e_curr, h_old, ks)
        np.testing.assert_allclose(e_new, e_ref, atol=1e-12)
        np.testing.assert_allclose(state.hz, h_ref, atol=1e-12)


def test_merged_step_with_interface_matches_dense(small_setup):
    mesh, _ = small_setup
    edges = snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    ops = build_operator_set(mesh)
    params = MaterialParams(eps0=1.0, mu0=1.0, tau0=0.8, sigma0=2.5)
    tau = 0.005
    stepper = LeapfrogStepper(ops, params, tau)
    rng = np.random.default_rng(2)
    mask = ops.pec_mask
    e_prev = rng.standard_normal(mesh.n_edges); e_prev[mask] = 0
    e_curr = rng.standard_normal(mesh.n_edges); e_curr[mask] = 0
    h_old = rng.standard_normal(mesh.n_triangles)
    ks = rng.standard_normal(mesh.n_triangles)
    state = oracles.split_state(ops, e_prev, e_curr, 0.5 * h_old, 0.5 * h_old,
                                step=1, tau=tau)
    e_new = stepper.step_e(state, stepper.step_h(state, ks))
    g_dense = oracles.dense_interface_mass(mesh, edges)
    e_ref, _ = oracles.dense_leapfrog_step(mesh, params, tau, e_prev, e_curr,
                                           h_old, ks, g_dense=g_dense)
    np.testing.assert_allclose(e_new, e_ref, atol=1e-12)


@pytest.mark.parametrize("first_step", [True, False])
def test_merged_step_collar_and_sheet_matches_dense(first_step):
    # physical core with a snapped sheet inside a damped collar, sigma0 > 0
    # and a source in every cell: one step against the dense merged scheme
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 1)
    edges = snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    collar = oracles.collar_cells(mesh)
    assert collar.any() and not collar.all() and len(edges) > 0
    rng = np.random.default_rng(6)
    sx = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    sy = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(eps0=1.3, mu0=0.7, tau0=0.8, sigma0=2.5)
    tau = 0.005
    stepper = LeapfrogStepper(ops, params, tau)
    mask = ops.pec_mask
    e_prev = rng.standard_normal(mesh.n_edges); e_prev[mask] = 0
    e_curr = rng.standard_normal(mesh.n_edges); e_curr[mask] = 0
    hzx = rng.standard_normal(mesh.n_triangles)
    hzy = rng.standard_normal(mesh.n_triangles)
    ks = rng.standard_normal(mesh.n_triangles)
    velocity = rng.standard_normal(mesh.n_edges) if first_step else None
    state = oracles.split_state(ops, e_curr - 2 * tau * velocity if first_step else e_prev,
                                e_curr, hzx, hzy, step=0 if first_step else 1, tau=tau)
    e_new = stepper.step_e(state, stepper.step_h(state, ks))
    e_ref, hx_ref, hy_ref = oracles.dense_merged_step(
        mesh, params, tau, e_prev, e_curr, hzx, hzy, ks,
        g_dense=oracles.dense_interface_mass(mesh, edges), mask=mask,
        sigma=(sx, sy), velocity=velocity)
    damped = ops.damped
    np.testing.assert_allclose(state.hz, hx_ref + hy_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(state.hzx, hx_ref[damped], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(state.hzy, hy_ref[damped], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(e_new, e_ref, rtol=1e-11, atol=1e-11 * np.abs(e_ref).max())


@pytest.mark.parametrize("first_step", [True, False])
def test_merged_step_with_dirichlet_data_matches_dense(first_step):
    # inhomogeneous boundary data, as the manufactured runs impose it: both
    # field levels are nonzero on the boundary and the new level takes bc
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 1)
    edges = snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    collar = oracles.collar_cells(mesh)
    rng = np.random.default_rng(11)
    sx = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    sy = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(eps0=1.3, mu0=0.7, tau0=0.8, sigma0=2.5)
    tau = 0.005
    stepper = LeapfrogStepper(ops, params, tau)
    mask = ops.pec_mask
    e_prev = rng.standard_normal(mesh.n_edges)
    e_curr = rng.standard_normal(mesh.n_edges)
    hzx = rng.standard_normal(mesh.n_triangles)
    hzy = rng.standard_normal(mesh.n_triangles)
    ks = rng.standard_normal(mesh.n_triangles)
    load = rng.standard_normal(mesh.n_edges)
    bc = rng.standard_normal(mesh.n_edges)
    velocity = rng.standard_normal(mesh.n_edges) if first_step else None
    state = oracles.split_state(ops, e_curr - 2 * tau * velocity if first_step else e_prev,
                                e_curr, hzx, hzy, step=0 if first_step else 1, tau=tau)
    e_new = stepper.step_e(state, stepper.step_h(state, ks), extra_load=load,
                           bc_values=bc[mask])
    e_ref, _, _ = oracles.dense_merged_step(
        mesh, params, tau, e_prev, e_curr, hzx, hzy, ks,
        g_dense=oracles.dense_interface_mass(mesh, edges), mask=mask,
        sigma=(sx, sy), velocity=velocity, bc=bc, load=load)
    assert np.array_equal(e_new[mask], bc[mask])
    np.testing.assert_allclose(e_new, e_ref, rtol=1e-11,
                               atol=1e-11 * np.abs(e_ref).max())


def test_first_step_is_later_step_with_two_lead_mass():
    # from one state with d = e_n - e_prev != 0, the first step solves
    # 2 M_lead (e^0 - e_n) = b and a later one A (e^1 - e_n) = b for the
    # same right-hand side b, checked on the free rows with dense matrices
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 1)
    snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    collar = oracles.collar_cells(mesh)
    rng = np.random.default_rng(13)
    sx = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    sy = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(eps0=1.3, mu0=0.7, tau0=0.8, sigma0=2.5)
    tau = 0.005
    stepper = LeapfrogStepper(ops, params, tau)
    mask = ops.pec_mask
    e_prev = rng.standard_normal(mesh.n_edges); e_prev[mask] = 0
    e_curr = rng.standard_normal(mesh.n_edges); e_curr[mask] = 0
    state = oracles.split_state(ops, e_prev, e_curr,
                                rng.standard_normal(mesh.n_triangles),
                                rng.standard_normal(mesh.n_triangles), step=0, tau=tau)
    ks = rng.standard_normal(mesh.n_triangles)
    h_term = stepper.step_h(state, ks)
    e_first = stepper.step_e(state, h_term)
    state.step = 1
    e_later = stepper.step_e(state, h_term)

    md = oracles.dense_edge_mass(mesh)
    c1 = oracles.physical(sx, sy).astype(float)
    damp = (oracles.dense_edge_mass(mesh, np.column_stack([sy, sx]))
            + (params.eps0 / params.tau0) * oracles.dense_edge_mass(mesh, c1))
    m_lead = (params.eps0 / tau ** 2) * md
    a_dense = m_lead + damp / (2.0 * tau)
    free = ~mask
    lhs = (2.0 * m_lead @ (e_first - e_curr))[free]
    rhs = (a_dense @ (e_later - e_curr))[free]
    assert np.abs(e_first - e_later).max() > 1e-3 * np.abs(e_later - e_curr).max()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


def test_collar_step_matches_scalar_recurrence():
    # every cell damped, one free edge: the electric update is one scalar
    # equation, the time-differenced damped recurrence
    mesh, ops, sx, sy = _collar_only_setup()
    params = UNIT
    tau = 0.004
    stepper = LeapfrogStepper(ops, params, tau)
    free = int(np.flatnonzero(~ops.pec_mask)[0])
    rng = np.random.default_rng(3)
    e_prev = np.zeros(mesh.n_edges); e_prev[free] = rng.standard_normal()
    e_curr = np.zeros(mesh.n_edges); e_curr[free] = rng.standard_normal()
    hzx = rng.standard_normal(2)
    hzy = rng.standard_normal(2)
    state = oracles.split_state(ops, e_prev, e_curr, hzx, hzy, step=1, tau=tau)
    e_new = stepper.step_e(state, stepper.step_h(state, np.zeros(2)))

    m_d = oracles.dense_edge_mass(mesh)[free, free]
    d1_d = oracles.dense_edge_mass(mesh, np.column_stack([sy, sx]))[free, free]
    c_col = oracles.dense_mixed_curl(mesh)[:, free]
    lhs = (params.eps0 / tau ** 2) * m_d + d1_d / (2 * tau)
    rhs = ((2 * params.eps0 / tau ** 2) * m_d * e_curr[free]
           - ((params.eps0 / tau ** 2) * m_d - d1_d / (2 * tau)) * e_prev[free]
           + c_col @ (state.hz - (hzx + hzy)) / tau)
    assert e_new[free] == pytest.approx(rhs / lhs, rel=1e-12)


def test_first_step_uses_initial_velocity(small_setup):
    # with E0 = 0, H0 = 0 and no source, the first step must produce
    # E^1 = tau * velocity: substituting the pre-initial level makes the
    # system (A + B) E^1 = 2 tau B V with A + B = (2 eps0 / tau^2) M
    mesh, ops = small_setup
    params = UNIT
    tau = 0.003
    case = ManufacturedCase()
    state = init_state(ops, params, tau=tau, dt_e0=case.dt_e0)
    vel = interpolate_hcurl(case.dt_e0, mesh)
    stepper = LeapfrogStepper(ops, params, tau)
    e1 = stepper.step_e(state, np.zeros(mesh.n_triangles))
    m_d = oracles.dense_edge_mass(mesh)
    mask = ops.pec_mask
    free = ~mask
    b_mat = (params.eps0 / tau ** 2) * m_d - (params.eps0 / (2 * tau)) * m_d
    rhs = 2 * tau * (b_mat @ vel)
    a_first = (2 * params.eps0 / tau ** 2) * m_d
    ref = np.zeros(mesh.n_edges)
    ref[free] = np.linalg.solve(a_first[np.ix_(free, free)], rhs[free])
    np.testing.assert_allclose(e1, ref, atol=1e-12)


def test_conducting_wall_gets_no_initial_velocity():
    # the swirl is tangential on the walls, where the conducting boundary
    # forbids it: the first step sees the velocity zeroed there, as it sees
    # the initial field (the 2x2 swirl above vanishes on the walls)
    mesh = generate_rect_mesh((0, 1, 0, 1), 8, 8, 0)
    ops = build_operator_set(mesh)
    tau = 0.01
    state = init_state(ops, UNIT, tau=tau, dt_e0=_swirl)
    stepper = LeapfrogStepper(ops, UNIT, tau)
    ks = np.zeros(mesh.n_triangles)
    half = 0.5 * state.hz
    e1 = stepper.step_e(state, stepper.step_h(state, ks))
    mask = ops.pec_mask
    velocity = interpolate_hcurl(_swirl, mesh)
    assert np.abs(velocity[mask]).max() > 0.1
    velocity[mask] = 0.0
    zero = np.zeros(mesh.n_edges)
    ref, _, _ = oracles.dense_merged_step(mesh, UNIT, tau, zero, zero, half, half,
                                          ks, mask=mask, velocity=velocity)
    np.testing.assert_allclose(e1, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_energy_zero_state(small_setup):
    _, ops = small_setup
    state = init_state(ops, UNIT, tau=0.01)
    state.step = 1
    assert discrete_energy(state, ops, UNIT).total == 0.0


def test_energy_isolated_magnetic_term(small_setup):
    mesh, ops = small_setup
    state = init_state(ops, UNIT, tau=0.01)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(mesh.n_triangles)
    state.hz = h
    state.step = 1
    rep = discrete_energy(state, ops, UNIT)
    assert rep.total == pytest.approx(UNIT.mu0 * float(mesh.areas @ h ** 2))
    assert rep.kinetic == rep.curl == rep.interface == rep.curl_extra == 0.0


def test_energy_terms_against_dense_forms():
    mesh = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    snap_interface(mesh, [Segment((0.0, 0.0), (1.0, 1.0))])
    ops = build_operator_set(mesh)
    params = MaterialParams(eps0=2.0, mu0=3.0, tau0=0.7, sigma0=1.3)
    tau = 0.05
    rng = np.random.default_rng(5)
    e_new = rng.standard_normal(mesh.n_edges)
    e_old = rng.standard_normal(mesh.n_edges)
    h = rng.standard_normal(mesh.n_triangles)
    state = FieldState(e_prev=e_old, e_curr=e_new, curl_e=ops.c @ e_new, hz=h,
                       hzx=np.zeros(0), hzy=np.zeros(0), step=3, tau=tau)
    rep = discrete_energy(state, ops, params)
    md = oracles.dense_edge_mass(mesh)
    sd = oracles.dense_curl_curl(mesh)
    gd = oracles.dense_interface_mass(mesh, mesh.interface_edges())
    d = (e_new - e_old) / tau
    assert rep.kinetic == pytest.approx(params.eps0 * d @ md @ d, rel=1e-12)
    assert rep.curl == pytest.approx(
        (e_new @ sd @ e_new + e_old @ sd @ e_old) / (2 * params.mu0), rel=1e-12)
    assert rep.magnetic == pytest.approx(
        params.mu0 * float(mesh.areas @ h ** 2), rel=1e-12)
    assert rep.interface == pytest.approx(
        params.sigma0 / (2 * params.tau0)
        * (e_new @ gd @ e_new + e_old @ gd @ e_old), rel=1e-12)
    assert rep.curl_extra == pytest.approx(
        tau / (4 * params.mu0 * params.tau0)
        * (e_new @ sd @ e_new + e_old @ sd @ e_old), rel=1e-12)
    assert min(rep.kinetic, rep.curl, rep.magnetic, rep.interface,
               rep.curl_extra) >= 0.0


def test_collar_free_state_carries_empty_split(small_setup):
    mesh, ops = small_setup
    state = init_state(ops, UNIT, e0=_bump, tau=0.01)
    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    for _ in range(3):
        stepper.advance(state, np.ones(mesh.n_triangles))
    assert state.hzx.shape == state.hzy.shape == (0,)
    assert state.hz.shape == (mesh.n_triangles,) and np.abs(state.hz).max() > 0.0


def test_damped_split_covers_exactly_the_damped_cells():
    # sigma != 0 on cells outside the physical rectangle and on some inside,
    # sigma = 0 on some outside: the split, like the collar, follows the
    # damping, not the rectangle
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    sx, sy = damping_at_centroids(mesh)
    sx[::3], sy[::3] = 0.0, 0.0
    outside = oracles.collar_cells(mesh)
    sx[np.flatnonzero(~outside)[:5]] = 0.5
    ops = build_operator_set(mesh, sx, sy)
    expected = np.flatnonzero((sx != 0.0) | (sy != 0.0))
    assert 0 < len(expected) < mesh.n_triangles
    assert np.any(~outside[expected])
    assert np.any(outside & (sx == 0.0) & (sy == 0.0))
    np.testing.assert_array_equal(ops.damped, expected)
    state = init_state(ops, UNIT, e0=_bump, dt_e0=_swirl, tau=0.01)
    assert state.hzx.shape == state.hzy.shape == expected.shape


def test_damped_split_sums_to_carried_hz():
    # the split is Berenger's recurrence on the damped cells, and hz is its
    # sum there after every step; off them hz follows the unsplit update
    ops, params, state, steps = _collar_sheet_run()
    stepper = LeapfrogStepper(ops, params, state.tau)
    damped = ops.damped
    undamped = np.setdiff1d(np.arange(ops.mesh.n_triangles), damped)
    assert len(damped) and len(undamped)
    np.testing.assert_array_equal(state.hz[damped], state.hzx + state.hzy)
    mu0 = params.mu0
    for inputs in steps:
        hz_old, curl = state.hz.copy(), state.curl_e.copy()
        stepper.advance(state, **inputs)
        np.testing.assert_array_equal(state.hz[damped], state.hzx + state.hzy)
        expected = hz_old - state.tau / mu0 * (curl / ops.areas + inputs["ks_cells"])
        np.testing.assert_allclose(state.hz[undamped], expected[undamped],
                                   rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    assert np.abs(state.hzx - state.hzy).max() > 1e-3 * np.abs(state.hzx).max()


def _collector():
    """A recorder that keeps each (step, E copy, Hz copy, report) it is
    given, and the list it fills."""
    seen = []

    def record(state, report):
        seen.append((state.step, state.e_curr.copy(), state.hz.copy(), report))

    return seen, record


def test_run_zero_steps_initial_snapshot_only(small_setup):
    _, ops = small_setup
    seen, record = _collector()
    result = run_simulation(ops, UNIT, 0.01, 0, record=record)
    assert [(step, report) for step, _, _, report in seen] == [(0, None)]
    assert result.energy == []


def test_recorder_sees_the_start_and_every_step(small_setup):
    # one call on the start and one after each step, each with the report
    # of its step when the energy log has one, the same the result lists
    _, ops = small_setup
    seen, record = _collector()
    result = run_simulation(ops, UNIT, 0.01, 5, e0=_bump, energy_every=2, record=record)
    assert [step for step, *_ in seen] == list(range(6))
    reports = [report for *_, report in seen]
    assert [r is None for r in reports] == [True, True, False, True, False, True]
    assert [r for r in reports if r is not None] == result.energy
    assert [r.step for r in result.energy] == [2, 4]
    np.testing.assert_array_equal(seen[-1][1], result.state.e_curr)


def test_snapshots_hold_the_state_of_their_step():
    # the state is updated in place and handed to the recorder after each
    # step: the copies it keeps equal, bitwise, the final state of a run
    # stopped at their step
    ops, params, state, _ = _collar_sheet_run()
    base = np.random.default_rng(14).standard_normal(ops.mesh.n_triangles)
    inputs = dict(source=lambda t: np.sin(40.0 * t + 0.3) * base, e0=_bump,
                  dt_e0=_swirl, energy_every=0)
    snaps, record = _collector()
    run_simulation(ops, params, state.tau, 6, record=record, **inputs)
    assert [step for step, *_ in snaps] == list(range(7))
    for step, e, hz, _ in snaps:
        final = run_simulation(ops, params, state.tau, step, **inputs).state
        np.testing.assert_array_equal(e, final.e_curr)
        np.testing.assert_array_equal(hz, final.hz)
    assert not np.array_equal(snaps[-1][2], snaps[-2][2])


@pytest.mark.parametrize("n_steps,factorisations", [(0, 0), (1, 1), (4, 1)])
def test_run_factors_each_step_matrix_once(small_setup, monkeypatch,
                                           n_steps, factorisations):
    # a zero-step run factors nothing; any other run factors A once, and a
    # nonzero start inside a collar also factors the first step's matrix,
    # at step 0 only; the stepper keeps no second all-cell edge mass:
    # besides A and the rows A's boundary columns touch, it holds one edge
    # operator, whose collar block is nonzero on the collar's rows only
    _, collarless = small_setup
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    collar = build_operator_set(mesh, *damping_at_centroids(mesh))
    calls = []
    real_spilu = sparse_solve.spilu

    def counting_spilu(*args, **kwargs):
        calls.append(args[0].shape)
        return real_spilu(*args, **kwargs)

    monkeypatch.setattr(sparse_solve, "spilu", counting_spilu)
    for ops in (collarless, collar):
        for start in ({}, dict(e0=_bump, dt_e0=_swirl)):
            calls.clear()
            run_simulation(ops, UNIT, 0.01, n_steps, energy_every=0, **start)
            second = ops is collar and bool(start) and n_steps > 0
            assert len(calls) == factorisations + second

    stepper = LeapfrogStepper(collar, UNIT, 0.01)
    state = init_state(collar, UNIT, tau=0.01, e0=_bump, dt_e0=_swirl)
    for _ in range(2):
        stepper.advance(state, np.zeros(mesh.n_triangles))
    held = {name: value.shape for name, value in vars(stepper).items()
            if sp.issparse(value)}
    assert held.pop("a") == (mesh.n_edges, mesh.n_edges)
    assert held.pop("_lift") == (len(stepper._lift_rows), int(collar.pec_mask.sum()))
    assert list(held.values()) == [(mesh.n_edges, mesh.n_triangles + mesh.n_edges)]
    collar_block = _edge_operator(stepper)[:, mesh.n_triangles:].tocsr()
    n_collar_edges = len(np.unique(mesh.tri_edges[oracles.collar_cells(mesh)]))
    assert np.count_nonzero(np.diff(collar_block.indptr)) == n_collar_edges
    assert n_collar_edges < mesh.n_edges and len(stepper._lift_rows) < mesh.n_edges


def _count_kernel_cells(monkeypatch):
    """Record how many cells each edge-mass kernel pass visits."""
    visits = []
    real = assembly.assemble_edge_mass

    def counting(mesh, w, *args):
        visits.append(len(w))
        return real(mesh, w, *args)

    monkeypatch.setattr(assembly, "assemble_edge_mass", counting)
    monkeypatch.setattr(dynamics, "assemble_edge_mass", counting)
    return visits


@pytest.mark.parametrize("n_steps", [0, 1, 4])
def test_edge_mass_kernel_runs_once_per_matrix(monkeypatch, n_steps):
    # M_E visits every cell once; A = M_lead + M_damp adds one pass over the
    # cells weighted unlike a physical cell (the collar), and none on a
    # collarless mesh, however many steps run
    visits = _count_kernel_cells(monkeypatch)
    for layers in (1, 0):
        mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, layers)
        ops = build_operator_set(mesh, *damping_at_centroids(mesh))
        n_collar = int(oracles.collar_cells(mesh).sum())
        assert len(visits) == 1 and visits.pop() == mesh.n_triangles
        run_simulation(ops, UNIT, 0.01, n_steps, e0=_bump, dt_e0=_swirl,
                       energy_every=0)
        assert visits == ([n_collar] if layers else [])
        visits.clear()


def _collar_mesh():
    mesh = generate_rect_mesh((-3 * UM, 3 * UM, -2 * UM, 2 * UM), 6, 4, 3)
    return mesh, damping_at_centroids(mesh)


def _collarless_mesh():
    mesh = generate_rect_mesh((-3 * UM, 3 * UM, -2 * UM, 2 * UM), 6, 4, 0)
    return mesh, (None, None)


def _damped_physical_mesh():
    mesh = generate_rect_mesh((-3 * UM, 3 * UM, -2 * UM, 2 * UM), 6, 4, 1)
    sx = np.linspace(0.0, 2e5, mesh.n_triangles)
    return mesh, (sx, sx[::-1])


@pytest.mark.parametrize("setup,passes", [(_collar_mesh, 1), (_collarless_mesh, 0),
                                          (_damped_physical_mesh, 1)])
def test_step_matrix_matches_weighted_edge_mass(monkeypatch, setup, passes):
    # A as scaled M_E plus a correction over the differing cells equals one
    # edge mass with A's per-cell weights, in SI units
    mesh, (sx, sy) = setup()
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(sigma0=0.2)
    tau = 0.5 * cfl_max_timestep(params, mesh)
    visits = _count_kernel_cells(monkeypatch)
    a = LeapfrogStepper(ops, params, tau).a
    assert len(visits) == passes
    phys = oracles.physical(ops.sigma_x, ops.sigma_y)
    base = params.eps0 / tau ** 2 + phys * params.eps0 / (2 * tau * params.tau0)
    ref = assembly.assemble_edge_mass(mesh, np.column_stack(
        [base + ops.sigma_y / (2 * tau), base + ops.sigma_x / (2 * tau)]))
    assert abs(a - ref).max() <= 1e-13 * abs(ref).max()


def _bump(p):
    return np.column_stack([np.sin(np.pi * p[:, 1]), np.sin(np.pi * p[:, 0])])


def _swirl(p):
    return np.column_stack([-p[:, 1], p[:, 0]])


def test_reused_stepper_matches_fresh_one(small_setup):
    # a stepper restarted from step 0 with an initial velocity reuses its
    # A and factor and reproduces a fresh stepper
    mesh, ops = small_setup

    def three_steps(stepper):
        state = init_state(ops, UNIT, e0=_bump, dt_e0=_swirl, tau=0.01)
        for _ in range(3):
            stepper.advance(state, np.zeros(mesh.n_triangles))
        return state.e_curr

    reused = LeapfrogStepper(ops, UNIT, 0.01)
    first = three_steps(reused)
    np.testing.assert_array_equal(three_steps(reused), first)
    np.testing.assert_array_equal(
        three_steps(LeapfrogStepper(ops, UNIT, 0.01)), first)


def test_run_linear_in_source(small_setup):
    mesh, ops = small_setup
    rng = np.random.default_rng(7)
    base = rng.standard_normal(mesh.n_triangles)

    def src(scale):
        return lambda t: scale * base * np.sin(3.0 * t + 0.3)

    r1 = run_simulation(ops, UNIT, 0.01, 30, source=src(1.0), energy_every=0)
    r3 = run_simulation(ops, UNIT, 0.01, 30, source=src(3.0), energy_every=0)
    np.testing.assert_allclose(r3.state.e_curr, 3.0 * r1.state.e_curr, atol=1e-8)
    np.testing.assert_allclose(r3.state.hz, 3.0 * r1.state.hz, atol=1e-8)


def _collar_sheet_run():
    """Operators, material, start state and 24 steps' inputs on a mesh with a
    damped collar and a sheet."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    collar = oracles.collar_cells(mesh)
    rng = np.random.default_rng(12)
    sx = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    sy = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(eps0=1.3, mu0=0.7, tau0=0.8, sigma0=2.5)
    state = init_state(ops, params, e0=_bump, dt_e0=_swirl, tau=0.005)
    steps = [dict(ks_cells=rng.standard_normal(mesh.n_triangles)) for _ in range(24)]
    return ops, params, state, steps


def _manufactured_run():
    """The same on a manufactured mesh with Dirichlet data and a load."""
    from sppfetd.harness import ManufacturedDrivers, build_manufactured_problem
    mesh, ops, case = build_manufactured_problem(1 / 10)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    tau = 1 / 2000
    state = init_state(ops, case.params, ks0_cells=drivers.source(0.0),
                       dt_e0=case.dt_e0, tau=tau, zero_boundary=False)
    steps = [dict(ks_cells=drivers.source(n * tau), extra_load=drivers.extra_load(n * tau),
                  bc_values=drivers.bc_values((n + 1) * tau)) for n in range(24)]
    return ops, case.params, state, steps


@pytest.mark.parametrize("setup", [_collar_sheet_run, _manufactured_run])
def test_carried_curl_is_c_times_current_field(setup):
    ops, params, state, steps = setup()
    stepper = LeapfrogStepper(ops, params, state.tau)
    assert np.array_equal(state.curl_e, ops.c @ state.e_curr)
    for inputs in steps:
        stepper.advance(state, **inputs)
        assert np.array_equal(state.curl_e, ops.c @ state.e_curr)
    assert np.abs(state.e_curr).max() > 0.0


class _CountingMatrix:
    """Counts products with and transposes of the wrapped matrix."""

    def __init__(self, matrix):
        self.matrix, self.products, self.transposes = matrix, 0, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x

    @property
    def T(self):
        self.transposes += 1
        return self.matrix.T


@pytest.mark.parametrize("setup", [_collar_sheet_run, _manufactured_run])
def test_step_multiplies_by_c_once(setup):
    # one C product per step for the carried curl and one per energy
    # report; C^T is formed once, when the stepper is built
    ops, params, state, steps = setup()
    counting = _CountingMatrix(ops.c)
    ops.c = counting
    stepper = LeapfrogStepper(ops, params, state.tau)
    assert counting.transposes == 1
    for n, inputs in enumerate(steps):
        stepper.advance(state, **inputs)
        assert counting.products == n + 1
    assert counting.transposes == 1
    discrete_energy(state, ops, params)    # the old level's product only
    assert counting.products == len(steps) + 1


@pytest.mark.parametrize("setup", [_collar_sheet_run, _manufactured_run])
def test_later_steps_never_multiply_by_edge_mass(setup):
    # M_E enters the energy's kinetic term, never a step after the first
    # (which scales it into its own matrix on a collar mesh)
    ops, params, state, steps = setup()
    stepper = LeapfrogStepper(ops, params, state.tau)
    stepper.advance(state, **steps[0])
    counting = _CountingMatrix(ops.m_e)
    ops.m_e = counting
    for inputs in steps[1:]:
        stepper.advance(state, **inputs)
    assert counting.products == 0
    discrete_energy(state, ops, params)
    assert counting.products == 1


def _edge_operator(stepper):
    """The one sparse matrix the stepper holds besides A and its lift columns."""
    (held,) = [value for name, value in vars(stepper).items()
               if sp.issparse(value) and name not in ("a", "_lift")]
    return held


@pytest.mark.parametrize("setup", [_collar_sheet_run, _manufactured_run])
def test_collar_term_lives_on_collar_edges(setup):
    # the right-hand side's one edge operator is [C^T | -K_collar]: its cell
    # block is exactly C^T, and its edge block, the later-step correction,
    # is -(A - w_phys M_E), nonzero on edges of collar cells only and empty
    # without a collar
    ops, params, state, _ = setup()
    stepper = LeapfrogStepper(ops, params, state.tau)
    operator = _edge_operator(stepper).tocsr()
    n_cells = ops.mesh.n_triangles
    assert (operator[:, :n_cells] != ops.c.T).nnz == 0
    collar_block = operator[:, n_cells:].tocsr()
    collar_cells = ~oracles.physical(ops.sigma_x, ops.sigma_y)
    if not collar_cells.any():
        assert collar_block.nnz == 0
        return
    rows = np.flatnonzero(np.diff(collar_block.indptr))
    assert np.all(np.isin(rows, ops.mesh.tri_edges[collar_cells]))
    full = -collar_block.toarray()
    tau, p = state.tau, params
    w_phys = p.eps0 / tau ** 2 + p.eps0 / (2 * tau * p.tau0)
    ref = (stepper.a - w_phys * ops.m_e).toarray()
    assert np.abs(full - ref).max() <= 1e-12 * np.abs(ref).max()
    assert stepper._r * w_phys == pytest.approx(2 * p.eps0 / tau ** 2, rel=1e-15)


@pytest.mark.parametrize("setup", [_collar_sheet_run, _manufactured_run])
def test_step_e_copies_in_an_h_term_it_did_not_make(setup):
    # a nonzero h_term that is not step_h's own buffer (a copy, handed to a
    # twin stepper whose step_h never ran, on a twin state) gives bitwise
    # the same field as the buffer path, at the first step and later ones,
    # on the collar mesh and with boundary data and a load
    ops, params, state, steps = setup()
    twin = copy.deepcopy(state)
    stepper, other = (LeapfrogStepper(ops, params, state.tau) for _ in range(2))
    for inputs in steps[:4]:
        loads = {k: v for k, v in inputs.items() if k != "ks_cells"}
        h_term = stepper.step_h(state, inputs["ks_cells"])
        assert np.abs(h_term).max() > 0.0
        e_next = other.step_e(twin, h_term.copy(), **loads)
        np.testing.assert_array_equal(e_next, stepper.step_e(state, h_term, **loads))
        for s in (state, twin):
            s.e_prev, s.e_curr, s.step = s.e_curr, e_next.copy(), s.step + 1
            s.curl_e = ops.c @ s.e_curr


def _poisoned_at_step_3(monkeypatch, field, value):
    """The BlowUpError of a collared run whose `field` gets `value` in one
    entry after step 3: in E, in a collar cell's split and the hz it sums
    to ("hzx"), or in hz outside the collar ("hz")."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    ops = build_operator_set(mesh, *damping_at_centroids(mesh))
    damped = ops.damped
    outside = np.setdiff1d(np.arange(mesh.n_triangles), damped)
    advance = LeapfrogStepper.advance

    def poisoned(self, state, *args, **kwargs):
        advance(self, state, *args, **kwargs)
        if state.step == 3:
            if field == "e_curr":
                state.e_curr[0] = value
            elif field == "hzx":
                state.hzx[0] = state.hz[damped[0]] = value
            else:
                state.hz[outside[0]] = value
        return state

    monkeypatch.setattr(LeapfrogStepper, "advance", poisoned)
    with pytest.raises(BlowUpError) as err:
        run_simulation(ops, UNIT, 0.01, 10, e0=_bump, energy_every=0)
    return err.value


@pytest.mark.parametrize("field", ["e_curr", "hzx", "hz"])
def test_blowup_guard_catches_nan_in_either_field(monkeypatch, field):
    # a NaN in one field must trip the guard whichever field holds the
    # other, finite peak
    err = _poisoned_at_step_3(monkeypatch, field, np.nan)
    assert err.step == 3
    name = "E" if field == "e_curr" else "Hz"
    assert str(err) == f"non-finite {name} at step 3 (t = 3.000e-02 s)"


@pytest.mark.parametrize("field,value", [("e_curr", np.inf), ("e_curr", -np.inf),
                                         ("hz", np.inf), ("hz", -np.inf)])
def test_blowup_guard_names_an_infinite_field(monkeypatch, field, value):
    # an infinity of either sign is non-finite, not a large peak, and names
    # its field; the field's peak is max(max, -min)
    err = _poisoned_at_step_3(monkeypatch, field, value)
    assert err.step == 3
    name = "E" if field == "e_curr" else "Hz"
    assert str(err) == f"non-finite {name} at step 3 (t = 3.000e-02 s)"


@pytest.mark.parametrize("start,name", [("e0", "E"), ("source", "Hz")])
def test_blowup_guard_checks_the_start(start, name):
    # a start that interpolates to NaN, or a source that is NaN at t = 0,
    # stored a non-finite snapshot 0 and was named only at step 1, as E
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    ops = build_operator_set(mesh)
    nan = {"e0": {"e0": lambda p: np.full(p.shape, np.nan)},
           "source": {"source": lambda t: np.full(mesh.n_triangles,
                                                   np.nan if t == 0 else 0.0)}}
    seen, record = _collector()
    with pytest.raises(BlowUpError) as err:
        run_simulation(ops, UNIT, 0.01, 3, record=record, **nan[start])
    assert str(err.value) == f"non-finite {name} at step 0 (t = 0.000e+00 s)"
    assert err.value.step == 0 and seen == []


def _nan_on_a_free_edge(ops):
    load = np.zeros(ops.mesh.n_edges)
    load[np.flatnonzero(~ops.pec_mask)[0]] = np.nan
    return load


def test_advance_with_nan_load_keeps_both_fields_at_one_step():
    # the solve checks nothing, so a NaN load makes E non-finite in the
    # step that reads it and H and E advance together; the solve refused
    # such a load before, leaving hz one step ahead of e_curr
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    ops = build_operator_set(mesh)
    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    clean, poisoned = (init_state(ops, UNIT, e0=_bump, tau=0.01) for _ in range(2))
    ks = np.zeros(mesh.n_triangles)
    stepper.advance(clean, ks)
    stepper.advance(poisoned, ks, extra_load=_nan_on_a_free_edge(ops))
    assert poisoned.step == clean.step == 1
    np.testing.assert_array_equal(poisoned.hz, clean.hz)
    np.testing.assert_array_equal(poisoned.e_prev, clean.e_prev)
    assert np.isfinite(clean.e_curr).all() and not np.isfinite(poisoned.e_curr).all()


def test_nan_load_ends_run_in_the_guard_with_earlier_snapshots():
    # from step k the load holds a NaN: the guard names E at step k + 1,
    # and the recorder has seen the states and reports through step k
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    ops = build_operator_set(mesh)
    k, tau, nan_load = 3, 0.01, _nan_on_a_free_edge(ops)

    def load(t):
        return nan_load if round(t / tau) >= k else np.zeros(mesh.n_edges)

    seen, record = _collector()
    with pytest.raises(BlowUpError) as err:
        run_simulation(ops, UNIT, tau, 10, e0=_bump, extra_load=load, record=record)
    assert str(err.value) == f"non-finite E at step {k + 1} (t = 4.000e-02 s)"
    assert err.value.step == k + 1
    assert [step for step, *_ in seen] == list(range(k + 1))
    assert [rep.step for *_, rep in seen if rep is not None] == list(range(1, k + 1))


def test_blowup_guard_reports_step():
    mesh = generate_rect_mesh((0, 1, 0, 1), 8, 8, 0)
    ops = build_operator_set(mesh)
    rng = np.random.default_rng(8)

    def e0(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                                np.zeros(len(p))])

    with pytest.raises(BlowUpError) as err:
        # far beyond the stability bound
        run_simulation(ops, UNIT, 2.0, 400, e0=e0, energy_every=0)
    step = err.value.step
    assert step > 0
    name, _, tail = str(err.value).partition(" magnitude ")
    assert name in ("E", "Hz")
    assert tail.endswith(f" at t = {2.0 * step:.3e} s exceeded 1e+12 x initial "
                         f"scale at step {step}")


def test_run_example1_paper_parameters_stays_bounded():
    # published bifurcated-sheet setup at full resolution, 2000 steps
    # (about 45 s); the driven fields stay bounded and the energy finite
    from sppfetd.harness import build_mesh_for, scenario
    from sppfetd.physics import (damping_at_centroids, dipole_source_cells,
                                 eval_source)

    cfg = scenario("bifurcated-straight")
    mesh = build_mesh_for(cfg)
    params = cfg.resolved_material()
    sx, sy = damping_at_centroids(mesh)
    ops = build_operator_set(mesh, sx, sy)
    cells = dipole_source_cells(mesh, cfg.source)

    def src(t):
        return eval_source(cfg.source, t, cells, mesh.n_triangles)

    result = run_simulation(ops, params, cfg.tau, 2000, source=src,
                            energy_every=500)
    assert result.state.step == 2000
    assert np.all(np.isfinite(result.state.e_curr))
    assert np.all(np.isfinite(result.state.hz))
    assert all(np.isfinite(r.total) for r in result.energy)


def test_stability_energy_bound(small_setup):
    mesh, ops = small_setup
    tau = 0.5 * cfl_max_timestep(UNIT, mesh, CflConstants())

    def e0(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1]),
                                np.sin(2 * np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])])

    result = run_simulation(ops, UNIT, tau, 200, e0=e0)
    eng0 = result.energy[0].total
    assert max(r.total for r in result.energy) <= 10.0 * eng0
