import numpy as np
import pytest
import scipy.sparse as sp

from sppfetd import assembly, dynamics, sparse_solve
from sppfetd.assembly import build_operator_set
from sppfetd.dynamics import (BlowUpError, CflConstants, FieldState,
                              LeapfrogStepper, cfl_max_timestep,
                              discrete_energy, init_state, run_simulation)
from sppfetd.elements import interpolate_hcurl
from sppfetd.mesh import (InterfaceSpec, Segment, classify_cells,
                          generate_rect_mesh, snap_interface)
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
    mesh, ops = small_setup
    state, vel = init_state(mesh, ops, UNIT, tau=0.01)
    assert np.all(state.e_curr == 0) and np.all(state.hz == 0)
    assert np.all(vel == 0)


def test_init_state_requires_tau(small_setup):
    # a zero default step gave a zero magnetic start and a state whose
    # energy divides by zero
    mesh, ops = small_setup
    with pytest.raises(TypeError, match="tau"):
        init_state(mesh, ops, UNIT)


def test_init_state_manufactured_has_zero_field_nonzero_velocity(small_setup):
    mesh, ops = small_setup
    case = ManufacturedCase()
    state, vel = init_state(mesh, ops, UNIT, e0=lambda p: case.e_field(p, 0.0),
                            tau=0.01, dt_e0=case.dt_e0, zero_boundary=False)
    assert np.abs(state.e_curr).max() <= 1e-14
    assert np.abs(vel).max() > 0.1


def test_init_state_magnetic_start_against_quadrature(small_setup):
    mesh, ops = small_setup
    tau = 0.02

    def e0(p):
        return np.column_stack([p[:, 1] ** 2, p[:, 0] * p[:, 1]])

    ks0 = np.linspace(-1, 1, mesh.n_triangles)
    state, _ = init_state(mesh, ops, UNIT, e0=e0, ks0_cells=ks0,
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
    state, _ = init_state(mesh, ops, UNIT, tau=0.01)
    hzx, hzy = stepper.step_h(state, np.zeros(mesh.n_triangles))
    assert np.all(hzx == 0) and np.all(hzy == 0)


def test_step_h_rotational_field(small_setup):
    mesh, ops = small_setup
    tau = 0.01
    stepper = LeapfrogStepper(ops, UNIT, tau)
    dofs = interpolate_hcurl(lambda p: np.column_stack([-p[:, 1], p[:, 0]]), mesh)
    state = FieldState(e_prev=np.zeros(mesh.n_edges), e_curr=dofs, curl_e=ops.c @ dofs,
                       hzx=np.zeros(mesh.n_triangles),
                       hzy=np.zeros(mesh.n_triangles), step=1, tau=tau)
    hzx, hzy = stepper.step_h(state, np.zeros(mesh.n_triangles))
    np.testing.assert_allclose((hzx + hzy) / tau, -2.0 / UNIT.mu0, rtol=1e-12)


def _collar_only_setup():
    """Two-triangle mesh entirely inside the absorbing region."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    # a physical box so small that no centroid falls inside it
    mesh.cell_tags = classify_cells(mesh, (0.0, 1e-6, 0.0, 1e-6))
    assert np.all(mesh.cell_tags == 1)
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
    state = FieldState(e_prev=np.zeros_like(e), e_curr=e, curl_e=ops.c @ e,
                       hzx=np.zeros(2), hzy=np.zeros(2), step=1, tau=tau)
    hzx, _ = stepper.step_h(state, ks)
    expected = (-(0.5 * ops.c @ e) / mesh.areas - 0.5 * ks) * tau / (1.5 * params.mu0)
    np.testing.assert_allclose(hzx, expected, rtol=1e-12)


def test_step_e_zero(small_setup):
    mesh, ops = small_setup
    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    state, _ = init_state(mesh, ops, UNIT, tau=0.01)
    e_next = stepper.step_e(state, np.zeros(mesh.n_triangles),
                            np.zeros(mesh.n_triangles), np.zeros(mesh.n_triangles))
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
        state = FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(),
                           curl_e=ops.c @ e_curr,
                           hzx=0.5 * h_old, hzy=0.5 * h_old, step=1, tau=tau)
        hzx, hzy = stepper.step_h(state, ks)
        e_new = stepper.step_e(state, hzx, hzy, ks)
        e_ref, h_ref = oracles.dense_leapfrog_step(
            mesh, params, tau, e_prev, e_curr, h_old, ks)
        np.testing.assert_allclose(e_new, e_ref, atol=1e-12)
        np.testing.assert_allclose(hzx + hzy, h_ref, atol=1e-12)


def test_merged_step_with_interface_matches_dense(small_setup):
    mesh, _ = small_setup
    edges = snap_interface(mesh, InterfaceSpec([Segment((0, 0.5), (1, 0.5))]))
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
    state = FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(),
                       curl_e=ops.c @ e_curr,
                       hzx=0.5 * h_old, hzy=0.5 * h_old, step=1, tau=tau)
    hzx, hzy = stepper.step_h(state, ks)
    e_new = stepper.step_e(state, hzx, hzy, ks)
    g_dense = oracles.dense_interface_mass(mesh, edges)
    e_ref, _ = oracles.dense_leapfrog_step(mesh, params, tau, e_prev, e_curr,
                                           h_old, ks, g_dense=g_dense)
    np.testing.assert_allclose(e_new, e_ref, atol=1e-12)


@pytest.mark.parametrize("first_step", [True, False])
def test_merged_step_collar_and_sheet_matches_dense(first_step):
    # physical core with a snapped sheet inside a damped collar, sigma0 > 0
    # and a source in every cell: one step against the dense merged scheme
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 1)
    edges = snap_interface(mesh, InterfaceSpec([Segment((0, 0.5), (1, 0.5))]))
    collar = mesh.cell_tags != 0
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
    state = FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(),
                       curl_e=ops.c @ e_curr, hzx=hzx.copy(), hzy=hzy.copy(),
                       step=0 if first_step else 1, tau=tau)
    hzx_new, hzy_new = stepper.step_h(state, ks)
    e_new = stepper.step_e(state, hzx_new, hzy_new, ks,
                           first_step_velocity=velocity)
    e_ref, hx_ref, hy_ref = oracles.dense_merged_step(
        mesh, params, tau, e_prev, e_curr, hzx, hzy, ks,
        g_dense=oracles.dense_interface_mass(mesh, edges), mask=mask,
        sigma=(sx, sy), velocity=velocity)
    np.testing.assert_allclose(hzx_new, hx_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hzy_new, hy_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(e_new, e_ref, rtol=1e-11, atol=1e-11 * np.abs(e_ref).max())


@pytest.mark.parametrize("first_step", [True, False])
def test_merged_step_with_dirichlet_data_matches_dense(first_step):
    # inhomogeneous boundary data, as the manufactured runs impose it: both
    # field levels are nonzero on the boundary and the new level takes bc
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 1)
    edges = snap_interface(mesh, InterfaceSpec([Segment((0, 0.5), (1, 0.5))]))
    collar = mesh.cell_tags != 0
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
    state = FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(),
                       curl_e=ops.c @ e_curr, hzx=hzx.copy(), hzy=hzy.copy(),
                       step=0 if first_step else 1, tau=tau)
    hzx_new, hzy_new = stepper.step_h(state, ks)
    e_new = stepper.step_e(state, hzx_new, hzy_new, ks, extra_load=load,
                           bc_values=bc[mask], first_step_velocity=velocity)
    e_ref, _, _ = oracles.dense_merged_step(
        mesh, params, tau, e_prev, e_curr, hzx, hzy, ks,
        g_dense=oracles.dense_interface_mass(mesh, edges), mask=mask,
        sigma=(sx, sy), velocity=velocity, bc=bc, load=load)
    assert np.array_equal(e_new[mask], bc[mask])
    np.testing.assert_allclose(e_new, e_ref, rtol=1e-11,
                               atol=1e-11 * np.abs(e_ref).max())


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
    state = FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(),
                       curl_e=ops.c @ e_curr, hzx=hzx.copy(), hzy=hzy.copy(),
                       step=1, tau=tau)
    hzx_new, hzy_new = stepper.step_h(state, np.zeros(2))
    e_new = stepper.step_e(state, hzx_new, hzy_new, np.zeros(2))

    m_d = oracles.dense_edge_mass(mesh)[free, free]
    d1_d = oracles.dense_edge_mass(mesh, np.column_stack([sy, sx]))[free, free]
    c_col = oracles.dense_mixed_curl(mesh)[:, free]
    lhs = (params.eps0 / tau ** 2) * m_d + d1_d / (2 * tau)
    rhs = ((2 * params.eps0 / tau ** 2) * m_d * e_curr[free]
           - ((params.eps0 / tau ** 2) * m_d - d1_d / (2 * tau)) * e_prev[free]
           + c_col @ ((hzx_new - hzx) + (hzy_new - hzy)) / tau)
    assert e_new[free] == pytest.approx(rhs / lhs, rel=1e-12)


def test_first_step_uses_initial_velocity(small_setup):
    # with E0 = 0, H0 = 0 and no source, the first step must produce
    # E^1 = tau * velocity: substituting the pre-initial level makes the
    # system (A + B) E^1 = 2 tau B V with A + B = (2 eps0 / tau^2) M
    mesh, ops = small_setup
    params = UNIT
    tau = 0.003
    case = ManufacturedCase()
    state, vel = init_state(mesh, ops, params, tau=tau, dt_e0=case.dt_e0)
    stepper = LeapfrogStepper(ops, params, tau)
    e1 = stepper.step_e(state, np.zeros(mesh.n_triangles),
                        np.zeros(mesh.n_triangles), np.zeros(mesh.n_triangles),
                        first_step_velocity=vel)
    m_d = oracles.dense_edge_mass(mesh)
    mask = ops.pec_mask
    free = ~mask
    b_mat = (params.eps0 / tau ** 2) * m_d - (params.eps0 / (2 * tau)) * m_d
    rhs = 2 * tau * (b_mat @ vel)
    a_first = (2 * params.eps0 / tau ** 2) * m_d
    ref = np.zeros(mesh.n_edges)
    ref[free] = np.linalg.solve(a_first[np.ix_(free, free)], rhs[free])
    np.testing.assert_allclose(e1, ref, atol=1e-12)


def test_energy_zero_state(small_setup):
    mesh, ops = small_setup
    state, _ = init_state(mesh, ops, UNIT, tau=0.01)
    state.step = 1
    assert discrete_energy(state, ops, UNIT).total == 0.0


def test_energy_isolated_magnetic_term(small_setup):
    mesh, ops = small_setup
    state, _ = init_state(mesh, ops, UNIT, tau=0.01)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(mesh.n_triangles)
    state.hzx = 0.5 * h
    state.hzy = 0.5 * h
    state.step = 1
    rep = discrete_energy(state, ops, UNIT)
    assert rep.total == pytest.approx(UNIT.mu0 * float(mesh.areas @ h ** 2))
    assert rep.kinetic == rep.curl == rep.interface == rep.curl_extra == 0.0


def test_energy_terms_against_dense_forms():
    mesh = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    snap_interface(mesh, InterfaceSpec([Segment((0.0, 0.0), (1.0, 1.0))]))
    ops = build_operator_set(mesh)
    params = MaterialParams(eps0=2.0, mu0=3.0, tau0=0.7, sigma0=1.3)
    tau = 0.05
    rng = np.random.default_rng(5)
    e_new = rng.standard_normal(mesh.n_edges)
    e_old = rng.standard_normal(mesh.n_edges)
    h = rng.standard_normal(mesh.n_triangles)
    state = FieldState(e_prev=e_old, e_curr=e_new, curl_e=ops.c @ e_new, hzx=h, hzy=0 * h,
                       step=3, tau=tau)
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


def test_split_choice_does_not_change_physical_sum(small_setup):
    mesh, ops = small_setup
    params = UNIT
    tau = 0.005
    stepper = LeapfrogStepper(ops, params, tau)
    rng = np.random.default_rng(6)
    e = rng.standard_normal(mesh.n_edges); e[ops.pec_mask] = 0
    h = rng.standard_normal(mesh.n_triangles)
    ks = rng.standard_normal(mesh.n_triangles)
    outs = []
    for split in (0.5, 0.8):
        state = FieldState(e_prev=np.zeros_like(e), e_curr=e.copy(), curl_e=ops.c @ e,
                           hzx=split * h, hzy=(1 - split) * h, step=1, tau=tau)
        hzx, hzy = stepper.step_h(state, ks)
        e_new = stepper.step_e(state, hzx, hzy, ks)
        outs.append((hzx + hzy, e_new))
    np.testing.assert_allclose(outs[0][0], outs[1][0], atol=1e-12)
    np.testing.assert_allclose(outs[0][1], outs[1][1], atol=1e-12)


def test_run_zero_steps_initial_snapshot_only(small_setup):
    mesh, ops = small_setup
    result = run_simulation(mesh, ops, UNIT, 0.01, 0, snapshot_every=5)
    assert len(result.snapshots) == 1 and result.snapshots[0].step == 0
    assert result.energy == []


@pytest.mark.parametrize("n_steps,factorisations", [(0, 0), (1, 1), (4, 1)])
def test_run_factors_each_step_matrix_once(small_setup, monkeypatch,
                                           n_steps, factorisations):
    # a zero-step run factors nothing; any other run factors A once, and
    # the stepper keeps no other edge-by-edge matrix than A, the factor
    # and the boundary columns
    mesh, ops = small_setup
    calls = []
    real_spilu = sparse_solve.spilu

    def counting_spilu(*args, **kwargs):
        calls.append(args[0].shape)
        return real_spilu(*args, **kwargs)

    monkeypatch.setattr(sparse_solve, "spilu", counting_spilu)
    run_simulation(mesh, ops, UNIT, 0.01, n_steps, energy_every=0)
    assert len(calls) == factorisations

    stepper = LeapfrogStepper(ops, UNIT, 0.01)
    state, _ = init_state(mesh, ops, UNIT, tau=0.01)
    for _ in range(2):
        stepper.advance(state, np.zeros(mesh.n_triangles))
    square = [name for name, value in vars(stepper).items()
              if sp.issparse(value) and value.shape == (mesh.n_edges, mesh.n_edges)]
    assert square == ["a"]
    assert stepper._lift.shape == (mesh.n_edges, int(ops.pec_mask.sum()))


def _count_kernel_cells(monkeypatch):
    """Record how many cells each edge-mass kernel pass visits."""
    visits = []
    real = assembly._edge_mass_kernel

    def counting(mesh, w, *args):
        visits.append(len(w))
        return real(mesh, w, *args)

    monkeypatch.setattr(assembly, "_edge_mass_kernel", counting)
    monkeypatch.setattr(dynamics, "_edge_mass_kernel", counting)
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
        n_collar = int(np.sum(ops.c1 == 0.0))
        assert len(visits) == 1 and visits.pop() == mesh.n_triangles
        run_simulation(mesh, ops, UNIT, 0.01, n_steps, e0=_bump, dt_e0=_swirl,
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
    base = params.eps0 / tau ** 2 + ops.c1 * params.eps0 / (2 * tau * params.tau0)
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
        state, vel = init_state(mesh, ops, UNIT, e0=_bump, dt_e0=_swirl,
                                tau=0.01)
        for n in range(3):
            stepper.advance(state, np.zeros(mesh.n_triangles),
                            first_step_velocity=vel if n == 0 else None)
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

    r1 = run_simulation(mesh, ops, UNIT, 0.01, 30, source=src(1.0), energy_every=0)
    r3 = run_simulation(mesh, ops, UNIT, 0.01, 30, source=src(3.0), energy_every=0)
    np.testing.assert_allclose(r3.state.e_curr, 3.0 * r1.state.e_curr, atol=1e-8)
    np.testing.assert_allclose(r3.state.hz, 3.0 * r1.state.hz, atol=1e-8)


def _collar_sheet_run():
    """Operators, material, start state and 24 steps' inputs on a mesh with a
    damped collar and a sheet."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    snap_interface(mesh, InterfaceSpec([Segment((0, 0.5), (1, 0.5))]))
    collar = mesh.cell_tags != 0
    rng = np.random.default_rng(12)
    sx = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    sy = np.where(collar, rng.uniform(10.0, 100.0, mesh.n_triangles), 0.0)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(eps0=1.3, mu0=0.7, tau0=0.8, sigma0=2.5)
    state, vel = init_state(mesh, ops, params, e0=_bump, dt_e0=_swirl, tau=0.005)
    steps = [dict(ks_cells=rng.standard_normal(mesh.n_triangles),
                  first_step_velocity=vel if n == 0 else None) for n in range(24)]
    return ops, params, state, steps


def _manufactured_run():
    """The same on a manufactured mesh with Dirichlet data and a load."""
    from sppfetd.harness import ManufacturedDrivers, build_manufactured_problem
    mesh, ops, case = build_manufactured_problem(1 / 10)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    tau = 1 / 2000
    state, vel = init_state(mesh, ops, case.params, ks0_cells=drivers.source(0.0),
                            dt_e0=case.dt_e0, tau=tau, zero_boundary=False)
    steps = [dict(ks_cells=drivers.source(n * tau),
                  extra_load=drivers.extra_load(n * tau), bc_values=drivers.bc_values((n + 1) * tau),
                  first_step_velocity=vel if n == 0 else None) for n in range(24)]
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


@pytest.mark.parametrize("field", ["e_curr", "hzx"])
def test_blowup_guard_catches_nan_in_either_field(small_setup, monkeypatch, field):
    # a NaN in one field must trip the guard whichever field holds the
    # other, finite peak
    mesh, ops = small_setup
    advance = LeapfrogStepper.advance

    def poisoned(self, state, *args, **kwargs):
        advance(self, state, *args, **kwargs)
        if state.step == 3:
            getattr(state, field)[0] = np.nan
        return state

    monkeypatch.setattr(LeapfrogStepper, "advance", poisoned)
    with pytest.raises(BlowUpError) as err:
        run_simulation(mesh, ops, UNIT, 0.01, 10, e0=_bump, energy_every=0)
    assert err.value.step == 3
    assert str(err.value) == "non-finite field at step 3"


def test_blowup_guard_reports_step():
    mesh = generate_rect_mesh((0, 1, 0, 1), 8, 8, 0)
    ops = build_operator_set(mesh)
    rng = np.random.default_rng(8)

    def e0(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                                np.zeros(len(p))])

    with pytest.raises(BlowUpError) as err:
        # far beyond the stability bound
        run_simulation(mesh, ops, UNIT, 2.0, 400, e0=e0, energy_every=0)
    assert err.value.step > 0


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

    result = run_simulation(mesh, ops, params, cfg.tau, 2000, source=src,
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

    result = run_simulation(mesh, ops, UNIT, tau, 200, e0=e0)
    eng0 = result.energy[0].total
    assert max(r.total for r in result.energy) <= 10.0 * eng0
