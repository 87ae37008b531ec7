"""Acceptance suite: one test per criterion, each printing pass/fail, and
the absorbing collar's reflection gate and its seam's, which print their
figures alike.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The full module takes a few minutes; the two field-scale runs (absorber
effectiveness, sheet localisation) dominate.
"""

import numpy as np
import scipy.sparse as sp

from sppfetd.assembly import (apply_pec, assemble_edge_mass,
                              build_operator_set)
from sppfetd.dynamics import (CflConstants, FieldState, LeapfrogStepper,
                              cfl_max_timestep, init_state, run_simulation)
from sppfetd.elements import interpolate_hcurl, project_l2_p0
from sppfetd.harness import (ManufacturedDrivers, build_manufactured_problem,
                             l2_errors, run_convergence_study)
from sppfetd.mesh import Segment, generate_rect_mesh, snap_interface
from sppfetd.physics import (KuboParams, ManufacturedCase, MaterialParams,
                             SourceSpec, damping_at_centroids,
                             dipole_source_cells, eval_source, kubo_sigma0)

import oracles
from test_physics import extrapolated_residuals

UM = 1e-6
C_LIGHT = 2.99792458e8


def _report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_coupled_convergence():
    table = run_convergence_study("coupled", [1 / 10, 1 / 20, 1 / 40, 1 / 80],
                                  final_time=0.01, tau_ratio=200.0)
    e_rates = table.e_rates[1:]
    h_rates = table.h_rates[1:]
    ok = (all(0.90 <= r <= 1.10 for r in e_rates)
          and all(0.80 <= r <= 1.15 for r in h_rates))
    _report(1, "coupled-step convergence", ok,
            f"E rates {[f'{r:.4f}' for r in e_rates]}, "
            f"H rates {[f'{r:.4f}' for r in h_rates]}")


def test_criterion_2_fixed_tau_convergence():
    table = run_convergence_study("fixed", [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                                  tau=1e-4, n_steps=1000)
    e_rates = table.e_rates[1:]
    ok = all(0.95 <= r <= 1.05 for r in e_rates)
    _report(2, "fixed-step convergence", ok,
            f"E rates {[f'{r:.4f}' for r in e_rates]}")


def test_criterion_3_stability():
    params = MaterialParams.unit()
    mesh = generate_rect_mesh((0, 1, 0, 1), 10, 10, 0)
    snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    ops = build_operator_set(mesh)
    tau = 0.5 * cfl_max_timestep(params, mesh, CflConstants(c_in=1.0, c_tr=1.0))

    rng = np.random.default_rng(42)
    coef = rng.standard_normal((3, 3, 2))

    def e0(p):
        out = np.zeros_like(p)
        for i in range(3):
            for j in range(3):
                mode = (np.sin((i + 1) * np.pi * p[:, 0])
                        * np.sin((j + 1) * np.pi * p[:, 1]))
                out[:, 0] += coef[i, j, 0] * mode
                out[:, 1] += coef[i, j, 1] * mode
        return out

    result = run_simulation(ops, params, tau, 1000, e0=e0)
    eng0 = result.energy[0].total
    eng_max = max(r.total for r in result.energy)
    finite = (np.all(np.isfinite(result.state.e_curr))
              and np.all(np.isfinite(result.state.hz)))
    ok = finite and eng_max <= 10.0 * eng0
    _report(3, "discrete energy boundedness", ok,
            f"max ENG / ENG_0 = {eng_max / eng0:.4f} over 1000 steps at "
            f"tau = 0.5 cfl_max = {tau:.3e}")


def test_criterion_4_scheme_reduction_oracle():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)  # 8 triangles
    params = MaterialParams(eps0=2.0, mu0=0.5, tau0=0.8, sigma0=0.0)
    tau = 0.004
    ops = build_operator_set(mesh)
    stepper = LeapfrogStepper(ops, params, tau)
    ne, nt = mesh.n_edges, mesh.n_triangles
    mask = ops.pec_mask
    dim = 2 * ne + 2 * nt  # (e_prev, e_curr, h_old, ks)

    def merged(vec):
        e_prev, e_curr = vec[:ne].copy(), vec[ne:2 * ne].copy()
        h_old = vec[2 * ne:2 * ne + nt]
        ks = vec[2 * ne + nt:]
        e_prev[mask] = 0.0
        e_curr[mask] = 0.0
        state = oracles.split_state(ops, e_prev, e_curr, 0.5 * h_old, 0.5 * h_old,
                                    step=1, tau=tau)
        e_new = stepper.step_e(state, stepper.step_h(state, ks))
        return np.concatenate([e_new, state.hz])

    def reference(vec):
        e_prev, e_curr = vec[:ne].copy(), vec[ne:2 * ne].copy()
        h_old = vec[2 * ne:2 * ne + nt]
        ks = vec[2 * ne + nt:]
        e_prev[mask] = 0.0
        e_curr[mask] = 0.0
        e_new, h_new = oracles.dense_leapfrog_step(mesh, params, tau, e_prev,
                                                   e_curr, h_old, ks)
        return np.concatenate([e_new, h_new])

    worst = 0.0
    for k in range(dim):
        probe = np.zeros(dim)
        probe[k] = 1.0
        worst = max(worst, np.abs(merged(probe) - reference(probe)).max())
    ok = worst <= 1e-12
    _report(4, "merged scheme reduces to the interface scheme", ok,
            f"max per-entry deviation over {dim} basis probes = {worst:.3e}")


def test_criterion_5_assembly_oracles():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    snap_interface(mesh, [Segment((0, 0.5), (1, 0.5))])
    rng = np.random.default_rng(9)
    sx = np.abs(rng.standard_normal(mesh.n_triangles))
    sy = np.abs(rng.standard_normal(mesh.n_triangles))
    sx[:4] = sy[:4] = 0.0      # the lower row physical, the upper one collar
    ops = build_operator_set(mesh, sx, sy)
    c1 = oracles.physical(sx, sy).astype(float)
    areas = oracles.dense_cell_areas(mesh)
    tau, params = 0.01, MaterialParams.unit()
    stepper = LeapfrogStepper(ops, params, tau)
    dense_m_e = oracles.dense_edge_mass(mesh)
    dense_m_phys = oracles.dense_edge_mass(mesh, c1)
    dense_m_d1 = oracles.dense_edge_mass(mesh, np.column_stack([sy, sx]))
    # A = M_lead + M_damp, assembled by the stepper as one weighted mass.
    dense_a = ((params.eps0 / tau ** 2) * dense_m_e + dense_m_d1 / (2 * tau)
               + (params.eps0 / (2 * tau * params.tau0)) * dense_m_phys)

    checks = {
        "M_E": (ops.m_e.toarray(), dense_m_e),
        "M_E_phys": (assemble_edge_mass(mesh, np.column_stack([c1, c1])).toarray(),
                     dense_m_phys),
        "M_D1": (assemble_edge_mass(mesh, np.column_stack(
            [ops.sigma_y, ops.sigma_x])).toarray(), dense_m_d1),
        # relative to the leading coefficient eps0/tau^2 = 1e4
        "A": (stepper.a.toarray() * tau ** 2 / params.eps0,
              dense_a * tau ** 2 / params.eps0),
        # Whitney curls are constant per cell: S = C^T diag(1/|K|) C.
        "S": ((ops.c.T @ sp.diags(1.0 / ops.areas) @ ops.c).toarray(),
              oracles.dense_curl_curl(mesh)),
        "S_phys": ((ops.c.T @ sp.diags(c1 / ops.areas) @ ops.c).toarray(),
                   oracles.dense_curl_curl(mesh, c1)),
        "C": (ops.c.toarray(), oracles.dense_mixed_curl(mesh)),
        # Whitney split derivatives are +-curl/2 per cell: Dx = C/2, Dy = -C/2.
        "Dx": (0.5 * ops.c.toarray(), oracles.dense_partial_divergence(mesh, "x")),
        "Dy": (-0.5 * ops.c.toarray(), oracles.dense_partial_divergence(mesh, "y")),
        "G": (ops.g.toarray(),
              oracles.dense_interface_mass(mesh, mesh.interface_edges())),
        "M_H": (np.diag(ops.areas), np.diag(areas)),
        "M_H_sx": (np.diag(ops.areas * ops.sigma_x), np.diag(areas * sx)),
        "M_H_sy": (np.diag(ops.areas * ops.sigma_y), np.diag(areas * sy)),
    }
    worst = {name: np.abs(a - b).max() for name, (a, b) in checks.items()}
    ok = all(v <= 1e-12 for v in worst.values())

    eig_me = np.linalg.eigvalsh(
        apply_pec(ops.m_e, ops.pec_mask).toarray()).min()
    eig_step = np.linalg.eigvalsh(
        apply_pec(stepper.a, ops.pec_mask).toarray()).min()
    ok = ok and eig_me > 0 and eig_step > 0
    _report(5, "assembly matches dense quadrature oracle", ok,
            f"max entry deviation {max(worst.values()):.3e} "
            f"({max(worst, key=worst.get)}); "
            f"min eig M_E={eig_me:.3e}, step system={eig_step:.3e}")


def test_criterion_6_interpolation_projection_rates():
    case = ManufacturedCase()
    t = 0.3
    errs_e, errs_h = [], []
    for h in (1 / 8, 1 / 16, 1 / 32):
        mesh, ops, _ = build_manufactured_problem(h)
        e = interpolate_hcurl(lambda p: oracles.e_field(case, p, t), mesh)
        hz = project_l2_p0(lambda p: oracles.h_field(case, p, t), mesh)
        state = FieldState(e_prev=e, e_curr=e, curl_e=None, hz=hz, hzx=np.zeros(0),
                           hzy=np.zeros(0), step=0, tau=0.0)
        ee, eh = l2_errors(state, ManufacturedDrivers(mesh, case, ops.pec_mask), t)
        errs_e.append(ee)
        errs_h.append(eh)
    rates_e = [np.log2(a / b) for a, b in zip(errs_e[:-1], errs_e[1:])]
    rates_h = [np.log2(a / b) for a, b in zip(errs_h[:-1], errs_h[1:])]
    ok = (all(0.9 <= r <= 1.1 for r in rates_e)
          and all(0.9 <= r <= 1.1 for r in rates_h))
    _report(6, "interpolation and projection rates", ok,
            f"edge-interp rates {[f'{r:.3f}' for r in rates_e]}, "
            f"cell-projection rates {[f'{r:.3f}' for r in rates_h]}")


def test_criterion_7_pml_effectiveness():
    params = MaterialParams(tau0=1.2e-12, sigma0=0.0)
    mesh = generate_rect_mesh((-20 * UM, 20 * UM, -20 * UM, 20 * UM), 100, 100, 12)
    sx, sy = damping_at_centroids(mesh)
    ops = build_operator_set(mesh, sx, sy)

    spec = SourceSpec(((0.0, 0.4 * UM, 1.0), (0.0, -0.4 * UM, -1.0)),
                      1e13, 0.4 * UM, n_cycles=1.0)
    cells = dipole_source_cells(mesh, spec)
    tau = min(mesh.h_x, mesh.h_y) / (4.0 * params.c_v)

    state = init_state(ops, params, tau=tau)
    stepper = LeapfrogStepper(ops, params, tau)
    phys = oracles.physical(sx, sy)
    peak = 0.0
    for n in range(1000):
        ks = eval_source(spec, n * tau, cells, mesh.n_triangles)
        stepper.advance(state, ks)
        peak = max(peak, np.abs(state.hz[phys]).max())
    ratio = np.abs(state.hz[phys]).max() / peak
    ok = ratio <= 0.02
    _report(7, "absorbing collar effectiveness", ok,
            f"residual / peak |Hz| in the physical region = {ratio:.4f} "
            f"after 1000 steps (gate: one source period)")


def _channel_reflection(f0, layers, isotropic):
    """The reflection |R| of `oracles.tem_channel`'s collar (h = 0.4 um,
    physical y in (-20, 20) um) at normal incidence and `f0`, and the
    fit's relative residual.  A continuous Ks row at y = -15 um drives 30
    periods; the row-mean Hz over the last 5, fitted to A e^{-iky} + B
    e^{iky} (the incident and reflected waves under an e^{-i omega t}
    kernel) clear of the source and the collar, gives |B/A|."""
    width, half, h = 2 * UM, 20 * UM, 0.4 * UM
    mesh, ops = oracles.tem_channel(width, h, half, layers, isotropic)
    assert np.array_equal(ops.damped, np.flatnonzero(np.abs(mesh.centroids[:, 1]) > half))
    depth, nx, ny = layers * h, 5, 2 * (50 + layers)
    params = MaterialParams()
    tau = h / (4.0 * params.c_v)
    omega, n_steps, n_last = 2 * np.pi * f0, round(30 / (f0 * tau)), round(5 / (f0 * tau))
    drive = np.abs(mesh.centroids[:, 1] + 15 * UM) < h / 2
    assert drive.sum() == 2 * nx
    state = init_state(ops, params, tau=tau)
    stepper = LeapfrogStepper(ops, params, tau)
    ks, dft = np.zeros(mesh.n_triangles), np.zeros(ny, dtype=complex)
    for n in range(n_steps):
        ks[drive] = np.sin(omega * n * tau)
        stepper.advance(state, ks)
        if n >= n_steps - n_last:
            row_mean = state.hz.reshape(ny, 2 * nx).mean(axis=1)
            dft += row_mean * np.exp(-1j * omega * (n + 0.5) * tau)

    y = -half - depth + (np.arange(ny) + 0.5) * h
    fit = (y > -10 * UM) & (y < 15 * UM)
    k = omega / params.c_v
    waves = np.exp(np.outer(y[fit], [-1j * k, 1j * k]))
    (inc, ref), *_ = np.linalg.lstsq(waves, dft[fit], rcond=None)
    residual = np.linalg.norm(waves @ [inc, ref] - dft[fit]) / np.linalg.norm(dft[fit])
    return abs(ref / inc), residual


def test_collar_normal_incidence_reflection():
    # The published 12-layer collar (sigma_x = 0 in the channel) at 10 THz.
    # Its reflection is structural (P0 Hz gives both split halves the same
    # drive, and a y-collar never damps the hzx half), so the gate pins
    # today's figure.
    reflection, residual = _channel_reflection(1e13, 12, isotropic=False)
    ok = reflection <= 0.42 and residual <= 2e-3
    detail = (f"|R| = {reflection:.3f} at normal incidence, 12 layers of 0.4 um "
              f"(gate 0.42); fit residual {residual:.1e} (gate 2e-3)")
    print(f"\n[{'PASS' if ok else 'FAIL'}] collar gate (TEM channel reflection): {detail}")
    assert ok, f"collar gate failed: {detail}"


def test_collar_seam_reflects_one_over_two_omega_tau0():
    # The relaxation terms, (eps0/tau0) E_t and (1/tau0) curl H, act in the
    # physical cells only, so the seam where the collar starts is an
    # impedance step of relative size about 1/(omega tau0): it reflects
    # ~1/(2 omega tau0) whatever h and the collar's depth.  24 isotropic
    # layers (sigma_x = sigma_y = sx + sy) reflect little themselves, so
    # the channel reads the seam; the 20% tolerance was fixed before the run.
    tau0, ok, details = MaterialParams().tau0, True, []
    for f0 in (5e12, 1e13):
        reflection, residual = _channel_reflection(f0, 24, isotropic=True)
        seam = 1 / (4 * np.pi * f0 * tau0)
        ok = ok and abs(reflection - seam) <= 0.2 * seam and residual <= 2e-3
        details.append(f"{f0 / 1e12:g} THz: |R| = {reflection:.4f}, 1/(2 omega tau0) = "
                       f"{seam:.4f}, fit residual {residual:.1e}")
    detail = "; ".join(details) + " (gate 20% of 1/(2 omega tau0), residual 2e-3)"
    print(f"\n[{'PASS' if ok else 'FAIL'}] collar seam (24 isotropic layers): {detail}")
    assert ok, f"collar seam failed: {detail}"


def _example1_reduced(sigma0, n_steps, tau):
    mesh = generate_rect_mesh((-30 * UM, 30 * UM, -10 * UM, 10 * UM), 50, 50, 12)
    iface = [
        Segment((-30 * UM, 0), (-15 * UM, 0)),
        Segment((-15 * UM, 0), (0, 5 * UM)),
        Segment((0, 5 * UM), (15 * UM, 5 * UM)),
        Segment((-15 * UM, 0), (0, -5 * UM)),
        Segment((0, -5 * UM), (15 * UM, -5 * UM)),
    ]
    edges = snap_interface(mesh, iface)
    sx, sy = damping_at_centroids(mesh)
    ops = build_operator_set(mesh, sx, sy)
    params = MaterialParams(tau0=1.2e-12, sigma0=sigma0)

    spec = SourceSpec(((-27 * UM, 1 * UM, 1.0), (-27 * UM, -1 * UM, -1.0)),
                      1e13, mesh.h_y, n_cycles=3.0)
    cells = dipole_source_cells(mesh, spec)

    def source(t):
        return eval_source(spec, t, cells, mesh.n_triangles)

    result = run_simulation(ops, params, tau, n_steps, source=source,
                            energy_every=0)
    return mesh, ops, edges, result.state.e_curr


def test_criterion_8_spp_localization():
    sigma0 = kubo_sigma0(KuboParams(mu_c_ev=1.5))
    tau = 0.4 * UM / (4.0 * C_LIGHT)
    n_steps = 3000
    fracs = []
    for sig in (sigma0, 0.0):
        mesh, ops, edges, e = _example1_reduced(sig, n_steps, tau)
        # band of cells within 2h of the sheet
        a = mesh.vertices[mesh.edges[edges, 0]]
        b = mesh.vertices[mesh.edges[edges, 1]]
        c = mesh.centroids
        dist = np.full(len(c), np.inf)
        for pa, pb in zip(a, b):
            ab = pb - pa
            t = np.clip((c - pa) @ ab / (ab @ ab), 0, 1)
            proj = pa + t[:, None] * ab
            dist = np.minimum(dist, np.hypot(*(c - proj).T))
        phys = oracles.physical(ops.sigma_x, ops.sigma_y).astype(float)
        band = (dist <= 2 * mesh.h_y) * phys
        m_band = assemble_edge_mass(mesh, np.column_stack([band, band]))
        m_phys = assemble_edge_mass(mesh, np.column_stack([phys, phys]))
        fracs.append(float(e @ (m_band @ e)) / float(e @ (m_phys @ e)))
    ratio = fracs[0] / fracs[1]
    ok = ratio >= 3.0
    _report(8, "sheet-bound wave localization", ok,
            f"near-sheet energy fraction {fracs[0]:.3f} with the sheet vs "
            f"{fracs[1]:.3f} without; ratio {ratio:.2f} (need >= 3)")


def test_criterion_9_manufactured_source_oracle():
    (e1, e2, e_ex), (h1, h2, h_ex) = extrapolated_residuals(ManufacturedCase())
    ok = e_ex <= 1e-6 and h_ex <= 1e-6
    _report(9, "manufactured source finite-difference oracle", ok,
            f"max residuals at dx = dt = 1e-3 / 5e-4: electric {e1:.2e} / {e2:.2e} "
            f"(ratio {e1 / e2:.4f}), magnetic {h1:.2e} / {h2:.2e} (ratio {h1 / h2:.4f}); "
            f"Richardson-extrapolated: electric {e_ex:.1e}, magnetic {h_ex:.1e} "
            f"(gate 1e-6)")


def test_criterion_10_sheet_transmission():
    # The collar gate's TEM channel with physical y in (-40, 40) um and a
    # graphene sheet across it at y = 0: a freestanding sheet at normal
    # incidence, where tangential E is continuous, so the exact
    # transmission is T = 2 / (2 + eta0 sigma), sigma = sigma0 / (1 - i omega
    # tau0) (Hanson 2008), conjugated for the e^{-i omega t} DFT kernel
    # below.  The collar takes isotropic weights sigma_x = sigma_y = sx + sy:
    # the published ones make this channel a cavity (T 32% off).  A Ks row
    # at -20 um drives sin(omega t) for 60 periods; T_num is the DFT of the
    # mean Hz of the row at +3 um over the last 10, with the sheet over
    # the same without it (sigma0 = 0).  The tolerance was fixed before
    # the run.  The 0.25-0.43% left does not fall with h (0.33-0.57% at 0.2
    # um): it is the collar seam's echo (see the seam test) between the
    # collar and the sheet; criterion 11 measures the sheet without one.
    width, half, h, f0, nx = 2 * UM, 40 * UM, 0.4 * UM, 1e13, 5
    mesh, ops = oracles.tem_channel(width, h, half, 12, isotropic=True, sheet=True)

    vacuum = MaterialParams()
    tau = h / (4.0 * vacuum.c_v)
    omega, n_steps, n_last = 2 * np.pi * f0, round(60 / (f0 * tau)), round(10 / (f0 * tau))
    drive = np.abs(mesh.centroids[:, 1] + 20 * UM) < h / 2
    probe = np.abs(mesh.centroids[:, 1] - 3 * UM) < h / 2
    assert drive.sum() == probe.sum() == 2 * nx

    def probe_dft(sigma0):
        params = MaterialParams(sigma0=sigma0)
        state = init_state(ops, params, tau=tau)
        stepper = LeapfrogStepper(ops, params, tau)
        ks, dft = np.zeros(mesh.n_triangles), 0j
        for n in range(n_steps):
            ks[drive] = np.sin(omega * n * tau)
            stepper.advance(state, ks)
            if n >= n_steps - n_last:
                dft += state.hz[probe].mean() * np.exp(-1j * omega * (n + 0.5) * tau)
        return dft

    eta0 = np.sqrt(vacuum.mu0 / vacuum.eps0)
    without = probe_dft(0.0)
    ok, details = True, []
    for mu_c in (1.5, 0.8):
        sigma0 = kubo_sigma0(KuboParams(mu_c_ev=mu_c), vacuum.tau0)
        t_num = probe_dft(sigma0) / without
        t_exact = np.conj(2 / (2 + eta0 * sigma0 / (1 - 1j * omega * vacuum.tau0)))
        off = abs(t_num - t_exact) / abs(t_exact)
        ok = ok and off <= 0.015
        details.append(f"mu_c = {mu_c} eV: T_num = {t_num:.4f}, T = {t_exact:.4f} "
                       f"({100 * off:.2f}% off)")
    _report(10, "sheet transmission at 10 THz", ok,
            "; ".join(details) + " (gate 1.5% of |T|)")


BAND_THZ = (5.0, 7.5, 10.0, 15.0, 20.0)


def _pulse_transmission_errors(h, mu_cs):
    """Per chemical potential in `mu_cs`, |T_num - T| / |T| at BAND_THZ from
    one gated pulse through a sheet across a collar-free channel of cells
    of side `h` (see criterion 11)."""
    width, s = 1.6 * UM, 20e-15
    mesh, ops = oracles.tem_channel(width, h, 120 * UM, 0, sheet=True)
    vacuum = MaterialParams()
    tau = h / (4.0 * vacuum.c_v)
    n_steps = round(0.7e-12 / tau)
    drive = np.abs(mesh.centroids[:, 1] + 20 * UM) < h / 2
    probe = np.abs(mesh.centroids[:, 1] - 3 * UM) < h / 2
    assert drive.sum() == probe.sum() == 2 * round(width / h)
    omega = 2e12 * np.pi * np.array(BAND_THZ)
    kernel = np.exp(-1j * np.outer(np.arange(n_steps) + 0.5, omega * tau))

    def probe_dft(sigma0):
        params = MaterialParams(sigma0=sigma0)
        state = init_state(ops, params, tau=tau)
        stepper = LeapfrogStepper(ops, params, tau)
        ks, record = np.zeros(mesh.n_triangles), np.empty(n_steps)
        for n in range(n_steps):
            u = (n * tau - 4 * s) / s
            ks[drive] = -u * np.exp(-u * u)
            stepper.advance(state, ks)
            record[n] = state.hz[probe].mean()
        return record @ kernel

    eta0 = np.sqrt(vacuum.mu0 / vacuum.eps0)
    without, errors = probe_dft(0.0), []
    for mu_c in mu_cs:
        sigma0 = kubo_sigma0(KuboParams(mu_c_ev=mu_c), vacuum.tau0)
        t_exact = np.conj(2 / (2 + eta0 * sigma0 / (1 - 1j * omega * vacuum.tau0)))
        errors.append(np.abs(probe_dft(sigma0) / without - t_exact) / np.abs(t_exact))
    return errors


def test_criterion_11_sheet_conductivity_over_a_band():
    # Criterion 10's exact T from one pulse over 5-20 THz, with no collar
    # in the loop.  The channel has conducting walls at y = +-120 um and the
    # sheet at y = 0; a Ks row at -20 um is driven by -u e^{-u^2}, u = (t -
    # 4s)/s, s = 20 fs, and the mean Hz of the row at +3 um is recorded
    # every step for 0.7 ps.  The record ends before the first wall echo
    # reaches the probe: the backward wave's source-wall-probe path, 223
    # um, takes 0.74 ps.  The sheet's own response decays in ~29 fs (1.5
    # eV) and ~55 fs (0.8 eV).  T_num is the record's DFT with the sheet
    # over the same without it (sigma0 = 0).  Both gates were fixed before
    # the run: 0.2% of |T| at h = 0.4 um, and the 20 THz error at 1.5 eV
    # falls at least 3x from h = 0.8 um to 0.4 um.
    fine = _pulse_transmission_errors(0.4 * UM, (1.5, 0.8))
    coarse = _pulse_transmission_errors(0.8 * UM, (1.5,))[0]
    ratio = coarse[-1] / fine[0][-1]
    ok, details = ratio >= 3.0, []
    for mu_c, err in zip((1.5, 0.8), fine):
        worst = int(np.argmax(err))
        ok = ok and err[worst] <= 2e-3
        details.append(f"mu_c = {mu_c} eV: worst {100 * err[worst]:.3f}% off at "
                       f"{BAND_THZ[worst]:g} THz")
    _report(11, "sheet conductivity over 5-20 THz from one pulse", ok,
            "; ".join(details) + " (gate 0.2% of |T| at h = 0.4 um); 20 THz error at "
            f"h = 0.8 / 0.4 um {100 * coarse[-1]:.3f}% / {100 * fine[0][-1]:.3f}%, "
            f"ratio {ratio:.2f} (need >= 3)")
