import json
import os

import numpy as np
import pytest

from sppfetd import dynamics, harness
from sppfetd.cli import main as cli_main
from sppfetd.dynamics import FieldState, Snapshot
from sppfetd.harness import (ConfigError, ErrorTable, ManufacturedDrivers,
                             SimulationConfig, _vtk_geometry,
                             build_manufactured_problem,
                             build_mesh_for, config_from_json, config_to_json, l2_errors,
                             run, run_convergence_study, scenario,
                             write_energy_log, write_snapshot)
from sppfetd.mesh import Arc, InterfaceSpec, Segment, generate_rect_mesh
from sppfetd.physics import ManufacturedCase, MaterialParams, SourceSpec
from sppfetd.elements import interpolate_hcurl, project_l2_p0

import oracles

UM = 1e-6


def test_error_table_rates_match_published_arithmetic():
    table = ErrorTable(hs=[1 / 10, 1 / 20], e_errors=[8.441669e-3, 4.125569e-3],
                       h_errors=[1.768658e-4, 8.359509e-5])
    assert table.e_rates[0] is None
    assert table.e_rates[1] == pytest.approx(1.032935, abs=1e-6)
    assert table.h_rates[1] == pytest.approx(1.081165, abs=1e-6)


def test_error_table_single_row_has_no_rates():
    table = ErrorTable(hs=[0.1], e_errors=[1.0], h_errors=[1.0])
    assert table.e_rates == [None]
    assert "rate" in str(table)


def test_l2_errors_zero_state_equals_exact_norm():
    mesh, ops, case = build_manufactured_problem(1 / 8)
    t = 0.3
    tau = 1e-3
    state = FieldState(e_prev=np.zeros(mesh.n_edges),
                       e_curr=np.zeros(mesh.n_edges),
                       curl_e=np.zeros(mesh.n_triangles),
                       hzx=np.zeros(mesh.n_triangles),
                       hzy=np.zeros(mesh.n_triangles), step=0, tau=tau)
    err_e, err_h = l2_errors(state, case, mesh, t)
    # independent quadrature of the exact norms
    ref_pts, wts = oracles.duffy_rule(10)
    acc_e = acc_h = 0.0
    for cell in range(mesh.n_triangles):
        p0, jac, _, det = oracles.cell_maps(mesh, cell)
        phys = (jac @ ref_pts.T).T + p0
        acc_e += np.sum(wts * det * np.sum(case.e_field(phys, t) ** 2, axis=1))
        acc_h += np.sum(wts * det * case.h_field(phys, t - tau / 2) ** 2)
    assert err_e == pytest.approx(np.sqrt(acc_e), rel=1e-9)
    assert err_h == pytest.approx(np.sqrt(acc_h), rel=1e-9)


def test_l2_errors_interpolant_scales_linearly_with_h():
    t = 0.3
    errs = []
    for h in (1 / 8, 1 / 16):
        mesh, ops, case = build_manufactured_problem(h)
        e = interpolate_hcurl(lambda p: case.e_field(p, t), mesh)
        hz = project_l2_p0(lambda p: case.h_field(p, t), mesh)
        state = FieldState(e_prev=e, e_curr=e, curl_e=ops.c @ e, hzx=hz, hzy=0 * hz,
                           step=0, tau=0.0)
        errs.append(l2_errors(state, case, mesh, t)[0])
    assert np.log2(errs[0] / errs[1]) == pytest.approx(1.0, abs=0.15)


def test_convergence_study_validates_input():
    with pytest.raises(ConfigError):
        run_convergence_study("coupled", [1 / 10, 1 / 30])
    with pytest.raises(ConfigError):
        run_convergence_study("weird", [1 / 10])
    with pytest.raises(ConfigError):
        build_manufactured_problem(1 / 7)  # odd subdivision


def test_convergence_single_row_smoke():
    table = run_convergence_study("coupled", [1 / 10])
    assert len(table.hs) == 1
    assert table.e_errors[0] < 0.02


def test_manufactured_drivers_match_generic_assembly():
    from sppfetd.assembly import assemble_edge_load
    for h in (1 / 4, 1 / 10):
        mesh, ops, case = build_manufactured_problem(h)
        drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
        tau0 = case.params.tau0
        for t in (0.0, 0.17, 0.6, 2.3):
            # References built pointwise from the source definitions.
            np.testing.assert_allclose(
                drivers.source(t),
                project_l2_p0(lambda p: -oracles.f_scalar(case, p, t), mesh),
                atol=1e-13)
            ref = assemble_edge_load(
                mesh, lambda p: (oracles.f_vector(case, p, t)
                                 + tau0 * oracles.dt_f_vector(case, p, t)))
            np.testing.assert_allclose(drivers.extra_load(t), ref / tau0, atol=1e-13)
            bc = drivers.bc_values(t)
            ref_full = interpolate_hcurl(lambda p: case.e_field(p, t), mesh)
            # boundary edges only: nothing is stored or returned off them
            assert bc.shape == (int(ops.pec_mask.sum()),)
            np.testing.assert_allclose(bc, ref_full[ops.pec_mask], atol=1e-13)


def test_manufactured_bc_values_live_on_boundary_edges_only():
    mesh, ops, case = build_manufactured_problem(1 / 10)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    modes = interpolate_hcurl(case.e_modes, mesh)[:, ops.pec_mask]
    for t in (0.0, 0.17, 0.6):
        bc = drivers.bc_values(t)
        assert bc.shape == (int(ops.pec_mask.sum()),)
        np.testing.assert_array_equal(bc, case.e_coeffs(t) @ modes)


def test_manufactured_drivers_evaluate_no_closed_form_per_step(monkeypatch):
    mesh, ops, case = build_manufactured_problem(1 / 4)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    calls = []
    trig = ManufacturedCase._sc
    monkeypatch.setattr(ManufacturedCase, "_sc",
                        staticmethod(lambda pts: calls.append(len(pts)) or trig(pts)))
    for t in (0.0, 0.3):
        drivers.source(t)
        drivers.extra_load(t)
        drivers.bc_values(t)
    assert calls == []
    case.e_field(mesh.centroids, 0.3)   # the counter does see a pointwise call
    assert calls == [mesh.n_triangles]


def test_scenario_bifurcated_straight_coordinates():
    cfg = scenario("bifurcated-straight")
    assert cfg.bounds == (-30 * UM, 30 * UM, -10 * UM, 10 * UM)
    assert (cfg.nx, cfg.ny, cfg.pml_layers) == (100, 100, 12)
    segs = cfg.interface.primitives
    assert segs[0].p0 == (-30 * UM, 0.0) and segs[0].p1 == (-15 * UM, 0.0)
    assert cfg.source.points[0][:2] == (-27 * UM, 1 * UM)
    assert cfg.tau == 8.3e-17 and cfg.n_steps == 20000
    assert cfg.kubo.mu_c_ev == 1.5
    assert cfg.source.h_norm == pytest.approx(0.2 * UM)


def test_scenario_spiral_parameters():
    cfg = scenario("spiral")
    assert cfg.n_steps == 100000
    assert cfg.kubo.mu_c_ev == 0.8
    arcs = [p for p in cfg.interface.primitives if isinstance(p, Arc)]
    assert len(arcs) == 8  # 7 half turns plus the closing quarter
    segs = [p for p in cfg.interface.primitives if isinstance(p, Segment)]
    assert len(segs) == 1
    assert segs[0].p0 == (0.0, -18 * UM)


def test_scenario_convergence_unit_parameters():
    cfg = scenario("convergence")
    assert cfg.material == MaterialParams.unit()
    assert cfg.manufactured


def test_scenario_unknown_name_lists_valid():
    with pytest.raises(ConfigError, match="bifurcated-straight"):
        scenario("donut")


def test_write_snapshot_zero_state(tmp_path):
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    snap = Snapshot(0, 0.0, np.zeros(mesh.n_edges), np.zeros(mesh.n_triangles))
    path = tmp_path / "snap.vtk"
    write_snapshot(snap, mesh, path, _vtk_geometry(mesh))
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    cells_line = next(l for l in text if l.startswith("CELLS "))
    assert cells_line.split() == ["CELLS", str(mesh.n_triangles),
                                  str(4 * mesh.n_triangles)]
    data_start = text.index("LOOKUP_TABLE default") + 1
    hz_vals = [float(v) for v in text[data_start:data_start + mesh.n_triangles]]
    assert hz_vals == [0.0] * mesh.n_triangles


def test_energy_log_round_trip(tmp_path):
    from sppfetd.dynamics import EnergyReport
    series = [EnergyReport(step=1, time=0.5, kinetic=1.25, curl=0.5,
                           magnetic=2.0, interface=0.125, curl_extra=0.0625)]
    path = tmp_path / "energy.csv"
    write_energy_log(series, path)
    header, row = path.read_text().strip().splitlines()
    assert header.split(",") == ["step", "time", "kinetic", "curl", "magnetic",
                                 "interface", "curl_extra", "total"]
    vals = row.split(",")
    assert int(vals[0]) == 1
    parsed = [float(v) for v in vals[1:]]
    assert parsed == [0.5, 1.25, 0.5, 2.0, 0.125, 0.0625,
                      1.25 + 0.5 + 2.0 + 0.125 + 0.0625]


def test_config_json_round_trip():
    cfg = scenario("bifurcated-curved")
    data = config_to_json(cfg)
    again = config_from_json(json.loads(json.dumps(data)))
    assert again.bounds == cfg.bounds
    assert again.tau == cfg.tau
    assert again.kubo == cfg.kubo
    assert again.source == cfg.source
    assert len(again.interface.primitives) == len(cfg.interface.primitives)
    assert isinstance(again.interface.primitives[1], Arc)


def test_config_v2_round_trip_has_no_solver_block():
    cfg = scenario("bifurcated-straight")
    data = json.loads(json.dumps(config_to_json(cfg)))
    assert data["version"] == 2 and "solver" not in data
    assert config_from_json(data) == cfg


def test_config_v1_solver_block_is_ignored_with_warning():
    data = config_to_json(scenario("bulb"))
    data["version"] = 1
    data["solver"] = {"tol": 1e-10, "max_iter": None, "preconditioner": "jacobi"}
    with pytest.warns(UserWarning, match="solver"):
        cfg = config_from_json(data)
    assert cfg == scenario("bulb")


@pytest.mark.parametrize("pml", [{"pml_err": 0.0}, {"pml_err": 1.5},
                                 {"pml_eta": -377.0}])
def test_config_rejects_bad_pml_settings(pml):
    # these reached the absorber set-up as bare ValueErrors before
    with pytest.raises(ConfigError, match="pml"):
        SimulationConfig(**pml)


@pytest.mark.parametrize("constant", ["q", "k_b", "hbar"])
def test_cli_kubo_block_naming_a_physical_constant_is_configuration_error(
        constant, tmp_path, capsys):
    # the charge and the Boltzmann and Planck constants are not settings
    data = config_to_json(scenario("bulb"))
    data["kubo"][constant] = 1.0
    data["steps"] = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(constant) in err


def test_run_damps_the_collar_of_a_mesh_file(tmp_path, monkeypatch):
    # a mesh file carries no layer count: run reads the collar depth from
    # the mesh, so its absorber cells get the generated mesh's damping
    generated = SimulationConfig(
        name="collar", bounds=(-3 * UM, 3 * UM, -1 * UM, 1 * UM), nx=30, ny=10,
        pml_layers=4, tau=1e-17, n_steps=0, out_dir="")
    mesh_path = tmp_path / "collar.mesh"
    oracles.save_mesh(build_mesh_for(generated), mesh_path)
    data = config_to_json(generated)
    data["mesh"] = {"file": str(mesh_path)}
    from_file = config_from_json(json.loads(json.dumps(data)))

    damping = []
    assemble = harness.build_operator_set
    monkeypatch.setattr(harness, "build_operator_set",
                        lambda mesh, sx, sy: damping.append((mesh, sx, sy))
                        or assemble(mesh, sx, sy))
    run(generated)
    run(from_file)
    (_, gen_x, gen_y), (mesh, file_x, file_y) = damping
    absorber = mesh.cell_tags == 1
    assert absorber.sum() == 768 and mesh.n_triangles == 1368
    assert np.all(np.maximum(file_x, file_y)[absorber] > 0.0)
    assert np.all(file_x[~absorber] == 0.0) and np.all(file_y[~absorber] == 0.0)
    assert file_x.max() == pytest.approx(9.43e4, rel=1e-3)
    for got, want in ((file_x, gen_x), (file_y, gen_y)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_run_with_empty_out_dir_writes_nothing(tmp_path, monkeypatch, capsys):
    # an empty out_dir turns output off; it does not fall back to the
    # config's out_dir ("out" by default) in the working directory
    monkeypatch.chdir(tmp_path)
    cfg = SimulationConfig(
        name="quiet", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, pml_layers=2,
        material=MaterialParams.unit(), tau=0.01, n_steps=4, snapshot_every=2)
    result = run(cfg, out_dir="")
    assert len(result.snapshots) == 3 and len(result.energy) == 2
    assert list(tmp_path.iterdir()) == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", ""]) == 0
    assert capsys.readouterr().out == (
        "completed 4 steps; no files written (empty --out)\n")
    assert cli_main(["scenario", "convergence", "--steps", "2", "--out", ""]) == 0
    assert capsys.readouterr().out == (
        "scenario 'convergence' finished at step 2; no files written (empty --out)\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_config_rejects_bad_version():
    with pytest.raises(ConfigError):
        config_from_json({"version": 99})


def test_run_tiny_simulation_writes_outputs(tmp_path):
    cfg = SimulationConfig(
        name="tiny", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, pml_layers=2,
        material=MaterialParams.unit(), tau=0.01, n_steps=10,
        snapshot_every=5, out_dir=str(tmp_path / "out"),
        source=None, manufactured=False)
    result = run(cfg)
    out = tmp_path / "out"
    assert (out / "snap_000000.vtk").exists()
    assert (out / "snap_000010.vtk").exists()
    assert (out / "energy.csv").exists()
    assert result.state.step == 10
    # the run formats the mesh blocks once for all its snapshots; each file
    # is still what one write_snapshot call writes
    mesh = build_mesh_for(cfg)
    for snap in result.snapshots:
        write_snapshot(snap, mesh, tmp_path / "one.vtk", _vtk_geometry(mesh))
        assert ((tmp_path / "one.vtk").read_bytes()
                == (out / f"snap_{snap.step:06d}.vtk").read_bytes())


def test_run_determinism(tmp_path):
    cfg = scenario("convergence")
    from dataclasses import replace
    cfg = replace(cfg, n_steps=5, nx=8, ny=8, snapshot_every=5,
                  out_dir=str(tmp_path / "a"))
    run(cfg)
    cfg2 = replace(cfg, out_dir=str(tmp_path / "b"))
    run(cfg2)
    for name in ("snap_000005.vtk", "energy.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_cli_round_trip(tmp_path, capsys):
    cfg = SimulationConfig(
        name="clirun", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4,
        material=MaterialParams.unit(), tau=0.01, n_steps=3,
        snapshot_every=0, out_dir=str(tmp_path / "cli_out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path)]) == 0
    assert cli_main(["check-cfl", str(cfg_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 2


def test_cli_check_cfl_flags_violation(tmp_path, capsys):
    cfg = SimulationConfig(
        name="fast", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4,
        material=MaterialParams.unit(), tau=5.0, n_steps=0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["check-cfl", str(cfg_path)]) == 2
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_check_cfl_rejects_interface_outside_physical_region(tmp_path, capsys):
    # check-cfl builds the mesh as a run does, interface snap included, so
    # a config that `run` refuses is refused here too, whatever its tau
    cfg = SimulationConfig(
        name="offside", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, pml_layers=2,
        material=MaterialParams.unit(), tau=1e-6, n_steps=0,
        interface=InterfaceSpec([Segment((-0.25, 0.5), (1.0, 0.5))]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["check-cfl", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "leaves the physical region" in captured.err
    assert "configured tau" not in captured.out


def test_cli_convergence_smoke(capsys):
    assert cli_main(["convergence", "--mode", "coupled", "--h", "1/10"]) == 0
    out = capsys.readouterr().out
    assert "E error" in out


def test_cli_scenario_smoke(tmp_path, capsys):
    code = cli_main(["scenario", "convergence", "--steps", "3",
                     "--out", str(tmp_path / "sc")])
    assert code == 0
    assert (tmp_path / "sc" / "energy.csv").exists()


@pytest.mark.parametrize("args", [["--mode", "coupled", "--T", "0"],
                                  ["--mode", "fixed", "--steps", "0"]])
def test_cli_convergence_zero_steps_leaves_rate_blank(args, capsys):
    # No step leaves E at its exact start value, so the E errors are 0 and
    # their rate is undefined.
    assert cli_main(["convergence", "--h", "1/10,1/20", *args]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split()[1]) for row in rows] == [0.0, 0.0]
    assert len(rows[1].split()) == 4    # h, E error, H error, H rate


@pytest.mark.parametrize("h", ["1/0", "0", "-1/10", "x"])
def test_cli_convergence_rejects_bad_mesh_size(h, capsys):
    assert cli_main(["convergence", "--mode", "coupled", f"--h={h}"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--mode", "fixed", "--tau=-1e-4"],
                                  ["--mode", "fixed", "--steps=-3"],
                                  ["--mode", "coupled", "--T=-0.01"]])
def test_cli_convergence_rejects_bad_step_settings(args, capsys):
    assert cli_main(["convergence", "--h", "1/10", *args]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("h_list", [[0.0], [1 / 10, 0.0], [-0.1]])
def test_convergence_study_rejects_nonpositive_h(h_list):
    with pytest.raises(ConfigError, match="positive"):
        run_convergence_study("coupled", h_list)


def test_convergence_errors_decrease_monotonically():
    table = run_convergence_study("coupled", [1 / 10, 1 / 20])
    assert table.e_errors[1] < table.e_errors[0]
    assert table.h_errors[1] < table.h_errors[0]


@pytest.mark.parametrize("name", ["bifurcated-straight", "bifurcated-curved",
                                  "adjacent-arcs", "bulb", "ring-resonator",
                                  "spiral"])
def test_scenario_geometries_snap_cleanly(name):
    from sppfetd.harness import build_mesh_for
    cfg = scenario(name)
    mesh = build_mesh_for(cfg)  # snapping validates the mesh invariants
    assert len(mesh.interface_edges()) > 100


def test_cli_source_outside_mesh_is_configuration_error(tmp_path, capsys):
    cfg = SimulationConfig(
        name="offmesh", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4,
        material=MaterialParams.unit(), tau=0.01, n_steps=2,
        source=SourceSpec(((2.0, 0.5, 1.0),), f0=1.0, h_norm=1.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "outside the mesh" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # eps0 / tau^2 underflows to zero, so the step matrix is singular
    cfg = SimulationConfig(
        name="singular", bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4,
        material=MaterialParams(eps0=1e-300, mu0=1.0, tau0=1.0, sigma0=0.0),
        tau=1e100, n_steps=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    assert "solver failure" in capsys.readouterr().err


def test_cli_first_step_past_iteration_cap_is_solver_failure(
        tmp_path, capsys, monkeypatch):
    # the manufactured start has a nonzero velocity and the collar makes A
    # differ from a multiple of M_E, so one preconditioned iteration of the
    # first step's 2 M_lead solve is not enough
    monkeypatch.setattr(dynamics, "FIRST_STEP_MAX_ITER", 1)
    cfg = SimulationConfig(name="capped", bounds=(0.0, 1.0, 0.0, 1.0), nx=4,
                           ny=4, pml_layers=2, material=MaterialParams.unit(),
                           tau=0.01, n_steps=2, manufactured=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "solver failure" in err and "did not converge in 1 iterations" in err
    assert "tau = 1.000e-02" in err and "ratio of A's weight to M_lead's" in err


def test_cli_blowup_exit_code(tmp_path, capsys):
    cfg = SimulationConfig(
        name="unstable", bounds=(0.0, 1.0, 0.0, 1.0), nx=6, ny=6,
        material=MaterialParams.unit(), tau=2.0, n_steps=400,
        source=SourceSpec(((0.4, 0.4, 1.0),), f0=1.0, h_norm=1.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    # the energy log written before the guard tripped is kept
    step = int(capsys.readouterr().err.split("at step ")[-1])
    rows = (tmp_path / "o" / "energy.csv").read_text().splitlines()
    assert rows[0].startswith("step,")
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, step))


def test_cli_truncated_mesh_file_is_configuration_error(tmp_path, capsys):
    mesh_path = tmp_path / "short.mesh"
    mesh_path.write_text("SPPMESH 1\nVERTICES 4\n0 0\n1 0\n")
    cfg = SimulationConfig(name="short", mesh_file=str(mesh_path),
                           material=MaterialParams.unit(), tau=0.01, n_steps=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{mesh_path}:4: unexpected end of file" in capsys.readouterr().err


def test_cli_config_that_is_not_an_object_is_configuration_error(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "JSON object" in capsys.readouterr().err
    # nested blocks that are not objects either
    cfg = config_to_json(SimulationConfig(bounds=(0.0, 1.0, 0.0, 1.0), nx=2, ny=2))
    for key in ("pml", "interface"):
        cfg_path.write_text(json.dumps({**cfg, key: [1]}))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
