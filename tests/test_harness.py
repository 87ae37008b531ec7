import copy
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from sppfetd import assembly, elements, harness
from sppfetd.assembly import build_operator_set
from sppfetd.cli import main as cli_main
from sppfetd.dynamics import FieldState, init_state, run_simulation
from sppfetd.checks import FieldError
from sppfetd.harness import (ConfigError, ErrorTable, ManufacturedDrivers,
                             SimulationConfig, _vtk_geometry,
                             build_manufactured_problem,
                             build_mesh_for, config_from_json, l2_errors,
                             run, run_convergence_study, scenario,
                             write_energy_log, write_snapshot)
from sppfetd.mesh import Arc, Segment, generate_rect_mesh
from sppfetd.physics import (KuboParams, ManufacturedCase, MaterialParams, SourceSpec,
                             damping_at_centroids, kubo_sigma0)
from sppfetd.elements import (DEGREE3, eval_edge_field, interpolate_hcurl,
                              project_l2_p0, quad_points_physical)

import oracles

UM = 1e-6
ROOT = Path(__file__).resolve().parents[1]
UNIT = {"eps0": 1.0, "mu0": 1.0, "tau0": 1.0, "sigma0": 1.0}


def _square(nx=4, ny=4, pml_layers=0, **keys):
    """A version-2 config of the unit square with the unit material; `keys`
    add top-level keys or replace them."""
    return {"version": 2, "mesh": {"bounds": [0.0, 1.0, 0.0, 1.0], "nx": nx, "ny": ny,
                                   "pml_layers": pml_layers},
            "material": dict(UNIT), "tau": 0.01, "steps": 2, **keys}


def _dipole(x, y):
    return {"points": [{"position": [x, y], "sign": 1.0}], "f0": 1.0, "h_norm": 1.0}


def _write(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


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
                       hz=np.zeros(mesh.n_triangles), hzx=np.zeros(0),
                       hzy=np.zeros(0), step=0, tau=tau)
    err_e, err_h = l2_errors(state, ManufacturedDrivers(mesh, case, ops.pec_mask), t)
    # independent quadrature of the exact norms
    ref_pts, wts = oracles.duffy_rule(10)
    acc_e = acc_h = 0.0
    for cell in range(mesh.n_triangles):
        p0, jac, _, det = oracles.cell_maps(mesh, cell)
        phys = (jac @ ref_pts.T).T + p0
        e_ex = oracles.e_field(case, phys, t)
        acc_e += np.sum(wts * det * np.sum(e_ex ** 2, axis=1))
        acc_h += np.sum(wts * det * oracles.h_field(case, phys, t - tau / 2) ** 2)
    assert err_e == pytest.approx(np.sqrt(acc_e), rel=1e-9)
    assert err_h == pytest.approx(np.sqrt(acc_h), rel=1e-9)


def test_l2_errors_interpolant_scales_linearly_with_h():
    t = 0.3
    errs = []
    for h in (1 / 8, 1 / 16):
        mesh, ops, case = build_manufactured_problem(h)
        e = interpolate_hcurl(lambda p: oracles.e_field(case, p, t), mesh)
        hz = project_l2_p0(lambda p: oracles.h_field(case, p, t), mesh)
        state = FieldState(e_prev=e, e_curr=e, curl_e=ops.c @ e, hz=hz, hzx=np.zeros(0),
                           hzy=np.zeros(0), step=0, tau=0.0)
        errs.append(l2_errors(state, ManufacturedDrivers(mesh, case, ops.pec_mask), t)[0])
    assert np.log2(errs[0] / errs[1]) == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
@pytest.mark.parametrize("start", ["zero", "interpolated"])
@pytest.mark.parametrize("t", [0.3, 2.3])
def test_l2_errors_match_the_quadrature_of_the_closed_forms(h, start, t):
    # the error norm reads the drivers' samples; the reference takes the same
    # degree-3 quadrature of the pointwise closed forms, H at t - tau/2
    mesh, ops, case = build_manufactured_problem(h)
    tau = 1e-3
    t_h = t - tau / 2
    # H's time factors differ across the interface at t_h; were they equal,
    # H at (1/4, 3/4) and at (1/4, 1/4) would cancel
    assert abs(oracles.h_field(case, np.array([[0.25, 0.75], [0.25, 0.25]]), t_h).sum()) > 0.01
    if start == "zero":
        e, hz = np.zeros(mesh.n_edges), np.zeros(mesh.n_triangles)
    else:
        e = interpolate_hcurl(lambda p: oracles.e_field(case, p, t), mesh)
        hz = project_l2_p0(lambda p: oracles.h_field(case, p, t_h), mesh)
    state = FieldState(e_prev=e, e_curr=e, curl_e=ops.c @ e, hz=hz, hzx=np.zeros(0),
                       hzy=np.zeros(0), step=0, tau=tau)
    got = l2_errors(state, ManufacturedDrivers(mesh, case, ops.pec_mask), t)

    rule = DEGREE3
    pts = quad_points_physical(mesh, rule).reshape(-1, 2)
    weights = (2.0 * mesh.areas[:, None] * rule.weights).ravel()
    de = oracles.e_field(case, pts, t) - eval_edge_field(mesh, e, rule).reshape(-1, 2)
    dh = oracles.h_field(case, pts, t_h) - np.repeat(hz, len(rule.weights))
    want = np.sqrt(weights @ np.sum(de ** 2, axis=1)), np.sqrt(weights @ dh ** 2)
    assert min(want) > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_convergence_study_samples_each_mesh_once(monkeypatch):
    # one trig pass on the degree-3 points and one set of those points per
    # mesh serve the drives and the error norm
    h = 1 / 10
    n_cells = build_manufactured_problem(h)[0].n_triangles
    trig, points = ManufacturedCase._sc, elements.quad_points_physical
    trig_calls, point_calls = [], []
    monkeypatch.setattr(ManufacturedCase, "_sc",
                        staticmethod(lambda pts: trig_calls.append(len(pts)) or trig(pts)))

    def counted_points(mesh, rule):
        point_calls.append(mesh.n_triangles)
        return points(mesh, rule)

    for module in (elements, assembly, harness):
        monkeypatch.setattr(module, "quad_points_physical", counted_points)
    run_convergence_study("coupled", [h])
    assert trig_calls.count(6 * n_cells) == 1
    assert point_calls == [n_cells]


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
            ref_full = interpolate_hcurl(lambda p: oracles.e_field(case, p, t), mesh)
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
    state = init_state(ops, case.params, tau=1e-3)
    for t in (0.0, 0.3):
        drivers.source(t)
        drivers.extra_load(t)
        drivers.bc_values(t)
        l2_errors(state, drivers, t)
    assert calls == []
    case.e_modes(mesh.centroids)   # the counter does see a pointwise call
    assert calls == [mesh.n_triangles]


def test_manufactured_drivers_sample_the_modes_once(monkeypatch):
    # the cell means of ks and the edge loads share one trig pass on the
    # degree-3 points; the boundary moments take theirs on the edge points
    mesh, ops, case = build_manufactured_problem(1 / 4)
    calls = []
    trig = ManufacturedCase._sc
    monkeypatch.setattr(ManufacturedCase, "_sc",
                        staticmethod(lambda pts: calls.append(len(pts)) or trig(pts)))
    ManufacturedDrivers(mesh, case, ops.pec_mask)
    n_boundary = int(ops.pec_mask.sum())
    assert calls.count(6 * mesh.n_triangles) == 1
    assert set(calls) == {6 * mesh.n_triangles, n_boundary}


def test_scenario_bifurcated_straight_coordinates():
    cfg = scenario("bifurcated-straight")
    assert cfg.bounds == (-30 * UM, 30 * UM, -10 * UM, 10 * UM)
    assert (cfg.nx, cfg.ny, cfg.pml_layers) == (100, 100, 12)
    segs = cfg.interface
    assert segs[0].p0 == (-30 * UM, 0.0) and segs[0].p1 == (-15 * UM, 0.0)
    assert cfg.source.points[0][:2] == (-27 * UM, 1 * UM)
    assert cfg.tau == 8.3e-17 and cfg.n_steps == 20000
    assert cfg.kubo.mu_c_ev == 1.5
    assert cfg.source.h_norm == pytest.approx(0.2 * UM)


def test_scenario_spiral_parameters():
    cfg = scenario("spiral")
    assert cfg.n_steps == 100000
    assert cfg.kubo.mu_c_ev == 0.8
    arcs = [p for p in cfg.interface if isinstance(p, Arc)]
    assert len(arcs) == 8  # 7 half turns plus the closing quarter
    segs = [p for p in cfg.interface if isinstance(p, Segment)]
    assert len(segs) == 1
    assert segs[0].p0 == (0.0, -18 * UM)


def test_scenario_unknown_name_lists_valid():
    with pytest.raises(ConfigError, match="bifurcated-straight"):
        scenario("donut")


def test_write_snapshot_zero_state(tmp_path):
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    state = init_state(build_operator_set(mesh), MaterialParams.unit(), tau=0.01)
    path = tmp_path / "snap.vtk"
    write_snapshot(state, mesh, path, _vtk_geometry(mesh))
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
    report = EnergyReport(step=1, time=0.5, kinetic=1.25, curl=0.5,
                          magnetic=2.0, interface=0.125, curl_extra=0.0625)
    path = tmp_path / "energy.csv"
    with open(path, "w") as log:
        write_energy_log(report, log)
    header, row = path.read_text().strip().splitlines()
    assert header.split(",") == ["step", "time", "kinetic", "curl", "magnetic",
                                 "interface", "curl_extra", "total"]
    vals = row.split(",")
    assert int(vals[0]) == 1
    parsed = [float(v) for v in vals[1:]]
    assert parsed == [0.5, 1.25, 0.5, 2.0, 0.125, 0.0625,
                      1.25 + 0.5 + 2.0 + 0.125 + 0.0625]


def _segment_um(p0, p1):
    return {"type": "segment", "p0": [p0[0] * UM, p0[1] * UM],
            "p1": [p1[0] * UM, p1[1] * UM]}


def _bifurcated_json(interface):
    """A bifurcated published scenario spelled as a version-2 file."""
    return {"version": 2,
            "mesh": {"bounds": [-30 * UM, 30 * UM, -10 * UM, 10 * UM], "nx": 100,
                     "ny": 100, "pml_layers": 12},
            "interface": interface, "kubo": {"mu_c_ev": 1.5},
            "source": {"points": [{"position": [-27 * UM, 1 * UM], "sign": 1.0},
                                  {"position": [-27 * UM, -1 * UM], "sign": -1.0}],
                       "f0": 1e13, "h_norm": 0.2 * UM},
            "tau": 8.3e-17, "steps": 20000, "snapshot_every": 1000}


def test_config_json_round_trip():
    # a published scenario written out as JSON text reads back to itself,
    # arcs and dipoles included
    data = _bifurcated_json([
        _segment_um((-28, 0), (0, 0)),
        {"type": "arc", "center": [7 * UM, 0.0], "radius": 7 * UM,
         "angle_start": np.pi / 2, "angle_end": 3 * np.pi / 2},
        _segment_um((7, 7), (15, 7)), _segment_um((7, -7), (15, -7))])
    again = config_from_json(json.loads(json.dumps(data)))
    assert again == scenario("bifurcated-curved")
    assert isinstance(again.interface[1], Arc)


def test_config_v2_round_trip_has_no_solver_block():
    data = _bifurcated_json([
        _segment_um((-30, 0), (-15, 0)), _segment_um((-15, 0), (0, 5)),
        _segment_um((0, 5), (15, 5)), _segment_um((-15, 0), (0, -5)),
        _segment_um((0, -5), (15, -5))])
    assert config_from_json(json.loads(json.dumps(data))) == scenario("bifurcated-straight")
    # version 2 has no solver settings: the block is an unknown key
    with pytest.raises(ConfigError, match="unknown key solver"):
        config_from_json({**data, "solver": {"tol": 1e-10}})


def test_config_version_1_is_refused_with_its_upgrade(tmp_path, capsys):
    # version 1 configured an iterative solver that no longer exists; it
    # loaded with a warning before, and is refused as any other version is
    data = _square(version=1)
    assert cli_main(["run", _write(tmp_path, data), "--out", ""]) == 2
    assert "version must be 2, got 1" in capsys.readouterr().err


def test_config_json_omitted_keys_take_dataclass_defaults():
    # the JSON reader restates no default: what the file leaves out is
    # SimulationConfig's
    data = {"version": 2, "mesh": {"bounds": [0.0, 1.0, 0.0, 1.0], "nx": 4, "ny": 4},
            "tau": 0.01, "steps": 3, "snapshot_every": 5}
    assert config_from_json(data) == SimulationConfig(
        bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, tau=0.01, n_steps=3, snapshot_every=5)


@pytest.mark.parametrize("section,key,value", [
    (None, "steps", 2.5), ("mesh", "nx", 4.5), ("mesh", "nx", "4"),
    ("mesh", "pml_layers", 1.5), (None, "snapshot_every", 1.5), (None, "steps", True)])
def test_cli_non_integer_count_is_configuration_error(section, key, value,
                                                      tmp_path, capsys):
    # a float or string count crashed the mesh build or the time loop, a
    # float layer count or cadence was truncated, and true ran as one step;
    # a grid count must also be at least 1
    data = _square()
    (data if section is None else data[section])[key] = value
    assert cli_main(["run", _write(tmp_path, data), "--out", ""]) == 2
    err = capsys.readouterr().err
    rule = "a positive integer" if key == "nx" else "a nonnegative integer"
    assert "configuration error" in err and f"must be {rule}" in err


_GRID = {"bounds": (0.0, 1.0, 0.0, 1.0), "nx": 4, "ny": 4}


@pytest.mark.parametrize("key,value", [
    ("bounds", (1.0, 0.0, 0.0, 1.0)), ("bounds", (0.0, 1.0, 1.0, 1.0)),
    ("nx", 0), ("ny", 0),
    ("material", None), ("material", {"eps0": 1.0}), ("cfl", None),
    ("kubo", {"mu_c_ev": 1.5}), ("source", {"f0": 1}),
    ("interface", ["x"]), ("interface", "x"),
    ("interface", Segment((0.0, 0.5), (1.0, 0.5)))])
def test_config_value_breaking_its_rule_is_field_error(key, value):
    # a degenerate grid was refused by the grid generator without the
    # field's name; a block or sheet of the wrong type was accepted, then
    # the run failed with an AttributeError such as 'NoneType' object has
    # no attribute 'mu0'
    with pytest.raises(FieldError) as exc:
        SimulationConfig(**{**_GRID, key: value})
    assert exc.value.name == key


def test_config_sheet_list_is_stored_as_a_tuple_and_runs():
    seg = Segment((0.0, 0.5), (1.0, 0.5))
    cfg = SimulationConfig(**_GRID, interface=[seg], material=MaterialParams.unit(),
                           tau=0.01, n_steps=2)
    assert cfg.interface == (seg,)
    assert run(cfg, out_dir="").state.step == 2
    assert len(build_mesh_for(cfg).interface_edges()) == 4


@pytest.mark.parametrize("constant", ["q", "k_b", "hbar"])
def test_cli_kubo_block_naming_a_physical_constant_is_configuration_error(
        constant, tmp_path, capsys):
    # the charge and the Boltzmann and Planck constants are not settings
    data = _square(kubo={"mu_c_ev": 1.5, constant: 1.0})
    assert cli_main(["run", _write(tmp_path, data), "--out", ""]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"unknown key kubo.{constant}" in err


def test_run_damps_the_collar_of_a_mesh_file(tmp_path, monkeypatch):
    # a mesh file carries no layer count: run reads the collar depth from
    # the mesh, so its absorber cells get the generated mesh's damping
    generated = SimulationConfig(
        bounds=(-3 * UM, 3 * UM, -1 * UM, 1 * UM), nx=30, ny=10,
        pml_layers=4, tau=1e-17, n_steps=0, out_dir="")
    mesh_path = tmp_path / "collar.mesh"
    oracles.save_mesh(build_mesh_for(generated), mesh_path)
    from_file = config_from_json({"version": 2, "mesh": {"file": str(mesh_path)},
                                  "tau": 1e-17, "steps": 0, "out_dir": ""})

    damping = []
    assemble = harness.build_operator_set
    monkeypatch.setattr(harness, "build_operator_set",
                        lambda mesh, sx, sy: damping.append((mesh, sx, sy))
                        or assemble(mesh, sx, sy))
    run(generated)
    run(from_file)
    (_, gen_x, gen_y), (mesh, file_x, file_y) = damping
    absorber = np.any(np.abs(mesh.centroids) > [3 * UM, 1 * UM], axis=1)
    assert absorber.sum() == 768 and mesh.n_triangles == 1368
    assert np.all(np.maximum(file_x, file_y)[absorber] > 0.0)
    assert np.all(file_x[~absorber] == 0.0) and np.all(file_y[~absorber] == 0.0)
    assert file_x.max() == pytest.approx(9.43e4, rel=1e-3)
    for got, want in ((file_x, gen_x), (file_y, gen_y)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sheet_on_a_mesh_file_snaps_as_on_the_generated_mesh(tmp_path):
    # the 40x40 bifurcated mesh with its collar, saved and read back, takes
    # the bifurcated sheet, anti-diagonal staircase included, on the same edges
    generated = replace(scenario("bifurcated-straight"), nx=40, ny=40)
    mesh_path = tmp_path / "bifurcated.mesh"
    oracles.save_mesh(generate_rect_mesh(generated.bounds, 40, 40, 12), mesh_path)
    from_file = replace(generated, bounds=None, nx=None, ny=None, pml_layers=0,
                        mesh_file=str(mesh_path))
    want = build_mesh_for(generated).interface_edges()
    assert len(want) == 60
    np.testing.assert_array_equal(build_mesh_for(from_file).interface_edges(), want)


def test_cli_runs_a_sheet_on_a_graded_mesh_file(tmp_path, capsys):
    # cells from 1/256 wide at x = 0: at the starting sample spacing the
    # sheet's first step skips a vertex, and a halving joins it
    mesh_path = tmp_path / "graded.mesh"
    oracles.save_mesh(oracles.graded_mesh(16), mesh_path)
    data = {"version": 2, "mesh": {"file": str(mesh_path)},
            "interface": [{"type": "segment", "p0": [0.0, 0.53], "p1": [0.9, 0.53]}],
            "material": dict(UNIT), "tau": 1e-3, "steps": 2}
    assert cli_main(["run", _write(tmp_path, data), "--out", ""]) == 0, capsys.readouterr()
    mesh = build_mesh_for(config_from_json(data))
    ends = mesh.edges[mesh.interface_edges()]
    vertices, local = np.unique(ends, return_inverse=True)
    graph = coo_matrix((np.ones(len(ends)), local.reshape(-1, 2).T),
                       shape=(len(vertices),) * 2)
    assert len(ends) == 15 and connected_components(graph, directed=False)[0] == 1


def test_kubo_block_takes_the_material_relaxation_time():
    # the relaxation time could be set in the kubo and the material block,
    # and a config with a kubo block and another material.tau0 was refused
    cfg = SimulationConfig(bounds=(0, 1, 0, 1), nx=2, ny=2, kubo=KuboParams(mu_c_ev=1.5),
                           material=MaterialParams(tau0=2.4e-12))
    params = cfg.resolved_material()
    assert params.tau0 == 2.4e-12
    assert params.sigma0 == kubo_sigma0(KuboParams(mu_c_ev=1.5), tau0=2.4e-12)


def test_run_with_empty_out_dir_writes_nothing(tmp_path, monkeypatch, capsys):
    # an empty out_dir turns output off; it does not fall back to the
    # config's out_dir ("out" by default) in the working directory
    monkeypatch.chdir(tmp_path)
    cfg = SimulationConfig(
        bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, pml_layers=2,
        material=MaterialParams.unit(), tau=0.01, n_steps=4, snapshot_every=2)
    result = run(cfg, out_dir="")
    assert len(result.energy) == 2
    assert list(tmp_path.iterdir()) == []
    cfg_path = _write(tmp_path, _square(pml_layers=2, steps=4, snapshot_every=2))
    assert config_from_json(json.loads(Path(cfg_path).read_text())) == cfg
    assert cli_main(["run", cfg_path, "--out", ""]) == 0
    assert capsys.readouterr().out == (
        "completed 4 steps; no files written (empty --out)\n")
    assert cli_main(["scenario", "bifurcated-straight", "--steps", "2", "--out", ""]) == 0
    assert capsys.readouterr().out == ("scenario 'bifurcated-straight' finished at "
                                       "step 2; no files written (empty --out)\n")
    assert [str(p) for p in tmp_path.iterdir()] == [cfg_path]


def test_config_rejects_bad_version():
    with pytest.raises(ConfigError):
        config_from_json({"version": 99})


def test_run_tiny_simulation_writes_outputs(tmp_path):
    cfg = SimulationConfig(
        bounds=(0.0, 1.0, 0.0, 1.0), nx=4, ny=4, pml_layers=2,
        material=MaterialParams.unit(), tau=0.01, n_steps=10,
        snapshot_every=5, out_dir=str(tmp_path / "out"))
    result = run(cfg)
    out = tmp_path / "out"
    assert (out / "snap_000000.vtk").exists()
    assert (out / "snap_000010.vtk").exists()
    assert (out / "energy.csv").exists()
    assert result.state.step == 10
    # the run formats the mesh blocks once for all its snapshots; each file
    # is still what one write_snapshot call writes of a run stopped at its step
    mesh = build_mesh_for(cfg)
    for step in (0, 5, 10):
        state = run(replace(cfg, n_steps=step), out_dir="").state
        write_snapshot(state, mesh, tmp_path / "one.vtk", _vtk_geometry(mesh))
        assert ((tmp_path / "one.vtk").read_bytes()
                == (out / f"snap_{step:06d}.vtk").read_bytes())
    # a run of zero steps still writes the energy log's header
    run(replace(cfg, n_steps=0, snapshot_every=0), out_dir=str(tmp_path / "zero"))
    assert [p.name for p in (tmp_path / "zero").iterdir()] == ["energy.csv"]
    assert (tmp_path / "zero" / "energy.csv").read_text().startswith("step,time,")


def test_run_determinism(tmp_path):
    cfg = SimulationConfig(
        bounds=(0.0, 1.0, 0.0, 1.0), nx=8, ny=8,
        interface=[Segment((0.0, 0.5), (1.0, 0.5))],
        material=MaterialParams.unit(), tau=0.01, n_steps=5, snapshot_every=5,
        source=SourceSpec(((0.3, 0.3, 1.0),), f0=1.0, h_norm=1.0),
        out_dir=str(tmp_path / "a"))
    run(cfg)
    cfg2 = replace(cfg, out_dir=str(tmp_path / "b"))
    run(cfg2)
    for name in ("snap_000005.vtk", "energy.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_cli_round_trip(tmp_path, capsys):
    cfg_path = _write(tmp_path, _square(steps=3, out_dir=str(tmp_path / "cli_out")))
    assert cli_main(["run", cfg_path]) == 0
    assert cli_main(["check-cfl", cfg_path]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 2
    bad.write_bytes(b"\xff\xfe\x00")      # not UTF-8: a traceback (exit 1) before
    assert cli_main(["run", str(bad)]) == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_cli_check_cfl_flags_violation(tmp_path, capsys):
    assert cli_main(["check-cfl", _write(tmp_path, _square(tau=5.0, steps=0))]) == 2
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_check_cfl_rejects_interface_outside_physical_region(tmp_path, capsys):
    # check-cfl builds the mesh as a run does, interface snap included, so
    # a config that `run` refuses is refused here too, whatever its tau
    data = _square(pml_layers=2, tau=1e-6, steps=0, interface=[
        {"type": "segment", "p0": [-0.25, 0.5], "p1": [1.0, 0.5]}])
    assert cli_main(["check-cfl", _write(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert "leaves the physical region" in captured.err
    assert "configured tau" not in captured.out


def test_cli_convergence_smoke(capsys):
    assert cli_main(["convergence", "--mode", "coupled", "--h", "1/10"]) == 0
    out = capsys.readouterr().out
    assert "E error" in out


def test_cli_scenario_smoke(tmp_path, capsys):
    code = cli_main(["scenario", "bifurcated-straight", "--steps", "3",
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
                                  ["--mode", "coupled", "--T=-0.01"],
                                  # a singular factor (exit 4) or an
                                  # OverflowError or ValueError (exit 1) before
                                  ["--mode", "fixed", "--tau", "nan"],
                                  ["--mode", "fixed", "--tau", "inf"],
                                  ["--mode", "coupled", "--T", "inf"],
                                  ["--mode", "coupled", "--T", "nan"]])
def test_cli_convergence_rejects_bad_step_settings(args, capsys):
    assert cli_main(["convergence", "--h", "1/10", *args]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("final_time", [1e-9, 0.0101, 0.01 + 3e-7])
def test_coupled_study_refuses_final_time_between_steps(final_time):
    # h/tau_ratio = 5e-4 and 2.5e-4: errors would be reported at a rounded time
    with pytest.raises(ConfigError, match=r"final_time .* at h = 0\.(1|05)\b"):
        run_convergence_study("coupled", [1 / 10, 1 / 20], final_time=final_time)


@pytest.mark.parametrize("args,flag,mode", [
    (["--mode", "coupled", "--tau", "1e-3", "--steps", "5"], "--tau", "coupled"),
    (["--mode", "fixed", "--T", "5", "--steps", "3"], "--T", "fixed")])
def test_cli_convergence_refuses_a_flag_its_mode_does_not_read(args, flag, mode,
                                                              capsys):
    # both ran (exit 0) with the flag dropped silently; the study refuses
    # the argument the flag sets and names it
    name = {"--tau": "tau", "--T": "final_time"}[flag]
    assert cli_main(["convergence", "--h", "1/10", *args]) == 2
    assert capsys.readouterr().err == (f"configuration error: {name} is not read "
                                       f"in mode '{mode}'\n")


@pytest.mark.parametrize("mode,h_list,kwargs", [
    ("coupled", [1 / 10], {"tau": 1e-3}), ("coupled", [1 / 10], {"n_steps": 7}),
    ("fixed", [1 / 8], {"final_time": 1.0}), ("fixed", [1 / 8], {"tau_ratio": 100.0})])
def test_convergence_study_refuses_an_argument_its_mode_does_not_read(mode, h_list,
                                                                     kwargs):
    # coupled mode ran with tau=123.0 and n_steps=7 dropped silently
    (name,) = kwargs
    with pytest.raises(ConfigError, match=f"^{name} is not read in mode '{mode}'$"):
        run_convergence_study(mode, h_list, **kwargs)


def test_cli_coupled_study_refuses_final_time_between_steps(capsys):
    assert cli_main(["convergence", "--mode", "coupled", "--h", "1/10", "--T", "1e-9"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: final_time 1e-09" in err and "h = 0.1" in err


@pytest.mark.parametrize("h_list", [[0.0], [1 / 10, 0.0], [-0.1]])
def test_convergence_study_rejects_nonpositive_h(h_list):
    with pytest.raises(ConfigError, match="positive"):
        run_convergence_study("coupled", h_list)


def test_convergence_errors_decrease_monotonically():
    table = run_convergence_study("coupled", [1 / 10, 1 / 20])
    assert table.e_errors[1] < table.e_errors[0]
    assert table.h_errors[1] < table.h_errors[0]


# Cells, edges, interface edges and the snapped sheet's length over the
# true length of each published scenario.  A change to the snapping changes
# these, and should update them on purpose.
_SHEETS = {"bifurcated-straight": (30752, 46376, 150, 1.0547),
           "bifurcated-curved": (30752, 46376, 167, 1.0941),
           "adjacent-arcs": (30752, 46376, 188, 1.2580),
           "bulb": (30752, 46376, 168, 1.1474),
           "ring-resonator": (359552, 540176, 1452, 1.1336),
           "spiral": (359552, 540176, 3437, 1.2303)}


@pytest.mark.parametrize("name", _SHEETS)
def test_scenario_geometries_snap_cleanly(name):
    from sppfetd.harness import build_mesh_for
    cfg = scenario(name)
    mesh = build_mesh_for(cfg)  # tagging checks the interface invariants
    iface = mesh.interface_edges()
    ratio = (mesh.edge_lengths[iface].sum()
             / sum(prim.length() for prim in cfg.interface))
    print(f"\n[sheet] {name}: {mesh.n_triangles} cells, {mesh.n_edges} edges, "
          f"{len(iface)} interface edges, snapped/true length {ratio:.4f}")
    cells, edges, n_iface, pinned = _SHEETS[name]
    assert (mesh.n_triangles, mesh.n_edges, len(iface)) == (cells, edges, n_iface)
    assert ratio == pytest.approx(pinned, abs=5e-5)


def test_cli_source_outside_mesh_is_configuration_error(tmp_path, capsys):
    data = _square(source=_dipole(2.0, 0.5))
    assert cli_main(["run", _write(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    assert "outside the mesh" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,named", [
    ("tau", float("nan"), "tau"), ("tau", float("inf"), "tau"),
    ("material.eps0", float("nan"), "eps0"), ("material.sigma0", float("nan"), "sigma0"),
    ("kubo", {"mu_c_ev": float("inf")}, "mu_c_ev"),
    ("mesh.bounds", [0.0, 1.0, 0.0], "bounds"), ("mesh.bounds", ["a", 1, 0, 1], "bounds"),
    ("source.points", [{"position": [0.5], "sign": 1.0}], "position"),
    ("source.points", [{"position": [0.5, 0.5, 0.0], "sign": 1.0}], "position"),
    ("mesh", {"file": "nope.mesh"}, "nope.mesh"),
    ("mesh", {"file": "meshdir"}, "meshdir"),
    ("mesh", {"file": "binary.mesh"}, "binary.mesh")],
    ids=["tau-nan", "tau-inf", "eps0-nan", "sigma0-nan", "kubo-inf", "bounds-short",
         "bounds-text", "position-short", "position-long", "mesh-missing",
         "mesh-directory", "mesh-binary"])
def test_cli_malformed_config_value_is_configuration_error(key, value, named, tmp_path,
                                                           monkeypatch, capsys):
    # non-finite numbers ran into a singular matrix (exit 4) or completed
    # (exit 0); short lists, a surplus coordinate and unreadable mesh files
    # raised, or were dropped, instead of naming the key or the path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meshdir").mkdir()
    (tmp_path / "binary.mesh").write_bytes(b"\xff\xfe\x00")
    data = _square(source=_dipole(0.4, 0.4))
    *path, last = key.split(".")
    section = data
    for name in path:
        section = section[name]
    section[last] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert cli_main(["run", "cfg.json", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


# A config with every block present, in SI units on a 4x4 um square.
_FULL = {
    "version": 2,
    "mesh": {"bounds": [-2e-6, 2e-6, -2e-6, 2e-6], "nx": 10, "ny": 10, "pml_layers": 2},
    "interface": [{"type": "segment", "p0": [-2e-6, -1e-6], "p1": [2e-6, -1e-6]},
                  {"type": "arc", "center": [0.0, 0.6e-6], "radius": 0.8e-6,
                   "angle_start": 0.0, "angle_end": 3.0}],
    "material": {"eps0": 8.8541878128e-12, "mu0": 1.25663706212e-6, "tau0": 1.2e-12,
                 "sigma0": 0.0},
    "kubo": {"mu_c_ev": 1.5, "temperature": 300.0},
    "cfl": {"c_in": 1.0, "c_tr": 1.0},
    "source": {"points": [{"position": [-1e-6, 0.2e-6], "sign": 1.0},
                          {"position": [-1e-6, -0.2e-6], "sign": -1.0}],
               "f0": 1e13, "h_norm": 4e-7, "n_cycles": 3.0},
    "tau": 1e-17, "steps": 2, "snapshot_every": 1, "out_dir": "out"}
_DELETE = object()
_REPLACEMENTS = {"nan": float("nan"), "inf": float("inf"), "neg": -1, "str": "x",
                 "list": [], "del": _DELETE}
# The replacements that leave a valid config: a left-out key with a default,
# a negative angle or sign, a string directory.
_VALID = {**dict.fromkeys(["mesh.pml_layers", "material.eps0", "material.mu0",
                           "material.tau0", "material.sigma0",
                           "kubo.temperature", "cfl.c_in",
                           "cfl.c_tr", "source.n_cycles", "snapshot_every"], {"del"}),
          **dict.fromkeys(["interface[1].angle_start", "interface[1].angle_end",
                           "source.points[0].sign", "source.points[1].sign"], {"neg"}),
          "out_dir": {"str", "del"}}
# Malformed values outside the table: (key path set, value, key path named).
_PROBES = {
    "p0-short": ("interface[0].p0", [0.0], "interface[0].p0"),          # IndexError
    "p0-nan": ("interface[0].p0", [0.0, float("nan")], "interface[0].p0"),  # ValueError
    "interface-object": ("interface", {}, "interface"),       # ran without a sheet
    "points-object": ("source.points", {}, "source.points"),
    "mesh-file-descriptor": ("mesh", {"file": 0}, "mesh.file"),   # read stdin
    "mesh-file-and-grid": ("mesh", {"file": "m.mesh", "nx": 4}, "mesh.nx"),
    "out-dir-number": ("out_dir", 5, "out_dir"),     # TypeError after the last step
    # the grid generator refused these without naming the key
    "bounds-degenerate": ("mesh.bounds", [1e-5, 0.0, 0.0, 1e-5], "mesh.bounds"),
    "nx-zero": ("mesh.nx", 0, "mesh.nx"),
    "ny-zero": ("mesh.ny", 0, "mesh.ny"),
    "misspelt-key": ("snapshot_evry", 1, "snapshot_evry"),      # ran, key ignored
    # the collar's err and eta are module constants, no longer settings
    "unknown-pml": ("pml", {"err": 1e-7, "eta": 377.0}, "pml"),
    # ran with the kubo block's conductivity instead
    "kubo-material-sigma0": ("material.sigma0", 0.5, "material.sigma0"),
    # the relaxation time is set in one place, material.tau0
    "kubo-tau0": ("kubo.tau0", 1.2e-12, "kubo.tau0"),
    "kubo-material-tau0": ("material.tau0", 2.0, "material.tau0"),
    **{f"unknown-{path}": (path, 1.0, path) for path in (
        "mesh.nz", "interface[1].width", "material.epsilon", "cfl.c_x",
        "source.phase", "source.points[1].charge")}}


# The probes that leave a valid config: a kubo block computes its
# conductivity at the material's relaxation time.
_VALID_PROBES = {"kubo-material-tau0"}


def _leaves(node, path=""):
    """Key paths of the values in `node` that are neither objects nor lists of them."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path


def _locate(data, path):
    """The object or list that holds `path`, such as source.points[0].sign, and its key."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        data = data[key]
    return data, keys[-1]


_TABLE = ([pytest.param(path, value, path, case in _VALID.get(path, ()),
                        id=f"{path}-{case}")
           for path in _leaves(_FULL) for case, value in _REPLACEMENTS.items()]
          + [pytest.param(*probe, name in _VALID_PROBES, id=name)
             for name, probe in _PROBES.items()])


@pytest.mark.parametrize("path,value,named,valid", _TABLE)
def test_cli_config_leaf_runs_or_is_refused_by_key_path(path, value, named, valid,
                                                       tmp_path, capsys):
    # before, many of these ended in a traceback (exit 1), a solver failure
    # (exit 4) or a run with the value ignored; now each value is checked
    # by the dataclass that holds it and a refusal names the key path
    data = copy.deepcopy(_FULL)
    box, key = _locate(data, path)
    if value is _DELETE:
        del box[key]
    else:
        box[key] = value
    code = cli_main(["run", _write(tmp_path, data), "--out", ""])
    err = capsys.readouterr().err
    if valid:
        assert code == 0, err
    else:
        assert code == 2, err
        assert re.search(rf"^configuration error: (missing key |unknown key )?"
                         rf"{re.escape(named)}( |$)", err, re.M), err


def test_readme_configuration_example_loads():
    # the documented schema is the one the reader maps
    section = (ROOT / "README.md").read_text().split("## Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = config_from_json(json.loads(example))
    assert cfg.kubo.mu_c_ev == 1.5 and cfg.n_steps == 20000
    assert cfg.source.points[1] == (-2.7e-5, -1e-6, -1)


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # eps0 / tau^2 underflows to zero, so the step matrix is singular
    data = _square(material={"eps0": 1e-300, "mu0": 1.0, "tau0": 1.0, "sigma0": 0.0},
                   tau=1e100)
    assert cli_main(["run", _write(tmp_path, data), "--out", str(tmp_path / "o")]) == 4
    assert "solver failure" in capsys.readouterr().err


def test_manufactured_start_in_collar_completes():
    # the manufactured start has a nonzero velocity and the collar makes
    # 2 M_lead differ from a multiple of A, so the first step factors its
    # own matrix; this run once stopped when an iterative first step hit
    # its iteration cap
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4, 2)
    ops = build_operator_set(mesh, *damping_at_centroids(mesh))
    case = ManufacturedCase()
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    state = run_simulation(
        ops, case.params, 0.01, 2, source=drivers.source, dt_e0=case.dt_e0,
        extra_load=drivers.extra_load, bc_values=drivers.bc_values,
        energy_every=0).state
    assert state.step == 2 and np.abs(state.e_curr).max() > 0.0
    assert np.all(np.isfinite(state.e_curr)) and np.all(np.isfinite(state.hz))


def test_cli_blowup_exit_code(tmp_path, capsys):
    data = _square(nx=6, ny=6, tau=2.0, steps=400, source=_dipole(0.4, 0.4))
    assert cli_main(["run", _write(tmp_path, data), "--out", str(tmp_path / "o")]) == 3
    # the energy log written before the guard tripped is kept
    step = int(capsys.readouterr().err.split("at step ")[-1])
    rows = (tmp_path / "o" / "energy.csv").read_text().splitlines()
    assert rows[0].startswith("step,")
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, step))


def test_cli_nan_source_is_blowup_and_keeps_earlier_output(tmp_path, monkeypatch,
                                                           capsys):
    # a NaN source from step k ended the run in the solve, with exit 4, no
    # step, time or field named and no file written
    k, eval_source = 3, harness.eval_source

    def poisoned(spec, t, cells, n_cells):
        if round(t / 0.01) >= k:
            return np.full(n_cells, np.nan)
        return eval_source(spec, t, cells, n_cells)

    monkeypatch.setattr(harness, "eval_source", poisoned)
    data = _square(nx=6, ny=6, steps=10, snapshot_every=1, source=_dipole(0.4, 0.4))
    out = tmp_path / "o"
    assert cli_main(["run", _write(tmp_path, data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"blow-up: non-finite E at step {k + 1} "
                                       "(t = 4.000e-02 s)\n")
    assert sorted(p.name for p in out.iterdir()) == (
        ["energy.csv"] + [f"snap_{step:06d}.vtk" for step in range(k + 1)])
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, k + 1))


def test_cli_uncreatable_out_dir_fails_before_the_first_step(tmp_path, monkeypatch,
                                                            capsys):
    # an out_dir under a file ran every step, then ended in a
    # NotADirectoryError traceback (exit 1)
    (tmp_path / "afile").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run_simulation", None)   # any step would raise
    data = _square(out_dir="afile/sub", snapshot_every=1)
    assert cli_main(["run", _write(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create directory afile/sub")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["snap_000000.vtk", "energy.csv"])
def test_cli_unwritable_output_file_is_configuration_error(name, tmp_path, monkeypatch,
                                                           capsys):
    # a directory in the way of an output file gave a traceback (exit 1);
    # the energy log is opened before the first step, snapshot 0 written at it
    (tmp_path / "o" / name).mkdir(parents=True)
    if name == "energy.csv":
        monkeypatch.setattr(harness, "run_simulation", None)   # any step would raise
    data = _square(snapshot_every=1)
    assert cli_main(["run", _write(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cannot write " in err and str(tmp_path / "o" / name) in err
    assert len(err.splitlines()) == 1


def test_killed_run_keeps_the_files_written_before(tmp_path):
    # outputs are written as the run goes: a run killed once snapshot k + 1
    # exists leaves snapshots 0..k whole and the energy rows through them
    every, k, nx = 20, 3, 6
    data = _square(nx=nx, ny=nx, tau=0.001, steps=10 ** 7, snapshot_every=every)
    out = tmp_path / "o"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sppfetd.cli", "run", _write(tmp_path, data),
         "--out", str(out)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30.0
        while not (out / f"snap_{(k + 1) * every:06d}.vtk").exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no snapshot k + 1 within 30 s"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL
    nv, nt = (nx + 1) ** 2, 2 * nx * nx
    for step in range(0, (k + 1) * every, every):
        lines = (out / f"snap_{step:06d}.vtk").read_text().splitlines()
        assert lines[1].startswith(f"sppfetd step {step} ")
        assert len(lines) == 11 + nv + 4 * nt
        assert [float(v) for v in lines[-1].split()][2] == 0.0
    rows = (out / "energy.csv").read_text().splitlines()
    assert rows[0].startswith("step,")
    for row, step in zip(rows[1:k + 1], range(every, (k + 1) * every, every)):
        values = row.split(",")
        assert int(values[0]) == step and len(values) == 8
        assert all(np.isfinite([float(v) for v in values[1:]]))


def test_cli_truncated_mesh_file_is_configuration_error(tmp_path, capsys):
    mesh_path = tmp_path / "short.mesh"
    mesh_path.write_text("SPPMESH 1\nVERTICES 4\n0 0\n1 0\n")
    data = _square(mesh={"file": str(mesh_path)}, steps=1)
    assert cli_main(["run", _write(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    assert f"{mesh_path}:4: unexpected end of file" in capsys.readouterr().err


def test_cli_config_that_is_not_an_object_is_configuration_error(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "JSON object" in capsys.readouterr().err
    # nested blocks that are not objects either
    cfg = _square(nx=2, ny=2)
    for key in ("mesh", "interface"):
        cfg_path.write_text(json.dumps({**cfg, key: [1]}))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_module_entry_point_runs_convergence():
    # `python -m sppfetd.cli` is the entry point without an installed script
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sppfetd.cli", "convergence", "--mode", "coupled",
         "--h", "1/10"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "E error" in proc.stdout


def test_console_script_names_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["sppfetd"]
    assert target == "sppfetd.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli_main


def test_scenario_and_coupled_study_match_pinned_values():
    # equivalence anchor for refactors of the scheme: a coarse published
    # scenario's fields and a two-row coupled study's errors, pinned to
    # 1e-12 relative at values taken before the first step shared the
    # later steps' right-hand side
    cfg = replace(scenario("bifurcated-straight"), nx=40, ny=40, n_steps=60,
                  snapshot_every=0)
    state = run(cfg, out_dir="").state
    assert state.step == 60
    assert np.linalg.norm(state.e_curr) == pytest.approx(7.316601199014968e-07, rel=1e-12)
    assert np.linalg.norm(state.hz) == pytest.approx(0.0011911180896477767, rel=1e-12)
    table = run_convergence_study("coupled", [1 / 10, 1 / 20])
    assert table.e_errors == pytest.approx(
        [0.00808440975085654, 0.004030818132367123], rel=1e-12)
    assert table.h_errors == pytest.approx(
        [0.00014189815436925057, 7.243321473794462e-05], rel=1e-12)
