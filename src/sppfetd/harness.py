"""Scenario library, convergence study, error norms and file output."""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import assemble_edge_load, build_operator_set
from .dynamics import (BlowUpError, CflConstants, FieldState,
                       SimulationResult, Snapshot, run_simulation)
from .elements import (eval_edge_field, interpolate_hcurl, project_l2_p0,
                       quad_points_physical, triangle_quadrature)
from .mesh import (Arc, InterfaceSpec, Mesh, Segment,
                   generate_rect_mesh, load_mesh, snap_interface)
from .physics import (COLLAR_IMPEDANCE, COLLAR_REFLECTION, KuboParams,
                      ManufacturedCase, MaterialParams, SourceSpec,
                      damping_at_centroids, dipole_source_cells, eval_source,
                      kubo_sigma0)

MICRON = 1e-6
CONFIG_VERSION = 2


class ConfigError(ValueError):
    """Invalid simulation configuration."""


def _finite_numbers(values, n: int, key: str) -> tuple:
    """`values` as a tuple, if it is `n` finite real numbers."""
    values = tuple(values)
    if len(values) != n or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            for v in values):
        raise ConfigError(f"{key} must be {n} finite numbers, got {list(values)!r}")
    return values


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run."""

    name: str = "custom"
    bounds: tuple | None = None
    nx: int | None = None
    ny: int | None = None
    pml_layers: int = 0
    mesh_file: str | None = None
    interface: InterfaceSpec | None = None
    material: MaterialParams = field(default_factory=MaterialParams)
    kubo: KuboParams | None = None
    pml_err: float = COLLAR_REFLECTION
    pml_eta: float = COLLAR_IMPEDANCE
    source: SourceSpec | None = None
    tau: float = 1e-16
    n_steps: int = 0
    snapshot_every: int = 0
    out_dir: str = "out"
    cfl: CflConstants = field(default_factory=CflConstants)
    manufactured: bool = False

    def __post_init__(self):
        for name in ("n_steps", "snapshot_every", "pml_layers", "nx", "ny"):
            value = getattr(self, name)
            count = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (count and value >= 0 or value is None and name in ("nx", "ny")):
                raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.bounds is not None:
            _finite_numbers(self.bounds, 4, "bounds")
        if not 0.0 < self.tau < np.inf:
            raise ConfigError(f"tau must be finite and positive, got {self.tau!r}")
        if not 0.0 < self.pml_err < 1.0:
            raise ConfigError("pml reflection target must lie in (0, 1)")
        if self.pml_eta <= 0:
            raise ConfigError("pml impedance must be positive")

    def resolved_material(self) -> MaterialParams:
        if self.kubo is not None:
            return replace(self.material, tau0=self.kubo.tau0,
                           sigma0=kubo_sigma0(self.kubo))
        return self.material


@dataclass
class ErrorTable:
    """Mesh sizes, L2 errors and observed halving rates."""

    hs: list
    e_errors: list
    h_errors: list

    def rates(self, errors) -> list:
        """log2 of successive error ratios; None for the first row or a zero error."""
        out = [None]
        for prev, cur in zip(errors[:-1], errors[1:]):
            out.append(float(np.log2(prev / cur)) if prev > 0.0 and cur > 0.0 else None)
        return out

    @property
    def e_rates(self):
        return self.rates(self.e_errors)

    @property
    def h_rates(self):
        return self.rates(self.h_errors)

    def __str__(self):
        lines = [f"{'h':>10} {'E error':>14} {'rate':>9} {'H error':>14} {'rate':>9}"]
        for h, ee, re_, eh, rh in zip(self.hs, self.e_errors, self.e_rates,
                                      self.h_errors, self.h_rates):
            re_s = f"{re_:9.6f}" if re_ is not None else " " * 9
            rh_s = f"{rh:9.6f}" if rh is not None else " " * 9
            lines.append(f"{h:10.6f} {ee:14.6e} {re_s} {eh:14.6e} {rh_s}")
        return "\n".join(lines)


def l2_errors(state: FieldState, case: ManufacturedCase, mesh: Mesh, t: float):
    """L2 errors of the electric and magnetic fields against the exact case.

    The electric field is compared at time t; the magnetic cell values live
    half a step earlier and are compared at t - tau/2.
    """
    rule = triangle_quadrature(3)
    pts = quad_points_physical(mesh, rule)
    e_ex, h_ex = case.exact_fields(pts.reshape(-1, 2), t, t - 0.5 * state.tau)
    diff2 = np.sum((e_ex.reshape(pts.shape)
                    - eval_edge_field(mesh, state.e_curr, rule)) ** 2, axis=2)
    dh2 = (h_ex.reshape(pts.shape[:2]) - state.hz[:, None]) ** 2
    weights = 2.0 * mesh.areas[:, None] * rule.weights
    return float(np.sqrt(np.sum(weights * diff2))), float(np.sqrt(np.sum(weights * dh2)))


class ManufacturedDrivers:
    """Per-step source closures of the manufactured problem on one mesh.

    The case's drives are fixed spatial modes weighted by scalar functions
    of t, so the modes are integrated once here (cell means of ks, edge
    loads of the electric drive, Dirichlet moments on the `pec_mask` edges
    only) and a step only weighs the integrals.
    """

    def __init__(self, mesh: Mesh, case: ManufacturedCase, pec_mask: np.ndarray):
        self.case = case
        self.ks_means = project_l2_p0(case.ks_modes, mesh)
        self.e_loads = assemble_edge_load(mesh, case.e_load_modes) / case.params.tau0
        self.bc_moments = interpolate_hcurl(case.e_modes, mesh, pec_mask)

    def source(self, t: float) -> np.ndarray:
        return self.case.ks_coeffs(t) @ self.ks_means

    def extra_load(self, t: float) -> np.ndarray:
        return self.case.e_load_coeffs(t) @ self.e_loads

    def bc_values(self, t: float) -> np.ndarray:
        return self.case.e_coeffs(t) @ self.bc_moments


def build_manufactured_problem(h: float, params: MaterialParams | None = None):
    """Unit-square mesh with the midline interface plus assembled operators."""
    n = round(1.0 / h)
    if abs(n * h - 1.0) > 1e-12:
        raise ConfigError(f"1/h must be an integer, got h={h}")
    if n % 2 != 0:
        raise ConfigError("ny must be even so the interface lies on a grid line")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, 0)
    snap_interface(mesh, InterfaceSpec([Segment((0.0, 0.5), (1.0, 0.5))]))
    ops = build_operator_set(mesh)
    case = ManufacturedCase(params or MaterialParams.unit())
    return mesh, ops, case


def _convergence_single(h: float, mode: str, tau: float, n_steps: int,
                        final_time: float, tau_ratio: float):
    mesh, ops, case = build_manufactured_problem(h)
    if mode == "fixed":
        step_tau, steps = tau, n_steps
    else:
        step_tau = h / tau_ratio
        steps = round(final_time / step_tau)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    result = run_simulation(
        ops, case.params, step_tau, steps,
        source=drivers.source, dt_e0=case.dt_e0,
        extra_load=drivers.extra_load, bc_values=drivers.bc_values,
        snapshot_every=0, energy_every=0)
    return l2_errors(result.state, case, mesh, steps * step_tau)


def run_convergence_study(mode: str, h_list, tau: float = 1e-4,
                          n_steps: int = 1000, final_time: float = 0.01,
                          tau_ratio: float = 200.0) -> ErrorTable:
    """Manufactured-solution study over a halving sequence of mesh sizes.

    mode "fixed" runs every mesh with the same small time step for
    `n_steps` steps; mode "coupled" ties tau to h via `tau_ratio` and runs
    to `final_time`.
    """
    if mode not in ("fixed", "coupled"):
        raise ConfigError(f"unknown convergence mode '{mode}'")
    h_list = list(h_list)
    if not all(h > 0 for h in h_list):
        raise ConfigError("mesh sizes must be positive")
    for prev, cur in zip(h_list[:-1], h_list[1:]):
        if abs(prev / cur - 2.0) > 1e-9:
            raise ConfigError("mesh sizes must halve between rows")
    if mode == "fixed" and (tau <= 0 or n_steps < 0):
        raise ConfigError("fixed mode needs a positive tau and nonnegative steps")
    if mode == "coupled" and (tau_ratio <= 0 or final_time < 0):
        raise ConfigError("coupled mode needs a positive tau ratio and "
                          "nonnegative final time")

    errors = [_convergence_single(h, mode, tau, n_steps, final_time, tau_ratio)
              for h in h_list]
    return ErrorTable(hs=h_list,
                      e_errors=[e for e, _ in errors],
                      h_errors=[h for _, h in errors])


# -- scenario library ---------------------------------------------------------

_WIDE = (-30 * MICRON, 30 * MICRON, -10 * MICRON, 10 * MICRON)
_SQUARE = (-20 * MICRON, 20 * MICRON, -20 * MICRON, 20 * MICRON)


def _um_segment(p0, p1) -> Segment:
    return Segment((p0[0] * MICRON, p0[1] * MICRON),
                   (p1[0] * MICRON, p1[1] * MICRON))


def _um_arc(center, radius, a0, a1) -> Arc:
    return Arc((center[0] * MICRON, center[1] * MICRON), radius * MICRON, a0, a1)


def _dipole_pair(x, y_top, y_bot):
    return ((x * MICRON, y_top * MICRON, 1.0), (x * MICRON, y_bot * MICRON, -1.0))


def _adjacent_arcs():
    hy = 0.2
    up0, up1 = np.arctan2(4.5, -6.0), np.arctan2(4.5, 6.0)
    dn0, dn1 = np.arctan2(-4.5, -6.0), np.arctan2(-4.5, 6.0)
    return [
        _um_arc((-18.0, -4.5), 7.5, up0, up1),
        _um_arc((-6.0, 4.5 - 2 * hy), 7.5, dn0, dn1),
        _um_arc((6.0, -4.5), 7.5, up0, up1),
        _um_arc((18.0, 4.5 - 2 * hy), 7.5, dn0, dn1),
    ]


def _spiral_primitives():
    w = 4.0
    prims = []
    for k in range(1, 8):
        if k % 2 == 1:  # upper half turns centred on the origin
            prims.append(_um_arc((0.0, 0.0), (k + 1) / 2 * w, np.pi, 0.0))
        else:           # lower half turns centred on (-w/2, 0)
            prims.append(_um_arc((-w / 2, 0.0), (k + 2) / 2 * w, 0.0, -np.pi))
    r = np.sqrt(290.0)
    prims.append(_um_arc((-1.0, -1.0), r, np.arctan2(1.0, 17.0), np.arctan2(-17.0, 1.0)))
    prims.append(_um_segment((0.0, -4.5 * w), (-4.5 * w, -4.5 * w)))
    return prims


_BULB_ARC = (np.arctan2(2.0, -4.8), -np.arctan2(2.0, -4.8))

SCENARIO_NAMES = ("bifurcated-straight", "bifurcated-curved", "adjacent-arcs",
                  "bulb", "ring-resonator", "spiral", "convergence")


def scenario(name: str) -> SimulationConfig:
    """Fully populated configuration for one of the published setups."""
    kubo = KuboParams(mu_c_ev=1.5)
    common = dict(pml_layers=12, tau=8.3e-17, kubo=kubo, snapshot_every=1000)
    src_f0 = 1e13

    if name == "bifurcated-straight":
        iface = InterfaceSpec([
            _um_segment((-30, 0), (-15, 0)),
            _um_segment((-15, 0), (0, 5)),
            _um_segment((0, 5), (15, 5)),
            _um_segment((-15, 0), (0, -5)),
            _um_segment((0, -5), (15, -5)),
        ])
        return SimulationConfig(
            name=name, bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(_dipole_pair(-27, 1.0, -1.0), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "bifurcated-curved":
        iface = InterfaceSpec([
            _um_segment((-28, 0), (0, 0)),
            _um_arc((7, 0), 7.0, np.pi / 2, 3 * np.pi / 2),
            _um_segment((7, 7), (15, 7)),
            _um_segment((7, -7), (15, -7)),
        ])
        return SimulationConfig(
            name=name, bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(_dipole_pair(-27, 1.0, -1.0), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "adjacent-arcs":
        return SimulationConfig(
            name=name, bounds=_WIDE, nx=100, ny=100,
            interface=InterfaceSpec(_adjacent_arcs()),
            source=SourceSpec(_dipole_pair(-18, 3.5, 2.5), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "bulb":
        iface = InterfaceSpec([
            _um_segment((-15, 2), (0, 2)),
            _um_segment((-15, -2), (0, -2)),
            _um_arc((4.8, 0.0), 5.2, _BULB_ARC[0], _BULB_ARC[1]),
        ])
        pair_top = _dipole_pair(-15, 2.5, 1.5)
        pair_bot = _dipole_pair(-15, -1.5, -2.5)
        return SimulationConfig(
            name=name, bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(pair_top + pair_bot, src_f0, 0.2 * MICRON),
            n_steps=10000, **common)

    if name == "ring-resonator":
        iface = InterfaceSpec([
            _um_arc((0.0, 0.0), 11.0, 0.0, 2 * np.pi),
            _um_segment((-15, 13), (15, 13)),
            _um_segment((-15, -13), (15, -13)),
        ])
        return SimulationConfig(
            name=name, bounds=_SQUARE, nx=400, ny=400, interface=iface,
            source=SourceSpec(_dipole_pair(-13, 13.5, 12.5), src_f0, 0.1 * MICRON),
            n_steps=20000, **common)

    if name == "spiral":
        return SimulationConfig(
            name=name, bounds=_SQUARE, nx=400, ny=400,
            interface=InterfaceSpec(_spiral_primitives()),
            source=SourceSpec(_dipole_pair(-16, -17.5, -18.5), src_f0, 0.1 * MICRON),
            n_steps=100000, pml_layers=12, tau=8.3e-17,
            kubo=KuboParams(mu_c_ev=0.8), snapshot_every=2000)

    if name == "convergence":
        return SimulationConfig(
            name=name, bounds=(0.0, 1.0, 0.0, 1.0), nx=20, ny=20, pml_layers=0,
            interface=InterfaceSpec([Segment((0.0, 0.5), (1.0, 0.5))]),
            material=MaterialParams.unit(), tau=1e-4, n_steps=1000,
            manufactured=True)

    raise ConfigError(f"unknown scenario '{name}'; valid names: "
                      + ", ".join(SCENARIO_NAMES))


# -- runner -------------------------------------------------------------------

def build_mesh_for(config: SimulationConfig) -> Mesh:
    if config.mesh_file is not None:
        mesh = load_mesh(config.mesh_file)
    else:
        if config.bounds is None or config.nx is None or config.ny is None:
            raise ConfigError("config needs either a mesh file or bounds/nx/ny")
        mesh = generate_rect_mesh(config.bounds, config.nx, config.ny,
                                  config.pml_layers)
    if config.interface is not None:
        snap_interface(mesh, config.interface)
    return mesh


def run(config: SimulationConfig, out_dir: str | None = None) -> SimulationResult:
    """Execute a configured run and write snapshots plus the energy log."""
    mesh = build_mesh_for(config)
    params = config.resolved_material()

    ops = build_operator_set(
        mesh, *damping_at_centroids(mesh, config.pml_err, config.pml_eta))

    source = extra_load = bc_values = dt_e0 = None
    if config.manufactured:
        case = ManufacturedCase(params)
        drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
        source, extra_load = drivers.source, drivers.extra_load
        bc_values, dt_e0 = drivers.bc_values, case.dt_e0
    elif config.source is not None:
        try:
            cells = dipole_source_cells(mesh, config.source)
        except ValueError as exc:   # a dipole outside the mesh or in the collar
            raise ConfigError(str(exc)) from exc

        def source(t):
            return eval_source(config.source, t, cells, mesh.n_triangles)

    out = config.out_dir if out_dir is None else out_dir
    try:
        result = run_simulation(
            ops, params, config.tau, config.n_steps, source=source,
            dt_e0=dt_e0, extra_load=extra_load, bc_values=bc_values,
            snapshot_every=config.snapshot_every,
            energy_every=max(config.snapshot_every, 1) if config.n_steps else 0)
    except BlowUpError as exc:
        # Keep the diagnostics written up to the failing step.
        _write_outputs(exc.result, mesh, out)
        raise
    _write_outputs(result, mesh, out)
    return result


def _write_outputs(result: SimulationResult, mesh: Mesh, out) -> None:
    if out:
        os.makedirs(out, exist_ok=True)
        geometry = _vtk_geometry(mesh) if result.snapshots else None
        for snap in result.snapshots:
            write_snapshot(snap, mesh, os.path.join(out, f"snap_{snap.step:06d}.vtk"),
                           geometry)
        write_energy_log(result.energy, os.path.join(out, "energy.csv"))


# -- output -------------------------------------------------------------------

def _vtk_geometry(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES blocks of a snapshot of `mesh`."""
    nv = mesh.n_vertices
    nt = mesh.n_triangles
    return (f"POINTS {nv} double\n"
            + ("%.9e %.9e 0.0\n" * nv) % tuple(mesh.vertices.ravel().tolist())
            + f"CELLS {nt} {4 * nt}\n"
            + ("3 %d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist())
            + f"CELL_TYPES {nt}\n" + "5\n" * nt)


def write_snapshot(snap: Snapshot, mesh: Mesh, path, geometry: str) -> None:
    """Legacy ASCII VTK unstructured grid with cell data Hz and E; `geometry`
    is `_vtk_geometry(mesh)`, which a run formats once for all snapshots."""
    e_cells = eval_edge_field(mesh, snap.e, triangle_quadrature(1))[:, 0, :]
    nt = mesh.n_triangles
    try:
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 2.0\n")
            f.write(f"sppfetd step {snap.step} time {snap.time:.9e}\n")
            f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
            f.write(geometry)
            f.write(f"CELL_DATA {nt}\n")
            f.write("SCALARS Hz double\nLOOKUP_TABLE default\n")
            f.write(("%.9e\n" * nt) % tuple(snap.hz.tolist()))
            f.write("VECTORS E double\n")
            f.write(("%.9e %.9e 0.0\n" * nt) % tuple(e_cells.ravel().tolist()))
    except OSError as exc:
        raise OSError(f"failed to write snapshot {path}: {exc}") from exc


def write_energy_log(series, path) -> None:
    """CSV with one row per logged step: the energy terms and their total."""
    try:
        with open(path, "w") as f:
            f.write("step,time,kinetic,curl,magnetic,interface,curl_extra,total\n")
            for rep in series:
                f.write(f"{rep.step},{rep.time:.12e},{rep.kinetic:.12e},"
                        f"{rep.curl:.12e},{rep.magnetic:.12e},{rep.interface:.12e},"
                        f"{rep.curl_extra:.12e},{rep.total:.12e}\n")
    except OSError as exc:
        raise OSError(f"failed to write energy log {path}: {exc}") from exc


# -- JSON configuration -------------------------------------------------------

def _interface_to_json(spec: InterfaceSpec | None):
    if spec is None:
        return None
    out = []
    for prim in spec.primitives:
        if isinstance(prim, Segment):
            out.append({"type": "segment", "p0": list(prim.p0), "p1": list(prim.p1)})
        elif isinstance(prim, Arc):
            out.append({"type": "arc", "center": list(prim.center),
                        "radius": prim.radius, "angle_start": prim.angle_start,
                        "angle_end": prim.angle_end})
        else:
            raise ConfigError(f"unknown primitive {type(prim).__name__}")
    return out


def _interface_from_json(items):
    if items is None:
        return None
    prims = []
    for item in items:
        kind = item.get("type")
        if kind == "segment":
            prims.append(Segment(tuple(item["p0"]), tuple(item["p1"])))
        elif kind == "arc":
            prims.append(Arc(tuple(item["center"]), item["radius"],
                             item["angle_start"], item["angle_end"]))
        else:
            raise ConfigError(f"unknown interface primitive type {kind!r}")
    return InterfaceSpec(prims)


def config_to_json(config: SimulationConfig) -> dict:
    data = {
        "version": CONFIG_VERSION,
        "name": config.name,
        "mesh": ({"file": config.mesh_file} if config.mesh_file else
                 {"bounds": list(config.bounds), "nx": config.nx, "ny": config.ny,
                  "pml_layers": config.pml_layers}),
        "interface": _interface_to_json(config.interface),
        "material": {"eps0": config.material.eps0, "mu0": config.material.mu0,
                     "tau0": config.material.tau0, "sigma0": config.material.sigma0},
        "pml": {"err": config.pml_err, "eta": config.pml_eta},
        "tau": config.tau,
        "steps": config.n_steps,
        "snapshot_every": config.snapshot_every,
        "out_dir": config.out_dir,
        "cfl": {"c_in": config.cfl.c_in, "c_tr": config.cfl.c_tr},
        "manufactured": config.manufactured,
    }
    if config.kubo is not None:
        data["kubo"] = {"mu_c_ev": config.kubo.mu_c_ev, "tau0": config.kubo.tau0,
                        "temperature": config.kubo.temperature}
    if config.source is not None:
        data["source"] = {
            "points": [{"position": [x, y], "sign": s}
                       for x, y, s in config.source.points],
            "f0": config.source.f0, "h_norm": config.source.h_norm,
            "n_cycles": config.source.n_cycles}
    return data


def config_from_json(data: dict) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object, "
                          f"not {type(data).__name__}")
    if data.get("version") not in (1, CONFIG_VERSION):
        raise ConfigError(f"unsupported config version {data.get('version')!r}")
    if "solver" in data:
        # Version 1 configured an iterative solver; the step matrix is now
        # factored directly, so those settings have no effect.
        warnings.warn("ignoring the obsolete 'solver' block of the configuration",
                      stacklevel=2)
    try:
        mesh_spec = data["mesh"]
        kwargs = dict(interface=_interface_from_json(data.get("interface")),
                      tau=data["tau"], n_steps=data["steps"])
        # A key the JSON leaves out keeps SimulationConfig's default.
        kwargs.update((key, value) for key, value in data.items()
                      if key in ("name", "snapshot_every", "out_dir", "manufactured"))
        kwargs.update((f"pml_{key}", value) for key, value in data.get("pml", {}).items()
                      if key in ("err", "eta"))
        if "file" in mesh_spec:
            kwargs["mesh_file"] = mesh_spec["file"]
        else:
            kwargs.update(bounds=tuple(mesh_spec["bounds"]), nx=mesh_spec["nx"],
                          ny=mesh_spec["ny"])
            if "pml_layers" in mesh_spec:
                kwargs["pml_layers"] = mesh_spec["pml_layers"]
        if "material" in data:
            kwargs["material"] = MaterialParams(**data["material"])
        if "kubo" in data:
            kwargs["kubo"] = KuboParams(**data["kubo"])
        if "source" in data and data["source"] is not None:
            src = data["source"]
            points = tuple((*_finite_numbers(p["position"], 2, "source position"),
                            p["sign"]) for p in src["points"])
            kwargs["source"] = SourceSpec(points, src["f0"], src["h_norm"],
                                          src.get("n_cycles"))
        if "cfl" in data:
            kwargs["cfl"] = CflConstants(**data["cfl"])
        return SimulationConfig(**kwargs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path) -> SimulationConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(data)
