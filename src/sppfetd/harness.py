"""Scenario library, convergence study, error norms and file output."""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .assembly import assemble_edge_load, build_operator_set
from .checks import (ConfigError, FieldError, count, instance, nonnegative, numbers,
                     one_of, optional, positive, positive_count, string, validate)
from .dynamics import CflConstants, FieldState, SimulationResult, run_simulation
from .elements import (CENTROID, DEGREE3, eval_edge_field, interpolate_hcurl,
                       project_l2_p0, quad_points_physical)
from .mesh import (Arc, Mesh, Segment, generate_rect_mesh, load_mesh, sheet,
                   snap_interface)
from .physics import (KuboParams, ManufacturedCase, MaterialParams, SourceSpec,
                      damping_at_centroids, dipole_source_cells, eval_source,
                      kubo_sigma0)

MICRON = 1e-6
CONFIG_VERSION = 2


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run."""

    bounds: tuple | None = None
    nx: int | None = None
    ny: int | None = None
    pml_layers: int = 0
    mesh_file: str | None = None
    interface: tuple | None = None
    material: MaterialParams = field(default_factory=MaterialParams)
    kubo: KuboParams | None = None
    source: SourceSpec | None = None
    tau: float = 1e-16
    n_steps: int = 0
    snapshot_every: int = 0
    out_dir: str = "out"
    cfl: CflConstants = field(default_factory=CflConstants)

    def __post_init__(self):
        validate(self, bounds=optional(numbers(4)), nx=optional(positive_count),
                 ny=optional(positive_count), pml_layers=count, mesh_file=optional(string),
                 interface=optional(sheet), material=instance(MaterialParams),
                 kubo=optional(instance(KuboParams)),
                 source=optional(instance(SourceSpec)), tau=positive, n_steps=count,
                 snapshot_every=count, out_dir=string, cfl=instance(CflConstants))
        b = self.bounds
        if b is not None and not (b[0] < b[1] and b[2] < b[3]):
            raise FieldError("bounds", "x min < x max and y min < y max", b)
        # The mesh is a file, or a grid generated from bounds, nx and ny.
        for name in ("bounds", "nx", "ny"):
            if (getattr(self, name) is None) == (self.mesh_file is None):
                raise FieldError(name, "given exactly when no mesh file is",
                                 getattr(self, name))
        if self.mesh_file is not None and self.pml_layers:
            raise FieldError("pml_layers", "0 with a mesh file", self.pml_layers)
        if self.kubo is not None and self.material.sigma0 != MaterialParams.sigma0:
            raise FieldError("material.sigma0", f"left at {MaterialParams.sigma0!r} with "
                             "a kubo block, which sets it", self.material.sigma0)

    def resolved_material(self) -> MaterialParams:
        if self.kubo is not None:
            return replace(self.material,
                           sigma0=kubo_sigma0(self.kubo, self.material.tau0))
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


def l2_errors(state: FieldState, drivers: ManufacturedDrivers, t: float):
    """L2 errors of the electric and magnetic fields against the exact case.

    The exact fields are the drivers' samples at the degree-3 points times
    the case's coefficients of time: E at time t, and H at t - tau/2, half a
    step earlier, where the magnetic cell values live.
    """
    mesh, case = drivers.mesh, drivers.case
    e_ex = case.e_coeffs(t)[0] * drivers.v1
    h_ex = drivers.v1[..., 0] * np.where(drivers.upper, *case.h_coeffs(t - 0.5 * state.tau))
    diff2 = np.sum((e_ex - eval_edge_field(mesh, state.e_curr, DEGREE3)) ** 2, axis=2)
    dh2 = (h_ex - state.hz[:, None]) ** 2
    weights = 2.0 * mesh.areas[:, None] * DEGREE3.weights
    return float(np.sqrt(np.sum(weights * diff2))), float(np.sqrt(np.sum(weights * dh2)))


class ManufacturedDrivers:
    """Per-step source closures of the manufactured problem on one mesh.

    The case's drives are fixed spatial modes weighted by scalar functions
    of t, so the modes are integrated once here (cell means of ks, edge
    loads of the electric drive, Dirichlet moments on the `pec_mask` edges
    only) and a step only weighs the integrals.  The exact fields' samples
    at the degree-3 points, V1 (nt, nq, 2) and the side of the interface
    (`upper`), are kept from the same trig pass for `l2_errors`.
    """

    def __init__(self, mesh: Mesh, case: ManufacturedCase, pec_mask: np.ndarray):
        self.mesh, self.case = mesh, case
        pts = quad_points_physical(mesh, DEGREE3)
        ks_modes, e_load_modes = case.drive_modes(pts.reshape(-1, 2))   # one trig pass
        self.upper = pts[..., 1] > case.interface_y
        self.ks_means = project_l2_p0(ks_modes, mesh)
        del pts, ks_modes    # the load pass below is the set-up's memory peak
        self.e_loads = assemble_edge_load(mesh, e_load_modes) / case.params.tau0
        self.v1 = e_load_modes[0].reshape(self.upper.shape + (2,)).copy()
        self.bc_moments = interpolate_hcurl(case.e_modes, mesh, pec_mask)

    def source(self, t: float) -> np.ndarray:
        return self.case.ks_coeffs(t) @ self.ks_means

    def extra_load(self, t: float) -> np.ndarray:
        return self.case.e_load_coeffs(t) @ self.e_loads

    def bc_values(self, t: float) -> np.ndarray:
        return self.case.e_coeffs(t) @ self.bc_moments


def build_manufactured_problem(h: float):
    """Unit-square mesh with the midline interface plus assembled operators."""
    n = round(1.0 / h)
    if abs(n * h - 1.0) > 1e-12:
        raise ConfigError(f"1/h must be an integer, got h={h}")
    if n % 2 != 0:
        raise ConfigError("ny must be even so the interface lies on a grid line")
    case = ManufacturedCase()
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, 0)
    snap_interface(mesh, [Segment((0.0, case.interface_y), (1.0, case.interface_y))])
    return mesh, build_operator_set(mesh), case


def _convergence_single(h: float, mode: str, args: dict):
    if mode == "fixed":
        step_tau, steps = args["tau"], args["n_steps"]
    else:
        final_time, step_tau = args["final_time"], h / args["tau_ratio"]
        steps = round(final_time / step_tau)
        if abs(final_time / step_tau - steps) > 1e-9 * steps:
            raise ConfigError(f"final_time {final_time!r} is {final_time / step_tau:.6g} "
                              f"steps of h/tau_ratio at h = {h!r}, not a whole number")
    mesh, ops, case = build_manufactured_problem(h)
    drivers = ManufacturedDrivers(mesh, case, ops.pec_mask)
    result = run_simulation(
        ops, case.params, step_tau, steps,
        source=drivers.source, dt_e0=case.dt_e0,
        extra_load=drivers.extra_load, bc_values=drivers.bc_values, energy_every=0)
    return l2_errors(result.state, drivers, steps * step_tau)


# The arguments each study mode reads, with the rule and the default of each.
_STUDY_ARGS = {"fixed": {"tau": (positive, 1e-4), "n_steps": (count, 1000)},
               "coupled": {"final_time": (nonnegative, 0.01),
                           "tau_ratio": (positive, 200.0)}}


def run_convergence_study(mode: str, h_list, tau: float | None = None,
                          n_steps: int | None = None, final_time: float | None = None,
                          tau_ratio: float | None = None) -> ErrorTable:
    """Manufactured-solution study over a halving sequence of mesh sizes.

    mode "fixed" runs every mesh with the same small time step `tau`
    (default 1e-4) for `n_steps` steps (1000); mode "coupled" ties tau to h
    via `tau_ratio` (200) and runs to `final_time` (0.01), which must be a
    whole number of steps on each mesh.  An argument the mode does not
    read is an error.
    """
    one_of(*_STUDY_ARGS)("mode", mode)
    given = dict(tau=tau, n_steps=n_steps, final_time=final_time, tau_ratio=tau_ratio)
    for name, value in given.items():
        if value is not None and name not in _STUDY_ARGS[mode]:
            raise ConfigError(f"{name} is not read in mode {mode!r}")
    args = {name: rule(name, default if given[name] is None else given[name])
            for name, (rule, default) in _STUDY_ARGS[mode].items()}
    h_list = [positive("h", h) for h in h_list]
    for prev, cur in zip(h_list[:-1], h_list[1:]):
        if abs(prev / cur - 2.0) > 1e-9:
            raise ConfigError("mesh sizes must halve between rows")

    errors = [_convergence_single(h, mode, args) for h in h_list]
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
                  "bulb", "ring-resonator", "spiral")


def scenario(name: str) -> SimulationConfig:
    """Fully populated configuration for one of the published setups."""
    one_of(*SCENARIO_NAMES)("scenario", name)
    kubo = KuboParams(mu_c_ev=1.5)
    common = dict(pml_layers=12, tau=8.3e-17, kubo=kubo, snapshot_every=1000)
    src_f0 = 1e13

    if name == "bifurcated-straight":
        iface = [
            _um_segment((-30, 0), (-15, 0)),
            _um_segment((-15, 0), (0, 5)),
            _um_segment((0, 5), (15, 5)),
            _um_segment((-15, 0), (0, -5)),
            _um_segment((0, -5), (15, -5)),
        ]
        return SimulationConfig(
            bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(_dipole_pair(-27, 1.0, -1.0), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "bifurcated-curved":
        iface = [
            _um_segment((-28, 0), (0, 0)),
            _um_arc((7, 0), 7.0, np.pi / 2, 3 * np.pi / 2),
            _um_segment((7, 7), (15, 7)),
            _um_segment((7, -7), (15, -7)),
        ]
        return SimulationConfig(
            bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(_dipole_pair(-27, 1.0, -1.0), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "adjacent-arcs":
        return SimulationConfig(
            bounds=_WIDE, nx=100, ny=100,
            interface=_adjacent_arcs(),
            source=SourceSpec(_dipole_pair(-18, 3.5, 2.5), src_f0, 0.2 * MICRON),
            n_steps=20000, **common)

    if name == "bulb":
        iface = [
            _um_segment((-15, 2), (0, 2)),
            _um_segment((-15, -2), (0, -2)),
            _um_arc((4.8, 0.0), 5.2, _BULB_ARC[0], _BULB_ARC[1]),
        ]
        pair_top = _dipole_pair(-15, 2.5, 1.5)
        pair_bot = _dipole_pair(-15, -1.5, -2.5)
        return SimulationConfig(
            bounds=_WIDE, nx=100, ny=100, interface=iface,
            source=SourceSpec(pair_top + pair_bot, src_f0, 0.2 * MICRON),
            n_steps=10000, **common)

    if name == "ring-resonator":
        iface = [
            _um_arc((0.0, 0.0), 11.0, 0.0, 2 * np.pi),
            _um_segment((-15, 13), (15, 13)),
            _um_segment((-15, -13), (15, -13)),
        ]
        return SimulationConfig(
            bounds=_SQUARE, nx=400, ny=400, interface=iface,
            source=SourceSpec(_dipole_pair(-13, 13.5, 12.5), src_f0, 0.1 * MICRON),
            n_steps=20000, **common)

    # name == "spiral", the last one
    return SimulationConfig(
        bounds=_SQUARE, nx=400, ny=400,
        interface=_spiral_primitives(),
        source=SourceSpec(_dipole_pair(-16, -17.5, -18.5), src_f0, 0.1 * MICRON),
        n_steps=100000, pml_layers=12, tau=8.3e-17,
        kubo=KuboParams(mu_c_ev=0.8), snapshot_every=2000)


# -- runner -------------------------------------------------------------------

def build_mesh_for(config: SimulationConfig) -> Mesh:
    mesh = (load_mesh(config.mesh_file) if config.mesh_file is not None else
            generate_rect_mesh(config.bounds, config.nx, config.ny, config.pml_layers))
    if config.interface is not None:
        snap_interface(mesh, config.interface)
    return mesh


def run(config: SimulationConfig, out_dir: str | None = None) -> SimulationResult:
    """Execute a configured run, writing each snapshot and energy-log row
    as the run reaches it; a run that stops early keeps the files before."""
    mesh = build_mesh_for(config)
    params = config.resolved_material()

    ops = build_operator_set(mesh, *damping_at_centroids(mesh))

    source = None
    if config.source is not None:
        cells = dipole_source_cells(mesh, config.source)

        def source(t):
            return eval_source(config.source, t, cells, mesh.n_triangles)

    every = config.snapshot_every

    def steps(record=None):
        return run_simulation(ops, params, config.tau, config.n_steps, source=source,
                              energy_every=max(every, 1), record=record)

    out = config.out_dir if out_dir is None else out_dir
    if not out:
        return steps()
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {out}: {exc.strerror}") from exc
    geometry = _vtk_geometry(mesh) if every else None
    try:
        log = open(os.path.join(out, "energy.csv"), "w")
    except OSError as exc:
        raise ConfigError(f"cannot write energy log {exc.filename}: {exc.strerror}") from exc
    with log:
        write_energy_log(None, log)

        def record(state, report):
            if report is not None:
                write_energy_log(report, log)
            if every and state.step % every == 0:
                write_snapshot(state, mesh, os.path.join(out, f"snap_{state.step:06d}.vtk"),
                               geometry)

        return steps(record=record)


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


def write_snapshot(state: FieldState, mesh: Mesh, path, geometry: str) -> None:
    """Legacy ASCII VTK unstructured grid with the cell data Hz and E of
    `state`; `geometry` is `_vtk_geometry(mesh)`, which a run formats once
    for all its snapshots."""
    e_cells = eval_edge_field(mesh, state.e_curr, CENTROID)[:, 0, :]
    nt = mesh.n_triangles
    try:
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 2.0\n")
            f.write(f"sppfetd step {state.step} time {state.step * state.tau:.9e}\n")
            f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
            f.write(geometry)
            f.write(f"CELL_DATA {nt}\n")
            f.write("SCALARS Hz double\nLOOKUP_TABLE default\n")
            f.write(("%.9e\n" * nt) % tuple(state.hz.tolist()))
            f.write("VECTORS E double\n")
            f.write(("%.9e %.9e 0.0\n" * nt) % tuple(e_cells.ravel().tolist()))
    except OSError as exc:
        raise ConfigError(f"cannot write snapshot {path}: {exc.strerror}") from exc


def write_energy_log(rep, log) -> None:
    """Write the CSV row of the report `rep` (the energy terms and their
    total; nothing for None) to the open file `log`, after the header when
    `log` is empty, and flush."""
    try:
        if log.tell() == 0:
            log.write("step,time,kinetic,curl,magnetic,interface,curl_extra,total\n")
        if rep is not None:
            log.write(f"{rep.step},{rep.time:.12e},{rep.kinetic:.12e},"
                      f"{rep.curl:.12e},{rep.magnetic:.12e},{rep.interface:.12e},"
                      f"{rep.curl_extra:.12e},{rep.total:.12e}\n")
        log.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write energy log {log.name}: {exc.strerror}") from exc


# -- JSON configuration -------------------------------------------------------

# The SimulationConfig field that each key path of a file sets directly.
_FIELDS = {"tau": "tau", "steps": "n_steps", "snapshot_every": "snapshot_every",
           "out_dir": "out_dir", "mesh.file": "mesh_file", "mesh.bounds": "bounds",
           "mesh.nx": "nx", "mesh.ny": "ny", "mesh.pml_layers": "pml_layers"}
_BLOCKS = {"material": MaterialParams, "kubo": KuboParams, "cfl": CflConstants}
_PRIMITIVES = {"segment": Segment, "arc": Arc}


def _build(path: str, make, keys: dict, /, **kwargs):
    """`make(**kwargs)`, a FieldError re-raised under `path` and its `keys` entry."""
    try:
        return make(**kwargs)
    except FieldError as exc:
        raise ConfigError(f"{path}{keys.get(exc.name, exc.name)} {exc.detail}") from None


def _object(value, path: str, required=(), optional=()) -> dict:
    """`value`, if a JSON object with the `required` keys and no others but `optional`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path.rstrip('.') or 'configuration'} must be a JSON "
                          f"object, got {value!r}")
    problems = ([f"missing key {path}{key}" for key in required if key not in value]
                + [f"unknown key {path}{key}" for key in value
                   if key not in required and key not in optional])
    if problems:
        raise ConfigError("; ".join(problems))
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    return value


def _holder(cls, value, path: str):
    """`cls` built from a JSON object whose keys are its fields."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    value = _object(value, path, required, [f.name for f in fields(cls)])
    return _build(path, cls, {}, **value)


def _primitive(item, path: str):
    kind = _object(item, path, ("type",), item)["type"]
    _build(path, one_of(*_PRIMITIVES), {}, name="type", value=kind)
    return _holder(_PRIMITIVES[kind], {k: v for k, v in item.items() if k != "type"}, path)


def _source(value) -> SourceSpec:
    """A source block, each point {"position": [x, y], "sign": s} as (x, y, s)."""
    src = _object(value, "source.", ("points", "f0", "h_norm"), ("n_cycles",))
    points = []
    for i, item in enumerate(_list(src["points"], "source.points")):
        point = _object(item, f"source.points[{i}].", ("position", "sign"))
        points.append((*_list(point["position"], f"source.points[{i}].position"),
                       point["sign"]))
    return _build("source.", SourceSpec, {}, **{**src, "points": points})


def config_from_json(data) -> SimulationConfig:
    """The configuration a parsed JSON file describes; a key it does not map is an error."""
    _object(data, "", ("version", "mesh", "tau", "steps"),
            ("snapshot_every", "out_dir", "interface", "source", *_BLOCKS))
    if data["version"] != CONFIG_VERSION:
        raise ConfigError(f"version must be {CONFIG_VERSION}, got {data['version']!r}")
    mesh = _object(data["mesh"], "mesh.", (), ("file", "bounds", "nx", "ny", "pml_layers"))
    kwargs = {_FIELDS[key]: value for key, value in data.items() if key in _FIELDS}
    kwargs.update((_FIELDS["mesh." + key], value) for key, value in mesh.items())
    kwargs.update((key, _holder(cls, data[key], key + "."))
                  for key, cls in _BLOCKS.items() if key in data)
    if "interface" in data:
        kwargs["interface"] = [_primitive(item, f"interface[{i}].") for i, item
                               in enumerate(_list(data["interface"], "interface"))]
    if "source" in data:
        kwargs["source"] = _source(data["source"])
    return _build("", SimulationConfig, {v: k for k, v in _FIELDS.items()}, **kwargs)


def load_config(path) -> SimulationConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(data)
