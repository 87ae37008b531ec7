"""Physical parameters, graphene conductivity, collar damping and sources.

Includes the separable exact solution used by the convergence harness: a
time-periodic field on the unit square whose magnetic part differs above
and below the horizontal interface y = 0.5, together with the volume
source terms that make it satisfy the interface model exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import (ConfigError, FieldError, finite, nonnegative, numbers, optional,
                     positive, validate)
from .mesh import Mesh

EPSILON_0 = 8.8541878128e-12   # F/m
MU_0 = 1.25663706212e-6        # H/m
Q_E = 1.6022e-19               # elementary charge, C
K_B = 1.3806e-23               # Boltzmann constant, J/K
HBAR = 1.0546e-34              # reduced Planck constant, J s
COLLAR_REFLECTION = 1e-7       # target reflection of the absorbing collar
COLLAR_IMPEDANCE = 377.0       # wave impedance in the collar's ramp, ohm


@dataclass(frozen=True)
class MaterialParams:
    """Vacuum constants plus the graphene relaxation time and conductivity."""

    eps0: float = EPSILON_0
    mu0: float = MU_0
    tau0: float = 1.2e-12      # s
    sigma0: float = 0.0        # S

    def __post_init__(self):
        validate(self, eps0=positive, mu0=positive, tau0=positive, sigma0=nonnegative)

    @property
    def c_v(self) -> float:
        """Wave propagation speed 1/sqrt(eps0 mu0)."""
        return 1.0 / np.sqrt(self.eps0 * self.mu0)

    @classmethod
    def unit(cls) -> "MaterialParams":
        return cls(eps0=1.0, mu0=1.0, tau0=1.0, sigma0=1.0)


@dataclass(frozen=True)
class KuboParams:
    """Inputs of the intraband surface-conductivity formula."""

    mu_c_ev: float                 # chemical potential, eV
    temperature: float = 300.0     # K

    def __post_init__(self):
        validate(self, mu_c_ev=positive, temperature=positive)


def kubo_sigma0(params: KuboParams, tau0: float = MaterialParams.tau0) -> float:
    """Intraband surface conductivity magnitude in siemens, for the
    relaxation time `tau0` in seconds.

    The printed closed form carries a leading minus and evaluates negative
    for positive chemical potential; the model requires a positive surface
    conductivity, so the magnitude is returned.
    """
    kbt = K_B * params.temperature
    x = params.mu_c_ev * Q_E / kbt
    bracket = x + 2.0 * np.log(np.exp(-x) + 1.0)
    prefactor = Q_E ** 2 * kbt * tau0 / (np.pi * HBAR ** 2)
    return float(prefactor * bracket)


def damping_at_centroids(mesh: Mesh):
    """(sigma_x, sigma_y) of the absorbing collar at the cell centroids.

    On each axis the collar depth d is how far the mesh extends beyond
    `mesh.physical_bounds`, the larger of the two sides.  A centroid at
    distance s outside the physical rectangle gets the quartic ramp
    sigma_max (s / d)^4, with sigma_max = -(m + 1) ln(err) / (2 d eta),
    m = 4, err = COLLAR_REFLECTION and eta = COLLAR_IMPEDANCE.  Centroids
    inside the rectangle get exact zeros, and so does every cell on an axis
    where the mesh has no collar.
    """
    err, eta, sigmas = COLLAR_REFLECTION, COLLAR_IMPEDANCE, []
    for axis, (lo, hi) in enumerate(np.reshape(mesh.physical_bounds, (2, 2))):
        coord = mesh.centroids[:, axis]
        extent = mesh.vertices[:, axis]
        depth = max(lo - extent.min(), extent.max() - hi)
        if depth > 0.0:
            beyond = np.maximum(np.maximum(lo - coord, coord - hi), 0.0)
            sigma_max = -np.log(err) * 5.0 / (2.0 * depth * eta)
            sigmas.append(sigma_max * (beyond / depth) ** 4)
        else:
            sigmas.append(np.zeros_like(coord))
    return tuple(sigmas)


@dataclass(frozen=True)
class SourceSpec:
    """Point dipole drive K_s = sign * sin(2 pi f0 t) / h_norm per source cell.

    `n_cycles` optionally gates the drive off after that many periods.
    """

    points: tuple                 # ((x, y, sign), ...)
    f0: float
    h_norm: float
    n_cycles: float | None = None

    def __post_init__(self):
        validate(self, points=_dipoles, f0=positive, h_norm=positive,
                 n_cycles=optional(positive))

    def amplitude(self, t: float) -> float:
        if self.n_cycles is not None and t * self.f0 >= self.n_cycles:
            return 0.0
        return np.sin(2.0 * np.pi * self.f0 * t) / self.h_norm


def _dipoles(name: str, points) -> tuple:
    """Dipoles (x, y, sign), each part checked under its key in a JSON file."""
    if not (isinstance(points, (list, tuple))
            and all(isinstance(p, (list, tuple)) and p for p in points)):
        raise FieldError(name, "a list of (x, y, sign) dipoles", points)
    return tuple((*numbers(2)(f"{name}[{i}].position", p[:-1]),
                  finite(f"{name}[{i}].sign", p[-1])) for i, p in enumerate(points))


def locate_cell(mesh: Mesh, point) -> int:
    """Lowest-index cell containing `point` (deterministic on shared edges);
    only cells with their centroid within a cell extent per axis are tested."""
    p = np.asarray(point, dtype=float)
    tol = 1e-12
    reach = (1.0 + tol) * np.array([mesh.h_x, mesh.h_y])
    near = np.flatnonzero(np.all(np.abs(mesh.centroids - p) <= reach, axis=1))
    tris = mesh.vertices[mesh.triangles[near]]
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    rel = p[None, :] - tris[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)
    hits = near[inside]
    if len(hits) == 0:
        raise ConfigError(f"point {tuple(p)} lies outside the mesh")
    return int(hits[0])


def dipole_source_cells(mesh: Mesh, spec: SourceSpec) -> list:
    """Map each dipole point to its containing physical cell, as (cell, sign)."""
    out, (lo, hi) = [], np.reshape(mesh.physical_bounds, (2, 2)).T
    for x, y, sign in spec.points:
        cell = locate_cell(mesh, (x, y))
        if np.any((mesh.centroids[cell] < lo) | (mesh.centroids[cell] > hi)):
            raise ConfigError(f"dipole source at ({x}, {y}) lies in the absorbing collar")
        out.append((cell, float(sign)))
    return out


def eval_source(spec: SourceSpec, t: float, source_cells, n_cells: int) -> np.ndarray:
    """Per-cell K_s values at time t (zero away from the source cells)."""
    ks = np.zeros(n_cells)
    amp = spec.amplitude(t)
    for cell, sign in source_cells:
        ks[cell] += sign * amp
    return ks


class ManufacturedCase:
    """Exact solution and source terms for the convergence study.

    The electric field is globally smooth; the magnetic field takes
    different closed forms above (branch 1) and below (branch 2) the
    interface y = 0.5.  On the interface both branches and the tangential
    electric field vanish, so the interface terms drop out exactly.

    The volume sources are defined so the pair satisfies the interface
    model with sources: f_vec = eps0 dE/dt - curl H and
    f_sca = mu0 dH/dt + curl E per subdomain; the scheme consumes them as
    ks = -f_sca (cell means) and the edge load f_vec + tau0 d(f_vec)/dt.
    The case carries the drives and the exact fields only in modal form
    (fixed spatial modes times coefficients of t); the pointwise closed
    forms, the oracle both are tested against, live in tests/oracles.py.
    """

    interface_y = 0.5

    def __init__(self, params: MaterialParams | None = None):
        self.params = params or MaterialParams.unit()
        self._a = 1.0 / (1.0 + 4.0 * np.pi ** 2)

    # -- trigonometric building blocks ------------------------------------

    @staticmethod
    def _sc(pts):
        x, y, w = pts[:, 0], pts[:, 1], 2.0 * np.pi
        return np.sin(w * x), np.cos(w * x), np.sin(w * y), np.cos(w * y)

    # -- exact fields -------------------------------------------------------

    def _g(self, t):
        """g(t) = w (cos(wt) - exp(-t)), w = 2 pi, and g'(t), in fast scalar `math`."""
        w, ex = 2.0 * math.pi, math.exp(-t)
        return w * (math.cos(w * t) - ex), -w ** 2 * math.sin(w * t) + w * ex

    def h_coeffs(self, t):
        """H = sx sy times these at t: a sin(2 pi t) above the interface, a g(t) below."""
        return self._a * math.sin(2.0 * math.pi * t), self._a * self._g(t)[0]

    # -- separable drives: fixed spatial modes (leading axis) weighted by
    # scalar coefficients of t, so a mesh integrates the modes only once.

    def e_modes(self, pts):
        """V1 = (sx sy, cx cy), shape (1, n, 2): E and its boundary data are V1 sin(2pi t)."""
        sx, cx, sy, cy = self._sc(pts)
        return np.column_stack([sx * sy, cx * cy])[None]

    def e_coeffs(self, t):
        return np.array([math.sin(2.0 * math.pi * t)])

    def drive_modes(self, pts):
        """From one trig pass: ks modes (3, n), sx sy above and below the interface,
        then sx cy; load modes (3, n, 2), V1, then V2 = (sx cy, -cx sy) above and below."""
        sx, cx, sy, cy = self._sc(pts)
        upper = pts[:, 1] > self.interface_y
        load = np.empty((3, len(pts), 2))
        load[0, :, 0], load[0, :, 1] = sx * sy, cx * cy
        load[2, :, 0], load[2, :, 1] = sx * cy, -cx * sy
        ks = np.stack([load[0, :, 0], load[0, :, 0], load[2, :, 0]])
        ks[0, ~upper] = ks[1, upper] = load[1, ~upper] = 0.0
        load[1, upper], load[2, upper] = load[2, upper], 0.0
        return ks, load

    def e_load_coeffs(self, t):
        w, eps0, tau0 = 2.0 * math.pi, self.params.eps0, self.params.tau0
        st, ct, (g, dg) = math.sin(w * t), math.cos(w * t), self._g(t)
        return np.array([eps0 * w * (ct - tau0 * w * st),
                         -self._a * w * (st + tau0 * w * ct),
                         -self._a * w * (g + tau0 * dg)])

    def ks_coeffs(self, t):
        w, mu_a = 2.0 * math.pi, self.params.mu0 * self._a
        return np.array([-mu_a * w * math.cos(w * t), -mu_a * self._g(t)[1],
                         2.0 * w * math.sin(w * t)])

    def dt_e0(self, pts):
        """Consistent initial electric velocity (the model-side value of IC2)."""
        return 2.0 * np.pi * self.e_modes(pts)[0]
