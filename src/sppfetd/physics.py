"""Physical parameters, graphene conductivity, collar damping and sources.

Includes the separable exact solution used by the convergence harness: a
time-periodic field on the unit square whose magnetic part differs above
and below the horizontal interface y = 0.5, together with the volume
source terms that make it satisfy the interface model exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CellTag, Mesh

EPSILON_0 = 8.8541878128e-12   # F/m
MU_0 = 1.25663706212e-6        # H/m
Q_E = 1.6022e-19               # elementary charge, C
K_B = 1.3806e-23               # Boltzmann constant, J/K
HBAR = 1.0546e-34              # reduced Planck constant, J s


@dataclass(frozen=True)
class MaterialParams:
    """Vacuum constants plus the graphene relaxation time and conductivity."""

    eps0: float = EPSILON_0
    mu0: float = MU_0
    tau0: float = 1.2e-12      # s
    sigma0: float = 0.0        # S

    def __post_init__(self):
        if self.eps0 <= 0 or self.mu0 <= 0 or self.tau0 <= 0:
            raise ValueError("eps0, mu0 and tau0 must be positive")
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")

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
    tau0: float = 1.2e-12          # relaxation time, s
    temperature: float = 300.0     # K

    def __post_init__(self):
        for name in ("mu_c_ev", "tau0", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def kubo_sigma0(params: KuboParams) -> float:
    """Intraband surface conductivity magnitude in siemens.

    The printed closed form carries a leading minus and evaluates negative
    for positive chemical potential; the model requires a positive surface
    conductivity, so the magnitude is returned.
    """
    kbt = K_B * params.temperature
    x = params.mu_c_ev * Q_E / kbt
    bracket = x + 2.0 * np.log(np.exp(-x) + 1.0)
    prefactor = Q_E ** 2 * kbt * params.tau0 / (np.pi * HBAR ** 2)
    return float(prefactor * bracket)


def damping_at_centroids(mesh: Mesh, err: float = 1e-7, eta: float = 377.0):
    """(sigma_x, sigma_y) of the absorbing collar at the cell centroids.

    On each axis the collar depth d is how far the mesh extends beyond
    `mesh.physical_bounds`, the larger of the two sides.  A centroid at
    distance s outside the physical rectangle gets the quartic ramp
    sigma_max (s / d)^4, with sigma_max = -(m + 1) ln(err) / (2 d eta) and
    m = 4.  Centroids inside the rectangle get exact zeros, and so does
    every cell on an axis where the mesh has no collar.
    """
    sigmas = []
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
        if self.f0 <= 0 or self.h_norm <= 0:
            raise ValueError("f0 and h_norm must be positive")

    def amplitude(self, t: float) -> float:
        if self.n_cycles is not None and t * self.f0 >= self.n_cycles:
            return 0.0
        return np.sin(2.0 * np.pi * self.f0 * t) / self.h_norm


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
        raise ValueError(f"point {tuple(p)} lies outside the mesh")
    return int(hits[0])


def dipole_source_cells(mesh: Mesh, spec: SourceSpec) -> list:
    """Map each dipole point to its containing physical cell, as (cell, sign)."""
    out = []
    for x, y, sign in spec.points:
        cell = locate_cell(mesh, (x, y))
        if mesh.cell_tags[cell] != CellTag.PHYSICAL:
            raise ValueError(f"dipole source at ({x}, {y}) lies in the absorbing collar")
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
    The case carries these drives only in modal form (fixed spatial modes
    times coefficients of t); their pointwise closed forms, the oracle the
    modal sums are tested against, live in tests/oracles.py.
    """

    interface_y = 0.5

    def __init__(self, params: MaterialParams | None = None):
        self.params = params or MaterialParams.unit()
        self._a = 1.0 / (1.0 + 4.0 * np.pi ** 2)

    # -- trigonometric building blocks ------------------------------------

    @staticmethod
    def _sc(pts):
        x, y = pts[:, 0], pts[:, 1]
        w = 2.0 * np.pi
        return np.sin(w * x), np.cos(w * x), np.sin(w * y), np.cos(w * y)

    def _upper(self, pts):
        return pts[:, 1] > self.interface_y

    # -- exact fields -------------------------------------------------------

    def e_field(self, pts, t):
        return np.tensordot(self.e_coeffs(t), self.e_modes(pts), axes=1)

    def _g(self, t):
        return 2.0 * np.pi * (np.cos(2.0 * np.pi * t) - np.exp(-t))

    def _dg(self, t):
        return -(2.0 * np.pi) ** 2 * np.sin(2.0 * np.pi * t) + 2.0 * np.pi * np.exp(-t)

    def h_field(self, pts, t):
        sx, _, sy, _ = self._sc(pts)
        st = np.sin(2.0 * np.pi * t)
        upper = self._upper(pts)
        return self._a * sx * sy * np.where(upper, st, self._g(t))

    # -- separable drives: fixed spatial modes (leading axis) weighted by
    # scalar coefficients of t, so a mesh integrates the modes only once.

    def _vector_modes(self, pts):
        """V1 = (sx sy, cx cy), the shape of E, and V2 = (sx cy, -cx sy), of curl H."""
        sx, cx, sy, cy = self._sc(pts)
        return (np.column_stack([sx * sy, cx * cy]),
                np.column_stack([sx * cy, -cx * sy]))

    def e_modes(self, pts):
        """V1, shape (1, n, 2); E and its boundary data are sin(2 pi t) V1."""
        return self._vector_modes(pts)[0][None]

    def e_coeffs(self, t):
        return np.array([np.sin(2.0 * np.pi * t)])

    def e_load_modes(self, pts):
        """V1, V2 above and V2 below the interface, shape (3, n, 2)."""
        v1, v2 = self._vector_modes(pts)
        upper = self._upper(pts)[:, None]
        return np.stack([v1, np.where(upper, v2, 0.0), np.where(upper, 0.0, v2)])

    def e_load_coeffs(self, t):
        w, eps0, tau0 = 2.0 * np.pi, self.params.eps0, self.params.tau0
        st, ct = np.sin(w * t), np.cos(w * t)
        return np.array([eps0 * w * (ct - tau0 * w * st),
                         -self._a * w * (st + tau0 * w * ct),
                         -self._a * w * (self._g(t) + tau0 * self._dg(t))])

    def ks_modes(self, pts):
        """sx sy above and below the interface, then sx cy; shape (3, n)."""
        sx, _, sy, cy = self._sc(pts)
        upper = self._upper(pts)
        return np.stack([np.where(upper, sx * sy, 0.0),
                         np.where(upper, 0.0, sx * sy), sx * cy])

    def ks_coeffs(self, t):
        w, mu_a = 2.0 * np.pi, self.params.mu0 * self._a
        return np.array([-mu_a * w * np.cos(w * t), -mu_a * self._dg(t),
                         2.0 * w * np.sin(w * t)])

    def dt_e0(self, pts):
        """Consistent initial electric velocity (the model-side value of IC2)."""
        return 2.0 * np.pi * self.e_modes(pts)[0]
