"""Unified leapfrog time stepper for the graphene/absorber field equations.

Each step first updates the two split magnetic components cell by cell
(the P0 mass is diagonal, so those solves are exact divisions), then
solves one symmetric positive definite edge system, factored once, for
the new electric field.  Subdomain indicator coefficients merge the
interface scheme in the physical region with the split-field damping
scheme in the collar; with the damping off and every cell physical the
update reduces exactly to the plain interface scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import OperatorSet, _edge_mass_kernel, apply_pec
from .elements import interpolate_hcurl
from .mesh import Mesh
from .physics import MaterialParams
from .sparse_solve import SolverError, factorize


# A field magnitude this many times the early-step scale counts as a blow-up.
BLOWUP_FACTOR = 1e12
# Conjugate gradients of the first step: relative tolerance in the norm
# preconditioned by A's factor, and the iteration cap.
FIRST_STEP_RTOL = 1e-14
FIRST_STEP_MAX_ITER = 100


class BlowUpError(RuntimeError):
    """Field norms exceeded the divergence guard (CFL violation or bad setup).

    `result` holds the output of the steps before the failing one.
    """

    def __init__(self, message, step, result=None):
        super().__init__(message)
        self.step = step
        self.result = result


@dataclass(frozen=True)
class CflConstants:
    """Inverse-estimate and trace constants entering the time-step bound."""

    c_in: float = 1.0
    c_tr: float = 1.0

    def __post_init__(self):
        if self.c_in <= 0 or self.c_tr <= 0:
            raise ValueError("CFL constants must be positive")


@dataclass
class FieldState:
    """Electric edge DoFs at two levels plus split magnetic cell DoFs.

    e_curr lives at t_n, e_prev at t_{n-1}, hzx/hzy at t_{n-1/2}; curl_e is C e_curr.
    """

    e_prev: np.ndarray
    e_curr: np.ndarray
    curl_e: np.ndarray
    hzx: np.ndarray
    hzy: np.ndarray
    step: int
    tau: float

    @property
    def hz(self) -> np.ndarray:
        return self.hzx + self.hzy


@dataclass(frozen=True)
class EnergyReport:
    """One evaluation of the discrete energy, split into its terms."""

    step: int
    time: float
    kinetic: float
    curl: float
    magnetic: float
    interface: float
    curl_extra: float

    @property
    def total(self) -> float:
        return (self.kinetic + self.curl + self.magnetic
                + self.interface + self.curl_extra)


@dataclass
class Snapshot:
    step: int
    time: float
    e: np.ndarray
    hz: np.ndarray


@dataclass
class SimulationResult:
    snapshots: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    state: FieldState | None = None


def cfl_max_timestep(params: MaterialParams, mesh: Mesh,
                     consts: CflConstants = CflConstants()) -> float:
    """Largest stable time step of the explicit scheme.

    Minimum of one second, the wave-speed bound, the interface bound and
    the two relaxation bounds, evaluated with h = min(h_x, h_y).
    """
    h = min(mesh.h_x, mesh.h_y)
    if h <= 0:
        raise ValueError("mesh sizes must be positive")
    cv = params.c_v
    terms = [
        1.0,
        h / (2.0 * consts.c_in * cv),
        h * np.sqrt(params.tau0) / (np.sqrt(2.0) * consts.c_in * cv),
        h * params.tau0 / (consts.c_in * cv),
    ]
    if params.sigma0 > 0:
        terms.append(h * np.sqrt(params.eps0 * params.tau0)
                     / (2.0 * consts.c_tr * np.sqrt(params.sigma0)))
    return float(min(terms))


def init_state(mesh: Mesh, ops: OperatorSet, params: MaterialParams, *,
               tau: float, e0=None, ks0_cells=None, dt_e0=None,
               zero_boundary: bool = True):
    """Discretise the initial conditions.

    Returns (state, velocity) where velocity carries the edge interpolant
    of the initial electric velocity `dt_e0` (zero when None) used to
    eliminate the fictitious pre-initial level at the first step.

    The initial magnetic field is zero, so the magnetic start value is the
    cell projection of (tau / 2 mu0)(curl(E0) + Ks(., 0)); the cell means
    of curl(E0) are recovered exactly from the interpolated edge DoFs via
    Stokes.
    """
    e_curr = interpolate_hcurl(e0, mesh) if e0 is not None else np.zeros(mesh.n_edges)
    if zero_boundary:
        e_curr[ops.pec_mask] = 0.0

    ks0 = np.zeros(mesh.n_triangles) if ks0_cells is None else np.asarray(ks0_cells)
    curl_e = ops.c @ e_curr
    h_half = tau / (2.0 * params.mu0) * (curl_e / ops.areas + ks0)
    velocity = (interpolate_hcurl(dt_e0, mesh) if dt_e0 is not None
                else np.zeros(mesh.n_edges))

    state = FieldState(e_prev=np.zeros(mesh.n_edges), e_curr=e_curr, curl_e=curl_e,
                       hzx=0.5 * h_half, hzy=0.5 * h_half, step=0, tau=tau)
    return state, velocity


class LeapfrogStepper:
    """Per-cell coefficients and the factored edge system of the merged update.

    The electric step is solved for the change over two levels,

        A (e_{n+1} - e_{n-1}) = 2 M_lead (e_n - e_{n-1}) - (sigma0/tau0) G e_n
                                + C^T (h_term - c1/(mu0 |K|) C e_n) + load,

    with M_lead = (eps0/tau^2) M_E, which only needs M_E, C and G per step
    (the physical curl-curl matrix is C^T diag(c1/|K|) C).  A = M_lead +
    M_damp is one edge mass with the per-cell weight eps0/tau^2 +
    c1 eps0/(2 tau tau0) + diag(sigma_y, sigma_x)/(2 tau); it is formed as
    M_E times a physical cell's weight plus an edge mass, weighted by the
    difference, over the cells weighted otherwise (the collar).  On the first
    step the initial velocity v eliminates the pre-initial level: A turns
    into 2 M_lead, e_{n-1} into zero and 2 tau (2 M_lead v - A v) joins the
    right-hand side.  A is kept for the stepper's lifetime and factored
    once, at the first step; that step solves its 2 M_lead system by
    conjugate gradients preconditioned with A's factor.  Besides the solve,
    a step multiplies once by C (for the state's curl_e) and once by C^T,
    held as CSR so that each edge gathers its two cells.
    """

    def __init__(self, ops: OperatorSet, params: MaterialParams, tau: float):
        if tau <= 0:
            raise ValueError("time step must be positive")
        self.ops = ops
        self.params = params
        self.tau = tau

        eps0, mu0, tau0 = params.eps0, params.mu0, params.tau0
        self._lead = eps0 / tau ** 2
        # E_x is damped by sigma_y and E_y by sigma_x.
        base = self._lead + ops.c1 * eps0 / (2.0 * tau * tau0)
        w = np.column_stack([base + ops.sigma_y / (2.0 * tau),
                             base + ops.sigma_x / (2.0 * tau)])
        w_phys = self._lead + eps0 / (2.0 * tau * tau0)
        cells = np.flatnonzero(np.any(w != w_phys, axis=1))
        self.a = w_phys * ops.m_e
        if len(cells):
            self.a += _edge_mass_kernel(ops.mesh, w[cells] - w_phys, cells)
        self._peak_ratio = 1.0 + tau * float(np.max(
            ops.c1 / (2.0 * tau0) + np.maximum(ops.sigma_x, ops.sigma_y) / (2.0 * eps0)))
        self._solve = self._lift = None
        self._ct = ops.c.T.tocsr()

        # Split-field H update per cell (rows x, y): keep * h - drive * (C e/|K| + ks).
        damp = mu0 * np.stack([ops.sigma_x, ops.sigma_y]) / (2.0 * eps0)
        self._h_keep = (mu0 / tau - damp) / (mu0 / tau + damp)
        self._h_drive = 0.5 / (mu0 / tau + damp)
        # Per-cell weights of the new and old H levels, ks and C e_n in the RHS.
        self._w_new = ops.c1 / (2.0 * tau0) + (1.0 - ops.c1) / tau
        self._w_old = ops.c1 / (2.0 * tau0) - (1.0 - ops.c1) / tau
        self._w_ks = ops.c1 / mu0
        self._w_curl = ops.c1 / (mu0 * ops.areas)
        # G is diagonal, nonzero on the interface edges only: a gather there.
        g_diag = ops.g.diagonal()
        self._g_rows = np.flatnonzero(g_diag)
        self._g_part = (params.sigma0 / tau0) * g_diag[self._g_rows]

    def _first_step_change(self, rhs, boundary_change):
        """Solve 2 M_lead x = rhs on the free rows, x = boundary_change on the
        boundary, by conjugate gradients preconditioned with A's factor.

        A - M_lead = M_damp is positive semidefinite, so the spectrum of
        A^-1 2 M_lead lies in (0, 2].  The residual is zero on the boundary
        rows, where the factor is the identity, so x stays fixed there.
        """
        mask, scale = self.ops.pec_mask, 2.0 * self._lead
        x = np.zeros_like(rhs)
        x[mask] = boundary_change
        r = rhs - scale * (self.ops.m_e @ x)
        r[mask] = 0.0
        p = self._solve(r)
        rz = rz0 = r @ p
        iterations = 0
        while rz > FIRST_STEP_RTOL ** 2 * rz0:
            if iterations == FIRST_STEP_MAX_ITER:
                raise SolverError(
                    f"first-step conjugate gradients did not converge in {iterations} "
                    f"iterations at tau = {self.tau:.3e}; largest per-cell ratio of A's "
                    f"weight to M_lead's {self._peak_ratio:.3e} (far above 1: tau is "
                    "far beyond a stable step)")
            q = scale * (self.ops.m_e @ p)
            q[mask] = 0.0
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
            z = self._solve(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
            iterations += 1
        return x

    def step_h(self, state: FieldState, ks_cells: np.ndarray):
        """Advance the split magnetic components by one half-shifted step.

        The two split derivatives of a Whitney field are +curl(E)/2 and
        -curl(E)/2 on each cell, so both components share one drive.
        """
        drive = state.curl_e / self.ops.areas + ks_cells
        hzx = self._h_keep[0] * state.hzx - self._h_drive[0] * drive
        hzy = self._h_keep[1] * state.hzy - self._h_drive[1] * drive
        return hzx, hzy

    def step_e(self, state: FieldState, hzx_new, hzy_new, ks_cells,
               extra_load=None, bc_values=None, first_step_velocity=None):
        """Solve the edge system for the next electric field.

        `bc_values` carries Dirichlet data on the `pec_mask` edges only; None
        imposes the conducting boundary.
        """
        ops = self.ops
        first = state.step == 0
        e_old = np.zeros_like(state.e_curr) if first else state.e_prev
        h_term = (self._w_new * (hzx_new + hzy_new) + self._w_old * state.hz
                  - self._w_ks * ks_cells - self._w_curl * state.curl_e)
        rhs = (2.0 * self._lead) * (ops.m_e @ (state.e_curr - e_old))
        rhs += self._ct @ h_term
        rhs[self._g_rows] -= self._g_part * state.e_curr[self._g_rows]
        if extra_load is not None:
            rhs += extra_load
        if first and first_step_velocity is not None:
            v = first_step_velocity
            rhs += (2.0 * self.tau) * ((2.0 * self._lead) * (ops.m_e @ v)
                                       - self.a @ v)

        # The change is known on the boundary.  Later steps lift it: only A's
        # boundary columns carry it into the free rows, and the factor has
        # identity rows and zero columns there, so the solve ignores rhs[mask].
        mask = ops.pec_mask
        if self._solve is None:
            self._lift = self.a[:, mask].tocsc()
            self._solve = factorize(apply_pec(self.a, mask))
        target = 0.0 if bc_values is None else bc_values
        boundary_change = target - e_old[mask]
        if first:
            change = self._first_step_change(rhs, boundary_change)
        else:
            if boundary_change.any():
                rhs -= self._lift @ boundary_change
            change = self._solve(rhs)
        e_next = e_old + change
        e_next[mask] = target
        return e_next

    def advance(self, state: FieldState, ks_cells, extra_load=None,
                bc_values=None, first_step_velocity=None) -> FieldState:
        """One full leapfrog step; mutates and returns `state`."""
        hzx_new, hzy_new = self.step_h(state, ks_cells)
        e_next = self.step_e(state, hzx_new, hzy_new, ks_cells,
                             extra_load=extra_load, bc_values=bc_values,
                             first_step_velocity=first_step_velocity)
        state.e_prev = state.e_curr
        state.e_curr = e_next
        state.curl_e = self.ops.c @ e_next
        state.hzx = hzx_new
        state.hzy = hzy_new
        state.step += 1
        return state


def discrete_energy(state: FieldState, ops: OperatorSet,
                    params: MaterialParams) -> EnergyReport:
    """Discrete energy of the interface scheme evaluated on the state.

    Uses e_prev/e_curr as the two electric levels and hz as the magnetic
    half level sitting between them; every term is a nonnegative
    quadratic form of the assembled matrices, the curl-curl form as
    sum over cells of (C e)_K^2 / |K|.
    """
    e_new, e_old = state.e_curr, state.e_prev
    tau = state.tau
    diff = (e_new - e_old) / tau
    curl_new = state.curl_e
    curl_old = ops.c @ e_old
    s_new = float(curl_new @ (curl_new / ops.areas))
    s_old = float(curl_old @ (curl_old / ops.areas))
    g_new = float(e_new @ (ops.g @ e_new))
    g_old = float(e_old @ (ops.g @ e_old))
    hz = state.hz
    return EnergyReport(
        step=state.step,
        time=state.step * tau,
        kinetic=params.eps0 * float(diff @ (ops.m_e @ diff)),
        curl=(s_new + s_old) / (2.0 * params.mu0),
        magnetic=params.mu0 * float(ops.areas @ hz ** 2),
        interface=params.sigma0 / (2.0 * params.tau0) * (g_new + g_old),
        curl_extra=tau / (4.0 * params.mu0 * params.tau0) * (s_new + s_old),
    )


def run_simulation(mesh: Mesh, ops: OperatorSet, params: MaterialParams,
                   tau: float, n_steps: int, source=None, e0=None,
                   dt_e0=None, extra_load=None, bc_values=None,
                   snapshot_every: int = 0,
                   energy_every: int = 1) -> SimulationResult:
    """Run the leapfrog scheme for `n_steps` steps.

    source     : callable t -> per-cell K_s values, or None.
    extra_load : callable t -> edge load vector added to the electric step.
    bc_values  : callable t -> Dirichlet data on the `ops.pec_mask` edges
                 only; None imposes the conducting boundary.
    Snapshots include the initial state; the energy log starts after the
    first step.  Raises BlowUpError, carrying the result so far, when a
    field norm passes the guard.
    """
    n_cells = mesh.n_triangles
    ks0 = source(0.0) if source is not None else None
    state, velocity = init_state(mesh, ops, params, e0=e0,
                                 ks0_cells=ks0, tau=tau, dt_e0=dt_e0,
                                 zero_boundary=bc_values is None)
    stepper = LeapfrogStepper(ops, params, tau)
    result = SimulationResult(state=state)

    if snapshot_every > 0:
        result.snapshots.append(Snapshot(0, 0.0, state.e_curr.copy(), state.hz))

    scale = max(np.max(np.abs(state.e_curr), initial=0.0),
                np.max(np.abs(state.hz), initial=0.0))

    for n in range(n_steps):
        t_n = n * tau
        ks = source(t_n) if source is not None else np.zeros(n_cells)
        load = extra_load(t_n) if extra_load is not None else None
        bc = bc_values((n + 1) * tau) if bc_values is not None else None
        stepper.advance(state, ks, extra_load=load, bc_values=bc,
                        first_step_velocity=velocity if n == 0 else None)

        e, hz = state.e_curr, state.hz   # np.max, unlike max, keeps a NaN anywhere
        peak = np.max((e.max(), -e.min(), hz.max(), -hz.min()))
        if not np.isfinite(peak):
            raise BlowUpError(f"non-finite field at step {state.step}",
                              state.step, result)
        if state.step <= 10:
            scale = max(scale, peak)
        elif peak > BLOWUP_FACTOR * max(scale, np.finfo(float).tiny):
            raise BlowUpError(
                f"field magnitude {peak:.3e} exceeded {BLOWUP_FACTOR:.0e} x "
                f"initial scale at step {state.step}", state.step, result)

        if energy_every > 0 and state.step % energy_every == 0:
            result.energy.append(discrete_energy(state, ops, params))
        if snapshot_every > 0 and state.step % snapshot_every == 0:
            result.snapshots.append(
                Snapshot(state.step, state.step * tau, state.e_curr.copy(), state.hz))

    return result
