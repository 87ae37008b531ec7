"""Unified leapfrog time stepper for the graphene/absorber field equations.

Each step first updates the magnetic field cell by cell, in Berenger's
split halves on the damped cells only (the P0 mass is diagonal, so those
solves are exact divisions), then solves one symmetric positive definite
edge system, factored once, for the new electric field.  Subdomain
indicator coefficients merge the interface scheme in the physical region
with the split-field damping scheme in the collar, the damped cells; with
the damping off the update is exactly the plain interface scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import OperatorSet, apply_pec, assemble_edge_mass
from .checks import positive, validate
from .elements import interpolate_hcurl
from .mesh import Mesh
from .physics import MaterialParams
from .sparse_solve import factorize


# A field magnitude this many times the early-step scale counts as a blow-up.
BLOWUP_FACTOR = 1e12


class BlowUpError(RuntimeError):
    """Field norms exceeded the divergence guard (CFL violation or bad setup)."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CflConstants:
    """Inverse-estimate and trace constants entering the time-step bound."""

    c_in: float = 1.0
    c_tr: float = 1.0

    def __post_init__(self):
        validate(self, c_in=positive, c_tr=positive)


@dataclass
class FieldState:
    """Electric edge DoFs at two levels plus magnetic cell DoFs.

    e_curr lives at t_n, e_prev at t_{n-1}, hz at t_{n-1/2}; curl_e is C e_curr.
    hzx/hzy, with hzx + hzy = hz, split it on the `OperatorSet.damped` cells.
    At step 0, e_prev = e_0 - 2 tau v carries the initial velocity v, not a
    field level, so the energy of a step-0 state is not meaningful.
    """

    e_prev: np.ndarray
    e_curr: np.ndarray
    curl_e: np.ndarray
    hz: np.ndarray
    hzx: np.ndarray
    hzy: np.ndarray
    step: int
    tau: float


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
class SimulationResult:
    energy: list = field(default_factory=list)
    state: FieldState | None = None


def cfl_max_timestep(params: MaterialParams, mesh: Mesh,
                     consts: CflConstants = CflConstants()) -> float:
    """Largest stable time step of the explicit scheme.

    Minimum of one second, the wave-speed bound, the interface bound and
    the two relaxation bounds, evaluated with h = min(h_x, h_y).
    """
    h = min(mesh.h_x, mesh.h_y)
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


def init_state(ops: OperatorSet, params: MaterialParams, *, tau: float,
               e0=None, ks0_cells=None, dt_e0=None,
               zero_boundary: bool = True) -> FieldState:
    """Discretise the initial conditions on `ops.mesh`.

    e_curr interpolates `e0`; e_prev = e_curr - 2 tau v, v the interpolant
    of the initial velocity `dt_e0` (each zero when None), lets the first
    step eliminate the fictitious pre-initial level.  `zero_boundary`
    zeroes both on the `pec_mask` edges.

    The initial magnetic field is zero, so the magnetic start value is the
    cell projection of (tau / 2 mu0)(curl(E0) + Ks(., 0)); the cell means
    of curl(E0) are recovered exactly from the interpolated edge DoFs via
    Stokes.
    """
    mesh = ops.mesh
    e_curr = interpolate_hcurl(e0, mesh) if e0 is not None else np.zeros(mesh.n_edges)
    e_prev = (e_curr - (2.0 * tau) * interpolate_hcurl(dt_e0, mesh) if dt_e0 is not None
              else e_curr.copy())
    if zero_boundary:     # a conducting wall has no tangential field or velocity
        e_curr[ops.pec_mask] = e_prev[ops.pec_mask] = 0.0

    ks0 = np.zeros(mesh.n_triangles) if ks0_cells is None else np.asarray(ks0_cells)
    curl_e = ops.c @ e_curr
    h0 = tau / (2.0 * params.mu0) * (curl_e / ops.areas + ks0)
    return FieldState(e_prev=e_prev, e_curr=e_curr, curl_e=curl_e, hz=h0,
                      hzx=0.5 * h0[ops.damped], hzy=0.5 * h0[ops.damped], step=0, tau=tau)


class LeapfrogStepper:
    """Per-cell coefficients and the factored edge system of the merged update.

    The electric step is solved for the change Delta = e_{n+1} - e_n,

        A Delta = R + (2 M_lead - A) d,    R = C^T h_term - (sigma0/tau0) G e_n + load,

    with d = e_n - e_{n-1}, M_lead = (eps0/tau^2) M_E and per cell
    h_term = w_new H^{n+1/2} + w_old H^{n-1/2} - (p/mu0)(C e_n/|K| + ks),
    w_new/old = p/(2 tau0) +/- (1 - p)/tau, p = 0 on the collar (the damped
    cells, `ops.damped`) and 1 elsewhere, which carries the physical
    curl-curl matrix C^T diag(p/|K|) C.  A = M_lead + M_damp is one edge
    mass with the per-cell weight eps0/tau^2 + p eps0/(2 tau tau0) +
    diag(sigma_y, sigma_x)/(2 tau): w_phys M_E (w_phys: a physical cell's
    weight) plus K_collar, weighted by the difference on the collar.
    As 2 M_lead = r (A - K_collar), r = 2 eps0/(tau^2 w_phys), a step's
    right-hand side is b = B x - (sigma0/tau0) G e_n + load, B = [C^T |
    -K_collar] acting on the buffer x = [h_term | r d]; a later step's
    e_{n+1} - e_{n-1} is r d plus the solve of b.  With e_prev = e_0 -
    2 tau v (see `init_state`) the first step is the same equation with
    2 M_lead = r w_phys M_E in place of A, v eliminating the pre-initial
    level: it adds (1 - 1/r) A (r d) to b, and its change is the solve of
    b by w_phys M_E, over r.  Without a collar w_phys M_E is A, whose
    factor, formed at the first step, serves every step; a collar's start
    with a nonzero b or boundary change factors w_phys M_E then only.
    Besides the solve a step multiplies once by B and once by C, never by M_E.
    """

    def __init__(self, ops: OperatorSet, params: MaterialParams, tau: float):
        positive("tau", tau)
        self.ops, n_cells, n_edges = ops, len(ops.areas), ops.mesh.n_edges
        eps0, mu0, tau0 = params.eps0, params.mu0, params.tau0
        lead = eps0 / tau ** 2
        self._w_phys = lead + eps0 / (2.0 * tau * tau0)
        self.a = self._w_phys * ops.m_e
        self._r = 2.0 / (1.0 + tau / (2.0 * tau0))    # finite if eps0/tau^2 underflows
        d = self._damped = ops.damped
        k = sp.csr_matrix((n_edges, n_edges))     # K_collar, empty without a collar
        if len(d):
            # E_x is damped by sigma_y and E_y by sigma_x; no relaxation term.
            w = np.column_stack([lead + ops.sigma_y[d] / (2.0 * tau),
                                 lead + ops.sigma_x[d] / (2.0 * tau)])
            k = assemble_edge_mass(ops.mesh, w - self._w_phys, d)
            self.a += k
        # B = [C^T | -K_collar]: its CSC arrays are C^T's (C's CSR arrays), then K_collar's.
        ct, k = ops.c.T, k.tocsc()
        self._b = sp.csc_matrix((np.concatenate([ct.data, -k.data]),
                                 np.concatenate([ct.indices, k.indices]),
                                 np.concatenate([ct.indptr, k.indptr[1:] + ct.nnz])),
                                shape=(n_edges, n_cells + n_edges)).tocsr()
        self._solve, self._bnd = None, np.flatnonzero(ops.pec_mask)   # factored lazily
        self._x = np.empty(n_cells + n_edges)
        self._h_term, self._delta = self._x[:n_cells], self._x[n_cells:]   # h_term | r d
        self._drive, self._scratch = np.empty((2, n_cells))
        # All cells: H -= kappa drive, h_term = alpha H_old + beta drive (w_old H_old on the
        # damped cells, which split, H_a = keep_a H_a - feed_a drive, and add w_new H).
        self._kappa, self._w_new = tau / mu0, 1.0 / tau
        self._alpha = np.full(n_cells, 1.0 / tau0)
        self._beta = np.full(n_cells, -(1.0 + tau / (2.0 * tau0)) / mu0)
        self._alpha[d], self._beta[d] = -self._w_new, 0.0
        damp = mu0 * np.stack([ops.sigma_x[d], ops.sigma_y[d]]) / (2.0 * eps0)
        self._keep = (mu0 / tau - damp) / (mu0 / tau + damp)
        self._feed = 0.5 / (mu0 / tau + damp)
        # G is diagonal, nonzero on the interface edges only: a gather there.
        g_diag = ops.g.diagonal()
        self._g_rows = np.flatnonzero(g_diag)
        self._g_part = (params.sigma0 / tau0) * g_diag[self._g_rows]

    def _factored(self, matrix):
        """The factor of `matrix` with conducting rows and columns, and its
        boundary columns on the rows they touch, which lift boundary data."""
        columns = matrix[:, self._bnd]
        rows = np.flatnonzero(np.diff(columns.indptr))
        return factorize(apply_pec(matrix, self.ops.pec_mask)), rows, columns[rows]

    def step_h(self, state: FieldState, ks_cells=None) -> np.ndarray:
        """Advance the magnetic field of `state` in place by one step; return
        h_term (see the class docstring), a buffer the next call overwrites.
        Both split derivatives of a Whitney field, +-curl(E)/2, share one drive."""
        drive = np.divide(state.curl_e, self.ops.areas, out=self._drive)
        if ks_cells is not None:
            drive += ks_cells
        h_term = np.multiply(self._alpha, state.hz, out=self._h_term)
        h_term += np.multiply(self._beta, drive, out=self._scratch)
        state.hz -= np.multiply(self._kappa, drive, out=self._scratch)
        if len(d := self._damped):
            local = drive[d]
            for half, keep, feed in zip((state.hzx, state.hzy), self._keep, self._feed):
                half *= keep
                half -= feed * local
            state.hz[d] = split = state.hzx + state.hzy
            h_term[d] += self._w_new * split
        return h_term

    def step_e(self, state: FieldState, h_term, extra_load=None, bc_values=None):
        """Solve the edge system for the next electric field from `step_h`'s
        h_term.  Step 0 solves with 2 M_lead, every later step with A (see
        the class docstring); the boundary change enters through the
        matrix's boundary columns.  `bc_values` carries Dirichlet data on the
        `pec_mask` edges only; None imposes the conducting boundary."""
        if h_term is not self._h_term:
            self._h_term[:] = h_term
        delta = np.subtract(state.e_curr, state.e_prev, out=self._delta)
        delta *= self._r
        rhs = self._b @ self._x
        if len(self._g_rows):
            rhs[self._g_rows] -= self._g_part * state.e_curr[self._g_rows]
        if extra_load is not None:
            rhs += extra_load
        # A's boundary columns lift the known boundary change into the rows they
        # touch (A is symmetric); the factor's identity rows ignore rhs[bnd].
        if self._solve is None:
            self._solve, self._lift_rows, self._lift = self._factored(self.a)
        target = 0.0 if bc_values is None else bc_values
        if state.step == 0:
            # 2 M_lead = r w_phys M_E, which is r A unless a collar makes them differ
            rhs += (1.0 - 1.0 / self._r) * (self.a @ delta)
            change = target - state.e_curr[self._bnd]
            solve, rows, lift = self._solve, self._lift_rows, self._lift
            if len(self._damped) and (rhs.any() or change.any()):
                solve, rows, lift = self._factored(self._w_phys * self.ops.m_e)
            rhs[rows] -= self._r * (lift @ change)
            e_next = state.e_curr + solve(rhs) / self._r
        else:
            lifted = delta[self._bnd] - (target - state.e_prev[self._bnd])
            if lifted.any():
                rhs[self._lift_rows] += self._lift @ lifted
            e_next = self._solve(rhs)
            e_next += delta
            e_next += state.e_prev
        e_next[self._bnd] = target
        return e_next

    def advance(self, state: FieldState, ks_cells=None, extra_load=None,
                bc_values=None) -> FieldState:
        """One full leapfrog step; mutates and returns `state`."""
        h_term = self.step_h(state, ks_cells)
        e_next = self.step_e(state, h_term, extra_load=extra_load, bc_values=bc_values)
        state.e_prev, state.e_curr = state.e_curr, e_next
        state.curl_e = self.ops.c @ e_next
        state.step += 1
        return state


def discrete_energy(state: FieldState, ops: OperatorSet,
                    params: MaterialParams) -> EnergyReport:
    """Discrete energy of the interface scheme evaluated on the state.

    Uses e_prev/e_curr as the two electric levels and hz as the magnetic
    half level sitting between them; every term is a nonnegative
    quadratic form of the assembled matrices, the curl-curl form as
    sum over cells of (C e)_K^2 / |K|.  Not meaningful at step 0, where
    e_prev carries the initial velocity.
    """
    e_new, e_old, tau = state.e_curr, state.e_prev, state.tau
    diff = (e_new - e_old) / tau
    curl_new, curl_old = state.curl_e, ops.c @ e_old
    s_new = float(curl_new @ (curl_new / ops.areas))
    s_old = float(curl_old @ (curl_old / ops.areas))
    g_new = float(e_new @ (ops.g @ e_new))
    g_old = float(e_old @ (ops.g @ e_old))
    return EnergyReport(
        step=state.step,
        time=state.step * tau,
        kinetic=params.eps0 * float(diff @ (ops.m_e @ diff)),
        curl=(s_new + s_old) / (2.0 * params.mu0),
        magnetic=params.mu0 * float(ops.areas @ state.hz ** 2),
        interface=params.sigma0 / (2.0 * params.tau0) * (g_new + g_old),
        curl_extra=tau / (4.0 * params.mu0 * params.tau0) * (s_new + s_old),
    )


def run_simulation(ops: OperatorSet, params: MaterialParams,
                   tau: float, n_steps: int, source=None, e0=None,
                   dt_e0=None, extra_load=None, bc_values=None,
                   energy_every: int = 1, record=None) -> SimulationResult:
    """Run the leapfrog scheme for `n_steps` steps on `ops.mesh`.

    source     : callable t -> per-cell K_s values, or None.
    extra_load : callable t -> edge load vector added to the electric step.
    bc_values  : callable t -> Dirichlet data on the `ops.pec_mask` edges
                 only; None imposes the conducting boundary.
    record     : callable (state, report) called on the start and after each
                 step that passes the guard, with that step's EnergyReport
                 or None; the state is updated in place, so a recorder
                 copies what it keeps.
    The energy log starts after the first step.  Raises BlowUpError when a
    field is non-finite at the start or after a step, or its peak passes the
    guard; the solve checks nothing, so a non-finite source, load or
    boundary value makes E non-finite in the step that reads it.
    """
    ks0 = source(0.0) if source is not None else None
    state = init_state(ops, params, e0=e0, ks0_cells=ks0, tau=tau, dt_e0=dt_e0,
                       zero_boundary=bc_values is None)
    stepper = LeapfrogStepper(ops, params, tau)
    result = SimulationResult(state=state)

    def guard():
        """The name and peak of the field with the larger peak (a NaN names its
        field: np.maximum keeps it, max does not); a BlowUpError if non-finite."""
        pe, ph = (np.maximum(f.max(), -f.min()) for f in (state.e_curr, state.hz))
        name, peak = ("E", pe) if pe >= ph or math.isnan(pe) else ("Hz", ph)
        if not math.isfinite(peak):
            raise BlowUpError(f"non-finite {name} at step {state.step} "
                              f"(t = {state.step * tau:.3e} s)", state.step)
        return name, peak

    scale = max(guard()[1], np.finfo(float).tiny)
    if record is not None:
        record(state, None)

    for n in range(n_steps):
        ks = source(n * tau) if source is not None else None
        load = extra_load(n * tau) if extra_load is not None else None
        bc = bc_values((n + 1) * tau) if bc_values is not None else None
        stepper.advance(state, ks, extra_load=load, bc_values=bc)

        name, peak = guard()
        if state.step <= 10:
            scale = max(scale, peak)
        elif peak > BLOWUP_FACTOR * scale:
            raise BlowUpError(
                f"{name} magnitude {peak:.3e} at t = {state.step * tau:.3e} s exceeded "
                f"{BLOWUP_FACTOR:.0e} x initial scale at step {state.step}", state.step)

        report = None
        if energy_every > 0 and state.step % energy_every == 0:
            report = discrete_energy(state, ops, params)
            result.energy.append(report)
        if record is not None:
            record(state, report)

    return result
