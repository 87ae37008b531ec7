"""Independent dense oracles used to cross-check the production assembly,
and the pointwise fields and sources of the manufactured case.

Everything here deliberately avoids the package's basis/quadrature code:
Whitney functions are evaluated on the reference triangle and mapped with
the covariant (Piola) transform, and integrals use a tensor-product Gauss
rule squashed onto the triangle (Duffy transform).  Only mesh connectivity
(vertex coordinates, triangle->edge maps, orientation signs) is shared, and
the basis-table oracles take the production rule's points and weights, so
that they check the kernels that use a rule rather than the rule itself.
"""

import heapq

import numpy as np

from sppfetd.assembly import build_operator_set
from sppfetd.dynamics import FieldState
from sppfetd.mesh import Mesh, Segment, generate_rect_mesh, snap_interface
from sppfetd.physics import damping_at_centroids

REF_EDGES = ((0, 1), (1, 2), (2, 0))
_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def duffy_rule(n=8):
    """Tensor Gauss rule mapped onto the reference triangle."""
    xi, wi = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xi + 1.0)
    wu = 0.5 * wi
    pts, wts = [], []
    for a, wa in zip(u, wu):
        for b, wb in zip(u, wu):
            pts.append((a, b * (1.0 - a)))
            wts.append(wa * wb * (1.0 - a))
    return np.array(pts), np.array(wts)


def ref_whitney(ref_pts):
    """Reference Whitney values at reference points, shape (nq, 3, 2)."""
    lam = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1],
                           ref_pts[:, 0], ref_pts[:, 1]])
    out = np.empty((len(ref_pts), 3, 2))
    for k, (i, j) in enumerate(REF_EDGES):
        out[:, k, :] = (lam[:, i, None] * _REF_GRADS[j]
                        - lam[:, j, None] * _REF_GRADS[i])
    return out


def cell_maps(mesh, cell):
    """Affine map data of one cell: (p0, J, inv(J).T, det J)."""
    p = mesh.vertices[mesh.triangles[cell]]
    jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
    return p[0], jac, np.linalg.inv(jac).T, np.linalg.det(jac)


def physical_whitney(mesh, cell, ref_pts):
    """Piola-mapped, globally oriented Whitney values, shape (nq, 3, 2)."""
    _, _, jinv_t, _ = cell_maps(mesh, cell)
    vals = ref_whitney(ref_pts) @ jinv_t.T
    return vals * mesh.tri_edge_signs[cell][None, :, None]


def physical_whitney_curls(mesh, cell):
    """Constant curl of each oriented basis function on the cell."""
    _, _, _, det = cell_maps(mesh, cell)
    ref_curls = np.array([2.0, 2.0, 2.0])  # curl of each reference function
    return ref_curls / det * mesh.tri_edge_signs[cell]


def dense_edge_mass(mesh, coeff=None, n=8):
    """Brute-force edge mass with optional per-cell (scalar or diag) weight."""
    ref_pts, wts = duffy_rule(n)
    ne = mesh.n_edges
    out = np.zeros((ne, ne))
    for cell in range(mesh.n_triangles):
        p0, jac, _, det = cell_maps(mesh, cell)
        phi = physical_whitney(mesh, cell, ref_pts)
        if coeff is None:
            w2 = np.ones(2)
        else:
            w = np.asarray(coeff, dtype=float)
            w2 = np.array([w[cell], w[cell]]) if w.ndim == 1 else w[cell]
        local = np.einsum("q,qkd,d,qld->kl", wts * det, phi, w2, phi)
        idx = mesh.tri_edges[cell]
        out[np.ix_(idx, idx)] += local
    return out


def local_edge_masses(mesh):
    """Every cell's unit-weight 3x3 edge mass, (n_triangles, 3, 3), vectorised
    over cells: Piola-mapped reference functions integrated with the
    edge-midpoint rule, which is exact for their quadratic products."""
    mids = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    phi = np.einsum("qkr,nrs->nqks", ref_whitney(mids), np.linalg.inv(jac))
    phi *= mesh.tri_edge_signs[:, None, :, None]
    weights = np.abs(np.linalg.det(jac)) / 6.0      # |K| / 3 per midpoint
    return np.einsum("n,nqks,nqls->nkl", weights, phi, phi)


def dense_cell_areas(mesh, n=4):
    """Cell areas as the integral of 1 over each mapped reference triangle."""
    _, wts = duffy_rule(n)
    return np.array([wts.sum() * cell_maps(mesh, cell)[3]
                     for cell in range(mesh.n_triangles)])


def dense_curl_curl(mesh, coeff=None):
    ne = mesh.n_edges
    out = np.zeros((ne, ne))
    for cell in range(mesh.n_triangles):
        c = physical_whitney_curls(mesh, cell)
        w = 1.0 if coeff is None else float(np.asarray(coeff)[cell])
        local = w * mesh.areas[cell] * np.outer(c, c)
        idx = mesh.tri_edges[cell]
        out[np.ix_(idx, idx)] += local
    return out


def dense_mixed_curl(mesh):
    out = np.zeros((mesh.n_triangles, mesh.n_edges))
    for cell in range(mesh.n_triangles):
        out[cell, mesh.tri_edges[cell]] += (
            mesh.areas[cell] * physical_whitney_curls(mesh, cell))
    return out


def dense_partial(mesh, axis, n=8):
    """Brute-force (d_axis phi_other, 1)_K via finite differences of the basis."""
    ref_pts, wts = duffy_rule(n)
    out = np.zeros((mesh.n_triangles, mesh.n_edges))
    step = 1e-7 * min(mesh.h_x, mesh.h_y)
    comp = 1 if axis == "x" else 0           # d/dx acts on the y component
    dvec = np.array([step, 0.0]) if axis == "x" else np.array([0.0, step])
    for cell in range(mesh.n_triangles):
        p0, jac, jinv_t, det = cell_maps(mesh, cell)
        phys = (jac @ ref_pts.T).T + p0
        jinv = np.linalg.inv(jac)
        ref_plus = (phys + 0.5 * dvec - p0) @ jinv.T
        ref_minus = (phys - 0.5 * dvec - p0) @ jinv.T
        dphi = (physical_whitney_from_ref(mesh, cell, ref_plus)
                - physical_whitney_from_ref(mesh, cell, ref_minus)) / step
        out[cell, mesh.tri_edges[cell]] += np.einsum(
            "q,qk->k", wts * det, dphi[:, :, comp])
    return out


def physical_whitney_from_ref(mesh, cell, ref_pts):
    _, _, jinv_t, _ = cell_maps(mesh, cell)
    vals = ref_whitney(ref_pts) @ jinv_t.T
    return vals * mesh.tri_edge_signs[cell][None, :, None]


def cell_basis_data(mesh, rule):
    """Globally oriented Whitney values at a triangle rule's barycentric points
    on every cell, (nt, nq, 3, 2): the basis table that the production
    kernels do without.  Barycentric (l0, l1, l2) is reference point (l1, l2)."""
    return np.stack([physical_whitney(mesh, cell, rule.points[:, 1:])
                     for cell in range(mesh.n_triangles)])


def table_edge_field(mesh, dofs, rule):
    """Edge-DoF field at the rule's points per cell from the basis table."""
    return np.einsum("tk,tqkd->tqd", dofs[mesh.tri_edges], cell_basis_data(mesh, rule))


def table_edge_load(mesh, field, rule):
    """Edge loads of `field` (leading mode axis allowed) from the basis table,
    scattered cell by cell, with the points mapped by each cell's Jacobian."""
    phi = cell_basis_data(mesh, rule)
    out = None
    for cell in range(mesh.n_triangles):
        p0, jac, _, det = cell_maps(mesh, cell)
        vals = np.asarray(field(rule.points[:, 1:] @ jac.T + p0), dtype=float)
        local = np.einsum("q,...qd,qkd->...k", rule.weights * det, vals, phi[cell])
        if out is None:
            out = np.zeros(local.shape[:-1] + (mesh.n_edges,))
        out[..., mesh.tri_edges[cell]] += local
    return out


def dense_partial_divergence(mesh, axis, n=6):
    """Exact partial-derivative integrals via the divergence theorem.

    integral over K of d(phi)_y/dx equals the boundary integral of
    (phi)_y n_x ds (and analogously for the y derivative), evaluated with
    Gauss points on each triangle edge.
    """
    xi, wi = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (xi + 1.0)
    ws = 0.5 * wi
    comp = 1 if axis == "x" else 0
    ncomp = 0 if axis == "x" else 1
    out = np.zeros((mesh.n_triangles, mesh.n_edges))
    for cell in range(mesh.n_triangles):
        tri = mesh.vertices[mesh.triangles[cell]]
        p0, jac, _, _ = cell_maps(mesh, cell)
        jinv = np.linalg.inv(jac)
        acc = np.zeros(3)
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            length = np.linalg.norm(b - a)
            tang = (b - a) / length
            normal = np.array([tang[1], -tang[0]])  # outward for CCW cells
            pts = a[None, :] + s[:, None] * (b - a)
            ref = (pts - p0) @ jinv.T
            phi = physical_whitney_from_ref(mesh, cell, ref)
            acc += length * normal[ncomp] * np.einsum("q,qk->k", ws, phi[:, :, comp])
        out[cell, mesh.tri_edges[cell]] += acc
    return out


def dense_interface_mass(mesh, interface_edges, n=8):
    """Line integrals of tangential-trace products over the interface.

    Integrates every basis function of the incident triangles, so it also
    verifies that only the own-edge trace survives.
    """
    xi, wi = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (xi + 1.0)
    ws = 0.5 * wi
    ne = mesh.n_edges
    out = np.zeros((ne, ne))
    for e in interface_edges:
        a, b = mesh.edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        length = np.linalg.norm(pb - pa)
        tang = (pb - pa) / length
        pts = pa[None, :] + s[:, None] * (pb - pa)
        cell = int(np.flatnonzero((mesh.tri_edges == e).any(axis=1))[0])
        p0, jac, _, _ = cell_maps(mesh, cell)
        ref = (pts - p0) @ np.linalg.inv(jac).T
        phi = physical_whitney_from_ref(mesh, cell, ref)
        traces = phi @ tang                       # (nq, 3)
        local = length * np.einsum("q,qk,ql->kl", ws, traces, traces)
        idx = mesh.tri_edges[cell]
        out[np.ix_(idx, idx)] += local
    return out


def dense_leapfrog_step(mesh, params, tau, e_prev, e_curr, h_old, ks,
                        g_dense=None, mask=None):
    """Independent dense implementation of the plain interface scheme.

    Magnetic update: mu0 (H_new - H_old)/tau = -curl(E)|_K - Ks per cell;
    electric update: the second-order-in-time interface equation with the
    averaged magnetic coupling, solved on the unconstrained block.
    """
    eps0, mu0, tau0, sig0 = params.eps0, params.mu0, params.tau0, params.sigma0
    md = dense_edge_mass(mesh)
    sd = dense_curl_curl(mesh)
    cd = dense_mixed_curl(mesh)
    gd = np.zeros_like(md) if g_dense is None else g_dense
    if mask is None:
        mask = mesh.edge_tags == 2

    h_new = h_old - tau / mu0 * ((cd @ e_curr) / mesh.areas + ks)
    hbar = 0.5 * (h_new + h_old)
    a_mat = (eps0 / tau ** 2 + eps0 / (2.0 * tau * tau0)) * md
    rhs = ((2.0 * eps0 / tau ** 2) * (md @ e_curr)
           - (eps0 / tau ** 2 - eps0 / (2.0 * tau * tau0)) * (md @ e_prev)
           - (1.0 / mu0) * (sd @ e_curr)
           - (sig0 / tau0) * (gd @ e_curr)
           + (1.0 / tau0) * (cd.T @ hbar)
           - (1.0 / mu0) * (cd.T @ ks))
    free = ~mask
    e_new = np.zeros_like(e_curr)
    e_new[free] = np.linalg.solve(a_mat[np.ix_(free, free)], rhs[free])
    return e_new, h_new


def dense_merged_step(mesh, params, tau, e_prev, e_curr, hx_old, hy_old, ks,
                      g_dense=None, mask=None, sigma=None, velocity=None, bc=None,
                      load=None):
    """Independent dense implementation of one merged interface/collar step.

    With no damping and no velocity this is the plain scheme of
    `dense_leapfrog_step`, written in split form.  Returns (e_new, hx_new,
    hy_new).

    `sigma` = (sigma_x, sigma_y) per cell switches on the collar damping;
    the undamped cells carry the sheet scheme, the damped ones (the collar)
    the split-field scheme.  Passing `velocity` makes this the first step:
    the pre-initial level is eliminated through e_prev = e_new - 2 tau
    velocity.  `bc`, a full edge vector, prescribes e_new on the
    constrained edges (zero when omitted); the free rows then carry the
    known columns to the right.
    `load` is an edge vector added to the electric right-hand side.

    Magnetic update, per component a in {x, y}:
      mu0 (Ha_new - Ha_old)/tau + mu0 sigma_a/(2 eps0) (Ha_new + Ha_old)
        = -/+ (D_a E)|_K - Ks/2,
    with the split derivatives integrated by the divergence theorem.
    Electric update: the second-order-in-time equation with the averaged
    magnetic coupling in physical cells and its time difference in the
    collar, solved on the unconstrained block.
    """
    eps0, mu0, tau0, sig0 = params.eps0, params.mu0, params.tau0, params.sigma0
    nt = mesh.n_triangles
    sx, sy = (np.zeros(nt), np.zeros(nt)) if sigma is None else sigma
    c1 = physical(sx, sy).astype(float)
    md = dense_edge_mass(mesh)
    md_phys = dense_edge_mass(mesh, c1)
    md1 = dense_edge_mass(mesh, np.column_stack([sy, sx]))
    sd_phys = dense_curl_curl(mesh, c1)
    cd = dense_mixed_curl(mesh)
    dxd = dense_partial_divergence(mesh, "x")
    dyd = dense_partial_divergence(mesh, "y")
    gd = np.zeros_like(md) if g_dense is None else g_dense
    if mask is None:
        mask = mesh.edge_tags == 2

    area = mesh.areas

    def split_update(h, sig, drive):
        lo = mu0 / tau - mu0 * sig / (2.0 * eps0)
        hi = mu0 / tau + mu0 * sig / (2.0 * eps0)
        return (lo * h + drive) / hi

    hx_new = split_update(hx_old, sx, -(dxd @ e_curr) / area - 0.5 * ks)
    hy_new = split_update(hy_old, sy, (dyd @ e_curr) / area - 0.5 * ks)
    h_new, h_prev = hx_new + hy_new, hx_old + hy_old

    damp = md1 + (eps0 / tau0) * md_phys
    a_mat = (eps0 / tau ** 2) * md + damp / (2.0 * tau)
    b_mat = (eps0 / tau ** 2) * md - damp / (2.0 * tau)
    rhs = ((2.0 * eps0 / tau ** 2) * (md @ e_curr)
           - (1.0 / mu0) * (sd_phys @ e_curr)
           - (sig0 / tau0) * (gd @ e_curr)
           + cd.T @ (c1 / (2.0 * tau0) * (h_new + h_prev)
                     + (1.0 - c1) / tau * (h_new - h_prev)
                     - c1 / mu0 * ks))
    if velocity is None:
        rhs -= b_mat @ e_prev
    else:
        a_mat = a_mat + b_mat
        rhs += 2.0 * tau * (b_mat @ velocity)
    if load is not None:
        rhs += load
    free = ~mask
    e_new = np.zeros_like(e_curr)
    if bc is not None:
        e_new[mask] = bc[mask]
        rhs = rhs - a_mat[:, mask] @ bc[mask]
    e_new[free] = np.linalg.solve(a_mat[np.ix_(free, free)], rhs[free])
    return e_new, hx_new, hy_new


def physical(sigma_x, sigma_y):
    """The cells the scheme treats as physical: those with no damping."""
    return (np.asarray(sigma_x) == 0.0) & (np.asarray(sigma_y) == 0.0)


def collar_cells(mesh):
    """The cells whose centroid lies outside `mesh.physical_bounds`."""
    lo, hi = np.reshape(mesh.physical_bounds, (2, 2)).T
    return np.any((mesh.centroids < lo) | (mesh.centroids > hi), axis=1)


def split_state(ops, e_prev, e_curr, hx, hy, step, tau):
    """The stepper's state for split halves `hx`, `hy` given on every cell:
    hz = hx + hy, and the halves kept on the damped cells only."""
    damped = ops.damped
    return FieldState(e_prev=e_prev.copy(), e_curr=e_curr.copy(), curl_e=ops.c @ e_curr,
                      hz=hx + hy, hzx=hx[damped].copy(), hzy=hy[damped].copy(),
                      step=step, tau=tau)


def shortest_edge_path(mesh, start, goal):
    """Edge indices of a shortest path from vertex `start` to `goal` over the
    mesh edges, weighted by length; None if there is none.  Dijkstra with a
    heap of (distance, vertex) that relaxes each vertex's edges in increasing
    edge order, so ties go to the shorter first edge, then the lower vertex."""
    neighbors = [[] for _ in range(mesh.n_vertices)]
    for e, (a, b) in enumerate(mesh.edges.tolist()):
        neighbors[a].append((b, e))
        neighbors[b].append((a, e))
    dist, prev, heap = {start: 0.0}, {}, [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == goal:
            break
        if d > dist[u]:
            continue
        for v, e in neighbors[u]:
            if d + mesh.edge_lengths[e] < dist.get(v, np.inf):
                dist[v], prev[v] = d + mesh.edge_lengths[e], (u, e)
                heapq.heappush(heap, (dist[v], v))
    if goal not in dist:
        return None
    path = []
    while goal != start:
        goal, e = prev[goal]
        path.append(e)
    return path[::-1]


def nearest_vertex(mesh, pts):
    """Per point, the lowest index among the vertices at the least Euclidean
    distance, found by measuring to every vertex."""
    dist = np.sqrt(((pts[:, None, :] - mesh.vertices[None]) ** 2).sum(axis=2))
    return np.argmax(dist == dist.min(axis=1, keepdims=True), axis=1)


def shortest_path_snap(mesh, primitives):
    """The sorted interface edges of the sheet `primitives` on `mesh`, with
    consecutive snapped vertices that share no edge joined by
    `shortest_edge_path`, at the sample spacing that `snap_interface` starts
    from; tags nothing."""
    edges = set()
    for prim in primitives:
        nearest = nearest_vertex(mesh, prim.sample(0.25 * min(mesh.h_x, mesh.h_y)))
        chain = nearest[np.r_[True, nearest[1:] != nearest[:-1]]].tolist()
        for a, b in zip(chain[:-1], chain[1:]):
            e = int(mesh.edge_index(a, b))
            edges.update([e] if e >= 0 else shortest_edge_path(mesh, a, b))
    return sorted(edges)


def graded_mesh(n):
    """The n x n criss-cross mesh of the unit square with x mapped to x^2, as
    a mesh file would give it: cells 1/n^2 wide at x = 0 and ~2/n at x = 1."""
    base = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, 0)
    vertices = base.vertices.copy()
    vertices[:, 0] **= 2
    return Mesh(vertices, base.triangles)


def tem_channel(width, h, half, layers, isotropic=False, sheet=False):
    """A parallel-plate channel and its operators: conducting plates at x = 0
    and `width`, physical y in (-half, half), square cells of side `h` and
    `layers` collar cells at each y end only, so sigma_x is 0 there.
    `isotropic` gives both axes the weight sigma_x + sigma_y; `sheet` snaps
    a graphene sheet across the channel at y = 0.  A TEM wave (E along x,
    Hz uniform across) runs along y; `generate_rect_mesh` numbers the cells
    row by row, two per grid cell."""
    depth, nx = layers * h, round(width / h)
    grid = generate_rect_mesh((0.0, width, -half - depth, half + depth),
                              nx, round(2 * half / h) + 2 * layers, 0)
    mesh = Mesh(grid.vertices, grid.triangles, h_x=h, h_y=h,
                physical_bounds=(0.0, width, -half, half))
    if sheet:
        assert len(snap_interface(mesh, [Segment((0.0, 0.0), (width, 0.0))])) == nx
    sx, sy = damping_at_centroids(mesh)
    if isotropic:
        sx = sy = sx + sy
    return mesh, build_operator_set(mesh, sx, sy)


def cells_containing(mesh, point, tol=1e-12):
    """Every cell whose barycentric coordinates at `point` are all >= -tol,
    in increasing order, found by solving on every cell."""
    tris = mesh.vertices[mesh.triangles]
    jac = np.stack([tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]], axis=2)
    rel = np.asarray(point, dtype=float) - tris[:, 0]
    lam = np.linalg.solve(jac, rel[:, :, None])[:, :, 0]
    return np.flatnonzero((lam >= -tol).all(axis=1) & (lam.sum(axis=1) <= 1.0 + tol))


def jittered_mesh(seed=11):
    """6x5 grid mesh of [0, 1.2] x [0, 1] with its interior vertices moved by
    up to a quarter cell per axis and its vertices renumbered at random, so
    cells differ in shape and each local edge takes both orientation signs."""
    base = generate_rect_mesh((0.0, 1.2, 0.0, 1.0), 6, 5, 0)
    rng = np.random.default_rng(seed)
    verts = base.vertices.copy()
    interior = np.bincount(base.edges.ravel()) == 6
    verts[interior] += rng.uniform(-0.25, 0.25, (interior.sum(), 2)) * 0.2
    perm = rng.permutation(len(verts))
    mesh = Mesh(verts[perm], np.argsort(perm)[base.triangles])
    assert all(set(mesh.tri_edge_signs[:, k]) == {-1, 1} for k in range(3))
    return mesh


def edge_midpoints(mesh):
    """Midpoint of every mesh edge, (n_edges, 2)."""
    return mesh.vertices[mesh.edges].mean(axis=1)


def save_mesh(mesh, path):
    """Write `mesh` in the documented ASCII format that `load_mesh` reads.

    A cell's tag is 1 in the collar (`collar_cells`), else 0.  Interior
    edges (tag 0) are implicit in the format, so only the interface and
    outer-boundary edges are listed.
    """
    with open(path, "w") as f:
        f.write(f"SPPMESH 1\nVERTICES {mesh.n_vertices}\n")
        f.writelines(f"{x:.17g} {y:.17g}\n" for x, y in mesh.vertices)
        f.write(f"TRIANGLES {mesh.n_triangles}\n")
        f.writelines(f"{i} {j} {k} {int(tag)}\n"
                     for (i, j, k), tag in zip(mesh.triangles, collar_cells(mesh)))
        tagged = np.flatnonzero(mesh.edge_tags != 0)
        f.write(f"EDGETAGS {len(tagged)}\n")
        f.writelines(f"{a} {b} {int(mesh.edge_tags[e])}\n"
                     for e, (a, b) in zip(tagged, mesh.edges[tagged]))


# -- pointwise fields and sources of the manufactured case ----------------------
# physics.ManufacturedCase keeps its drives and its fields only as modes times
# coefficients of t.  These are its closed-form fields and the sources written
# out from them: E = sin(wt) V1 and H = a sx sy s(t) with s = sin(wt) above the
# interface and g(t) = w (cos(wt) - exp(-t)) below; w = 2 pi, a = 1/(1 + w^2),
# V1 = (sx sy, cx cy), and curl H = (dH/dy, -dH/dx) = a w s(t) (sx cy, -cx sy).

_W = 2.0 * np.pi
_A = 1.0 / (1.0 + _W ** 2)


def _fields(case, pts, t, deriv):
    """sx sy, sx cy, V1, V2 = (sx cy, -cx sy) and s(t) or its time derivative."""
    sx, cx = np.sin(_W * pts[:, 0]), np.cos(_W * pts[:, 0])
    sy, cy = np.sin(_W * pts[:, 1]), np.cos(_W * pts[:, 1])
    above = (np.sin(_W * t), _W * np.cos(_W * t))[deriv]
    below = (_W * (np.cos(_W * t) - np.exp(-t)),
             -_W ** 2 * np.sin(_W * t) + _W * np.exp(-t))[deriv]
    amp = np.where(pts[:, 1] > case.interface_y, above, below)
    return (sx * sy, sx * cy, np.column_stack([sx * sy, cx * cy]),
            np.column_stack([sx * cy, -cx * sy]), amp)


def e_field(case, pts, t):
    """The exact electric field E = sin(wt) V1."""
    return np.sin(_W * t) * _fields(case, pts, t, 0)[2]


def h_field(case, pts, t):
    """The exact magnetic field H = a sx sy s(t), s dispatched per subdomain."""
    sxsy, _, _, _, amp = _fields(case, pts, t, 0)
    return _A * sxsy * amp


def f_vector(case, pts, t):
    """eps0 dE/dt - curl H, dispatched per subdomain."""
    _, _, v1, v2, amp = _fields(case, pts, t, 0)
    return (case.params.eps0 * (_W * np.cos(_W * t) * v1)
            - _A * _W * amp[:, None] * v2)


def dt_f_vector(case, pts, t):
    _, _, v1, v2, damp = _fields(case, pts, t, 1)
    return (case.params.eps0 * (-_W ** 2 * np.sin(_W * t) * v1)
            - _A * _W * damp[:, None] * v2)


def f_scalar(case, pts, t):
    """mu0 dH/dt + curl E, dispatched per subdomain."""
    sxsy, sxcy, _, _, damp = _fields(case, pts, t, 1)
    return (case.params.mu0 * (_A * sxsy * damp)
            - 2.0 * _W * sxcy * np.sin(_W * t))


def ks(case, pts, t):
    """The case's magnetic drive summed from its modes; K_s = -f_scalar."""
    return np.tensordot(case.ks_coeffs(t), case.drive_modes(pts)[0], axes=1)


def e_load_field(case, pts, t):
    """The case's electric drive summed from its modes: f + tau0 df/dt."""
    return np.tensordot(case.e_load_coeffs(t), case.drive_modes(pts)[1], axes=1)
