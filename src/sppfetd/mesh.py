"""Conforming triangular meshes of a rectangle with an absorbing collar.

Meshes are structured criss-cross triangulations: every grid cell is split
into two counterclockwise triangles along its lower-left to upper-right
diagonal.  Edges are stored with the lower vertex index first, which fixes
the global tangent direction used by the edge-element spaces.  Graphene
curves are snapped onto mesh edges, so the discrete interface is always a
path of ordinary conforming edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .checks import ConfigError, FieldError, finite, numbers, positive, validate


class EdgeTag(IntEnum):
    INTERIOR = 0
    INTERFACE = 1
    OUTER_BOUNDARY = 2


# Local edges of a triangle in counterclockwise traversal order.
TRI_EDGE_LOCAL = ((0, 1), (1, 2), (2, 0))

MESH_FORMAT_HEADER = "SPPMESH 1"

SNAP_HALVINGS = 4       # times `snap_interface` may halve a sample spacing


class MeshError(ConfigError):
    """Invalid mesh input or violated mesh invariant.

    `kind` ("vertex", "triangle" or "edge tag") and `index` name the input
    row at fault, as `FieldError` names a field; both are None for an
    error of the mesh as a whole.
    """

    def __init__(self, detail: str, kind: str | None = None, index=None):
        self.kind, self.index, self.detail = kind, index, detail
        super().__init__(detail if kind is None else f"{kind} {index}: {detail}")


@dataclass(frozen=True)
class Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]

    def __post_init__(self):
        validate(self, p0=numbers(2), p1=numbers(2))

    def length(self) -> float:
        return float(np.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1]))

    def sample(self, spacing: float) -> np.ndarray:
        n = max(int(np.ceil(self.length() / spacing)), 1)
        t = np.linspace(0.0, 1.0, n + 1)[:, None]
        return np.asarray(self.p0) * (1.0 - t) + np.asarray(self.p1) * t


@dataclass(frozen=True)
class Arc:
    center: tuple[float, float]
    radius: float
    angle_start: float
    angle_end: float

    def __post_init__(self):
        validate(self, center=numbers(2), radius=positive, angle_start=finite,
                 angle_end=finite)

    def length(self) -> float:
        return abs(self.angle_end - self.angle_start) * self.radius

    def sample(self, spacing: float) -> np.ndarray:
        n = max(int(np.ceil(self.length() / spacing)), 2)
        ang = np.linspace(self.angle_start, self.angle_end, n + 1)
        return np.column_stack([
            self.center[0] + self.radius * np.cos(ang),
            self.center[1] + self.radius * np.sin(ang),
        ])


def sheet(name: str, value) -> tuple:
    """Rule for a graphene sheet: a list or tuple of Segments and Arcs, kept as a tuple."""
    if not (isinstance(value, (list, tuple))
            and all(isinstance(p, (Segment, Arc)) for p in value)):
        raise FieldError(name, "a list or tuple of Segment and Arc", value)
    return tuple(value)


class Mesh:
    """Triangular mesh with oriented edges and edge tags.

    Parameters
    ----------
    vertices : (nv, 2) finite coordinates in meters.
    triangles : (nt, 3) vertex indices, 0-based, counterclockwise.
    cell_tags : (nt,) a file's tag column, 1 where a centroid is out of bounds, else 0.
    tagged_edges : (k, 3) rows (i, j, tag) that tag the edge between
        vertices i and j INTERFACE or OUTER_BOUNDARY; untagged edges are
        OUTER_BOUNDARY if one triangle has them, else INTERIOR.
    h_x, h_y : maximum cell extents per axis, meters, finite and positive.
    physical_bounds : (xmin, xmax, ymin, ymax), finite with min < max; by
        default the bounding box of the tag-0 cells.

    The constructor checks all it is given and the mesh invariants; a
    `MeshError` names the vertex, triangle or edge-tag row at fault.
    Instances are treated as immutable once built (the only sanctioned
    mutation is interface tagging by `snap_interface`).
    """

    def __init__(self, vertices, triangles, cell_tags=None, tagged_edges=None,
                 h_x=None, h_y=None, physical_bounds=None):
        v = self.vertices = _numbers(vertices, (None, 2),
                                     "vertices must be an (n, 2) array")
        _refuse(~np.isfinite(v), "vertex",
                lambda i: f"coordinates {v[i].tolist()} are not finite")
        self.triangles = _triangle_indices(
            _numbers(triangles, (None, 3), "triangles must be an (m, 3) array"),
            self.n_vertices)
        nt = self.n_triangles
        if nt == 0:
            raise MeshError("a mesh needs at least one triangle")
        tags = _numbers(np.zeros(nt) if cell_tags is None else cell_tags, (nt,),
                        f"cell tags must be {nt} numbers, one per triangle")
        _refuse((tags != 0) & (tags != 1), "triangle",
                lambda i: f"cell tag {tags[i]:g} is not 0 (physical) or 1 (absorber)")

        self._build_geometry()
        _refuse(self.areas <= 0.0, "triangle", lambda i: "not counterclockwise "
                f"(signed area {self.areas[i]:.3e})")
        self._build_edges()
        ev = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(ev[:, 0], ev[:, 1])
        self.edge_tangents = ev / self.edge_lengths[:, None]
        shared = self.edge_triangle_count[self.tri_edges]
        _refuse(shared > 2, "triangle",
                lambda i: f"has an edge of {shared[i].max()} triangles, more than 2")
        euler = self.n_vertices - self.n_edges + nt + 1
        if euler != 2:
            raise MeshError(f"Euler relation violated: V-E+T+1 = {euler}, expected 2")

        self.edge_tags = np.where(self.edge_triangle_count == 1,
                                  np.uint8(EdgeTag.OUTER_BOUNDARY),
                                  np.uint8(EdgeTag.INTERIOR))
        rows = _numbers(np.empty((0, 3)) if tagged_edges is None else tagged_edges,
                        (None, 3), "tagged edges must be a (k, 3) array")
        _refuse(~np.isin(rows[:, 2], (EdgeTag.INTERFACE, EdgeTag.OUTER_BOUNDARY)),
                "edge tag", lambda i: f"unknown edge tag {rows[i, 2]:g} "
                "(1 interface, 2 outer boundary)")
        edges = self.edge_index(rows[:, 0], rows[:, 1])
        _refuse(edges < 0, "edge tag", lambda i: f"({rows[i, 0]:g}, {rows[i, 1]:g}) "
                "is not an edge of the mesh")
        self._set_edge_tags(edges, rows[:, 2].astype(np.uint8), "edge tag")

        if h_x is None or h_y is None:
            extent = np.ptp(self.vertices[self.triangles], axis=1).max(axis=0)
            h_x, h_y = (e if h is None else h for h, e in zip((h_x, h_y), extent))
        h = _numbers((h_x, h_y), (2,), "h_x and h_y must be numbers")
        if not np.all(np.isfinite(h) & (h > 0)):
            raise MeshError(f"h_x and h_y must be finite and positive, got {h.tolist()}")
        self.h_x, self.h_y = h.tolist()

        if physical_bounds is None:
            phys = self.triangles[tags == 0]
            corners = self.vertices[np.unique(phys)] if len(phys) else self.vertices
            lo, hi = corners.min(axis=0), corners.max(axis=0)
            physical_bounds = (lo[0], hi[0], lo[1], hi[1])
        b = _numbers(physical_bounds, (4,), "physical bounds must be 4 numbers")
        if not (np.all(np.isfinite(b)) and b[0] < b[1] and b[2] < b[3]):
            raise MeshError("physical bounds (xmin, xmax, ymin, ymax) must be finite "
                            f"with min < max on each axis, got {b.tolist()}")
        self.physical_bounds = tuple(b.tolist())
        if cell_tags is not None:
            inside = np.all((self.centroids >= b[::2]) & (self.centroids <= b[1::2]), axis=1)
            _refuse(inside == (tags == 1), "triangle", lambda i: f"cell tag {tags[i]:g}, "
                    f"but its centroid lies {'in' if inside[i] else 'out'}side the "
                    f"physical rectangle {self.physical_bounds}")

    # -- construction helpers -------------------------------------------------

    def _build_edges(self):
        tris = self.triangles
        raw = np.concatenate([tris[:, [i, j]] for i, j in TRI_EDGE_LOCAL])
        lo = np.minimum(raw[:, 0], raw[:, 1])
        hi = np.maximum(raw[:, 0], raw[:, 1])
        # One integer key per vertex pair sorts like the pair itself.
        nv = len(self.vertices)
        self._edge_keys, inverse = np.unique(lo * nv + hi, return_inverse=True)
        self.edges = np.column_stack([self._edge_keys // nv, self._edge_keys % nv])
        nt = len(tris)
        self.tri_edges = inverse.reshape(3, nt).T.copy()
        # +1 when the counterclockwise traversal runs from the lower to the
        # higher global vertex index (the stored tangent direction).
        signs = np.empty((nt, 3), dtype=np.int8)
        for k, (i, j) in enumerate(TRI_EDGE_LOCAL):
            signs[:, k] = np.where(tris[:, i] < tris[:, j], 1, -1)
        self.tri_edge_signs = signs
        self.edge_triangle_count = np.bincount(self.tri_edges.ravel(),
                                               minlength=len(self.edges))

    def _build_geometry(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self.centroids = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0

    def _set_edge_tags(self, edges, tags, kind=None):
        """Tag `edges` INTERFACE or OUTER_BOUNDARY by `tags`, where the edges of
        one triangle, and only they, are OUTER_BOUNDARY and at most three
        interface edges meet at a vertex; a `MeshError` names the entry of
        `edges` (as `kind`) or the vertex."""
        boundary = self.edge_triangle_count[edges] == 1
        ends = self.edges[edges]
        _refuse(boundary != (tags == EdgeTag.OUTER_BOUNDARY), kind, lambda i: (
            f"interface edge {tuple(ends[i].tolist())} lies on the outer boundary"
            if boundary[i] else
            f"edge {tuple(ends[i].tolist())} of two triangles tagged outer boundary"))
        new = self.edge_tags.copy()
        new[edges] = tags
        degree = np.bincount(self.edges[new == EdgeTag.INTERFACE].ravel(),
                             minlength=self.n_vertices)
        _refuse(degree > 3, "vertex",
                lambda i: f"{degree[i]} interface edges meet here, more than 3")
        self.edge_tags = new

    # -- queries ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def interface_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tags == EdgeTag.INTERFACE)

    def edge_index(self, a, b):
        """Index of the edge between vertices a and b, elementwise over
        arrays of vertex indices; -1 where there is none."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * self.n_vertices + hi
        k = np.minimum(np.searchsorted(self._edge_keys, keys), self.n_edges - 1)
        found = (self._edge_keys[k] == keys) & (lo >= 0) & (hi < self.n_vertices)
        return np.where(found, k, -1)


def _numbers(value, shape, rule: str) -> np.ndarray:
    """`value` as a float array of `shape` (None: any length), else a
    `MeshError` that `rule` words."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"{rule}: {exc}") from None
    if array.ndim != len(shape) or any(n not in (None, m)
                                       for n, m in zip(shape, array.shape)):
        raise MeshError(f"{rule}, got shape {array.shape}")
    return array


def _triangle_indices(rows: np.ndarray, nv: int) -> np.ndarray:
    """`rows` as int64 vertex indices; a `MeshError` names the first triangle
    with an index that is not an integer in [0, nv) or that repeats."""
    bad = (rows != np.round(rows)) | (rows < 0) | (rows >= nv)
    _refuse(bad, "triangle", lambda i: f"vertex index {rows[i][bad[i]][0]:g} "
            f"is not an integer in [0, {nv})")
    # A row against itself rolled by one compares each pair of its entries.
    _refuse(rows == np.roll(rows, 1, axis=1), "triangle",
            lambda i: f"repeated vertex index in {rows[i].astype(int).tolist()}")
    return rows.astype(np.int64)


def _refuse(bad: np.ndarray, kind, detail) -> None:
    """Raise a `MeshError` about the first row `i` in which `bad` holds, if
    any, as row `i` of `kind` with the text `detail(i)`."""
    hits = np.flatnonzero(bad)
    if len(hits):
        i = int(np.unravel_index(hits[0], bad.shape)[0])
        raise MeshError(detail(i), kind, i)


def generate_rect_mesh(bounds, nx: int, ny: int, pml_layers: int = 0) -> Mesh:
    """Criss-cross triangulation of `bounds` plus a `pml_layers`-cell collar.

    `bounds` is (xmin, xmax, ymin, ymax) in meters and describes the physical
    region, the mesh's `physical_bounds`; the collar is the cells outside
    it.  Each grid cell is split along its lower-left to upper-right diagonal.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if not (xmax > xmin and ymax > ymin):
        raise MeshError("bounds must describe a nondegenerate rectangle")
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    if pml_layers < 0:
        raise MeshError("pml_layers must be nonnegative")

    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    p = int(pml_layers)
    mx, my = nx + 2 * p, ny + 2 * p
    xs = xmin - p * hx + hx * np.arange(mx + 1)
    ys = ymin - p * hy + hy * np.arange(my + 1)

    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # Vertex ids on the grid; cell (i, j) has corners ids[j:j + 2, i:i + 2].
    ids = np.arange((mx + 1) * (my + 1)).reshape(my + 1, mx + 1)
    v00, v10 = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    v01, v11 = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    triangles = np.empty((2 * mx * my, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return Mesh(vertices, triangles, h_x=hx, h_y=hy,
                physical_bounds=(xmin, xmax, ymin, ymax))


def snap_interface(mesh: Mesh, primitives) -> np.ndarray:
    """Snap a sheet's curve primitives (`Segment`s and `Arc`s) onto mesh
    edges and tag them INTERFACE.

    Each primitive is sampled at sub-edge resolution, samples are moved to
    their nearest mesh vertex (on a tie, the lowest index of the four
    nearest, a rule no tree layout changes), and consecutive distinct
    vertices are joined (`_join`).  A primitive with a step that `_join`
    cannot join is sampled again at half the spacing, at most SNAP_HALVINGS
    times; one that snaps to a single vertex is a `MeshError` naming its
    index.  Returns the sorted interface edge indices; mutates ``mesh.edge_tags``.
    """
    from scipy.spatial import cKDTree

    lo, hi = np.reshape(mesh.physical_bounds, (2, 2)).T
    tol = 1e-9 * max(mesh.h_x, mesh.h_y)
    spacing = 0.25 * min(mesh.h_x, mesh.h_y)
    tree = cKDTree(mesh.vertices, balanced_tree=False, compact_nodes=False)

    def steps(i, halvings):
        pts = primitives[i].sample(spacing / 2 ** halvings)
        if np.any((pts < lo - tol) | (pts > hi + tol)):
            raise MeshError(f"interface primitive {i} leaves the physical region")
        dist, near = tree.query(pts, k=4)
        nearest = np.where(dist == dist[:, :1], near, mesh.n_vertices).min(axis=1)
        chain = nearest[np.r_[True, nearest[1:] != nearest[:-1]]]
        if len(chain) == 1:
            raise MeshError(f"interface primitive {i} snaps to the single vertex "
                            f"{chain[0]}, so it lies on no mesh edge")
        return np.column_stack([chain[:-1], chain[1:]])

    level = np.zeros(len(primitives), dtype=int)
    for _ in range(SNAP_HALVINGS + 1):
        chains = [steps(i, n) for i, n in enumerate(level)]
        pairs = np.concatenate([np.empty((0, 2), dtype=np.int64), *chains])
        edges, unjoined = _join(mesh, pairs)
        if not len(unjoined):
            mesh._set_edge_tags(edges, EdgeTag.INTERFACE)
            return edges
        level[np.repeat(np.arange(len(chains)), list(map(len, chains)))[unjoined]] += 1
    a, b = pairs[unjoined[0]]
    raise MeshError(f"snapped interface steps from vertex {a} to vertex {b}, which share "
                    f"neither an edge nor a quad, after {SNAP_HALVINGS} halvings")


def _join(mesh: Mesh, pairs: np.ndarray):
    """The sorted edges that join the vertex pairs (a, b) of `pairs`, and the
    rows of the pairs that are neither an edge nor a quad diagonal.  A quad
    is two triangles that share an edge (p, q), with apexes a and b; it is
    joined through the end c with the shorter L(a, c) + L(c, b), on a tie the
    shorter L(a, c), then the lower index, as a shortest-path search would."""
    found = mesh.edge_index(pairs[:, 0], pairs[:, 1])
    a, b = pairs[found < 0].T
    # Only the triangles at an end of a step can be half of its quad.
    ends = np.zeros(mesh.n_vertices, dtype=bool)
    ends[a] = ends[b] = True
    tris = np.unique(np.flatnonzero(ends[mesh.triangles]) // 3)
    order = np.argsort(mesh.tri_edges[tris].ravel())
    sides = mesh.tri_edges[tris].ravel()[order]
    apexes = mesh.triangles[tris][:, [2, 0, 1]].ravel()[order]
    twin = np.flatnonzero(sides[1:] == sides[:-1])
    quads, wanted = (np.minimum(u, v) * mesh.n_vertices + np.maximum(u, v)
                     for u, v in ((apexes[twin], apexes[twin + 1]), (a, b)))
    hit = np.isin(wanted, quads)
    order = np.argsort(quads)
    shared = sides[twin][order[np.searchsorted(quads, wanted[hit], sorter=order)]]
    p, q = mesh.edges[shared].T
    a, b = a[hit], b[hit]
    l_ap, l_pb, l_aq, l_qb = (mesh.edge_lengths[mesh.edge_index(u, v)]
                              for u, v in ((a, p), (p, b), (a, q), (q, b)))
    # Edges are stored lower index first, so p < q wins the last tie.
    via_q = (l_aq + l_qb < l_ap + l_pb) | ((l_aq + l_qb == l_ap + l_pb) & (l_aq < l_ap))
    c = np.where(via_q, q, p)
    edges = np.concatenate([found[found >= 0], mesh.edge_index(a, c), mesh.edge_index(c, b)])
    return np.unique(edges), np.flatnonzero(found < 0)[~hit]


def load_mesh(path) -> Mesh:
    """Read the ASCII mesh format.  This only parses: `Mesh` checks what the
    file holds, and every error names its line as `path:LINE: ...`."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh {path}: {exc}") from exc

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno + 1}: {msg}")

    if not lines or lines[0].strip() != MESH_FORMAT_HEADER:
        fail(0, f"expected header '{MESH_FORMAT_HEADER}'")
    pos, starts = 1, {}

    def block(name, kind, fields, dtype):
        """The rows of block `name`, each of `fields`, whose line a
        `MeshError` about row `i` of `kind` names as `starts[kind] + i`."""
        nonlocal pos
        if pos >= len(lines):
            fail(len(lines) - 1, f"unexpected end of file, expected '{name} <count>'")
        head = lines[pos].split()
        if len(head) != 2 or head[0] != name or not head[1].isdecimal():
            fail(pos, f"expected block header '{name} <count>', a whole-number count")
        count, width = int(head[1]), len(fields.split())
        starts[kind] = pos = pos + 1
        rows = [line.split() for line in lines[pos:pos + count]]
        try:
            values = np.array(rows, dtype=dtype).reshape(count, width)
        except (ValueError, OverflowError):
            for i, row in enumerate(rows):
                if len(row) != width:
                    fail(pos + i, f"expected '{fields}'")
                try:
                    np.array(row, dtype=dtype)
                except (ValueError, OverflowError):
                    fail(pos + i, f"bad number in '{fields}'")
            fail(len(lines) - 1, f"unexpected end of file, expected '{fields}'")
        pos += count
        return values

    vertices = block("VERTICES", "vertex", "x y", float)
    triangles = block("TRIANGLES", "triangle", "i j k tag", np.int64)
    tagged_edges = block("EDGETAGS", "edge tag", "i j tag", np.int64)
    if any(line.strip() for line in lines[pos:]):
        fail(pos, "unexpected lines after the EDGETAGS block")
    try:
        return Mesh(vertices, triangles[:, :3], triangles[:, 3], tagged_edges)
    except MeshError as exc:
        if exc.kind is None:
            raise MeshError(f"{path}: {exc}") from exc
        fail(starts[exc.kind] + exc.index, exc.detail)
