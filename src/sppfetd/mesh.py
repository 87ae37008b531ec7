"""Conforming triangular meshes of a rectangle with an absorbing collar.

Meshes are structured criss-cross triangulations: every grid cell is split
into two counterclockwise triangles along its lower-left to upper-right
diagonal.  Edges are stored with the lower vertex index first, which fixes
the global tangent direction used by the edge-element spaces.  Graphene
curves are snapped onto mesh edges, so the discrete interface is always a
path of ordinary conforming edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class CellTag(IntEnum):
    PHYSICAL = 0
    PML = 1


class EdgeTag(IntEnum):
    INTERIOR = 0
    INTERFACE = 1
    OUTER_BOUNDARY = 2


# Local edges of a triangle in counterclockwise traversal order.
TRI_EDGE_LOCAL = ((0, 1), (1, 2), (2, 0))

MESH_FORMAT_HEADER = "SPPMESH 1"


class MeshError(ValueError):
    """Invalid mesh input or violated mesh invariant."""


@dataclass(frozen=True)
class Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]

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
        if self.radius <= 0.0:
            raise MeshError("arc radius must be positive")

    def length(self) -> float:
        return abs(self.angle_end - self.angle_start) * self.radius

    def sample(self, spacing: float) -> np.ndarray:
        n = max(int(np.ceil(self.length() / spacing)), 2)
        ang = np.linspace(self.angle_start, self.angle_end, n + 1)
        return np.column_stack([
            self.center[0] + self.radius * np.cos(ang),
            self.center[1] + self.radius * np.sin(ang),
        ])


@dataclass(frozen=True)
class InterfaceSpec:
    """Ordered curve primitives describing a graphene sheet."""

    primitives: tuple

    def __init__(self, primitives):
        object.__setattr__(self, "primitives", tuple(primitives))


class Mesh:
    """Triangular mesh with oriented edges and cell/edge tags.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates in meters.
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    cell_tags : (nt,) array of CellTag values.
    h_x, h_y : maximum cell extents per axis, meters.

    Edge connectivity, orientation signs, areas and centroids are derived
    on construction.  Instances are treated as immutable once built (the
    only sanctioned mutation is interface tagging during construction).
    """

    def __init__(self, vertices, triangles, cell_tags=None, h_x=None, h_y=None,
                 physical_bounds=None, validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")

        nt = len(self.triangles)
        if cell_tags is None:
            cell_tags = np.zeros(nt, dtype=np.uint8)
        self.cell_tags = np.asarray(cell_tags, dtype=np.uint8)

        self._build_edges()
        self._build_geometry()

        self.edge_tags = np.where(self.edge_triangle_count == 1,
                                  np.uint8(EdgeTag.OUTER_BOUNDARY),
                                  np.uint8(EdgeTag.INTERIOR))

        if h_x is None or h_y is None:
            span = self.vertices[self.triangles]
            h_x = float(np.max(span[:, :, 0].max(axis=1) - span[:, :, 0].min(axis=1)))
            h_y = float(np.max(span[:, :, 1].max(axis=1) - span[:, :, 1].min(axis=1)))
        self.h_x = float(h_x)
        self.h_y = float(h_y)

        if physical_bounds is None:
            physical_bounds = self._physical_bbox()
        self.physical_bounds = tuple(float(v) for v in physical_bounds)

        if validate:
            self.validate()

    # -- construction helpers -------------------------------------------------

    def _build_edges(self):
        tris = self.triangles
        if np.any((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                  | (tris[:, 0] == tris[:, 2])):
            raise MeshError("triangle with repeated vertex indices")
        raw = np.concatenate([tris[:, [i, j]] for i, j in TRI_EDGE_LOCAL])
        lo = np.minimum(raw[:, 0], raw[:, 1])
        hi = np.maximum(raw[:, 0], raw[:, 1])
        # One integer key per vertex pair sorts like the pair itself.
        nv = len(self.vertices)
        keys, inverse = np.unique(lo * nv + hi, return_inverse=True)
        self.edges = np.column_stack([keys // nv, keys % nv])
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
        ev = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(ev[:, 0], ev[:, 1])
        self.edge_tangents = ev / self.edge_lengths[:, None]

    def _physical_bbox(self):
        phys = self.cell_tags == CellTag.PHYSICAL
        verts = self.vertices[np.unique(self.triangles[phys])] if phys.any() else self.vertices
        return (verts[:, 0].min(), verts[:, 0].max(),
                verts[:, 1].min(), verts[:, 1].max())

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

    def edge_index(self, a: int, b: int) -> int:
        """Index of edge (a, b); -1 when absent."""
        lo, hi = (a, b) if a < b else (b, a)
        k = np.searchsorted(self.edges[:, 0], lo)
        while k < len(self.edges) and self.edges[k, 0] == lo:
            if self.edges[k, 1] == hi:
                return int(k)
            k += 1
        return -1

    def vertex_adjacency(self):
        """CSR arrays (indptr, neighbors, edge indices): vertex v meets
        neighbors[indptr[v]:indptr[v + 1]] through the edges at the same
        positions, in increasing edge order."""
        src = self.edges.ravel()
        edge_ids = np.repeat(np.arange(self.n_edges), 2)
        order = np.lexsort((edge_ids, src))
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n_vertices), out=indptr[1:])
        return indptr, self.edges[:, ::-1].ravel()[order], edge_ids[order]

    # -- invariants ------------------------------------------------------------

    def validate(self):
        if np.any(self.areas <= 0.0):
            bad = int(np.argmax(self.areas <= 0.0))
            raise MeshError(f"triangle {bad} is not counterclockwise "
                            f"(signed area {self.areas[bad]:.3e})")
        counts = self.edge_triangle_count
        if np.any((counts < 1) | (counts > 2)):
            raise MeshError("edge shared by an invalid number of triangles")
        single = counts == 1
        if np.any(single & (self.edge_tags != EdgeTag.OUTER_BOUNDARY)):
            raise MeshError("edge with one incident triangle not tagged OUTER_BOUNDARY")
        if np.any(~single & (self.edge_tags == EdgeTag.OUTER_BOUNDARY)):
            raise MeshError("interior edge tagged OUTER_BOUNDARY")
        euler = self.n_vertices - self.n_edges + self.n_triangles + 1
        if euler != 2:
            raise MeshError(f"Euler relation violated: V-E+T+1 = {euler}, expected 2")
        iface = self.interface_edges()
        if len(iface):
            deg = np.zeros(self.n_vertices, dtype=np.int64)
            np.add.at(deg, self.edges[iface].ravel(), 1)
            if deg.max() > 3:
                raise MeshError("interface vertex with more than 3 interface edges")


def generate_rect_mesh(bounds, nx: int, ny: int, pml_layers: int = 0) -> Mesh:
    """Criss-cross triangulation of `bounds` plus a `pml_layers`-cell collar.

    `bounds` is (xmin, xmax, ymin, ymax) in meters and describes the physical
    region; the collar cells outside it are tagged PML.  Each grid cell is
    split along its lower-left to upper-right diagonal.
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

    def vid(i, j):
        return j * (mx + 1) + i

    ii, jj = np.meshgrid(np.arange(mx), np.arange(my), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v01 = vid(ii, jj + 1)
    v11 = vid(ii + 1, jj + 1)
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * mx * my, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    mesh = Mesh(vertices, triangles, h_x=hx, h_y=hy,
                physical_bounds=(xmin, xmax, ymin, ymax), validate=False)
    mesh.cell_tags = classify_cells(mesh, (xmin, xmax, ymin, ymax))
    mesh.validate()
    return mesh


def classify_cells(mesh: Mesh, physical_bounds) -> np.ndarray:
    """Per-cell tags: PHYSICAL iff the centroid lies inside `physical_bounds`."""
    xmin, xmax, ymin, ymax = physical_bounds
    ext_x = mesh.vertices[:, 0]
    ext_y = mesh.vertices[:, 1]
    if not (ext_x.min() <= xmin and xmax <= ext_x.max()
            and ext_y.min() <= ymin and ymax <= ext_y.max()):
        raise MeshError("physical_bounds must lie inside the mesh extent")
    c = mesh.centroids
    inside = ((c[:, 0] > xmin) & (c[:, 0] < xmax)
              & (c[:, 1] > ymin) & (c[:, 1] < ymax))
    tags = np.where(inside, np.uint8(CellTag.PHYSICAL), np.uint8(CellTag.PML))
    return tags


def snap_interface(mesh: Mesh, spec: InterfaceSpec) -> np.ndarray:
    """Snap curve primitives onto mesh edges and tag them INTERFACE.

    Each primitive is sampled at sub-edge resolution, samples are moved to
    their nearest mesh vertex, and consecutive distinct vertices are joined
    by shortest edge paths.  Returns the sorted interface edge indices.
    Construction-phase operation: mutates ``mesh.edge_tags``.
    """
    from scipy.spatial import cKDTree

    xmin, xmax, ymin, ymax = mesh.physical_bounds
    tol = 1e-9 * max(mesh.h_x, mesh.h_y)
    spacing = 0.25 * min(mesh.h_x, mesh.h_y)
    tree = cKDTree(mesh.vertices)
    adjacency = mesh.vertex_adjacency()

    chosen: set[int] = set()
    for prim in spec.primitives:
        pts = prim.sample(spacing)
        if np.any((pts[:, 0] < xmin - tol) | (pts[:, 0] > xmax + tol)
                  | (pts[:, 1] < ymin - tol) | (pts[:, 1] > ymax + tol)):
            raise MeshError("interface primitive leaves the physical region")
        _, nearest = tree.query(pts)
        path_verts = [int(nearest[0])]
        for v in nearest[1:]:
            if int(v) != path_verts[-1]:
                path_verts.append(int(v))
        for a, b in zip(path_verts[:-1], path_verts[1:]):
            e = mesh.edge_index(a, b)
            if e >= 0:
                chosen.add(e)
            else:
                for e in _shortest_edge_path(mesh, adjacency, a, b):
                    chosen.add(e)

    edges = np.array(sorted(chosen), dtype=np.int64)
    if len(edges):
        tags = mesh.edge_tags.copy()
        if np.any(tags[edges] == EdgeTag.OUTER_BOUNDARY):
            raise MeshError("interface may not run along the outer boundary")
        tags[edges] = np.uint8(EdgeTag.INTERFACE)
        mesh.edge_tags = tags
        mesh.validate()
    return edges


def _shortest_edge_path(mesh: Mesh, adjacency, start: int, goal: int) -> list:
    """Dijkstra over mesh edges with Euclidean weights; deterministic."""
    indptr, neighbors, edge_ids = adjacency
    dist = {start: 0.0}
    prev: dict[int, tuple] = {}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == goal:
            break
        if d > dist.get(u, np.inf):
            continue
        lo, hi = indptr[u], indptr[u + 1]
        for v, e in zip(neighbors[lo:hi].tolist(), edge_ids[lo:hi].tolist()):
            nd = d + mesh.edge_lengths[e]
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                prev[v] = (u, e)
                heapq.heappush(heap, (nd, v))
    if goal not in dist:
        raise MeshError(f"snapped interface is disconnected between "
                        f"vertices {start} and {goal}")
    path = []
    v = goal
    while v != start:
        u, e = prev[v]
        path.append(e)
        v = u
    path.reverse()
    return path


def load_mesh(path) -> Mesh:
    """Read the ASCII mesh format; invariants are validated on load."""
    with open(path) as f:
        lines = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno + 1}: {msg}")

    if not lines or lines[0].strip() != MESH_FORMAT_HEADER:
        fail(0, f"expected header '{MESH_FORMAT_HEADER}'")

    pos = 1

    def row(fields):
        if pos >= len(lines):
            fail(len(lines) - 1, f"unexpected end of file, expected '{fields}'")
        parts = lines[pos].split()
        if len(parts) != len(fields.split()):
            fail(pos, f"expected '{fields}'")
        return parts

    def expect_block(name):
        nonlocal pos
        parts = row(f"{name} <count>")
        if parts[0] != name:
            fail(pos, f"expected block header '{name} <count>'")
        try:
            count = int(parts[1])
        except ValueError:
            fail(pos, f"bad count in '{name}' block")
        if count < 0:
            fail(pos, f"negative count in '{name}' block")
        pos += 1
        return count

    nv = expect_block("VERTICES")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        parts = row("x y")
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            fail(pos, "bad vertex coordinate")
        pos += 1

    nt = expect_block("TRIANGLES")
    triangles = np.empty((nt, 3), dtype=np.int64)
    cell_tags = np.empty(nt, dtype=np.uint8)
    for i in range(nt):
        parts = row("i j k tag")
        try:
            triangles[i] = [int(parts[0]), int(parts[1]), int(parts[2])]
            tag = int(parts[3])
        except ValueError:
            fail(pos, "bad triangle entry")
        if tag not in (int(CellTag.PHYSICAL), int(CellTag.PML)):
            fail(pos, f"unknown cell tag {tag}")
        if np.any(triangles[i] < 0) or np.any(triangles[i] >= nv):
            fail(pos, "triangle vertex index out of range")
        a, b, c = vertices[triangles[i]]
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if area2 <= 0.0:
            fail(pos, f"triangle is not counterclockwise (signed area {0.5 * area2:.3e})")
        cell_tags[i] = tag
        pos += 1

    np_tags = expect_block("EDGETAGS")
    listed = []
    for i in range(np_tags):
        parts = row("i j tag")
        try:
            a, b, tag = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            fail(pos, "bad edge tag entry")
        if tag not in (int(EdgeTag.INTERFACE), int(EdgeTag.OUTER_BOUNDARY)):
            fail(pos, f"unknown edge tag {tag}")
        listed.append((a, b, tag, pos))
        pos += 1

    try:
        mesh = Mesh(vertices, triangles, cell_tags, validate=False)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc

    edge_tags = mesh.edge_tags.copy()
    for a, b, tag, lineno in listed:
        e = mesh.edge_index(a, b)
        if e < 0:
            fail(lineno, f"edge ({a}, {b}) not present in the mesh")
        edge_tags[e] = tag
    mesh.edge_tags = edge_tags

    try:
        mesh.validate()
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    return mesh
