import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import sppfetd.mesh as mesh_module
from sppfetd.cli import main as cli_main
from sppfetd.mesh import (TRI_EDGE_LOCAL, Arc, Mesh, MeshError, Segment, generate_rect_mesh,
                          load_mesh, snap_interface)

import oracles

UM = 1e-6
ROOT = Path(__file__).resolve().parents[1]


def test_generate_counts_4x4():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4, 0)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (25, 32, 56)
    assert m.n_vertices - m.n_edges + m.n_triangles + 1 == 2


def test_generate_single_cell():
    m = generate_rect_mesh((0, 1, 0, 1), 1, 1, 0)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (4, 2, 5)


def test_pml_collar_matches_paper_thickness():
    m = generate_rect_mesh((-30 * UM, 30 * UM, -10 * UM, 10 * UM), 100, 100, 12)
    assert m.h_x == pytest.approx(0.6 * UM)
    assert m.h_y == pytest.approx(0.2 * UM)
    # collar thickness 12 h per side
    assert m.vertices[:, 0].min() == pytest.approx(-30 * UM - 12 * m.h_x)
    assert m.vertices[:, 1].max() == pytest.approx(10 * UM + 12 * m.h_y)
    n_pml = int(oracles.collar_cells(m).sum())
    assert n_pml == 2 * 12 * (100 + 2 * 12) * 2 + 2 * 12 * 100 * 2


def test_generate_rejects_bad_input():
    with pytest.raises(MeshError):
        generate_rect_mesh((0, 0, 0, 1), 4, 4, 0)
    with pytest.raises(MeshError):
        generate_rect_mesh((0, 1, 0, 1), 0, 4, 0)
    with pytest.raises(MeshError):
        generate_rect_mesh((0, 1, 0, 1), 4, 4, -1)


def test_classify_no_collar_all_physical():
    m = generate_rect_mesh((0, 1, 0, 1), 3, 3, 0)
    assert not oracles.collar_cells(m).any()
    assert m.physical_bounds == (0, 1, 0, 1)


def test_centroids_never_on_grid_lines():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4, 2)
    xs = np.unique(m.vertices[:, 0])
    dist = np.abs(m.centroids[:, 0][:, None] - xs[None, :]).min()
    assert dist > 0.05 * m.h_x


def test_interior_edges_have_opposite_incidence_signs():
    m = generate_rect_mesh((0, 1, 0, 1), 3, 2, 0)
    sign_sum = np.zeros(m.n_edges)
    np.add.at(sign_sum, m.tri_edges.ravel(), m.tri_edge_signs.ravel())
    interior = m.edge_triangle_count == 2
    assert np.all(sign_sum[interior] == 0)
    assert np.all(np.abs(sign_sum[~interior]) == 1)


def test_snap_grid_aligned_segment():
    m = generate_rect_mesh((0, 1, 0, 1), 6, 6, 0)
    edges = snap_interface(m, [Segment((0, 0.5), (1, 0.5))])
    assert len(edges) == 6
    mids = oracles.edge_midpoints(m)[edges]
    assert np.allclose(mids[:, 1], 0.5)
    assert np.array_equal(m.interface_edges(), edges)


def test_snap_bifurcated_sheet_segment():
    m = generate_rect_mesh((-30 * UM, 30 * UM, -10 * UM, 10 * UM), 100, 50, 4)
    edges = snap_interface(m, [Segment((-30 * UM, 0), (-15 * UM, 0))])
    ends = m.vertices[m.edges[edges]]
    assert np.allclose(ends[:, :, 1], 0.0)
    # 15 um span over h_x = 0.6 um
    assert len(edges) == 25


def _hausdorff_to_circle(mesh, edges, center, radius):
    ends = mesh.vertices[mesh.edges[edges]].reshape(-1, 2)
    d_poly_to_curve = np.abs(np.hypot(*(ends - center).T) - radius).max()
    ang = np.linspace(np.pi / 2, 3 * np.pi / 2, 2000)
    pts = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    d_curve_to_poly = 0.0
    for p in pts:
        ab = b - a
        t = np.clip(np.einsum("ed,ed->e", p - a, ab) / np.einsum("ed,ed->e", ab, ab), 0, 1)
        proj = a + t[:, None] * ab
        d_curve_to_poly = max(d_curve_to_poly, np.hypot(*(p - proj).T).min())
    return max(d_poly_to_curve, d_curve_to_poly)


def test_snap_semicircle_hausdorff():
    m = generate_rect_mesh((-30 * UM, 30 * UM, -10 * UM, 10 * UM), 100, 100, 0)
    arc = Arc((7 * UM, 0.0), 7 * UM, np.pi / 2, 3 * np.pi / 2)
    edges = snap_interface(m, [arc])
    assert len(edges) > 10
    dist = _hausdorff_to_circle(m, edges, np.array([7 * UM, 0.0]), 7 * UM)
    assert dist <= m.h_x + m.h_y


def test_arc_snap_paths_are_shortest(monkeypatch):
    # every chain step that is not an edge is joined through one corner, by
    # the two interface edges of a shortest path between its ends
    m = generate_rect_mesh((0, 1, 0, 1), 20, 20, 2)
    calls = []
    join = mesh_module._join

    def recording(mesh, pairs):
        calls.append(pairs)
        return join(mesh, pairs)

    monkeypatch.setattr(mesh_module, "_join", recording)
    edges = snap_interface(m, [Arc((0.5, 0.5), 0.3, 0.0, 2 * np.pi)])
    steps = [(a, b) for a, b in calls[-1].tolist() if m.edge_index(a, b) < 0]
    assert steps
    a, b = m.edges.T
    graph = coo_matrix((m.edge_lengths, (a, b)), shape=(m.n_vertices,) * 2)
    dist = dijkstra(graph.tocsr(), directed=False, indices=[s[0] for s in steps])
    for row, (start, goal) in zip(dist, steps):
        first, second = (m.edge_index(v, np.arange(m.n_vertices)) for v in (start, goal))
        corners = np.flatnonzero(np.isin(first, edges) & np.isin(second, edges))
        assert len(corners) == 1
        length = m.edge_lengths[[first[corners[0]], second[corners[0]]]].sum()
        assert length == pytest.approx(row[goal], rel=1e-12)


_GRIDS = {"square": lambda: generate_rect_mesh((0, 1, 0, 1), 32, 32, 2),
          "3:1": lambda: generate_rect_mesh((0, 3, 0, 1), 16, 16, 2),
          "graded": lambda: oracles.graded_mesh(32)}
# Per grid: an arc and both diagonals, clear of the outer boundary.
_CURVES = {
    "square": {"arc": Arc((0.5, 0.5), 0.3, 0.0, 2 * np.pi),
               "diagonal": Segment((0, 0), (1, 1)), "anti-diagonal": Segment((0, 1), (1, 0))},
    "3:1": {"arc": Arc((1.5, 0.5), 0.4, 0.0, 2 * np.pi),
            "diagonal": Segment((0, 0), (3, 1)), "anti-diagonal": Segment((0, 1), (3, 0))},
    "graded": {"arc": Arc((0.5, 0.5), 0.3, 0.0, 2 * np.pi),
               "diagonal": Segment((0.02, 0.03), (0.97, 0.98)),
               "anti-diagonal": Segment((0.02, 0.97), (0.97, 0.02))}}


@pytest.mark.parametrize("grid,curve", [(g, c) for g in _CURVES for c in _CURVES[g]])
def test_snap_joins_steps_as_the_shortest_path_search(grid, curve):
    # the two-triangle join gives the edges that a shortest-path search
    # between the snapped vertices gave, ties on square cells included
    m = _GRIDS[grid]()
    spec = [_CURVES[grid][curve]]
    assert snap_interface(m, spec).tolist() == oracles.shortest_path_snap(m, spec)


def test_snap_takes_the_lowest_index_of_equidistant_vertices():
    # a segment midway between two grid rows is equidistant from the vertex
    # above and the one below each sample, and from four where a sample is
    # midway between columns; on a renumbered grid the lowest index wins
    base = generate_rect_mesh((0, 1, 0, 1), 8, 8, 0)
    perm = np.random.default_rng(3).permutation(base.n_vertices)
    m = Mesh(base.vertices[perm], np.argsort(perm)[base.triangles])
    spec = [Segment((0, 0.5625), (1, 0.5625))]
    assert snap_interface(m, spec).tolist() == oracles.shortest_path_snap(m, spec)


def test_snap_halves_the_spacing_where_a_step_skips_a_vertex(monkeypatch):
    # the first step of this segment skips the narrowest column of a graded
    # grid; one halving joins it with the edges the search gave, and without
    # it the step is refused naming both vertices
    spec = [Segment((0.0, 0.53), (0.9, 0.53))]
    m = oracles.graded_mesh(16)
    assert snap_interface(m, spec).tolist() == oracles.shortest_path_snap(m, spec)
    monkeypatch.setattr(mesh_module, "SNAP_HALVINGS", 0)
    a, b = (np.flatnonzero((m.vertices == p).all(axis=1))[0]
            for p in ([0, 0.5], [1 / 64, 0.5]))
    with pytest.raises(MeshError, match=f"from vertex {a} to vertex {b}, which share "
                       "neither an edge nor a quad, after 0 halvings"):
        snap_interface(oracles.graded_mesh(16), spec)


def test_snap_idempotent():
    m = generate_rect_mesh((0, 1, 0, 1), 8, 8, 0)
    arc = Arc((0.5, 0.5), 0.3, 0.0, np.pi)
    first = set(snap_interface(m, [arc]))
    induced = [Segment(tuple(m.vertices[a]), tuple(m.vertices[b]))
               for a, b in m.edges[sorted(first)]]
    second = set(snap_interface(m, induced))
    assert first == second


def test_snap_rejects_curve_in_collar():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4, 2)
    with pytest.raises(MeshError):
        snap_interface(m, [Segment((0.5, 0.5), (1.4, 0.5))])


@pytest.mark.parametrize("primitive", [
    Segment((0.52, 0.31), (0.52, 0.31)),            # zero length
    Arc((0.5, 0.5), 0.2, 1.0, 1.0),                 # zero sweep
    Segment((0.51, 0.29), (0.53, 0.31)),            # a fifth of a cell
], ids=["zero-length", "zero-sweep", "short"])
def test_snap_refuses_a_primitive_on_no_edge(primitive):
    # each snaps to one vertex; the run went on without that primitive
    m = generate_rect_mesh((0, 1, 0, 1), 10, 10, 0)
    sheet = m.interface_edges()
    with pytest.raises(MeshError, match="interface primitive 1 snaps to the single vertex"):
        snap_interface(m, [Segment((0, 0.5), (1, 0.5)), primitive])
    assert np.array_equal(m.interface_edges(), sheet)


def test_sheet_on_no_edge_exits_2(tmp_path, capsys):
    # the README's minimal config with p0 = p1 completed with no sheet
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "version": 2, "mesh": {"bounds": [0, 1, 0, 1], "nx": 10, "ny": 10},
        "interface": [{"type": "segment", "p0": [0.5, 0.5], "p1": [0.5, 0.5]}],
        "tau": 1e-3, "steps": 2}))
    assert cli_main(["run", str(config), "--out", ""]) == 2
    assert "interface primitive 0 snaps to the single vertex" in capsys.readouterr().err


def test_save_load_round_trip(tmp_path):
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4, 1)
    snap_interface(m, [Segment((0, 0.5), (1, 0.5))])
    path = tmp_path / "mesh.txt"
    oracles.save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.allclose(m.vertices, m2.vertices)
    assert m2.physical_bounds == m.physical_bounds == (0, 1, 0, 1)
    assert np.array_equal(m.interface_edges(), m2.interface_edges())


def test_load_rejects_negative_area_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SPPMESH 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
                    "TRIANGLES 1\n0 2 1 0\nEDGETAGS 0\n")
    with pytest.raises(MeshError, match=r"bad\.txt:7"):
        load_mesh(path)


@pytest.mark.parametrize("text,line", [
    ("SPPMESH 1\nVERTICES 4\n0 0\n1 0\n", 4),
    ("SPPMESH 1\nVERTICES 3\n0 0\n1 0\n0 1\nTRIANGLES 2\n0 1 2 0\n", 7),
    ("SPPMESH 1\nVERTICES 3\n0 0\n1 0\n0 1\nTRIANGLES 1\n0 1 2 0\n"
     "EDGETAGS 1\n", 8),
    ("SPPMESH 1\nVERTICES -1\n", 2),
])
def test_load_rejects_truncated_file_with_line_number(tmp_path, text, line):
    path = tmp_path / "cut.txt"
    path.write_text(text)
    with pytest.raises(MeshError, match=rf"cut\.txt:{line}: "):
        load_mesh(path)


def test_load_two_triangle_fixture_with_interface(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("SPPMESH 1\nVERTICES 4\n0 0\n1 0\n1 1\n0 1\n"
                    "TRIANGLES 2\n0 1 2 0\n0 2 3 0\n"
                    "EDGETAGS 1\n0 2 1\n")
    m = load_mesh(path)
    shared = m.edge_index(0, 2)
    assert m.interface_edges().tolist() == [shared]
    assert (m.edge_triangle_count == 1).sum() == 4


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("WRONG 9\n")
    with pytest.raises(MeshError, match=r"junk\.txt:1"):
        load_mesh(path)


def test_mesh_rejects_misoriented_triangle():
    verts = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(MeshError, match="counterclockwise"):
        Mesh(verts, [[0, 2, 1]])


def test_readme_mesh_example_loads(tmp_path):
    # the documented file format is the one the reader parses
    section = (ROOT / "README.md").read_text().split("### Mesh files", 1)[1]
    path = tmp_path / "readme.mesh"
    path.write_text(re.search(r"```text\n(.*?)```", section, re.S).group(1))
    m = load_mesh(path)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (4, 2, 5)
    assert m.interface_edges().tolist() == [m.edge_index(0, 2)]


# The two-triangle square with its diagonal as the sheet, as file lines and
# as the arguments of Mesh.
_FIXTURE = ["SPPMESH 1", "VERTICES 4", "0 0", "1 0", "1 1", "0 1", "TRIANGLES 2",
            "0 1 2 0", "0 2 3 0", "EDGETAGS 1", "0 2 1"]
_ARGS = dict(vertices=[[0, 0], [1, 0], [1, 1], [0, 1]], triangles=[[0, 1, 2], [0, 2, 3]],
             cell_tags=[0, 0], tagged_edges=[[0, 2, 1]])
# Each defect: the file line (1-based) it replaces with `text` (None cuts the
# file before it), the line the error names, the same defect as a Mesh
# argument and the row (kind, index) that MeshError names.
_DEFECTS = {
    "nan-coordinate": (5, "1 nan", 5, {"vertices": [[0, 0], [1, 0], [1, np.nan], [0, 1]]},
                       ("vertex", 2)),
    "inf-coordinate": (4, "inf 0", 4, {"vertices": [[0, 0], [np.inf, 0], [1, 1], [0, 1]]},
                       ("vertex", 1)),
    "index-out-of-range": (9, "0 2 9 0", 9, {"triangles": [[0, 1, 2], [0, 2, 9]]},
                           ("triangle", 1)),
    "index-negative": (8, "0 -1 2 0", 8, {"triangles": [[0, -1, 2], [0, 2, 3]]},
                       ("triangle", 0)),
    "index-repeated": (9, "0 2 2 0", 9, {"triangles": [[0, 1, 2], [0, 2, 2]]},
                       ("triangle", 1)),
    "cell-tag-7": (9, "0 2 3 7", 9, {"cell_tags": [0, 7]}, ("triangle", 1)),
    "tag-1-inside": (9, "0 2 3 1", 9, {"cell_tags": [0, 1]}, ("triangle", 1)),
    "clockwise": (9, "0 3 2 0", 9, {"triangles": [[0, 1, 2], [0, 3, 2]]}, ("triangle", 1)),
    "non-integer-index": (8, "0 1.5 2 0", 8, {"triangles": [[0, 1.5, 2], [0, 2, 3]]},
                          ("triangle", 0)),
    "unknown-edge-tag": (11, "0 2 7", 11, {"tagged_edges": [[0, 2, 7]]}, ("edge tag", 0)),
    "tag-on-non-edge": (11, "1 3 1", 11, {"tagged_edges": [[1, 3, 1]]}, ("edge tag", 0)),
    "interface-on-boundary": (11, "0 1 1", 11, {"tagged_edges": [[0, 1, 1]]},
                              ("edge tag", 0)),
    "boundary-tag-on-interior": (11, "0 2 2", 11, {"tagged_edges": [[0, 2, 2]]},
                                 ("edge tag", 0)),
    "truncated-block": (9, None, 8, {"tagged_edges": [[0, 2]]}, (None, None)),
    "bad-count": (7, "TRIANGLES two", 7, {"cell_tags": [0]}, (None, None)),
    "count-too-small": (10, "EDGETAGS 0", 11, {"tagged_edges": [[0, 2, 1, 0]]}, (None, None)),
}


@pytest.mark.parametrize("line,text,named,args,row", _DEFECTS.values(), ids=_DEFECTS)
def test_mesh_defect_is_refused_by_mesh_and_named_by_line(line, text, named, args, row,
                                                          tmp_path, capsys):
    # before, a NaN vertex ran to a singular-matrix solver failure (exit 4),
    # an out-of-range index raised IndexError, cell tag 7 was accepted, a
    # tag-1 cell inside the physical rectangle (the tag-0 cells' bounding
    # box) got neither damping nor relaxation, and the edge tags after a
    # too-small EDGETAGS count were dropped
    with pytest.raises(MeshError) as exc:
        Mesh(**{**_ARGS, **args})
    assert (exc.value.kind, exc.value.index) == row
    lines = _FIXTURE[:line - 1] + ([] if text is None else [text] + _FIXTURE[line:])
    path = tmp_path / "bad.mesh"
    path.write_text("\n".join(lines) + "\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"version": 2, "mesh": {"file": str(path)},
                                  "tau": 1e-3, "steps": 1}))
    assert cli_main(["run", str(config), "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}:{named}: "), err
    assert len(err.splitlines()) == 1


def test_mesh_refuses_four_sheet_edges_at_a_vertex():
    # the four axis edges at the centre vertex of a 2x2 grid
    m = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    rows = [[1, 4, 1], [3, 4, 1], [4, 5, 1], [4, 7, 1]]
    with pytest.raises(MeshError, match="4 interface edges meet here") as exc:
        Mesh(m.vertices, m.triangles, tagged_edges=rows)
    assert (exc.value.kind, exc.value.index) == ("vertex", 4)


def test_load_accepts_a_wall_row_that_adds_nothing(tmp_path):
    # a tag-2 row names a one-triangle edge, which is the wall listed or not
    path = tmp_path / "wall.mesh"
    path.write_text("\n".join(_FIXTURE[:9] + ["EDGETAGS 2", "0 2 1", "0 1 2"]) + "\n")
    m = load_mesh(path)
    assert m.interface_edges().tolist() == Mesh(**_ARGS).interface_edges().tolist()
    assert m.interface_edges().tolist() == [m.edge_index(0, 2)]


def test_edge_index_looks_up_arrays_of_pairs():
    m = generate_rect_mesh((0, 1, 0, 1), 3, 3, 0)
    a, b = m.edges.T
    assert np.array_equal(m.edge_index(b, a), np.arange(m.n_edges))
    # absent pairs, including out-of-range vertices whose key aliases an edge
    assert m.edge_index(1, 2) >= 0
    assert m.edge_index([0, 0, -1, 0], [2, 0, 1, m.n_vertices + 2]).tolist() == [-1] * 4


def test_edges_number_each_cells_longest_side_last():
    # a right isosceles cell's hypotenuse is its longest side; with equal
    # weights it couples to nothing, and sparse_solve divides the rows that
    # end the step matrix: the physical quads' diagonals last, the collar's
    # just before, every axis-parallel edge before both
    m = generate_rect_mesh((0, 3, 0, 2), 6, 4, 2)
    n, n_quads, n_phys = m.n_edges, 10 * 8, 6 * 4
    ends = m.vertices[m.edges]
    diagonal = np.all(ends[:, 0] != ends[:, 1], axis=1)
    mid = ends.mean(axis=1)
    inside = np.all((mid > (0, 0)) & (mid < (3, 2)), axis=1)
    assert np.flatnonzero(diagonal & inside).tolist() == list(range(n - n_phys, n))
    assert np.flatnonzero(diagonal & ~inside).tolist() == list(range(n - n_quads, n - n_phys))
    assert not diagonal[:n - n_quads].any()
    # each group keeps the edges' lower-vertex-first vertex-pair order
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    for part in np.split(m.edges, [n - n_quads, n - n_phys]):
        keys = part[:, 0] * m.n_vertices + part[:, 1]
        assert np.all(np.diff(keys) > 0)
    assert np.array_equal(m.edge_index(*m.edges.T), np.arange(n))
    # a triangle's local edge k joins its vertices k and k + 1
    for k, (i, j) in enumerate(TRI_EDGE_LOCAL):
        pairs = np.sort(m.triangles[:, [i, j]], axis=1)
        assert np.array_equal(m.edges[m.tri_edges[:, k]], pairs)
    # of two equally long sides, the first (local edge 1, not 2) is the longest
    assert Mesh([[0, 0], [2, 0], [1, 3]], [[0, 1, 2]]).edges[-1].tolist() == [1, 2]


def test_readme_square_numbers_its_diagonal_last():
    assert Mesh(**_ARGS).edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3], [0, 2]]
    # a side that is the longest of a physical cell and of a collar cell is
    # numbered as the physical cell's: (0, 4) here, of the lower left cell
    g = generate_rect_mesh((0, 2, 0, 1), 2, 1, 0)
    m = Mesh(g.vertices, g.triangles, physical_bounds=(0, 1, 0, 0.5))
    assert m.edges[-2:].tolist() == [[1, 5], [0, 4]]


@pytest.mark.parametrize("args,rule", [
    ({"h_x": -1.0, "h_y": 1.0}, "h_x and h_y must be finite and positive"),
    ({"h_x": np.nan, "h_y": 1.0}, "h_x and h_y must be finite and positive"),
    ({"h_x": -1.0}, "h_x and h_y must be finite and positive"),
    ({"physical_bounds": (0, 1, 0)}, "physical bounds must be 4 numbers"),
    ({"physical_bounds": (0, 1, 1, 0)}, r"physical bounds \(xmin, xmax, ymin, ymax\) "
                                        "must be finite with min < max on each axis"),
    ({"h_x": "a", "h_y": 1.0}, "h_x and h_y must be numbers: could not convert string"),
    ({"vertices": [[0, 0], [1, 0], [1, "b"], [0, 1]]},
     r"vertices must be an \(n, 2\) array: could not convert string"),
], ids=["h-negative", "h-nan", "h-x-alone", "bounds-short", "bounds-reversed", "h-string",
        "vertex-string"])
def test_mesh_refuses_bad_sizes_and_bounds(args, rule):
    # each was stored unchecked: with a NaN h_x cfl_max_timestep returned
    # 1.0, three bounds failed later in damping_at_centroids, and an h_x
    # given without h_y was replaced by the computed extent; a string
    # raised numpy's bare ValueError
    with pytest.raises(MeshError, match=rule):
        Mesh(**{**_ARGS, **args})


def test_mesh_keeps_a_given_size_and_computes_the_other():
    # the unit square's cells span 1 m on each axis
    m = Mesh(**_ARGS, h_x=0.5)
    assert (m.h_x, m.h_y) == (0.5, 1.0)
    m = Mesh(**_ARGS, h_y=0.25)
    assert (m.h_x, m.h_y) == (1.0, 0.25)


def test_mesh_needs_a_triangle():
    # a lone vertex meets the Euler relation; it ended in a traceback
    with pytest.raises(MeshError, match="at least one triangle"):
        Mesh([[0.0, 0.0]], np.empty((0, 3)))


def test_cell_tags_set_and_agree_with_the_physical_rectangle():
    # tag-0 cells bound the rectangle; a tag 0 outside given bounds is refused
    m = Mesh(**_ARGS)
    assert m.physical_bounds == (0, 1, 0, 1) and not hasattr(m, "cell_tags")
    with pytest.raises(MeshError, match=r"cell tag 0, but its centroid lies outside") as exc:
        Mesh(**_ARGS, physical_bounds=(0, 1, 0, 0.5))
    assert (exc.value.kind, exc.value.index) == ("triangle", 1)
    # a generated collar, written as tags, reads back as the same rectangle
    g = generate_rect_mesh((-3 * UM, 3 * UM, -1 * UM, 1 * UM), 30, 10, 4)
    assert Mesh(g.vertices, g.triangles, oracles.collar_cells(g)).physical_bounds == \
        pytest.approx(g.physical_bounds, abs=1e-20)
