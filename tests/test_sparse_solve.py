import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from sppfetd import sparse_solve
from sppfetd.assembly import apply_pec, assemble_edge_mass, build_operator_set
from sppfetd.dynamics import LeapfrogStepper
from sppfetd.mesh import generate_rect_mesh
from sppfetd.physics import MaterialParams
from sppfetd.sparse_solve import SolverError, factorize

from oracles import edge_midpoints


@pytest.fixture(scope="module")
def step_matrix():
    """The conducting-boundary step matrix of a 3:1-cell mesh (30 x 30 cells
    on a 3 x 1 box, unit material) at tau = h/200 for its short side h, with
    its edge midpoints.  Its cells have no exact zero couplings, so its full
    factor fills in and dropping has entries to remove."""
    h = 1 / 30
    mesh = generate_rect_mesh((0, 3, 0, 1), 30, 30, 0)
    ops = build_operator_set(mesh)
    a = LeapfrogStepper(ops, MaterialParams.unit(), h / 200).a
    return apply_pec(a, ops.pec_mask), edge_midpoints(mesh)


def test_solve_diagonal():
    a = sp.diags([2.0, 4.0]).tocsr()
    np.testing.assert_allclose(factorize(a)(np.array([2.0, 4.0])), [1.0, 1.0],
                               atol=1e-12)


def test_solve_zero_rhs():
    a = sp.diags([2.0, 4.0]).tocsr()
    assert np.all(factorize(a)(np.zeros(2)) == 0.0)


def test_solve_mass_system_against_dense_factorization():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)  # 8 triangles
    m = assemble_edge_mass(mesh, np.ones((mesh.n_triangles, 2)))
    rng = np.random.default_rng(1)
    b = rng.standard_normal(mesh.n_edges)
    x = factorize(m)(b)
    ref = np.linalg.solve(m.toarray(), b)
    np.testing.assert_allclose(x, ref, atol=1e-12)


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((10, 10))
    a = sp.csr_matrix(q @ q.T + 10.0 * np.eye(10))
    x_true = rng.standard_normal(10)
    solve = factorize(a)
    np.testing.assert_allclose(solve(a @ x_true), x_true, atol=1e-12)
    # the factor is reused: a second right-hand side needs no refactorisation
    np.testing.assert_allclose(solve(a @ (2.0 * x_true)), 2.0 * x_true, atol=1e-12)


def test_solve_passes_nan_through():
    # SolverError means a matrix that cannot be factored; the solve checks
    # nothing, and the run's blow-up guard names a non-finite field
    solve = factorize(sp.csr_matrix(np.diag([2.0, 4.0])))
    x = solve(np.array([1.0, np.nan]))
    assert x[0] == 0.5 and np.isnan(x[1])


def test_factor_rejects_singular_matrix():
    a = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                [1.0, 1.0, 0.0],
                                [0.0, 0.0, 2.0]]))
    with pytest.raises(SolverError, match="singular"):
        factorize(a)
    # a free row left empty, as a vanishing step matrix would leave it
    with pytest.raises(SolverError, match="singular"):
        factorize(sp.diags([1.0, 0.0, 1.0]).tocsr())


def test_solve_spd_on_cell_mass_is_division():
    # the P0 cell mass is diag(areas); its factor must reproduce b / areas
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    areas = mesh.areas
    b = np.random.default_rng(5).standard_normal(len(areas))
    x = factorize(sp.diags(areas).tocsr())(b)
    np.testing.assert_allclose(x, b / areas, rtol=1e-15)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_solve_nonsymmetric_matrix_in_each_format(fmt):
    # every other matrix here is symmetric, so a solve with a^T in place of a
    # would pass them; this one is not, and diagonal dominance keeps the
    # unpivoted factor stable
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.4)
    dense += np.diag(np.abs(dense).sum(axis=0) + np.abs(dense).sum(axis=1) + 1.0)
    assert not np.allclose(dense, dense.T)
    b = rng.standard_normal(12)
    x = factorize(sp.csr_matrix(dense).asformat(fmt))(b)
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sorted_indices", [True, False])
def test_factor_leaves_callers_matrix_unchanged(sorted_indices):
    # the factor reads the caller's CSR arrays as a^T, and SuperLU sorts the
    # indices of what it is given in place
    a = sp.csr_matrix((np.array([1.0, 4.0, 3.0, 2.0]), np.array([1, 0, 1, 0]),
                       np.array([0, 2, 4])), shape=(2, 2))
    if sorted_indices:
        a.sort_indices()
    before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
    x = factorize(a)(np.array([5.0, 5.0]))
    for arr, old in zip((a.data, a.indices, a.indptr), before):
        assert np.array_equal(arr, old)
    np.testing.assert_allclose(x, np.linalg.solve([[4.0, 1.0], [2.0, 3.0]], [5.0, 5.0]),
                               rtol=1e-12)


def test_dropped_factor_solves_step_matrix_to_roundoff(step_matrix):
    # the factor drops entries below DROP_TOL of their column; on the step
    # matrix it must still match the full factor and leave a roundoff residual
    a, mid = step_matrix
    rng = np.random.default_rng(11)
    x, y = mid[:, 0], mid[:, 1]
    rhs = {"random": rng.standard_normal(a.shape[0]),
           "a @ random": a @ rng.standard_normal(a.shape[0]),
           "smooth": np.sin(2 * np.pi * x) * np.cos(np.pi * y) + x * y}
    solve, full = factorize(a), splu(a.tocsc())
    for name, b in rhs.items():
        got, ref = solve(b), full.solve(b)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name
        assert np.linalg.norm(a @ got - b) <= 1e-14 * np.linalg.norm(b), name


def test_factor_rejects_inaccurate_drop(step_matrix, monkeypatch):
    # dropping at a coarse tolerance leaves an incomplete factor, which the
    # residual check must refuse rather than hand to the stepper
    monkeypatch.setattr(sparse_solve, "DROP_TOL", 1e-2)
    with pytest.raises(SolverError, match="relative residual"):
        factorize(step_matrix[0])


def _spd_with_diagonal_tail(n, k, seed):
    """An n x n SPD matrix whose rows from k on hold only their diagonal d."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((k, k))
    d = rng.uniform(1.0, 2.0, n - k)
    dense = np.zeros((n, n))
    dense[:k, :k] = q @ q.T + k * np.eye(k)
    dense[k:, k:] = np.diag(d)
    return dense, d, rng.standard_normal(n)


def _assert_solves(dense, b):
    x, ref = factorize(sp.csr_matrix(dense))(b), np.linalg.solve(dense, b)
    assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
    return x


def test_trailing_diagonal_rows_are_divided():
    # the rows the mesh numbers last, uncoupled hypotenuses, are solved by
    # division bit for bit, and the leading block by its factor
    dense, d, b = _spd_with_diagonal_tail(12, 8, 3)
    x = _assert_solves(dense, b)
    assert np.array_equal(x[8:], b[8:] / d)


def test_rows_up_to_the_last_coupled_one_are_factored():
    # a coupled last row, and a coupling in the last column alone (a^T's
    # last row), keep every row in the factor; diagonal rows before a
    # coupled one are factored with it
    dense, _, b = _spd_with_diagonal_tail(12, 8, 4)
    dense[0, -1] = dense[-1, 0] = 0.5
    _assert_solves(dense, b)
    dense[-1, 0] = 0.0
    _assert_solves(dense, b)
    _assert_solves(dense[::-1, ::-1].copy(), b)


def test_diagonal_matrix_is_divided_throughout():
    # nothing is coupled, as in the README's two-triangle square: the
    # factored block is empty and the solve is b / d
    dense, d, b = _spd_with_diagonal_tail(6, 0, 5)
    assert np.array_equal(_assert_solves(dense, b), b / d)


def test_zero_on_a_trailing_diagonal_is_singular():
    dense, _, _ = _spd_with_diagonal_tail(12, 8, 6)
    dense[10, 10] = 0.0
    with pytest.raises(SolverError, match="singular: row 10 is zero"):
        factorize(sp.csr_matrix(dense))
