import numpy as np
import pytest
import scipy.sparse as sp

from sppfetd.assembly import assemble_edge_mass
from sppfetd.mesh import generate_rect_mesh
from sppfetd.sparse_solve import SolverError, factorize


def test_solve_diagonal():
    a = sp.diags([2.0, 4.0]).tocsr()
    np.testing.assert_allclose(factorize(a)(np.array([2.0, 4.0])), [1.0, 1.0],
                               atol=1e-12)


def test_solve_zero_rhs():
    a = sp.diags([2.0, 4.0]).tocsr()
    assert np.all(factorize(a)(np.zeros(2)) == 0.0)


def test_solve_mass_system_against_dense_factorization():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)  # 8 triangles
    m = assemble_edge_mass(mesh)
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


def test_solve_rejects_nonfinite_rhs():
    solve = factorize(sp.eye(2, format="csr"))
    with pytest.raises(SolverError, match="NaN or Inf"):
        solve(np.array([1.0, np.nan]))
    with pytest.raises(SolverError, match="NaN or Inf"):
        solve(np.array([np.inf, 1.0]))


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
