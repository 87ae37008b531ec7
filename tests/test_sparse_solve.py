import numpy as np
import pytest
import scipy.sparse as sp

from sppfetd.assembly import assemble_edge_mass
from sppfetd.mesh import generate_rect_mesh
from sppfetd.sparse_solve import SolverConfig, SolverError, solve_spd


def test_solve_diagonal():
    a = sp.diags([2.0, 4.0]).tocsr()
    np.testing.assert_allclose(solve_spd(a, np.array([2.0, 4.0])), [1.0, 1.0],
                               atol=1e-12)


def test_solve_zero_rhs():
    a = sp.diags([2.0, 4.0]).tocsr()
    assert np.all(solve_spd(a, np.zeros(2)) == 0.0)


def test_solve_mass_system_against_dense_factorization():
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)  # 8 triangles
    m = assemble_edge_mass(mesh)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(mesh.n_edges)
    x = solve_spd(m, b, SolverConfig(tol=1e-12))
    ref = np.linalg.solve(m.toarray(), b)
    np.testing.assert_allclose(x, ref, atol=1e-9)


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((10, 10))
    a = sp.csr_matrix(q @ q.T + 10.0 * np.eye(10))
    x_true = rng.standard_normal(10)
    x = solve_spd(a, a @ x_true, SolverConfig(tol=1e-13))
    np.testing.assert_allclose(x, x_true, atol=1e-10)


def test_solve_reports_nonconvergence_with_residual():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((30, 30))
    a = sp.csr_matrix(q @ q.T + 1e-6 * np.eye(30))
    b = rng.standard_normal(30)
    with pytest.raises(SolverError) as err:
        solve_spd(a, b, SolverConfig(tol=1e-14, max_iter=2))
    assert err.value.residual is not None and err.value.residual > 0


def test_solve_rejects_nonfinite_rhs():
    a = sp.eye(2, format="csr")
    with pytest.raises(SolverError):
        solve_spd(a, np.array([1.0, np.nan]))


def test_error_a_norm_monotone():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((20, 20))
    a_dense = q @ q.T + np.eye(20)
    a = sp.csr_matrix(a_dense)
    x_true = rng.standard_normal(20)
    b = a @ x_true
    norms = []
    for tol in np.logspace(-1, -12, 12):
        x = solve_spd(a, b, SolverConfig(tol=float(tol)))
        e = x - x_true
        norms.append(e @ (a_dense @ e))
    # CG minimises the A-norm of the error over growing Krylov spaces, so
    # tightening the tolerance can only shrink it
    assert np.all(np.diff(norms) <= 1e-10)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(preconditioner="ilu")


def test_solve_spd_on_cell_mass_is_division():
    # the P0 cell mass is diag(areas); CG on it must reproduce b / areas
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, 0)
    areas = mesh.areas
    b = np.random.default_rng(5).standard_normal(len(areas))
    via_cg = solve_spd(sp.diags(areas).tocsr(), b, SolverConfig(tol=1e-13))
    np.testing.assert_allclose(via_cg, b / areas, atol=1e-12)
