import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.interpolate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from cpcomplete import mor
from cpcomplete.completion import CompletionConfig
from cpcomplete.cp_model import CPModel
from cpcomplete.exceptions import DataError
from cpcomplete.mor import (
    DiffusionProblem,
    ReducedBasis,
    assemble_snapshots,
    cheb_diff,
    compression_ratio,
    cp_reduced_basis,
    diffusion_residual,
    parameter_grid,
    pod_basis,
    project_error,
    solve_diffusion,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestChebDiff:
    def test_n1_analytic(self):
        x, d = cheb_diff(1)
        assert np.allclose(x, [1.0, -1.0])
        assert np.allclose(d, [[0.5, -0.5], [0.5, -0.5]])

    def test_differentiates_x_squared(self):
        for n in (2, 5, 16):
            x, d = cheb_diff(n)
            assert np.allclose(d @ x**2, 2 * x, atol=1e-12)

    def test_row_sums_vanish(self):
        _, d = cheb_diff(12)
        assert np.abs(d.sum(axis=1)).max() <= 1e-12

    def test_rejects_zero(self):
        # and every other n that is not an integer >= 1, a bool included
        for n in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"n must be .*got {n!r}"):
                cheb_diff(n)


def interp2(u, x, pts):
    # tensor-product barycentric interpolation of grid data u at points pts
    rows = np.array([
        scipy.interpolate.BarycentricInterpolator(x, u[i])(pts) for i in range(u.shape[0])
    ])
    return np.array([
        scipy.interpolate.BarycentricInterpolator(x, rows[:, j])(pts) for j in range(len(pts))
    ]).T


MU_CASES = [(0.0, 0.0), (0.4, -0.6), (0.99, -0.99), (-0.99, 0.99)]


class TestSolveDiffusion:
    def test_residual_small(self):
        p = DiffusionProblem(30, 0.0, 0.0)
        u = solve_diffusion(p)
        assert diffusion_residual(p, u) <= 1e-10

    def test_boundary_exactly_zero(self):
        u = solve_diffusion(DiffusionProblem(24, 0.5, -0.3))
        assert not u[0].any() and not u[-1].any()
        assert not u[:, 0].any() and not u[:, -1].any()

    def test_spectral_self_convergence(self):
        # grid-refinement differences collapse far below the solution scale
        # (~0.4); the floor is set by the N^4 conditioning of the collocation
        # operator, measured at 4e-7 for 40 vs 60 and 5e-8 for 60 vs 80
        mu = (0.4, -0.6)
        pts = np.linspace(-0.9, 0.9, 7)
        sols = {}
        for nx in (40, 60, 80):
            u = solve_diffusion(DiffusionProblem(nx, *mu))
            x, _ = cheb_diff(nx - 1)
            sols[nx] = interp2(u, x, pts)
        assert np.abs(sols[40] - sols[60]).max() <= 1e-6
        assert np.abs(sols[60] - sols[80]).max() <= 1e-7

    def test_ellipticity_guard(self):
        with pytest.raises(ValueError):
            DiffusionProblem(20, 1.5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "a"])
    @pytest.mark.parametrize("which", ["mu1", "mu2"])
    def test_non_finite_mu_rejected(self, bad, which):
        mu = {"mu1": 0.0, "mu2": 0.0, which: bad}
        with pytest.raises(ValueError, match=re.escape(f"{which} must be a real number in [-0.99, 0.99], got {bad!r}")):
            DiffusionProblem(12, **mu)

    def test_non_integer_nx_rejected(self):
        with pytest.raises(ValueError, match="12.5"):
            DiffusionProblem(12.5, 0.0, 0.0)

    def test_bool_nx_rejected(self):
        with pytest.raises(ValueError, match="nx must be an integer >= 3, got True"):
            DiffusionProblem(True, 0.0, 0.0)

    @pytest.mark.parametrize("nx", [2, 0, -4])
    def test_too_few_points_rejected(self, nx):
        with pytest.raises(ValueError, match=f"nx must be an integer >= 3, got {nx}"):
            DiffusionProblem(nx, 0.0, 0.0)

    @pytest.mark.parametrize("nx", [3, 12, 40])
    @pytest.mark.parametrize("mu", MU_CASES)
    def test_matches_sparse_kronecker_solve(self, nx, mu):
        # independent oracle: the interior collocation operator assembled here
        # as kron(Ax D2, I) + kron(I, Ay D2) and factored by sparse LU
        op, rhs = kronecker_system(nx, mu)
        ref = np.atleast_1d(scipy.sparse.linalg.spsolve(op.tocsc(), rhs)).reshape(nx - 2, nx - 2)
        u = solve_diffusion(DiffusionProblem(nx, *mu))
        assert np.linalg.norm(u[1:-1, 1:-1] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nx", [80])
    @pytest.mark.parametrize("mu", MU_CASES)
    def test_matches_schur_sylvester_solve(self, nx, mu):
        # independent oracle at a size where sparse LU of the Kronecker
        # operator takes seconds: A U + U B^T = F by Bartels-Stewart on the
        # Schur forms of A and B^T, which shares no code with the eigenbasis
        # solve
        a, b = interior_operator(nx, mu[0]), interior_operator(nx, mu[1])
        xi = cheb_diff(nx - 1)[0][1:-1]
        ref = scipy.linalg.solve_sylvester(a, b.T, np.exp(4.0 * np.outer(xi, xi)))
        u = solve_diffusion(DiffusionProblem(nx, *mu))
        assert np.linalg.norm(u[1:-1, 1:-1] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nx", [3, 12, 40, 80])
    @pytest.mark.parametrize("mu", [(0.0, 0.0), (0.4, -0.6), (0.99, -0.99)])
    def test_residual_matches_sparse_kronecker_residual(self, nx, mu):
        # diffusion_residual differentiates the full grid; the oracle applies
        # the assembled interior operator to the interior values
        rng = np.random.default_rng(nx)
        u = np.zeros((nx, nx))
        u[1:-1, 1:-1] = rng.normal(size=(nx - 2, nx - 2))
        op, rhs = kronecker_system(nx, mu)
        ref = np.linalg.norm(op @ u[1:-1, 1:-1].ravel() - rhs) / np.linalg.norm(rhs)
        assert abs(diffusion_residual(DiffusionProblem(nx, *mu), u) - ref) <= 1e-12 * ref


def kronecker_system(nx, mu):
    """The interior collocation operator kron(Ax D2, I) + kron(I, Ay D2) and its right-hand side."""
    x, d = cheb_diff(nx - 1)
    xi = x[1:-1]
    d2 = scipy.sparse.csr_matrix((d @ d)[1:-1, 1:-1])
    eye = scipy.sparse.identity(nx - 2, format="csr")
    ax = scipy.sparse.diags(1.0 + mu[0] * xi) @ d2
    ay = scipy.sparse.diags(1.0 + mu[1] * xi) @ d2
    return scipy.sparse.kron(ax, eye) + scipy.sparse.kron(eye, ay), np.exp(4.0 * np.outer(xi, xi)).ravel()


def interior_operator(nx, mu):
    """diag(1 + mu x) D2 on the interior points, the operator solve_diffusion diagonalizes."""
    x, d = cheb_diff(nx - 1)
    return (1.0 + mu * x[1:-1])[:, None] * (d @ d)[1:-1, 1:-1]


# Fast diagonalization is accurate only if these operators have real
# eigenvalues, so that lambda_i + nu_j never vanishes, and well-conditioned
# eigenvector matrices.  The condition bound was fixed at 10 before the runs.
OPERATOR_CASES = [(nx, mu) for nx in (3, 12, 40, 80, 120) for mu in (-0.99, 0.0, 0.99)]
EIGENVECTOR_CONDITION_MAX = 10.0


@pytest.mark.parametrize("nx, mu", OPERATOR_CASES)
def test_operator_eigenvalues_are_real_and_negative(nx, mu):
    lam = np.linalg.eigvals(interior_operator(nx, mu))
    assert np.isrealobj(lam) and lam.max() < 0.0


@pytest.mark.parametrize("nx, mu", OPERATOR_CASES)
def test_operator_eigenvectors_are_well_conditioned(nx, mu):
    _, p = np.linalg.eig(interior_operator(nx, mu))
    assert np.linalg.cond(p) < EIGENVECTOR_CONDITION_MAX


class TestSnapshots:
    def test_grid_ordering_mu1_major(self):
        grid = parameter_grid(3)
        assert grid[0][0] == grid[1][0] == grid[2][0]
        assert grid[0][1] != grid[1][1]

    def test_dims(self):
        snaps = assemble_snapshots(parameter_grid(2), 20)
        assert snaps.shape == (20, 20, 4)

    def test_slice_matches_independent_solve(self):
        # every slice, on the training grid and on draws that share values
        for grid in (parameter_grid(3), [(0.31, -0.44), (-0.62, 0.31), (0.0, -0.0), (0.99, 0.99)]):
            snaps = assemble_snapshots(grid, 16)
            for k, mu in enumerate(grid):
                assert np.array_equal(snaps[:, :, k], solve_diffusion(DiffusionProblem(16, *mu))), (grid, k)

    def test_each_distinct_mu_is_diagonalized_once(self, monkeypatch):
        # the 3 x 3 grid shares its 3 values between mu1 and mu2
        seen = []
        real = np.linalg.eig

        def counting(a):
            seen.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        snaps = assemble_snapshots(parameter_grid(3), 12)
        assert seen == [(10, 10)] * 3
        assert snaps.shape == (12, 12, 9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            assemble_snapshots([], 16)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_grid_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=f"n must be .*got {n!r}"):
            parameter_grid(n)


class TestPodBasis:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshots_rejected(self, bad):
        snaps = np.ones((4, 4, 3))
        snaps[2, 1, 1] = bad
        with pytest.raises(DataError, match="input tensor contains non-finite values"):
            pod_basis(snaps, 2)

    def test_rank_one_snapshots(self):
        rng = np.random.default_rng(0)
        mode = rng.normal(size=(5, 5))
        snaps = np.stack([2.0 * mode, -1.0 * mode, 0.5 * mode], axis=2)
        basis = pod_basis(snaps, 1)
        phi = basis.phi[:, 0]
        target = mode.ravel() / np.linalg.norm(mode)
        assert min(np.linalg.norm(phi - target), np.linalg.norm(phi + target)) <= 1e-12

    def test_full_rank_reproduces_training(self):
        rng = np.random.default_rng(1)
        snaps = rng.normal(size=(6, 6, 5))
        basis = pod_basis(snaps, 5)
        y = snaps.reshape(36, 5)
        proj = basis.phi @ (basis.phi.T @ y)
        assert np.abs(proj - y).max() <= 1e-10

    def test_matches_gram_eigendecomposition(self):
        rng = np.random.default_rng(2)
        snaps = rng.normal(size=(50, 50, 9))
        y = snaps.reshape(2500, 9)
        basis = pod_basis(snaps, 4)
        gram = y.T @ y
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        for r in range(4):
            u = y @ evecs[:, order[r]]
            u /= np.linalg.norm(u)
            dot = abs(u @ basis.phi[:, r])
            assert np.isclose(dot, 1.0, atol=1e-8)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            pod_basis(np.zeros((4, 4, 3)), 10)

    @pytest.mark.parametrize("r", [2.5, True, "2"])
    def test_non_integer_rank_rejected(self, r):
        with pytest.raises(ValueError, match="r must be an integer"):
            pod_basis(np.ones((4, 4, 3)), r)

    def test_orthonormal(self):
        rng = np.random.default_rng(3)
        basis = pod_basis(rng.normal(size=(8, 8, 6)), 4)
        gram = basis.phi.T @ basis.phi
        assert np.abs(gram - np.eye(4)).max() <= 1e-10


class TestProjectError:
    def test_truth_in_span(self):
        truths = assemble_snapshots([(0.2, 0.1)], 16)
        u = truths.ravel()
        phi = (u / np.linalg.norm(u)).reshape(-1, 1)
        errors = project_error(ReducedBasis(phi), truths)
        assert errors[0] <= 1e-10

    def test_monotone_in_basis_size(self):
        snaps = assemble_snapshots(parameter_grid(3), 16)
        truths = assemble_snapshots([(0.31, -0.44), (-0.62, 0.17)], 16)
        prev = np.full(2, np.inf)
        for r in (1, 2, 4, 6):
            basis = pod_basis(snaps, r)
            errs = project_error(basis, truths)
            assert np.all(errs <= prev + 1e-12)
            prev = errs

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            project_error(ReducedBasis(np.eye(4)), np.zeros((16, 16, 1)))


class TestCompressionRatio:
    def test_values_at_reference_size(self):
        assert abs(compression_ratio((100, 100, 81), 20, "pod") - 4.02) <= 0.01
        assert abs(compression_ratio((100, 100, 81), 20, "cp") - 143.62) <= 0.01

    def test_small_cp(self):
        assert np.isclose(compression_ratio((2, 2, 2), 1, "cp"), 8.0 / 7.0)

    def test_cp_beats_pod_for_fat_slices(self):
        dims = (100, 100, 81)
        assert compression_ratio(dims, 20, "cp") > compression_ratio(dims, 20, "pod")

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            compression_ratio((2, 2, 2), 1, "tucker")

    @pytest.mark.parametrize("scheme", ["pod", "cp"])
    @pytest.mark.parametrize("r", [0, -1, True, 2.5])
    def test_rank_below_one_rejected(self, scheme, r):
        # and every other r that is not an integer >= 1: True once read as
        # rank 1, and 2.5 gave a ratio
        with pytest.raises(ValueError, match=f"r must be an integer >= 1, got {r!r}"):
            compression_ratio((2, 2, 2), r, scheme)


def separable_rank_two():
    """Six 10 x 10 slices mixing two separable spatial modes: exact CP rank 2."""
    rng = np.random.default_rng(4)
    x1, y1 = rng.normal(size=10), rng.normal(size=10)
    x2, y2 = rng.normal(size=10), rng.normal(size=10)
    m1 = np.outer(x1, y1)
    m2 = np.outer(x2, y2)
    coeffs = rng.uniform(0.5, 2.0, (6, 2))
    return np.stack([c1 * m1 + c2 * m2 for c1, c2 in coeffs], axis=2)


class TestCpReducedBasis:
    def test_separable_rank_two(self):
        snaps = separable_rank_two()
        # rho = 0 so the polish is exact ALS; the damped default would leave
        # an O(rho)-level bias in the fit
        basis = cp_reduced_basis(snaps, CompletionConfig(R0=4, m_max=300, seed=1), rho=0.0)
        assert basis.phi.shape[1] == 2
        y = snaps.reshape(100, 6)
        proj = basis.phi @ (basis.phi.T @ y)
        assert np.linalg.norm(proj - y) <= 1e-7 * np.linalg.norm(y)

    def test_polish_stops_early_on_an_exact_fit(self, monkeypatch):
        # the sweeps stop once one moves A by at most 1e-8 relative, which an
        # exact low-rank fit reaches long before the cap
        real = mor.regularized_als_step
        calls = []

        def counting(sweep, rho):
            calls.append(rho)
            return real(sweep, rho)

        monkeypatch.setattr(mor, "regularized_als_step", counting)
        cp_reduced_basis(separable_rank_two(), CompletionConfig(R0=4, m_max=300, seed=1), rho=0.0)
        assert 0 < len(calls) < mor._ALS_SWEEPS

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(5)
        snaps = rng.normal(size=(8, 8, 5))
        basis = cp_reduced_basis(snaps, CompletionConfig(R0=4, m_max=60))
        gram = basis.phi.T @ basis.phi
        assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10

    @pytest.mark.parametrize("rho", [-1.0, np.nan, np.inf, True, "1e-6"])
    def test_bad_rho_rejected_before_the_fit(self, monkeypatch, rho):
        # at an all-zero tensor the fit keeps no component, so a check left
        # to the polish would never run
        fits = []
        monkeypatch.setattr(mor, "complete", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match=re.escape(f"rho must be a real number in [0, inf), got {rho!r}")):
            cp_reduced_basis(np.zeros((6, 6, 5)), CompletionConfig(R0=3, m_max=20), rho=rho)
        assert fits == []

    def test_fit_keeping_no_component_gives_no_columns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = cp_reduced_basis(np.zeros((6, 6, 5)), CompletionConfig(R0=3, m_max=20))
        assert basis.phi.shape == (36, 0)


def qr_basis(phi_hat):
    """The pivoted-QR basis: columns whose pivot is at least 1e-10 times the largest."""
    q, r, _ = scipy.linalg.qr(phi_hat, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    return q[:, : int(np.sum(diag >= 1e-10 * diag.max()))]


def spatial_products(model):
    return np.stack([np.outer(model.A[:, r], model.B[:, r]).ravel() for r in range(model.R)], axis=1)


class TestCpBasisMatchesPivotedQr:
    """The SVD basis spans what the pivoted-QR basis it replaced spans."""

    def assert_same_span(self, phi, phi_hat):
        q = qr_basis(phi_hat)
        assert phi.shape == q.shape
        assert np.abs(phi @ phi.T - q @ q.T).max() <= 1e-10

    def test_small_demo(self, monkeypatch):
        fits = []
        real = mor.regularized_als_step

        def keeping(sweep, rho):
            fits.append(real(sweep, rho))
            return fits[-1]

        monkeypatch.setattr(mor, "regularized_als_step", keeping)
        snaps = assemble_snapshots(parameter_grid(5), 12)
        basis = cp_reduced_basis(snaps, CompletionConfig(R0=20, m_max=15))
        self.assert_same_span(basis.phi, spatial_products(fits[-1]))

    def test_repeated_component_is_dropped(self, monkeypatch):
        # a fit with two identical spatial components has a rank-deficient
        # product matrix; both bases keep one copy
        rng = np.random.default_rng(7)
        a, b, c = rng.normal(size=(6, 4)), rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        a[:, 3], b[:, 3] = a[:, 1], b[:, 1]
        model = CPModel(a, b, c, np.ones(4))
        monkeypatch.setattr(mor, "complete", lambda *args: (model, None, None))
        monkeypatch.setattr(mor, "regularized_als_step", lambda sweep, rho: sweep.model)
        basis = cp_reduced_basis(np.ones((6, 5, 3)), CompletionConfig(R0=4, m_max=5))
        assert basis.phi.shape[1] == 3
        self.assert_same_span(basis.phi, spatial_products(model))

    def test_signed_zero_rows_give_the_svd_basis_of_the_products(self, monkeypatch):
        # after the ALS polish the boundary rows of A and B are exactly +-0;
        # the basis is the thin SVD of the outer products with every zero's
        # sign kept, bit for bit
        rng = np.random.default_rng(11)
        a, b, c = rng.normal(size=(12, 5)), rng.normal(size=(12, 5)), rng.normal(size=(4, 5))
        signs = rng.choice([-1.0, 1.0], size=(2, 2, 5))
        a[[0, -1]] = 0.0 * signs[0]
        b[[0, -1]] = 0.0 * signs[1]
        model = CPModel(a, b, c, np.ones(5))
        monkeypatch.setattr(mor, "complete", lambda *args: (model, None, None))
        monkeypatch.setattr(mor, "regularized_als_step", lambda sweep, rho: sweep.model)
        basis = cp_reduced_basis(np.ones((12, 12, 4)), CompletionConfig(R0=5, m_max=5))
        u, s, _ = np.linalg.svd(spatial_products(model), full_matrices=False)
        expected = u[:, : int(np.sum(s >= 1e-10 * s[0]))]
        assert np.array_equal(basis.phi.view(np.uint64), expected.view(np.uint64))


class TestRunMorDemo:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"r0": 50}, "R=50 exceeds the rank upper bound"),
            ({"n_tests": 0}, "n_tests must be an integer >= 1, got 0"),
            ({"pod_rank": 26}, "rank 26 out of range"),
            ({"seed": -1}, "seed must be an integer >= 0"),
            ({"eps": 1.0}, "eps_truncate must be a real number in"),
            ({"nx": 5.0}, "nx must be an integer >= 3, got 5.0"),
            ({"grid_n": 2.5}, "grid_n must be an integer >= 1, got 2.5"),
            ({"grid_n": True}, "grid_n must be an integer >= 1, got True"),
            ({"n_tests": 2.5}, "n_tests must be an integer >= 1, got 2.5"),
            ({"n_tests": True}, "n_tests must be an integer >= 1, got True"),
            ({"pod_rank": 2.5}, "pod_rank must be an integer >= 1, got 2.5"),
            ({"pod_rank": True}, "pod_rank must be an integer >= 1, got True"),
            ({"grid_n": 0}, "grid_n must be an integer >= 1, got 0"),
            ({"nx": 2}, "nx must be an integer >= 3, got 2"),
            ({"nx": -3}, "nx must be an integer >= 3, got -3"),
        ],
        ids=[
            "r0-above-rank-bound", "n_tests-zero", "pod_rank-too-large", "seed-negative", "eps-one",
            "nx-float", "grid_n-float", "grid_n-bool", "n_tests-float", "n_tests-bool", "pod_rank-float", "pod_rank-bool",
            "grid_n-zero", "nx-two", "nx-negative",
        ],
    )
    def test_bad_setting_fails_before_any_solve(self, monkeypatch, settings, message):
        # On the 5 x 5 x 81 snapshot tensor the CP rank bound is min(25, 405, 405) = 25.
        # Every collocation solve goes through assemble_snapshots.
        solves = []
        monkeypatch.setattr(mor, "assemble_snapshots", lambda *args: solves.append(args))
        kwargs = {"nx": 5, "grid_n": 9, "r0": 10, "n_tests": 2, "pod_rank": 3, **settings}
        with pytest.raises(ValueError, match=message):
            mor.run_mor_demo(**kwargs)
        assert solves == []

    def test_basis_fit_gets_one_config_with_the_demo_settings(self, monkeypatch):
        configs = []

        def capture(snaps, cfg):
            configs.append(cfg)
            return ReducedBasis(np.eye(snaps.shape[0] * snaps.shape[1], 1))

        monkeypatch.setattr(mor, "cp_reduced_basis", capture)
        mor.run_mor_demo(nx=5, grid_n=3, r0=4, eps=0.05, n_tests=2, pod_rank=2, seed=7, m_max=9)
        assert configs == [CompletionConfig(R0=4, m_max=9, seed=7, eps_truncate=0.05)]


# Run in a fresh interpreter, because this module loads scipy into the test
# process.  No code path of the package, library or CLI, loads a scipy module.
SCIPY_PROBE = """
import sys
sys.path.insert(0, SRC)
import numpy as np
import cpcomplete, cpcomplete.cli
from cpcomplete import fileio

rng = np.random.default_rng(0)
t = cpcomplete.reconstruct(cpcomplete.CPModel(*(rng.normal(size=(n, 2)) for n in (6, 5, 4)), [2.0, 1.0]))
mask = cpcomplete.make_random_mask(t.shape, 0.7, seed=0)
for mode in ("hybrid", "fixed"):
    cpcomplete.complete(t, mask, cpcomplete.CompletionConfig(R0=3, m_max=3, mode=mode, lam=0.05))
fileio.save_tensor(t, OUT + "/t.tns3")
codes = [
    cpcomplete.cli.main(["mask", "--dims", "6,5,4", "--out", OUT + "/m.msk3"]),
    cpcomplete.cli.main(["complete", "--input", OUT + "/t.tns3", "--mask", OUT + "/m.msk3",
                         "--rank", "3", "--max-iter", "3", "--out", OUT + "/m.cpm1"]),
    cpcomplete.cli.main(["complete", "--input", OUT + "/t.tns3", "--mask", OUT + "/m.msk3", "--mode", "fixed:0.05",
                         "--rank", "3", "--max-iter", "3", "--out", OUT + "/f.cpm1"]),
    cpcomplete.cli.main(["pod", "--input", OUT + "/t.tns3", "--rank", "2", "--out", OUT + "/b.mat1"]),
    cpcomplete.cli.main(["mor-demo", "--nx", "8", "--grid", "2", "--rank0", "3", "--tests", "2",
                         "--pod-rank", "2", "--max-iter", "5", "--outdir", OUT]),
]
print("exit codes:", codes)
p = cpcomplete.DiffusionProblem(10, 0.3, -0.2)
print("residual:", cpcomplete.diffusion_residual(p, cpcomplete.solve_diffusion(p)))
snaps = cpcomplete.assemble_snapshots(cpcomplete.parameter_grid(3), 6)
phi = cpcomplete.cp_reduced_basis(snaps, cpcomplete.CompletionConfig(R0=3, m_max=20)).phi
print("basis:", phi.shape[1], np.abs(phi.T @ phi - np.eye(phi.shape[1])).max())
print("scipy modules:", " ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_code_path_loads_scipy(tmp_path):
    code = f"SRC = {str(SRC)!r}\nOUT = {str(tmp_path)!r}\n{SCIPY_PROBE}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
    assert lines["exit codes"] == "[0, 0, 0, 0, 0]"
    assert float(lines["residual"]) <= 1e-10
    count, err = lines["basis"].split()
    assert int(count) >= 1 and float(err) <= 1e-10
    assert lines["scipy modules"] == ""
