"""Model-order-reduction pipeline: spectral solver for a parametrized
diffusion problem, snapshot tensor assembly, CP-derived and POD reduced
bases, projection errors, and compression ratios.  Everything runs on numpy
alone: the collocation systems are solved by fast diagonalization, and no
code path loads scipy."""

from dataclasses import dataclass

import numpy as np

from .completion import CompletionConfig, complete
from .cp_model import check_rank
from .factor_updates import Sweep, regularized_als_step
from .exceptions import DataError
from .tensor_ops import Mask, as_tensor, check_count, check_real, khatri_rao

__all__ = [
    "cheb_diff",
    "DiffusionProblem",
    "solve_diffusion",
    "diffusion_residual",
    "parameter_grid",
    "assemble_snapshots",
    "ReducedBasis",
    "cp_reduced_basis",
    "pod_basis",
    "project_error",
    "compression_ratio",
    "run_mor_demo",
]


# Largest admissible |mu1|, |mu2|: it keeps the coefficients 1 + mu x positive
# on [-1, 1]; the training grid and the test draws span [-MU_MAX, MU_MAX].
MU_MAX = 0.99

# Default POD basis size, for pod_basis and run_mor_demo alike.
POD_RANK = 20


def cheb_diff(n):
    """Chebyshev-Gauss-Lobatto points cos(j pi / n) and the differentiation matrix.

    Standard construction with the negative-sum trick on the diagonal, so the
    derivative of constants is exactly zero.
    """
    check_count("n", n, 1)
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


@dataclass
class DiffusionProblem:
    """(1 + mu1 x) u_xx + (1 + mu2 y) u_yy = e^{4xy} on [-1,1]^2, u = 0 on the boundary.

    ``nx`` is the number of collocation points per direction including the
    boundary, at least 3 so that the interior is nonempty; a real |mu| <=
    MU_MAX keeps the coefficients positive (ellipticity).
    """

    nx: int
    mu1: float
    mu2: float

    def __post_init__(self):
        check_count("nx", self.nx, 3)
        for name in ("mu1", "mu2"):
            check_real(name, getattr(self, name), -MU_MAX, MU_MAX)


def _interior(nx):
    # Interior points, the second-derivative matrix on them (the boundary
    # values vanish, so their columns drop out) and the source e^{4xy}.
    x, d = cheb_diff(nx - 1)
    xi = x[1:-1]
    return xi, (d @ d)[1:-1, 1:-1], np.exp(4.0 * np.outer(xi, xi))


def _eigen(xi, d2, mu):
    # Eigenvalues, eigenvectors P and P^-1 of diag(1 + mu x) D2.
    lam, p = np.linalg.eig((1.0 + mu * xi)[:, None] * d2)
    return lam, p, np.linalg.inv(p)


def solve_diffusion(p):
    """Collocation solution on the full grid, boundary values exactly zero.

    The slice of :func:`assemble_snapshots` for the one problem ``p``.
    """
    return assemble_snapshots([(p.mu1, p.mu2)], p.nx)[:, :, 0]


def diffusion_residual(p, u):
    """||r|| / ||f|| for the collocation equations at the interior points.

    r = (1 + mu1 x) u_xx + (1 + mu2 y) u_yy - f, where u_xx = D2 u and
    u_yy = u D2^T differentiate the full-grid u, boundary values included.
    It shares no assembly with the solver, so it checks the solve
    independently.
    """
    x, d = cheb_diff(p.nx - 1)
    d2 = d @ d
    xi = x[1:-1]
    lap = ((1.0 + p.mu1 * xi)[:, None] * (d2 @ u)[1:-1, 1:-1]
           + (u @ d2.T)[1:-1, 1:-1] * (1.0 + p.mu2 * xi)[None, :])
    rhs = np.exp(4.0 * np.outer(xi, xi))
    return float(np.linalg.norm(lap - rhs)) / float(np.linalg.norm(rhs))


def parameter_grid(n):
    """Tensorial n x n cartesian grid over [-MU_MAX, MU_MAX]^2, mu1 varying slowest."""
    check_count("n", n, 1)
    vals = np.linspace(-MU_MAX, MU_MAX, n)
    return [(float(m1), float(m2)) for m1 in vals for m2 in vals]


def assemble_snapshots(grid, nx):
    """nx x nx x len(grid) tensor whose slice k solves the problem at grid[k].

    Slice k is the collocation solution on the full grid, boundary values
    exactly zero.  Its interior system ``kron(A, I) + kron(I, B)`` is the
    Sylvester equation ``A U + U B^T = F`` with A = diag(1 + mu1 x) D2 and
    B = diag(1 + mu2 x) D2 on the interior points.  It is solved by fast
    diagonalization (Lynch, Rice & Thomas 1964) in O(nx^3): with
    A = P_A diag(lam) P_A^-1 and B = P_B diag(nu) P_B^-1,
    U = P_A [(P_A^-1 F P_B^-T) / (lam_i + nu_j)] P_B^T, of which the real
    part is kept.  The eigenvalues of these operators are real and negative
    and their eigenvector matrices well conditioned (condition number below
    10 up to nx = 120), so the solve is as accurate as a Schur-based one.
    Each distinct mu is diagonalized once, so a 9 x 9 grid costs 9
    eigendecompositions, not 162.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    problems = [DiffusionProblem(nx, m1, m2) for m1, m2 in grid]
    xi, d2, f = _interior(nx)
    eigen = {mu: _eigen(xi, d2, mu) for mu in {m for p in problems for m in (p.mu1, p.mu2)}}
    snaps = np.zeros((nx, nx, len(grid)))
    for k, p in enumerate(problems):
        lam_a, pa, pa_inv = eigen[p.mu1]
        lam_b, pb, pb_inv = eigen[p.mu2]
        g = (pa_inv @ f @ pb_inv.T) / (lam_a[:, None] + lam_b[None, :])
        snaps[1:-1, 1:-1, k] = (pa @ g @ pb.T).real
    return snaps


@dataclass
class ReducedBasis:
    """Orthonormal basis columns."""

    phi: np.ndarray


_ALS_SWEEPS = 200
_ALS_TOL = 1e-8


def cp_reduced_basis(a, cfg, rho=None):
    """Reduced basis from a rank-revealing CP fit of the snapshot tensor.

    Runs the completion driver with the :class:`CompletionConfig` ``cfg`` on
    the fully observed tensor to find the rank (components surviving
    truncation at ``cfg.eps_truncate`` times the largest scaling), polishes
    the factors with up to 200 damped ALS sweeps at that rank (``rho``
    defaults to 1e-6 * ||a||_F / sqrt(R)), stopping once a sweep moves A by
    at most 1e-8 relative, and orthonormalizes the spatial products
    x_r o y_r, the columns of the Khatri-Rao product of the two spatial
    factors, by a thin SVD, keeping the left singular vectors whose singular
    value is at least 1e-10 times the largest.  A fit that keeps no
    component (an all-zero tensor) gives a basis with no columns; a given
    ``rho`` is checked before the fit.
    """
    a = as_tensor(a)
    if rho is not None:
        check_real("rho", rho, 0, np.inf, "[)")
    model, _, _ = complete(a, Mask.full(a.shape), cfg)
    if model.R == 0:
        return ReducedBasis(np.zeros((a.shape[0] * a.shape[1], 0)))
    if rho is None:
        rho = 1e-6 * float(np.linalg.norm(a.ravel())) / np.sqrt(model.R)
    sweep = Sweep(model, a)
    for _ in range(_ALS_SWEEPS):
        prev = model.A
        model = regularized_als_step(sweep, rho)
        delta = np.linalg.norm(model.A - prev) / max(np.linalg.norm(prev), 1e-300)
        if delta <= _ALS_TOL:
            break
    u, s, _ = np.linalg.svd(khatri_rao(model.A, model.B), full_matrices=False)
    kept = int(np.sum(s >= 1e-10 * s[0]))
    return ReducedBasis(np.ascontiguousarray(u[:, :kept]))


def _check_pod_rank(r, rows, cols):
    if r > min(rows, cols):
        raise ValueError(f"rank {r} out of range for a {rows} x {cols} snapshot matrix")


def pod_basis(a, r=POD_RANK):
    """Leading left singular vectors of the snapshot matrix (slices as columns).

    A snapshot tensor holding a NaN or an infinity raises DataError.
    """
    a = as_tensor(a)
    if not np.all(np.isfinite(a)):
        raise DataError("input tensor contains non-finite values")
    i, j, k = a.shape
    check_count("r", r, 1)
    _check_pod_rank(r, i * j, k)
    y = a.reshape(i * j, k)
    u, _, _ = np.linalg.svd(y, full_matrices=False)
    return ReducedBasis(np.ascontiguousarray(u[:, :r]))


def project_error(basis, truths):
    """l2 error of projecting each slice of ``truths``, laid out as by assemble_snapshots, onto the basis."""
    phi = basis.phi
    i, j, n = truths.shape
    if phi.shape[0] != i * j:
        raise ValueError(f"basis rows {phi.shape[0]} do not match grid size {i * j}")
    errors = np.zeros(n)
    for idx in range(n):
        u = truths[:, :, idx].ravel()
        proj = phi @ (phi.T @ u)
        errors[idx] = np.linalg.norm(u - proj)
    return errors


def compression_ratio(dims, r, scheme):
    """Stored-entry ratio of the raw tensor to the compressed representation."""
    check_count("r", r, 1)
    i, j, k = dims
    total = i * j * k
    if scheme == "pod":
        return total / (r * (i * j + k + 1))
    if scheme == "cp":
        return total / (r * (i + j + k + 1))
    raise ValueError(f"scheme must be 'pod' or 'cp', got {scheme!r}")


def run_mor_demo(nx=40, grid_n=9, r0=50, eps=1e-2, n_tests=10, pod_rank=POD_RANK, seed=0, m_max=200):
    """Full pipeline on one parameter grid; returns bases, per-test errors and ratios.

    Every setting is checked before the first collocation solve.
    """
    for name, value, low in (("nx", nx, 3), ("grid_n", grid_n, 1), ("n_tests", n_tests, 1), ("pod_rank", pod_rank, 1)):
        check_count(name, value, low)
    cfg = CompletionConfig(R0=r0, m_max=m_max, seed=seed, eps_truncate=eps)
    grid = parameter_grid(grid_n)
    _check_pod_rank(pod_rank, nx * nx, len(grid))
    check_rank(r0, (nx, nx, len(grid)))
    snaps = assemble_snapshots(grid, nx)
    cp = cp_reduced_basis(snaps, cfg)
    pod = pod_basis(snaps, pod_rank)
    rng = np.random.default_rng(seed)
    tests = [(float(m1), float(m2)) for m1, m2 in rng.uniform(-MU_MAX, MU_MAX, size=(n_tests, 2))]
    truths = assemble_snapshots(tests, nx)
    cp_err = project_error(cp, truths)
    pod_err = project_error(pod, truths)
    dims = snaps.shape
    return {
        "snapshots": snaps,
        "grid": grid,
        "tests": tests,
        "cp_basis": cp,
        "pod_basis": pod,
        "cp_errors": cp_err,
        "pod_errors": pod_err,
        "ratios": {
            "cp": compression_ratio(dims, cp.phi.shape[1], "cp"),
            "pod": compression_ratio(dims, pod_rank, "pod"),
        },
    }
