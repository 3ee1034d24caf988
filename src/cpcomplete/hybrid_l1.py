"""Hybrid solver for the l1-penalized problem
min_s ||H s - d||^2 + lambda ||s||_1, with lambda chosen at every step by
weighted generalized cross validation.

The l1 term is handled by iteratively reweighted norms: ||s||_1 is replaced by
||L(s) s||^2 with L(s) = diag(1/sqrt(f_tau(|s_i|))), and the changing diagonal
preconditioner is absorbed by a flexible Golub-Kahan process that maintains

    H P_k = U_{k+1} M_k        (M_k upper Hessenberg)
    H^T U_{k+1} = V_{k+1} T_{k+1}   (T upper triangular)

with orthonormal U, V and P_k = [L_1^{-1} v_1, ..., L_k^{-1} v_k].  The process
builds M_k, :class:`ProjectedProblem` holds its singular values and vectors,
and the projected Tikhonov solve and the choice of lambda by weighted
generalized cross validation read only those.  They come from the
eigendecomposition of the (k+1) x (k+1) Gram M_k M_k^T, or from the SVD of
M_k when that Gram cannot resolve M_k's smallest singular value.  The choice
evaluates the WGCV curve once, on a 200-point grid, and places lambda by one
parabolic step in log lambda through the grid minimum and its two
neighbours.

What the solver returns is an IRN-weighted Tikhonov iterate, not the lasso
minimizer: the projected Tikhonov solution at the last WGCV lambda after
min(k_max, n) steps for an n-column H, or fewer on breakdown.  A fixed point
s of the reweighting, where L(s)^2 = diag(1/|s|), meets the stationarity
condition of the lasso min ||H s - d||^2 + mu ||s||_1 at mu = 2 lambda, but
the step count ends the iteration before it settles there: on the
completion driver's coordinate problems, s was up to 0.42 away from the
exact lasso solution x* at mu = 2 lambda, relative to ||x*||, early in a
run.  The iterate is dense, with no entry exactly zero in practice, so
skipping the components with alpha_r = 0 (the MM step's one gather,
``Sweep.active``, and the reconstructions) saves work only in fixed-lambda
mode, where the soft threshold makes exact zeros.

A fixed-lambda ISTA step for the CP scaling vector is provided as a baseline,
together with the closed-form soft-threshold proximal map.  The step reads
Q Q^T off the factor Grams and takes Q t from its caller, so its gradient
Q Q^T alpha - Q t needs no IJK-sized residual or contraction; the one
IJK-sized tensor it forms is the new alpha's reconstruction, which it
writes into the driver's buffer.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .cp_model import reconstruct
from .factor_updates import STEP_SAFETY
from .tensor_ops import check_count, check_real

__all__ = [
    "soft_threshold",
    "ista_alpha_step",
    "irn_weights",
    "FGKState",
    "fgk_init",
    "fgk_expand",
    "ProjectedProblem",
    "projected_tikhonov",
    "wgcv_select",
    "HybridConfig",
    "solve_l1_hybrid",
]

_BREAKDOWN_RTOL = 1e-14
# IRN thresholds: |s_i| below _TAU1 counts as vanished and is weighted as _TAU2.
_TAU1 = 1e-10
_TAU2 = 1e-14


def soft_threshold(v, lam):
    """Proximal map of lambda * ||.||_1: zero inside [-lambda, lambda], shrink outside."""
    check_real("lambda", lam, 0, np.inf)
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def ista_alpha_step(m, qt, lam, op, out=None):
    """One thresholded-Landweber step on the scaling vector at fixed lambda.

    alpha <- prox(alpha - Q (Q^T alpha - t) / (s eta), lambda / (s eta)) with
    eta the largest eigenvalue of Q Q^T and s = STEP_SAFETY, the same safety
    factor the MM factor updates use, for the tensor t being fitted.  ``qt``
    is Q t, which the completion driver reads off its MM sweep
    (:meth:`~cpcomplete.factor_updates.Sweep.qt`) and anyone else gets from
    ``op.rmatvec(t)``; ``op`` is the
    :class:`~cpcomplete.cp_model.CPScalingOperator` of m's factors, which
    supplies Q Q^T, so the gradient is Q Q^T alpha - Q t and neither Q nor
    anything IJK-sized is formed for it.  The gradient and eta cover every
    component, so one with alpha_r = 0 can come back.  When ``out``, a
    tensor of m's dimensions, is given, the new alpha's reconstruction is
    written into it, over the nonzero components only; m is left as it
    was.  A rank-0 model gets an empty alpha.
    """
    eta = max(float(np.linalg.eigvalsh(op.gram).max(initial=0.0)), 1e-12)
    step = 1.0 / (STEP_SAFETY * eta)
    grad = op.gram @ m.alpha - qt
    alpha = soft_threshold(m.alpha - step * grad, lam * step)
    if out is not None:
        reconstruct(replace(m, alpha=alpha), out=out)
    return alpha


def irn_weights(s):
    """Diagonal of L(s) = diag(1/sqrt(f_tau(|s_i|))), the l2 surrogate of the l1 norm.

    f_tau(|s_i|) is |s_i| where |s_i| >= 1e-10 and 1e-14 below, so entries
    that have effectively vanished get a huge weight and are pinned near zero.
    """
    mag = np.abs(np.asarray(s, dtype=np.float64))
    f = np.where(mag >= _TAU1, mag, _TAU2)
    return 1.0 / np.sqrt(f)


class FGKState:
    """Flexible Golub-Kahan bases and projected factors after k expansions.

    U (m x u_cols) and V (n x v_cols) have orthonormal columns, P (n x k)
    holds the preconditioned directions, M ((k+1) x k) is upper Hessenberg
    and Tt (v_cols x u_cols) upper triangular.  ``breakdown`` is set once a
    new direction vanished; the state then stops expanding but can still be
    solved at the current k.  V spans at most the n-dimensional space of
    v_1, so the process breaks down by step n and the buffers are sized for
    n steps up front; :func:`solve_l1_hybrid` therefore takes at most n steps,
    whatever its ``k_max``.
    """

    def __init__(self, u1, v1, t11, beta1):
        # Basis vectors are stored as rows so Gram-Schmidt runs on contiguous
        # blocks; the public properties expose the column-oriented views.
        m, n = u1.size, v1.size
        self._u = np.zeros((n + 1, m))
        self._v = np.zeros((n + 1, n))
        self._p = np.zeros((n, n))
        self._m = np.zeros((n + 1, n))
        self._t = np.zeros((n + 1, n + 1))
        self._u[0] = u1
        self._v[0] = v1
        self._t[0, 0] = t11
        self._nu = 1
        self._nv = 1
        self.beta1 = beta1
        self.k = 0
        self.breakdown = False

    @property
    def U(self):
        return self._u[: self._nu].T

    @property
    def V(self):
        return self._v[: self._nv].T

    @property
    def P(self):
        return self._p[: self.k].T

    @property
    def M(self):
        # (k+1) x k even if a u-side breakdown left the last row zero.
        return self._m[: self.k + 1, : self.k]

    @property
    def Tt(self):
        return self._t[: self._nv, : self._nu]


def fgk_init(h, d):
    """Bootstrap u_1 = d/||d|| and v_1 = H^T u_1 / ||H^T u_1|| for a 2-D array H.

    Returns None when d or H^T d is exactly zero, the breakdown test of
    :func:`fgk_expand` with no basis yet (the solution of the regularized
    problem is zero and there is nothing to expand).
    """
    if not isinstance(h, np.ndarray) or h.ndim != 2:
        raise ValueError("operator must be a two-dimensional array")
    d = np.asarray(d, dtype=np.float64).ravel()
    if d.size != h.shape[0]:
        raise ValueError(f"data length {d.size} does not match operator rows {h.shape[0]}")
    if not (np.isfinite(h).all() and np.isfinite(d).all()):
        raise ValueError("operator and data must be finite")
    beta1 = math.sqrt(d @ d)
    if beta1 == 0.0:
        return None
    u1 = d / beta1
    z = h.T @ u1
    t11 = math.sqrt(z @ z)
    if t11 == 0.0:
        return None
    return FGKState(u1, z / t11, t11, beta1)


def _orthogonalize(rows, w):
    # Classical Gram-Schmidt against basis vectors stored as rows, with one
    # refinement pass; returns (coeffs, residual).
    h = rows @ w
    w = w - h @ rows
    h2 = rows @ w
    w = w - h2 @ rows
    return h + h2, w


def _extend_basis(rows, n, w):
    # Orthogonalize w against the basis rows[:n] and store it, normalized, as
    # rows[n]; returns (coeffs, norm).  Breakdown, when orthogonalization
    # leaves at most _BREAKDOWN_RTOL of w's norm, stores nothing and gives
    # norm 0.0.
    scale = math.sqrt(w @ w)
    coeffs, w = _orthogonalize(rows[:n], w)
    norm = math.sqrt(w @ w)
    if norm <= _BREAKDOWN_RTOL * scale:
        return coeffs, 0.0
    rows[n] = w / norm
    return coeffs, norm


def fgk_expand(state, h, weights=None):
    """Grow the flexible Golub-Kahan factorization by one step.

    Appends p_k = L_k^{-1} v_k, with ``weights`` the diagonal of L_k from
    :func:`irn_weights` (None for the identity), orthogonalizes H p_k against
    U to fill M's new column, then orthogonalizes H^T u_{k+1} against V to
    extend Tt.  On breakdown the state is marked and the caller should solve
    at the current size; both relations keep holding with the zero-padded
    column.
    """
    if state.breakdown:
        raise ValueError("cannot expand a broken-down state")
    v = state._v[state.k]
    p = v.copy() if weights is None else v / weights
    mcol, beta = _extend_basis(state._u, state._nu, h @ p)
    state._p[state.k] = p
    k = state.k = state.k + 1
    state._m[: mcol.size, k - 1] = mcol
    if beta == 0.0:
        state.breakdown = True
        return state
    state._m[k, k - 1] = beta
    state._nu += 1

    tcol, gamma = _extend_basis(state._v, state._nv, h.T @ state._u[state._nu - 1])
    state._t[: tcol.size, state._nu - 1] = tcol
    if gamma == 0.0:
        state.breakdown = True
        return state
    state._t[state._nv, state._nu - 1] = gamma
    state._nv += 1
    return state


# ProjectedProblem takes the SVD of M when the Gram's k-th eigenvalue is at
# most this fraction of its largest; its docstring gives the reason.
_GRAM_MIN_RATIO = 1e-8


class ProjectedProblem:
    """min_q ||M q - beta1 e1||^2 + lambda ||q||^2 for a (k+1) x k matrix M, as
    M = W diag(s) V^T with s^2, vt = V^T, c = beta1 W^T e1, c^2 and rho2, the
    squared norm of the part of beta1 e1 outside range(M).

    The factors come from ``eigh`` of the (k+1) x (k+1) Gram M M^T: s^2 are
    its k largest eigenvalues in descending order and W their eigenvectors,
    so V^T = diag(1/s) W^T M, and the remaining eigenvector w_0 spans the
    left null space of M, so rho2 = (beta1 w_0[0])^2, with none of the
    cancellation of beta1^2 - ||c||^2.

    When the Gram cannot resolve the spectrum, the factors are the SVD of M,
    with rho2 = max(beta1^2 - ||c||^2, 0): for k = 0, for a Gram that is not
    finite (M near overflow), and when the k-th eigenvalue is at most
    ``_GRAM_MIN_RATIO`` = 1e-8 times the largest.  ``eigh`` resolves each
    eigenvalue to an absolute error of about eps * lambda_max, so at that
    ratio a kept singular value is still good to about eps / (2 * 1e-8),
    some 1e-8 relative, the level of rounding changes the solver already
    absorbs, and the kept eigenvectors stay 1e-8 lambda_max away from the
    null vector's eigenvalue.  Below it the Gram has squared away the digits
    the small singular values need.  The solver's own problems sit well
    above it (sigma_min^2 / sigma_max^2 >= 2.7e-7 on the criterion-7
    instances and the MOR demo).  The guard is a ratio, so the choice does
    not depend on the data's units.
    """

    __slots__ = ("k", "s", "s2", "c", "c2", "vt", "rho2")

    def __init__(self, m, beta1):
        self.k = k = m.shape[1]
        gram = m @ m.T
        # eigh fails on an overflowed Gram; the SVD below handles such an M
        if k and np.isfinite(gram).all():
            evals, evecs = np.linalg.eigh(gram)
            # eigh sorts ascending: the k largest in descending order, then w_0
            s2, w = evals[:0:-1], evecs[:, :0:-1]
            if s2[-1] > _GRAM_MIN_RATIO * s2[0]:
                self.s2, self.s = s2, np.sqrt(s2)
                self.vt = (w.T @ m) / self.s[:, None]
                self.c = beta1 * w[0]
                self.c2 = self.c * self.c
                self.rho2 = float(beta1 * evecs[0, 0]) ** 2
                return
        w, self.s, self.vt = np.linalg.svd(m, full_matrices=False)
        self.c = beta1 * w[0]
        self.s2 = self.s * self.s
        self.c2 = self.c * self.c
        self.rho2 = max(beta1**2 - float(self.c @ self.c), 0.0)


def projected_tikhonov(problem, lam):
    """Minimizer q of the :class:`ProjectedProblem` at ``lam`` > 0 from its
    singular values and vectors.

    The full-space solution is s = P q.
    """
    check_real("lambda", lam, 0, np.inf, "(]")
    filt = problem.s / (problem.s2 + lam)
    return problem.vt.T @ (filt * problem.c)


_UNIT_GRID = np.logspace(-10.0, 0.0, 200)
# Spacing of the grid in log10 lambda.
_GRID_STEP = 10.0 / (_UNIT_GRID.size - 1)


def _wgcv_curve(problem, omega, lams):
    """WGCV objective at each lambda in ``lams``; non-finite values read as +inf.

    With the filter factors s_i^2 / (s_i^2 + lam) it is
    k * ||(I - M Phi_lam) beta1 e1||^2 / (k + 1 - omega trace(M Phi_lam))^2.
    """
    s2 = problem.s2[:, None]
    filt = s2 / (s2 + lams)
    num = (problem.c2 @ (1.0 - filt) ** 2 + problem.rho2) * problem.k
    den = (problem.k + 1 - omega * filt.sum(axis=0)) ** 2
    # Numerator and squared denominator are >= 0, so the only non-finite
    # values are +inf and NaN, and fmin maps NaN to +inf.
    return np.fmin(num / den, np.inf)


def wgcv_select(problem, omega):
    """Weighted GCV choice of lambda on a :class:`ProjectedProblem`, read off
    its s^2, c^2 and rho2.

    Evaluates k * ||(I - M Phi_lam) beta1 e1||^2 / trace(I - omega M Phi_lam)^2
    on a 200-point logarithmic grid spanning [1e-10, 1] * sigma_max(M) and
    returns the vertex of the parabola through the grid minimum and its two
    neighbours in log10 lambda (Brent 1973, ch. 5), with no further curve
    evaluation.  The vertex lies within half a grid step of the grid
    minimum, toward its lower neighbour; at a grid end, or next to a +inf
    value, the grid point itself is returned.  Raises ValueError when the
    objective is not finite anywhere on the grid (data near overflow).  The
    grid scales with sigma_max(M) while lambda is added to sigma_i^2, so it is
    not unit-free: scaling M by c moves the grid by c and the minimizer by c^2.
    """
    check_real("omega", omega, 0, 1, "(]")
    if problem.k < 1:
        raise ValueError("wgcv_select needs at least one expansion step")
    grid = float(problem.s[0]) * _UNIT_GRID
    vals = _wgcv_curve(problem, omega, grid)
    best = int(vals.argmin())
    if not math.isfinite(vals[best]):
        raise ValueError("the WGCV curve is not finite anywhere on its grid")
    lam = float(grid[best])
    if 0 < best < grid.size - 1:
        lo, mid, hi = vals[best - 1 : best + 2].tolist()
        below, above = lo - mid, hi - mid
        if math.isfinite(below + above):
            # below > 0 <= above, so the step stays within half a grid step
            # in floating point too.
            lam *= 10.0 ** (_GRID_STEP * (below - above) / (2.0 * (below + above)))
    return lam


@dataclass
class HybridConfig:
    """Settings for :func:`solve_l1_hybrid`; every lambda is selected by WGCV.

    ``k_max`` caps the inner steps; the solver also stops after n steps for an
    n-column H, where the process must break down.  ``omega`` is the WGCV
    weight, a number in (0, 1].
    """

    k_max: int = 50
    omega: float = 0.2

    def __post_init__(self):
        check_count("k_max", self.k_max, 1)
        check_real("omega", self.omega, 0, 1, "(]")


def solve_l1_hybrid(h, d, cfg):
    """Run the flexible hybrid iteration on a 2-D array H with the
    :class:`HybridConfig` ``cfg``; returns (s, lambda_history).

    Per step: refresh L from the current iterate (identity before one
    exists), expand the flexible Golub-Kahan factorization, factor the
    projected problem once (:class:`ProjectedProblem`), pick lambda by WGCV,
    solve the projected Tikhonov problem and map back through P.
    Stops after min(k_max, n) steps for an n-column H or on breakdown.  So s
    is an IRN-weighted Tikhonov iterate at the last lambda, not the
    minimizer of ||H s - d||^2 + lambda ||s||_1 (see the module docstring).

    The process only uses inner products among d and the columns of H, so a
    tall problem can be handed over as any (H', d') with the same joint Gram;
    the completion driver passes an (n+1) x n one.
    """
    state = fgk_init(h, d)
    ncols = h.shape[1]
    if state is None:
        return np.zeros(ncols), np.empty(0)

    omega = float(cfg.omega)
    lam_history = []
    # k_max >= 1, and ncols >= 1 once fgk_init gives a state, so sol gets set.
    for _ in range(min(cfg.k_max, ncols)):
        weights = irn_weights(sol) if lam_history else None
        fgk_expand(state, h, weights)
        problem = ProjectedProblem(state.M, state.beta1)
        lam = wgcv_select(problem, omega)
        sol = state.P @ projected_tikhonov(problem, lam)
        lam_history.append(lam)
        if state.breakdown:
            break
    return sol, np.asarray(lam_history)
