"""Majorize-minimize factor updates with unit-column projection, gradient and
step-size kernels, and the damped ALS sweep used by the model-reduction path."""

import numpy as np

from .cp_model import hadamard_gram, reconstruct
from .exceptions import NumericalRankError
from .tensor_ops import as_tensor, mttkrp

__all__ = ["gradient", "lipschitz_estimate", "mm_update", "regularized_als_step"]

# The CP mode convention (Kolda & Bader, SIAM Review 2009): each factor's tensor
# axis and the two other factors, whose Khatri-Rao product is the mode's W.
_MODES = {
    "A": (0, "B", "C"),
    "B": (1, "A", "C"),
    "C": (2, "A", "B"),
}

# Gradient steps are 1 / (STEP_SAFETY * L) for a Lipschitz constant L; a factor
# above 1 keeps the step strictly inside the majorizer's descent range.
STEP_SAFETY = 1.05


def _convention(mode):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {tuple(_MODES)}, got {mode!r}")
    return _MODES[mode]


def _mode_gram(mode, m):
    # Gram of the mode's Khatri-Rao matrix via (X kr Y)^T (X kr Y) = X^T X * Y^T Y.
    _, x, y = _convention(mode)
    return hadamard_gram(getattr(m, x), getattr(m, y))


def _set_unit_columns(target, g):
    # target[:, r] = g[:, r] / ||g[:, r]||; a collapsed column keeps its value.
    norms = np.linalg.norm(g, axis=0)
    np.divide(g, norms, out=target, where=norms > 0.0)
    return norms


def _mode_mttkrp(mode, t, m):
    # Unfolding-times-Khatri-Rao product for the requested mode.
    axis, _, _ = _convention(mode)
    return mttkrp(t, (m.A, m.B, m.C), axis)


def gradient(mode, m, t):
    """Gradient of f = 0.5 * ||t - reconstruct(m)||_F^2 in the given factor block.

    For mode A this is (A D W^T - T(1)) W D with W the Khatri-Rao product of
    the other two factors; modes B and C are analogous.
    """
    t = as_tensor(t)
    gram = _mode_gram(mode, m)
    mtt = _mode_mttkrp(mode, t, m)
    d = m.alpha
    # (X D W^T W - T(mode) W) D, using the Gram identity instead of forming W.
    return ((getattr(m, mode) * d) @ gram - mtt) * d


def lipschitz_estimate(mode, m):
    """Largest eigenvalue of D W^T W D for the mode, floored at 1e-12.

    This is the exact Lipschitz constant of the block gradient, since f is
    quadratic in each factor.
    """
    gram = _mode_gram(mode, m)
    d = m.alpha
    h = gram * np.outer(d, d)
    lam = float(np.linalg.eigvalsh(h)[-1])
    return max(lam, 1e-12)


def mm_update(mode, m, t):
    """One majorize-minimize step on a single factor with unit-column projection.

    Takes the gradient step X - grad / (s * L), with L the mode's
    :func:`lipschitz_estimate` and s = STEP_SAFETY, and renormalizes each
    column; a column that collapses to zero keeps its previous value.
    """
    step = 1.0 / (STEP_SAFETY * lipschitz_estimate(mode, m))
    d = getattr(m, mode) - step * gradient(mode, m, t)
    out = m.copy()
    _set_unit_columns(getattr(out, mode), d)
    return out


def regularized_als_step(m, t, rho):
    """One Tikhonov-damped alternating least-squares sweep over A, B, C.

    Each mode solves (W^T W + rho I) G^T = W^T T(mode)^T for G = X D, then
    splits G into unit columns and the scaling vector.  With rho = 0 and a
    full-column-rank W this is the exact ALS subproblem solution.
    """
    t = as_tensor(t)
    if rho < 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    work = m.copy()
    eye = np.eye(m.R)
    for mode in _MODES:
        gram = _mode_gram(mode, work)
        lhs = gram + rho * eye
        evals = np.linalg.eigvalsh(lhs)
        if evals[-1] <= 0.0 or evals[0] <= 1e-13 * evals[-1]:
            raise NumericalRankError(
                "normal equations are numerically singular; pass rho > 0 to damp them"
            )
        g = np.linalg.solve(lhs, _mode_mttkrp(mode, t, work).T).T
        work.alpha = _set_unit_columns(getattr(work, mode), g)
    return work


def objective(m, t):
    """f = 0.5 * ||t - reconstruct(m)||_F^2, the smooth data-fit term."""
    return 0.5 * float(np.linalg.norm((as_tensor(t) - reconstruct(m)).ravel()) ** 2)
