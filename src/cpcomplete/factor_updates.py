"""Majorize-minimize factor updates with unit-column projection, gradient and
step-size kernels, and the damped ALS sweep used by the model-reduction path.

Every update reads a :class:`Sweep`, which holds the model, the tensor and
the products that the three mode updates share.  One sweep over A, B and C
on an (I, J, K) tensor at rank R forms:

- three R x R factor Grams, one after each factor changes; each mode's
  Gram W^T W is the Hadamard product of the other two, and the scaling
  operator's Q Q^T reads the same three;
- two IJK-sized GEMMs: the Khatri-Rao product of the mode
  :func:`~cpcomplete.tensor_ops.gemm_mode` (B kr C when K <= I, A kr B
  otherwise) and the partial contraction
  :func:`~cpcomplete.tensor_ops.mttkrp_partial`, which the other two modes
  share;
- one Khatri-Rao product, and a copy of only the factor each update replaces.
"""

import numpy as np

from .cp_model import CPModel, factor_gram, reconstruct
from .exceptions import NumericalRankError
from .tensor_ops import as_tensor, gemm_mode, mttkrp, mttkrp_partial

__all__ = ["Sweep", "gradient", "lipschitz_estimate", "mm_update", "regularized_als_step"]

# The CP mode convention (Kolda & Bader, SIAM Review 2009): each factor's tensor
# axis and the axes of the two other factors, whose Khatri-Rao product is the
# mode's W.
_MODES = {
    "A": (0, 1, 2),
    "B": (1, 0, 2),
    "C": (2, 0, 1),
}

# Gradient steps are 1 / (STEP_SAFETY * L) for a Lipschitz constant L; a factor
# above 1 keeps the step strictly inside the majorizer's descent range.
STEP_SAFETY = 1.05


def _convention(mode):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {tuple(_MODES)}, got {mode!r}")
    return _MODES[mode]


def _set_unit_columns(target, g):
    # target[:, r] = g[:, r] / ||g[:, r]||; a collapsed column keeps its value.
    norms = np.linalg.norm(g, axis=0)
    np.divide(g, norms, out=target, where=norms > 0.0)
    return norms


class Sweep:
    """A CP model and a tensor, with the products their factor updates share.

    ``model`` is the current model and ``grams`` its factor Grams
    [A^T A, B^T B, C^T C].  :meth:`replace` installs a new factor and forms
    its Gram; the other two are read as they are.  The partial contraction
    that two modes' MTTKRPs share is formed when the first of them reads it
    and dropped when the second does, when the tensor changes
    (:meth:`set_tensor`) or when the factor it contracts is replaced.
    Factors are replaced, never written in place, so a replaced factor array
    still holds its old values.
    """

    def __init__(self, m, t):
        self.model = m
        self.grams = [factor_gram(x) for x in (m.A, m.B, m.C)]
        self.set_tensor(t)

    def set_tensor(self, t):
        """Update against ``t`` from now on, keeping the model and its Grams."""
        self.t = as_tensor(t)
        self._partial = None

    def mode_gram(self, mode):
        """W^T W for the mode, the Hadamard product of the other two factors' Grams."""
        _, y, z = _convention(mode)
        return self.grams[y] * self.grams[z]

    def mttkrp(self, mode):
        """The mode's MTTKRP, T(mode) W, for the current model and tensor."""
        axis, _, _ = _convention(mode)
        m = self.model
        factors = (m.A, m.B, m.C)
        if axis == gemm_mode(self.t.shape):
            return mttkrp(self.t, factors, axis)
        partial = self._partial
        if partial is None:
            self._partial = partial = mttkrp_partial(self.t, factors)
        else:
            self._partial = None  # its second reader: no mode reads it again
        return mttkrp(self.t, factors, axis, partial)

    def replace(self, mode, x, alpha=None):
        """Make ``x`` the mode's factor, and ``alpha`` the scaling vector if given.

        The new model shares the other factors (and alpha, if not given) with
        the old one.
        """
        axis, _, _ = _convention(mode)
        m = self.model
        factors = [m.A, m.B, m.C]
        factors[axis] = x
        self.model = CPModel(*factors, m.alpha if alpha is None else alpha)
        self.grams[axis] = factor_gram(x)
        if axis == gemm_mode(self.t.shape):
            self._partial = None


def gradient(mode, sweep):
    """Gradient of f = 0.5 * ||t - reconstruct(m)||_F^2 in the given factor block,
    for the sweep's model m and tensor t.

    For mode A this is (A D W^T - T(1)) W D with W the Khatri-Rao product of
    the other two factors; modes B and C are analogous.
    """
    gram = sweep.mode_gram(mode)
    mtt = sweep.mttkrp(mode)
    m = sweep.model
    d = m.alpha
    # (X D W^T W - T(mode) W) D, using the Gram identity instead of forming W.
    return ((getattr(m, mode) * d) @ gram - mtt) * d


def lipschitz_estimate(mode, sweep):
    """Largest eigenvalue of D W^T W D for the mode, floored at 1e-12.

    This is the exact Lipschitz constant of the block gradient, since f is
    quadratic in each factor.
    """
    gram = sweep.mode_gram(mode)
    d = sweep.model.alpha
    h = gram * np.outer(d, d)
    lam = float(np.linalg.eigvalsh(h)[-1])
    return max(lam, 1e-12)


def mm_update(mode, sweep):
    """One majorize-minimize step on a single factor with unit-column projection.

    Takes the gradient step X - grad / (s * L), with L the mode's
    :func:`lipschitz_estimate` and s = STEP_SAFETY, renormalizes each
    column, and installs the result in the sweep, whose new model it
    returns; a column that collapses to zero keeps its previous value.
    """
    step = 1.0 / (STEP_SAFETY * lipschitz_estimate(mode, sweep))
    old = getattr(sweep.model, mode)
    d = old - step * gradient(mode, sweep)
    x = old.copy()
    _set_unit_columns(x, d)
    sweep.replace(mode, x)
    return sweep.model


def regularized_als_step(sweep, rho):
    """One Tikhonov-damped alternating least-squares sweep over A, B, C.

    Each mode solves (W^T W + rho I) G^T = W^T T(mode)^T for G = X D, then
    splits G into unit columns and the scaling vector, which it installs in
    the sweep.  With rho = 0 and a full-column-rank W this is the exact ALS
    subproblem solution.  Returns the sweep's new model; a rank-0 model has
    nothing to solve for and comes back unchanged.
    """
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if sweep.model.R == 0:
        return sweep.model
    eye = np.eye(sweep.model.R)
    for mode in _MODES:
        lhs = sweep.mode_gram(mode) + rho * eye
        evals = np.linalg.eigvalsh(lhs)
        if evals[-1] <= 0.0 or evals[0] <= 1e-13 * evals[-1]:
            raise NumericalRankError(
                "normal equations are numerically singular; pass rho > 0 to damp them"
            )
        g = np.linalg.solve(lhs, sweep.mttkrp(mode).T).T
        x = getattr(sweep.model, mode).copy()
        sweep.replace(mode, x, _set_unit_columns(x, g))
    return sweep.model


def objective(m, t):
    """f = 0.5 * ||t - reconstruct(m)||_F^2, the smooth data-fit term."""
    return 0.5 * float(np.linalg.norm((as_tensor(t) - reconstruct(m)).ravel()) ** 2)
