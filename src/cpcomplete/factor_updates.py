"""Majorize-minimize factor updates with unit-column projection, gradient and
step-size kernels, and the damped ALS sweep used by the model-reduction path.

Every update reads a :class:`Sweep`, which holds the model, the tensor and
the products that the three mode updates share.  One MM sweep over A, B and
C on an (I, J, K) tensor at rank R forms:

- three R x R factor Grams, one after each factor changes; each mode's
  Gram W^T W is the Hadamard product of the other two, and the scaling
  operator's Q Q^T reads the same three;
- two IJK-sized GEMMs: the Khatri-Rao product of the mode
  :func:`~cpcomplete.tensor_ops.gemm_mode` (B kr C when K <= I, A kr B
  otherwise) and the partial contraction
  :func:`~cpcomplete.tensor_ops.mttkrp_partial`, which the other two modes
  share;
- one Khatri-Rao product, and a copy of only the factor each update replaces.

The MM step acts on the active components, those with alpha_r != 0: a
component with alpha_r = 0 has a zero gradient block and adds nothing to
the block's Lipschitz constant, so the MTTKRP columns, the shared partial,
the gradient and the eigenproblem run over the active components only, and
the other factor columns stay as they were.  With alpha dense that is every
component, and the arrays are read as they are, not gathered.  ALS solves
for alpha, so its MTTKRPs are full width.
"""

import numpy as np

from .cp_model import CPModel, factor_gram
from .exceptions import NumericalRankError
from .tensor_ops import as_tensor, check_real, gemm_mode, mttkrp, mttkrp_partial

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


def _set_unit_columns(target, g, where=True):
    # target[:, r] = g[:, r] / ||g[:, r]|| where ``where`` holds; a collapsed
    # column keeps its value.
    norms = np.linalg.norm(g, axis=0)
    np.divide(g, norms, out=target, where=(norms > 0.0) & where)
    return norms


class Sweep:
    """A CP model and a tensor, with the products their factor updates share.

    ``model`` is the current model and ``grams`` its factor Grams
    [A^T A, B^T B, C^T C].  :meth:`replace` installs a new factor and forms
    its Gram; the other two are read as they are.  The partial contraction
    that two modes' MTTKRPs share is formed when the first of them reads it
    and dropped when the second does, when the tensor changes
    (:meth:`set_tensor`) or when the factor it contracts is replaced; it
    belongs to the components it was formed for, so a read for other
    components forms its own.
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

    def mttkrp(self, mode, cols=None):
        """The mode's MTTKRP, T(mode) W, for the current model and tensor.

        Given an index array ``cols``, only those columns, formed from those
        components' columns of the other two factors (the mode's own factor
        is not read); None means every column.
        """
        axis, y, z = _convention(mode)
        m = self.model
        factors = [m.A, m.B, m.C]
        if cols is not None:
            factors[y] = factors[y].take(cols, axis=1)
            factors[z] = factors[z].take(cols, axis=1)
        if axis == gemm_mode(self.t.shape):
            return mttkrp(self.t, factors, axis)
        key = None if cols is None else cols.tobytes()
        if self._partial is not None and self._partial[0] == key:
            partial = self._partial[1]
            self._partial = None  # its second reader: no mode reads it again
        else:
            partial = mttkrp_partial(self.t, factors)
            self._partial = (key, partial)
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


def _active_block(mode, sweep):
    # The active components (alpha_r != 0), their alpha and their block of
    # W^T W.  When every component is active the index is None and nothing
    # is gathered: an index selecting every column would copy each array
    # only to give the same values.
    alpha = sweep.model.alpha
    gram = sweep.mode_gram(mode)
    active = alpha.nonzero()[0]
    if active.size == alpha.size:
        return None, alpha, gram
    return active, alpha[active], gram.take(active, 0).take(active, 1)


def gradient(mode, sweep):
    """Gradient of f = 0.5 * ||t - reconstruct(m)||_F^2 in the given factor block,
    for the sweep's model m and tensor t.

    For mode A this is (A D W^T - T(1)) W D with W the Khatri-Rao product of
    the other two factors; modes B and C are analogous.  Column r is scaled
    by alpha_r, so it is formed for the active components only and is
    exactly zero where alpha_r = 0.
    """
    active, d, gram = _active_block(mode, sweep)
    x = getattr(sweep.model, mode)
    # (X D W^T W - T(mode) W) D, using the Gram identity instead of forming W.
    # The MTTKRP comes first, so its temporaries are gone before the rest.
    mtt = sweep.mttkrp(mode, active)
    block = ((x if active is None else x.take(active, axis=1)) * d) @ gram
    block -= mtt
    block *= d
    if active is None:
        return block
    g = np.zeros_like(x)
    g[:, active] = block
    return g


def lipschitz_estimate(mode, sweep):
    """Largest eigenvalue of D W^T W D for the mode, floored at 1e-12.

    This is the exact Lipschitz constant of the block gradient, since f is
    quadratic in each factor.  The rows and columns of components with
    alpha_r = 0 are zero, so the eigenproblem is solved on the active block.
    """
    _, d, gram = _active_block(mode, sweep)
    evals = np.linalg.eigvalsh(gram * (d[:, None] * d))
    return max(float(evals[-1]) if evals.size else 0.0, 1e-12)


def mm_update(mode, sweep):
    """One majorize-minimize step on a single factor with unit-column projection.

    Takes the gradient step X - grad / (s * L), with L the mode's
    :func:`lipschitz_estimate` and s = STEP_SAFETY, on the columns of the
    active components (alpha_r != 0), renormalizes them, and installs the
    result in the sweep, whose new model it returns.  A column that
    collapses to zero keeps its previous value, and so does every column
    with alpha_r = 0; with no active component the step is the identity.
    """
    _convention(mode)
    alpha = sweep.model.alpha
    if not np.count_nonzero(alpha):
        return sweep.model
    step = 1.0 / (STEP_SAFETY * lipschitz_estimate(mode, sweep))
    old = getattr(sweep.model, mode)
    d = old - step * gradient(mode, sweep)
    x = old.copy()
    _set_unit_columns(x, d, alpha != 0.0)
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
    check_real("rho", rho, 0, np.inf, "[)")
    if sweep.model.R == 0:
        return sweep.model
    eye = np.eye(sweep.model.R)
    for mode in _MODES:
        lhs = sweep.mode_gram(mode) + rho * eye
        evals = np.linalg.eigvalsh(lhs)
        if evals[-1] <= 0.0 or evals[0] <= 1e-13 * evals[-1]:
            raise NumericalRankError("normal equations are numerically singular; pass rho > 0 to damp them")
        g = np.linalg.solve(lhs, sweep.mttkrp(mode).T).T
        x = getattr(sweep.model, mode).copy()
        sweep.replace(mode, x, _set_unit_columns(x, g))
    return sweep.model

