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

The mode-C MTTKRP M_C = T(3) (B kr A) reads neither C nor alpha, so the
sweep keeps it, R wide, until A, B or the tensor changes, and
:meth:`Sweep.qt` reads the scaling operator's Q t off it,
(Q t)_r = sum_k C[k, r] M_C[k, r], with no contraction of its own.

The MM step acts on the active components, those with alpha_r != 0: a
component with alpha_r = 0 has a zero gradient block and adds nothing to
the block's Lipschitz constant.  :meth:`Sweep.active` gathers them once per
sweep into a sweep over those columns, so the gradients and the
eigenproblems run over them only, and the other factor columns stay as they
were; with alpha dense it is the sweep itself.  Its MTTKRPs run over the
active columns too, except the two that Q t needs R wide: mode C reads its
columns off the full sweep's M_C, and when K <= I mode B reads its rows of
the full sweep's partial, which M_C then reads.  Every kernel below is
dense and reads the sweep it is given.  ALS solves for alpha, so its
MTTKRPs are full width.
"""

import math

import numpy as np

from .cp_model import CPModel, factor_gram
from .exceptions import DataError, NumericalRankError
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
    that two modes' MTTKRPs share is formed when the first reads it and
    dropped when the second does, when the tensor changes (:meth:`set_tensor`)
    or when the factor it contracts is replaced.  The mode-C MTTKRP is kept
    until A, B or the tensor changes, for :meth:`qt`.  Factors are replaced,
    never written in place, so a replaced factor array keeps its old values.
    The MM step runs on :meth:`active`, which gathers the components with
    alpha_r != 0 once per sweep.
    """

    def __init__(self, m, t):
        self.model = m
        self.grams = [factor_gram(x) for x in (m.A, m.B, m.C)]
        self.set_tensor(t)

    def set_tensor(self, t):
        """Update against ``t`` from now on, keeping the model and its Grams."""
        self.t = as_tensor(t)
        self._partial = self._mc = None

    def mode_gram(self, mode):
        """W^T W for the mode, the Hadamard product of the other two factors' Grams."""
        _, y, z = _convention(mode)
        return self.grams[y] * self.grams[z]

    def mttkrp(self, mode):
        """The mode's MTTKRP, T(mode) W, for the current model and tensor.

        The caller must not write into it: mode C's is the one :meth:`qt` reads.
        """
        axis, _, _ = _convention(mode)
        if axis != 2:
            return self._mttkrp(axis)
        if self._mc is None:
            self._mc = self._mttkrp(2)
        return self._mc

    def _mttkrp(self, axis):
        factors = (self.model.A, self.model.B, self.model.C)
        if axis == gemm_mode(self.t.shape):
            return mttkrp(self.t, factors, axis)
        return mttkrp(self.t, factors, axis, self._read_partial())

    def _read_partial(self):
        partial, self._partial = self._partial, None
        if partial is None:  # the first of its two readers keeps it for the second
            partial = self._partial = mttkrp_partial(self.t, (self.model.A, self.model.B, self.model.C))
        return partial

    def qt(self):
        """Q t for the model's factors and the tensor t, as
        :meth:`~cpcomplete.cp_model.CPScalingOperator.rmatvec` gives it.

        (Q t)_r = sum_k C[k, r] M_C[k, r], with M_C the mode-C MTTKRP
        (Kolda & Bader, SIAM Review 2009, section 3), which the sweep's C
        update has formed and kept; it is formed here only if it has not been.
        """
        return np.einsum("kr,kr->r", self.model.C, self.mttkrp("C"))

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
        self.grams[axis] = self._gram(mode, x)
        if axis == gemm_mode(self.t.shape):
            self._partial = None
        if axis != 2:
            self._mc = None

    def _gram(self, mode, x):
        return factor_gram(x)

    def active(self):
        """The sweep over the components with alpha_r != 0, for one MM sweep.

        With alpha dense that is this sweep; otherwise a sweep over those
        columns, with blocks of this sweep's Grams, until its tensor or alpha
        changes.  Its :meth:`replace` takes no alpha and installs here a copy
        of the factor with the new columns in, so the full Gram is formed once.
        Its mode-C MTTKRP is those columns of this sweep's, and when K <= I
        its partial is those rows of this sweep's, so :meth:`qt` here needs
        no contraction after its MM sweep.
        """
        cols = self.model.alpha.nonzero()[0]
        return self if cols.size == self.model.R else _Columns(self, cols)


class _Columns(Sweep):
    # The sweep over columns ``cols`` of a parent sweep (see Sweep.active).

    def __init__(self, parent, cols):
        m, self.parent, self.cols = parent.model, parent, cols
        self.model = CPModel(*(x.take(cols, axis=1) for x in (m.A, m.B, m.C)), m.alpha[cols])
        self.grams = [g[np.ix_(cols, cols)] for g in parent.grams]
        self.set_tensor(parent.t)

    def replace(self, mode, x):  # no alpha: it is the parent's to replace
        super().replace(mode, x)

    def mttkrp(self, mode):
        if mode == "C":
            return self.parent.mttkrp(mode)[:, self.cols]
        return super().mttkrp(mode)

    def _read_partial(self):
        if gemm_mode(self.t.shape) == 0:  # A contracted: the parent's, which its M_C reads
            return self.parent._read_partial()[self.cols]
        return super()._read_partial()

    def _gram(self, mode, x):
        full = getattr(self.parent.model, mode).copy()
        full[:, self.cols] = x
        self.parent.replace(mode, full)
        return self.parent.grams[_convention(mode)[0]][np.ix_(self.cols, self.cols)]


def gradient(mode, sweep):
    """Gradient of f = 0.5 * ||t - reconstruct(m)||_F^2 in the given factor block,
    for the sweep's model m and tensor t.

    For mode A this is (A D W^T - T(1)) W D with W the Khatri-Rao product of
    the other two factors; modes B and C are analogous.  Column r is scaled
    by alpha_r, so it is zero where alpha_r = 0.
    """
    # (X D W^T W - T(mode) W) D, using the Gram identity instead of forming W.
    # The MTTKRP comes first, so its temporaries are gone before the rest.
    mtt = sweep.mttkrp(mode)
    d = sweep.model.alpha
    g = (getattr(sweep.model, mode) * d) @ sweep.mode_gram(mode)
    g -= mtt
    g *= d
    return g


def lipschitz_estimate(mode, sweep):
    """Largest eigenvalue of D W^T W D for the mode, floored at the smallest normal float.

    This is the exact Lipschitz constant of the block gradient, since f is
    quadratic in each factor.  The floor only keeps the step finite if alpha^2 underflows.
    Raises DataError when ||alpha||^2 overflows: the Gram's diagonal is 1, so
    that is the matrix's trace, which bounds its entries and eigenvalues.
    """
    d = sweep.model.alpha
    if not math.isfinite(d @ d):
        raise DataError("the squared scaling vector overflows in the factor update; rescale the data")
    evals = np.linalg.eigvalsh(sweep.mode_gram(mode) * (d[:, None] * d))
    return max(float(evals[-1]) if evals.size else 0.0, np.finfo(np.float64).tiny)


def mm_update(mode, sweep):
    """One majorize-minimize step on a single factor with unit-column projection.

    Takes the gradient step X - grad / (s * L) on every column, with L the
    mode's :func:`lipschitz_estimate` and s = STEP_SAFETY, renormalizes the
    columns, and installs the result in the sweep, whose new model it
    returns.  A column that collapses to zero keeps its previous value.  The
    driver runs it on :meth:`Sweep.active`, so columns with alpha_r = 0 stay
    as they were; with alpha all zero the step is the identity.
    """
    _convention(mode)
    if not sweep.model.alpha.any():
        return sweep.model
    step = 1.0 / (STEP_SAFETY * lipschitz_estimate(mode, sweep))
    old = getattr(sweep.model, mode)
    x = old.copy()
    _set_unit_columns(x, old - step * gradient(mode, sweep))
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

