"""Outer tensor-completion driver: impute missing entries from the current
model, update factors cyclically, solve the scaling vector, repeat."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cp_model import CPModel, CPScalingOperator, reconstruct, truncate_rank
from .exceptions import DataError
from .factor_updates import Sweep, mm_update
from .hybrid_l1 import HybridConfig, ista_alpha_step, solve_l1_hybrid
from .tensor_ops import Mask, as_tensor, check_count, check_real, mask_dims, masked_copy

__all__ = [
    "CompletionConfig",
    "CompletionTrace",
    "complete",
    "make_random_mask",
    "relative_error",
]


@dataclass
class CompletionConfig:
    """Driver settings.

    ``mode`` is "hybrid" (per-iteration lambda by WGCV) or "fixed" with ``lam``
    the constant regularization parameter for the ISTA baseline.  ``R0`` is
    the upper-bound rank; the rank actually reported comes from truncating the
    converged scaling vector at ``eps_truncate`` times its maximum.
    """

    R0: int = 50
    m_max: int = 500
    eps_tol: float = 1e-3
    mode: str = "hybrid"
    lam: float = 35.0
    seed: int = 0
    eps_truncate: float = 1e-2
    hybrid: HybridConfig = field(default_factory=HybridConfig)

    def __post_init__(self):
        for name, least in (("R0", 1), ("m_max", 1), ("seed", 0)):
            check_count(name, getattr(self, name), least)
        check_real("eps_tol", self.eps_tol, 0, 1, "()")
        if self.mode not in ("hybrid", "fixed"):
            raise ValueError(f"mode must be 'hybrid' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            check_real("lam", self.lam, 0, np.inf, "[)")
        check_real("eps_truncate", self.eps_truncate, 0, 1, "()")


@dataclass
class CompletionTrace:
    """Per-iteration diagnostics: observed-entry residual, lambda, wall time.
    Entry i belongs to outer iteration i + 1."""

    residual: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)

    def append(self, residual, lam, wall_ms):
        self.residual.append(float(residual))
        self.lam.append(float(lam))
        self.wall_ms.append(float(wall_ms))

    def __len__(self):
        return len(self.residual)


def make_random_mask(dims, fraction=0.3, seed=0):
    """Uniform mask observing ceil(fraction * IJK) entries, seeded."""
    check_real("fraction", fraction, 0, 1, "(]")
    dims = mask_dims(dims)
    check_count("seed", seed, 0)
    total = int(np.prod(dims))
    count = int(np.ceil(fraction * total))
    rng = np.random.default_rng(seed)
    where = np.zeros(total, dtype=bool)
    where[rng.choice(total, size=count, replace=False)] = True
    return Mask.from_bool(where.reshape(dims))


def relative_error(s, a):
    """Frobenius-norm relative error ||s - a|| / ||a||."""
    s = as_tensor(s)
    a = as_tensor(a)
    if s.shape != a.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {a.shape}")
    denom = float(np.linalg.norm(a.ravel()))
    if denom == 0.0:
        raise ValueError("reference tensor has zero norm")
    return float(np.linalg.norm((s - a).ravel())) / denom


def _init_sweep(s, r0, rng):
    # Random unit columns, and the least-squares alpha read off the sweep's
    # Grams.  The sweep starts on s, the zero-filled observations, which the
    # driver then imputes into in place.
    def unit_columns(n):
        x = rng.standard_normal((n, r0))
        return x / np.linalg.norm(x, axis=0)

    sweep = Sweep(CPModel(*(unit_columns(d) for d in s.shape), np.zeros(r0)), s)
    op = CPScalingOperator(sweep.model, sweep.grams)
    sweep.model.alpha = np.linalg.lstsq(op.gram, op.rmatvec(s), rcond=None)[0]
    return sweep


def _coordinates(op, s, qs, k_max):
    """op's coordinate problem (H, c) for the imputation s, given Q s.

    Raises DataError when k ||c||^2 = k ||s||^2 overflows for k = min(k_max, R),
    the most steps the hybrid solve takes: WGCV's numerator reaches it at
    large lambda.  The pair is returned rather than kept in the driver, so it
    is freed when the solve returns.
    """
    h, c = op.coordinates(s.ravel(), qs)
    if not math.isfinite(min(k_max, h.shape[1]) * float(c @ c)):
        raise DataError("the squared norm of the imputed data overflows in the lambda "
                        "selection; rescale the data")
    return h, c


def complete(t, mask, cfg):
    """Recover a low-rank CP model of ``t`` given the observed entries.

    Each outer iteration imputes the unobserved entries from the current
    reconstruction, runs one MM update per factor, then refits the scaling
    vector (hybrid solver or fixed-lambda ISTA step).  Stops when the
    relative residual on the observed entries drops below ``cfg.eps_tol``,
    or when alpha is all zero on two consecutive iterations, after which no
    later iteration could change anything.

    The driver allocates two IJK-sized tensors and reuses them on every
    iteration: the imputation, which the factor updates read, and the
    reconstruction from the new alpha, which then holds the observed
    residual.  Hybrid mode writes that reconstruction with the scaling
    operator; in fixed mode the ISTA step writes it, so one reconstruction
    is formed per iteration in either mode.  Both scaling-vector solves
    start from Q s, which the sweep reads off the mode-C MTTKRP of its last
    update (:meth:`~cpcomplete.factor_updates.Sweep.qt`), so the imputation
    is contracted only by the MM sweep.

    Returns ``(model, s, trace)`` where ``model`` is truncated at
    ``cfg.eps_truncate`` (components sorted by descending |alpha|) and ``s``
    is the completed tensor with the observed entries copied back verbatim;
    it is the last imputation, in the tensor every iteration imputes into.
    Raises DataError if t is not finite or its observed entries' norm
    overflows, if the MM step's squared scaling vector overflows, or, in
    hybrid mode, if the lambda selection's squared norms would overflow.
    """
    t = as_tensor(t)
    if not np.all(np.isfinite(t)):
        raise DataError("input tensor contains non-finite values")
    if mask.dims != t.shape:
        raise ValueError(f"mask dims {mask.dims} do not match tensor {t.shape}")
    if mask.count == 0:
        raise ValueError("mask observes no entries")

    rng = np.random.default_rng(cfg.seed)
    s, s_hat = np.empty(t.shape), np.zeros(t.shape)
    masked_copy(t, s_hat, mask, out=s)  # zero-filled
    sweep = _init_sweep(s, cfg.R0, rng)
    model = sweep.model
    obs_norm = max(float(np.linalg.norm(s.ravel())), 1e-300)
    if obs_norm == np.inf:
        raise DataError("the norm of the observed entries overflows; rescale the data")

    trace = CompletionTrace()
    start = time.perf_counter()
    masked_copy(t, reconstruct(model, out=s_hat), mask, out=s)
    zero_alpha_run = 0
    for _ in range(cfg.m_max):
        active = sweep.active()
        for mode in ("A", "B", "C"):
            mm_update(mode, active)
        model = sweep.model
        op, qs = CPScalingOperator(model, sweep.grams), sweep.qt()
        if cfg.mode == "hybrid":
            alpha, lam_hist = solve_l1_hybrid(*_coordinates(op, s, qs, cfg.hybrid.k_max), cfg.hybrid)
            lam = float(lam_hist[-1]) if lam_hist.size else float("nan")
            op.reconstruct(alpha, out=s_hat)
        else:
            alpha = ista_alpha_step(model, qs, cfg.lam, op, s_hat)
            lam = cfg.lam
        model.alpha = alpha
        masked_copy(t, s_hat, mask, out=s)
        sweep.set_tensor(s)
        # The imputation differs from s_hat only on the observed entries,
        # where it holds t, so their difference is the observed residual.
        residual = float(np.linalg.norm(np.subtract(s_hat, s, out=s_hat).ravel())) / obs_norm
        trace.append(residual, lam, (time.perf_counter() - start) * 1e3)
        if residual <= cfg.eps_tol:
            break
        # alpha = 0 twice running is a fixed point: with no nonzero alpha_r
        # the MM steps leave the factors as they are, so s_hat = 0 and the
        # imputation repeat.
        zero_alpha_run = 0 if alpha.any() else zero_alpha_run + 1
        if zero_alpha_run == 2:
            break

    return truncate_rank(model, cfg.eps_truncate), s, trace
