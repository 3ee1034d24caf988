"""The package names the benchmark hooks into, checked in-process.

``bench/spans.py`` wraps package attributes by name and ``bench/reference.py``
samples machine speed at ``completion.masked_copy``, once per outer
iteration.  A rename or a dropped call would otherwise surface only inside
the benchmark's own subprocess tests.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cpcomplete
import cpcomplete.cli  # noqa: F401  (spans.install patches cpcomplete.cli)
from cpcomplete.completion import CompletionConfig, make_random_mask
from cpcomplete.cp_model import CPModel, reconstruct

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parent.parent / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

# Layers each completion mode reaches, besides the ones both reach; no
# other layer is reached.
SHARED = {
    "completion.complete",
    "factor_updates.mm_update",
    "factor_updates.gradient",
    "factor_updates.lipschitz_estimate",
    "tensor_ops.masked_copy",
    "cp_model.reconstruct",
    "cp_model.truncate_rank",
    "completion.CPScalingOperator.init",
    "completion.CPScalingOperator.rmatvec",
}
BY_MODE = {
    "fixed": {"hybrid_l1.ista_alpha_step"},
    "hybrid": {
        "completion.CPScalingOperator.reconstruct",
        "hybrid_l1.solve_l1_hybrid",
        "hybrid_l1.fgk_init",
        "hybrid_l1.fgk_expand",
        "hybrid_l1.wgcv_select",
        "hybrid_l1.projected_tikhonov",
        "hybrid_l1.irn_weights",
    },
}


def problem():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(d, 2)) for d in (6, 7, 5)]
    t = reconstruct(CPModel(*mats, np.array([3.0, 2.0])))
    return t, make_random_mask(t.shape, 0.7, seed=5)


@pytest.mark.parametrize("mode", ["fixed", "hybrid"])
def test_span_recorder_installs_and_sees_every_layer(mode):
    rec = spans.Recorder()
    try:
        spans.install(rec, cpcomplete)
    except KeyError as exc:
        rec.restore()
        pytest.fail(f"bench/spans.py patches {exc}, which the package no longer defines")
    try:
        t, mask = problem()
        cfg = CompletionConfig(R0=4, m_max=6, eps_tol=1e-12, mode=mode, lam=0.05, seed=5)
        _, _, trace = cpcomplete.completion.complete(t, mask, cfg)
    finally:
        rec.restore()

    totals = rec.layer_totals()
    n = len(trace)
    assert n == 6
    assert set(totals) == SHARED | BY_MODE[mode]
    # one impute per outer iteration, plus the zero-filled start and the first imputation
    assert totals["tensor_ops.masked_copy"][0] == n + 2
    assert totals["factor_updates.mm_update"][0] == 3 * n
    # the driver's initial reconstruct, plus one per ISTA step in fixed mode
    assert totals["cp_model.reconstruct"][0] == 1 + (n if mode == "fixed" else 0)

