"""Span recorder that times calls into cpcomplete from outside the package.

Each layer boundary is wrapped at the name its caller looks up (for example
``cpcomplete.completion.mm_update``, not ``cpcomplete.factor_updates``), so
the package itself is not edited and the wrappers see exactly the calls the
program makes.  A span holds (name, start, end, parent); spans stay in memory
and are written out once the run ends.  Self time is a span's duration minus
the time its child spans cover.

Attribution caveat: with ``omega="adapt"`` (the CLI and MOR default) the
projected SVD is first computed inside the private ``_omega_estimate`` and
cached on the FGK state, so on ``image_hybrid`` and ``mor_demo`` that SVD
shows up as ``hybrid_l1.solve_l1_hybrid`` self time, not as
``hybrid_l1.wgcv_select``.  Likewise the tall-problem reduction
(``_reduce_tall_problem``, including ``CPScalingOperator.gram``) is private
and counts as ``solve_l1_hybrid`` self time.
"""

import os
import time
from collections import defaultdict

import numpy as np


# Every span name install() uses, in the order results list them.
LAYERS = [
    "hybrid_l1.solve_l1_hybrid",
    "hybrid_l1.fgk_init",
    "hybrid_l1.fgk_expand",
    "hybrid_l1.wgcv_select",
    "hybrid_l1.projected_tikhonov",
    "hybrid_l1.irn_weights",
    "hybrid_l1.ista_alpha_step",
    "factor_updates.mm_update",
    "factor_updates.gradient",
    "factor_updates.lipschitz_estimate",
    "factor_updates.regularized_als_step",
    "tensor_ops.masked_copy",
    "cp_model.reconstruct",
    "cp_model.truncate_rank",
    "completion.complete",
    "completion.CPScalingOperator.init",
    "completion.CPScalingOperator.matvec",
    "completion.CPScalingOperator.rmatvec",
    "completion.CPScalingOperator.reconstruct",
    "mor.run_mor_demo",
    "mor.assemble_snapshots",
    "mor.solve_diffusion",
    "mor.cp_reduced_basis",
    "mor.pod_basis",
    "mor.project_error",
    "fileio.load_ppm",
    "fileio.load_mask",
    "fileio.save_model",
    "fileio.write_trace_csv",
    "fileio.save_ppm",
    "cli.main",
]

# Counters the boundary hooks keep, with their units.
COUNTS = {
    "hybrid_l1.kmax_stops": "count",
    "hybrid_l1.breakdowns": "count",
    "hybrid_l1.tall_fallbacks": "count",
    "hybrid_l1.wgcv_fallbacks": "count",
    "tensor_ops.masked_copy.bytes_computed": "B",
    "fileio.load_ppm.bytes": "B",
    "fileio.load_mask.bytes": "B",
    "fileio.save_model.bytes": "B",
    "fileio.write_trace_csv.bytes": "B",
    "fileio.save_ppm.bytes": "B",
}


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.expands = 0
        self._solve_marks = []
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks see the call's arguments."""
        rec = self

        def traced(*args, **kwargs):
            if before is not None:
                before(rec, args, kwargs)
            idx = len(rec.spans)
            rec.spans.append([name, time.perf_counter(), None, rec._stack[-1] if rec._stack else -1])
            rec._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, before, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """{name: [calls, busy_s, self_s]} summed over every recorded span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered[idx]
        return totals

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# -- boundary hooks -----------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_tall_fallback(rec, args, kwargs):
    # solve_l1_hybrid hands fgk_init the reduced (R+1) x R ndarray unless the
    # Cholesky of the joint Gram failed and it kept the IJK-sized operator.
    if not isinstance(_arg(args, kwargs, 0, "op"), np.ndarray):
        rec.counts["hybrid_l1.tall_fallbacks"] += 1


def _count_breakdown(rec, args, kwargs, state):
    if state.breakdown:
        rec.counts["hybrid_l1.breakdowns"] += 1


def _count_wgcv_fallback(rec, args, kwargs, lam):
    if lam is _arg(args, kwargs, 2, "fallback"):
        rec.counts["hybrid_l1.wgcv_fallbacks"] += 1


def _count_expand(rec, args, kwargs):
    rec.expands += 1


def _solve_start(rec, args, kwargs):
    rec._solve_marks.append(rec.expands)


def _kmax_counter(default_cfg):
    def after(rec, args, kwargs, result):
        cfg = _arg(args, kwargs, 2, "cfg") or default_cfg
        if rec.expands - rec._solve_marks.pop() == cfg.k_max:
            rec.counts["hybrid_l1.kmax_stops"] += 1

    return after


def _masked_copy_bytes(rec, args, kwargs, out):
    # Computed, not measured: read t, s and the boolean mask, write out.
    t, s, mask = args[:3]
    rec.counts["tensor_ops.masked_copy.bytes_computed"] += (
        np.asarray(t).nbytes + np.asarray(s).nbytes + mask.where.nbytes + out.nbytes
    )


def _file_bytes(metric, path_pos):
    def after(rec, args, kwargs, result):
        rec.counts[metric + ".bytes"] += os.path.getsize(args[path_pos])

    return after


def install(rec, pkg):
    """Wrap every traced boundary of the imported package ``pkg``."""
    completion, hybrid, factor, mor, cli, fileio = (
        pkg.completion, pkg.hybrid_l1, pkg.factor_updates, pkg.mor, pkg.cli, pkg.fileio,
    )
    # completion driver: called by the benchmark, the CLI and the MOR pipeline
    for owner in (completion, mor, cli):
        rec.patch(owner, "complete", "completion.complete")
    rec.patch(cli, "main", "cli.main")
    rec.patch(mor, "run_mor_demo", "mor.run_mor_demo")

    # what complete() calls, looked up in the completion module
    rec.patch(completion, "mm_update", "factor_updates.mm_update")
    rec.patch(
        completion, "solve_l1_hybrid", "hybrid_l1.solve_l1_hybrid",
        _solve_start, _kmax_counter(hybrid.HybridConfig()),
    )
    rec.patch(completion, "ista_alpha_step", "hybrid_l1.ista_alpha_step")
    rec.patch(completion, "masked_copy", "tensor_ops.masked_copy", after=_masked_copy_bytes)
    rec.patch(completion, "reconstruct", "cp_model.reconstruct")
    rec.patch(completion, "truncate_rank", "cp_model.truncate_rank")
    op = completion.CPScalingOperator
    rec.patch(op, "__init__", "completion.CPScalingOperator.init")
    for meth in ("matvec", "rmatvec", "reconstruct"):
        rec.patch(op, meth, f"completion.CPScalingOperator.{meth}")

    # kernels under mm_update, and the reconstruct inside ista_alpha_step
    rec.patch(factor, "gradient", "factor_updates.gradient")
    rec.patch(factor, "lipschitz_estimate", "factor_updates.lipschitz_estimate")
    rec.patch(hybrid, "reconstruct", "cp_model.reconstruct")

    # the hybrid solver's steps, looked up in the hybrid_l1 module
    rec.patch(hybrid, "fgk_init", "hybrid_l1.fgk_init", before=_count_tall_fallback)
    rec.patch(hybrid, "fgk_expand", "hybrid_l1.fgk_expand", _count_expand, _count_breakdown)
    rec.patch(hybrid, "wgcv_select", "hybrid_l1.wgcv_select", after=_count_wgcv_fallback)
    rec.patch(hybrid, "projected_tikhonov", "hybrid_l1.projected_tikhonov")
    rec.patch(hybrid, "irn_weights", "hybrid_l1.irn_weights")

    # model-order reduction, looked up in the mor module
    for name in ("assemble_snapshots", "solve_diffusion", "cp_reduced_basis", "pod_basis", "project_error"):
        rec.patch(mor, name, f"mor.{name}")
    rec.patch(mor, "regularized_als_step", "factor_updates.regularized_als_step")

    # file I/O, looked up as attributes of the fileio module by the CLI
    for name, path_pos in (("load_ppm", 0), ("load_mask", 0), ("save_model", 1), ("write_trace_csv", 1), ("save_ppm", 1)):
        rec.patch(fileio, name, f"fileio.{name}", after=_file_bytes(f"fileio.{name}", path_pos))
