"""Machine-speed reference for the end-to-end timings.

The host this benchmark was built on switches between two speed states a
few seconds apart: a fixed numpy kernel takes either ~24 or ~37 ms, and a
task's time follows the kernel's (correlation 0.90 over 74 image_fixed
tasks).  So ``iter_cost`` divides each task's time by the mean kernel time
sampled during that task.

The sampler runs one short kernel repetition at most every ``EVERY_S``
seconds, at boundaries the program passes often: ``masked_copy`` in the
completion driver (once per outer iteration) and ``solve_diffusion`` in the
MOR pipeline.  The time spent in the kernel is subtracted from the task's
time.  The kernel is independent of cpcomplete and touches none of its state,
so it changes no result.
"""

import time

import numpy as np

EVERY_S = 0.1

# One repetition's time on the machine the baseline was taken on, in its
# fast state.  ``setup_s`` is scaled by this over the run's mean repetition
# time: set-up lasts well under a second, so it falls in a single speed
# state, and its raw median moved 40% between two sets of runs half an hour
# apart while the kernel's moved 60%.
NOMINAL_REP_S = 0.004


class ReferenceKernel:
    """Fixed numpy work resembling the workloads' mix, ~5 ms a repetition.

    Small dense SVDs (the projected problems), an MTTKRP-shaped contraction
    and a masked select.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((51, 50))
        self.tensor = rng.standard_normal((60, 60, 40))
        self.b = rng.standard_normal((60, 20))
        self.c = rng.standard_normal((40, 20))

    def rep(self):
        """Seconds one repetition takes."""
        start = time.perf_counter()
        for _ in range(5):
            np.linalg.svd(self.small, full_matrices=False)
        for _ in range(3):
            np.einsum("ijk,jr,kr->ir", self.tensor, self.b, self.c, optimize=True)
        np.where(self.tensor > 0, self.tensor, 0.0).sum()
        return time.perf_counter() - start


class Sampler:
    """Kernel samples taken before, during and after one timed task."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.all_reps = []
        self._patches = []
        self.reset()

    def reset(self):
        self.reps = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self):
        start = time.perf_counter()
        self.reps.append(self.kernel.rep())
        self.all_reps.append(self.reps[-1])
        self._last = time.perf_counter()
        self.spent += self._last - start

    def _tick(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def install(self, pkg):
        for owner, name in ((pkg.completion, "masked_copy"), (pkg.mor, "solve_diffusion")):
            original = vars(owner)[name]

            def hooked(*args, _original=original, **kwargs):
                self._tick()
                return _original(*args, **kwargs)

            self._patches.append((owner, name, original))
            setattr(owner, name, hooked)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
