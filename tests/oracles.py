"""Dense reference implementations that the tests and the acceptance criteria
check the package against.  The package never forms these: it applies Q
through ``CPScalingOperator``, reads the unfoldings only as free reshapes
inside its kernels, and never evaluates the data-fit objective."""

import numpy as np

from cpcomplete.cp_model import reconstruct
from cpcomplete.tensor_ops import as_tensor

# Axis permutations putting the mode's fibers as columns with the remaining
# axes ordered (slow, fast) to match the Khatri-Rao column convention.
_MODE_PERM = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def matricize(t, mode):
    """Mode-``m`` unfolding of a third-order tensor.

    Mode 1 is I x (JK) with column index k*J + j, mode 2 is J x (IK) with
    column index k*I + i, mode 3 is K x (IJ) with column index j*I + i.
    """
    t = as_tensor(t)
    if mode not in _MODE_PERM:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    p = _MODE_PERM[mode]
    return t.transpose(p).reshape(t.shape[p[0]], -1)


def build_q(m):
    """R x (IJK) matrix whose row r is the vectorized rank-one tensor a_r o b_r o c_r.

    Satisfies reconstruct(m).ravel() == alpha @ Q.
    """
    i, j, k = m.dims
    return np.einsum("ir,jr,kr->rijk", m.A, m.B, m.C).reshape(m.R, i * j * k)


def objective(m, t):
    """f = 0.5 * ||t - reconstruct(m)||_F^2, the smooth data-fit term."""
    return 0.5 * float(np.linalg.norm((as_tensor(t) - reconstruct(m)).ravel()) ** 2)
