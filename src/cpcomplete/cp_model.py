"""CP representation [alpha; A, B, C]: reconstruction, normalization, the
vectorized rank-one dictionary Q, its Hadamard Grams, and rank truncation."""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateComponentError
from .tensor_ops import cached_einsum

__all__ = ["CPModel", "reconstruct", "normalize", "build_q", "hadamard_gram", "truncate_rank"]


@dataclass
class CPModel:
    """Factor matrices with unit-norm columns plus a scaling vector.

    A, B, C have shapes (I, R), (J, R), (K, R); ``alpha`` has length R.  The
    represented tensor is sum_r alpha_r * a_r o b_r o c_r.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.float64)
        self.B = np.ascontiguousarray(self.B, dtype=np.float64)
        self.C = np.ascontiguousarray(self.C, dtype=np.float64)
        self.alpha = np.ascontiguousarray(self.alpha, dtype=np.float64).ravel()
        r = self.A.shape[1]
        if self.B.shape[1] != r or self.C.shape[1] != r or self.alpha.size != r:
            raise ValueError("inconsistent component counts across factors")
        i, j, k = self.dims
        if r > min(i * j, j * k, i * k):
            raise ValueError(f"R={r} exceeds the rank upper bound min(IJ, JK, IK) for dims {self.dims}")

    @property
    def R(self):
        return self.A.shape[1]

    @property
    def dims(self):
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    def copy(self):
        return CPModel(self.A.copy(), self.B.copy(), self.C.copy(), self.alpha.copy())


def reconstruct(m):
    """Dense tensor sum_r alpha_r * a_r o b_r o c_r."""
    return cached_einsum("r,ir,jr,kr->ijk", m.alpha, m.A, m.B, m.C)


def normalize(m):
    """Rescale every factor column to unit norm, absorbing norms into alpha.

    The sign of each component is canonicalized: the first nonzero entry of
    a_r is made positive, with the flip pushed into b_r, so the represented
    tensor is unchanged.
    """
    na = np.linalg.norm(m.A, axis=0)
    nb = np.linalg.norm(m.B, axis=0)
    nc = np.linalg.norm(m.C, axis=0)
    for r in range(m.R):
        if na[r] == 0.0 or nb[r] == 0.0 or nc[r] == 0.0:
            raise DegenerateComponentError(r)
    A = m.A / na
    B = m.B / nb
    C = m.C / nc
    alpha = m.alpha * na * nb * nc
    for r in range(m.R):
        nz = np.nonzero(A[:, r])[0]
        if nz.size and A[nz[0], r] < 0.0:
            A[:, r] = -A[:, r]
            B[:, r] = -B[:, r]
    return CPModel(A, B, C, alpha)


def build_q(m):
    """R x (IJK) matrix whose row r is the vectorized rank-one tensor a_r o b_r o c_r.

    Satisfies vectorize(reconstruct(m)) == alpha @ Q.
    """
    i, j, k = m.dims
    return cached_einsum("ir,jr,kr->rijk", m.A, m.B, m.C).reshape(m.R, i * j * k)


def hadamard_gram(*factors):
    """(X^T X) * (Y^T Y) * ..., multiplied left to right.

    The Gram of the Khatri-Rao product of the factors, without forming that
    product; for (A, B, C) it is Q Q^T.
    """
    gram = factors[0].T @ factors[0]
    for f in factors[1:]:
        gram = gram * (f.T @ f)
    return gram


def truncate_rank(m, eps):
    """Drop components with |alpha_r| < eps * max|alpha|, sorted by descending |alpha|.

    The threshold is inclusive (ties at exactly eps * max are kept); the
    maximal component always survives.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    mag = np.abs(m.alpha)
    keep = mag >= eps * mag.max()
    idx = np.nonzero(keep)[0]
    order = idx[np.argsort(-mag[idx], kind="stable")]
    return CPModel(m.A[:, order], m.B[:, order], m.C[:, order], m.alpha[order])
