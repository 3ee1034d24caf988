"""Dense third-order tensor kernels: unfoldings, vectorization, Khatri-Rao.

Tensors are plain float64 numpy arrays of shape (I, J, K) in C order, so the
canonical vectorization (k fastest, then j, then i) is just ``ravel()``.  The
unfolding column order is the one that makes the three matrix identities

    T(1) = A D (C kr B)^T,   T(2) = B D (C kr A)^T,   T(3) = C D (B kr A)^T

hold exactly against :func:`khatri_rao` below, i.e. mode-1 columns are indexed
by (k slow, j fast), and analogously for the other modes.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "as_tensor",
    "frobenius_norm",
    "matricize",
    "vectorize",
    "khatri_rao",
    "Mask",
    "masked_copy",
    "cached_einsum",
]


@lru_cache(maxsize=256)
def _einsum_path(subscripts, shapes):
    dummies = [np.broadcast_to(0.0, s) for s in shapes]
    return np.einsum_path(subscripts, *dummies, optimize="optimal")[0]


def cached_einsum(subscripts, *operands):
    """einsum with the contraction path memoized per (subscripts, shapes)."""
    path = _einsum_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def as_tensor(values, dims=None):
    """Coerce to a C-contiguous float64 third-order array, validating shape."""
    t = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if dims is not None:
        t = t.reshape(dims)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise ValueError(f"all dimensions must be >= 1, got {t.shape}")
    return t


def frobenius_norm(t):
    return float(np.linalg.norm(np.asarray(t).ravel()))


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


def vectorize(t):
    """Canonical row vectorization: entry (i,j,k) lands at (i*J + j)*K + k."""
    return as_tensor(t).ravel().copy()


def khatri_rao(x, y):
    """Column-wise Kronecker product: column r is x_r kron y_r (x index slow).

    For x of shape (I, R) and y of shape (J, R) the result is (I*J, R) with
    row index i*J + j.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(f"column counts must match, got {x.shape} and {y.shape}")
    return np.einsum("ir,jr->ijr", x, y).reshape(-1, x.shape[1])


class Mask:
    """Index set of observed entries of an (I, J, K) tensor.

    Holds both a sorted (n, 3) int64 triple array (0-based) and a boolean
    tensor for O(1) membership tests.
    """

    def __init__(self, dims, triples):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or min(dims) < 1:
            raise ValueError(f"dims must be three positive integers, got {dims}")
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if triples.size and (triples.min() < 0 or np.any(triples >= np.array(dims))):
            raise ValueError("mask triple out of range")
        flat = np.ravel_multi_index(tuple(triples.T), dims) if triples.size else np.empty(0, np.int64)
        if np.unique(flat).size != flat.size:
            raise ValueError("duplicate triples in mask")
        order = np.argsort(flat, kind="stable")
        self.dims = dims
        self.observed = np.ascontiguousarray(triples[order])
        self.flat = flat[order]
        where = np.zeros(dims, dtype=bool)
        if flat.size:
            where.ravel()[self.flat] = True
        self.where = where

    @classmethod
    def full(cls, dims):
        idx = np.indices(dims).reshape(3, -1).T
        return cls(dims, idx)

    @classmethod
    def from_bool(cls, where):
        where = np.asarray(where, dtype=bool)
        return cls(where.shape, np.argwhere(where))

    @property
    def count(self):
        return self.observed.shape[0]

    @property
    def fill_fraction(self):
        return self.count / float(np.prod(self.dims))

    def complement(self):
        return Mask.from_bool(~self.where)

    def __contains__(self, triple):
        i, j, k = triple
        return bool(self.where[i, j, k])


def masked_copy(t, s, mask):
    """Tensor equal to ``t`` on the observed entries and ``s`` everywhere else."""
    t = as_tensor(t)
    s = as_tensor(s)
    if t.shape != s.shape or t.shape != mask.dims:
        raise ValueError(f"shape mismatch: {t.shape}, {s.shape}, mask {mask.dims}")
    return np.where(mask.where, t, s)
