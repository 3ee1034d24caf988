"""Dense third-order tensor kernels: Khatri-Rao products, the
matricized-tensor-times-Khatri-Rao product (MTTKRP), sums of weighted
rank-one tensors, masks, and the checks of integer and real settings.

Tensors are plain float64 numpy arrays of shape (I, J, K) in C order, so the
canonical vectorization (k fastest, then j, then i) is just ``ravel()``.  The
mode unfoldings follow the column order that makes the three matrix
identities

    T(1) = A D (C kr B)^T,   T(2) = B D (C kr A)^T,   T(3) = C D (B kr A)^T

hold exactly against :func:`khatri_rao` below, i.e. mode-1 columns are indexed
by (k slow, j fast), mode 2 by (k slow, i fast) and mode 3 by (j slow, i
fast).  No kernel forms an unfolding: they use only the two free reshapes
``t.reshape(I, J*K)`` and ``t.reshape(I*J, K)``.  The dense unfolding that
the tests check the identities with is ``matricize`` in ``tests/oracles.py``.
An observation mask is a boolean tensor of the same shape.
"""

import numbers

import numpy as np

__all__ = [
    "as_tensor",
    "khatri_rao",
    "gemm_mode",
    "mttkrp_partial",
    "mttkrp",
    "rank_one_sum",
    "is_integer",
    "check_count",
    "is_real",
    "check_real",
    "mask_dims",
    "Mask",
    "masked_copy",
]


def as_tensor(values):
    """Coerce to a C-contiguous float64 third-order array, validating shape."""
    t = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise ValueError(f"all dimensions must be >= 1, got {t.shape}")
    return t


def khatri_rao(x, y):
    """Column-wise Kronecker product: column r is x_r kron y_r (x index slow).

    For x of shape (I, R) and y of shape (J, R) the result is (I*J, R) with
    row index i*J + j.  Each entry is the exact product x[i, r] * y[j, r],
    formed in place on the rows of x repeated J times, so a zero keeps its
    sign and nothing is allocated beyond the result.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(f"column counts must match, got {x.shape} and {y.shape}")
    out = np.repeat(x, y.shape[0], axis=0)
    rows = out.reshape(x.shape[0], y.shape[0], x.shape[1])
    np.multiply(rows, y, out=rows)
    return out


def gemm_mode(shape):
    """The mode whose MTTKRP multiplies by a Khatri-Rao product: 0 when K <= I, else 2.

    The other two modes read :func:`mttkrp_partial`, which contracts this
    mode's factor against the tensor.
    """
    i, _, k = shape
    return 0 if k <= i else 2


def mttkrp_partial(t, factors):
    """The IJK-sized contraction that the MTTKRPs of the two modes other than
    :func:`gemm_mode` share.

    When K <= I it is A^T t.reshape(I, J*K) as an R x J x K array; otherwise
    it is C^T t.reshape(I*J, K)^T as an R x I x J array.  Only the factor of
    :func:`gemm_mode` is read.
    """
    i, j, k = t.shape
    if gemm_mode(t.shape) == 0:
        return (factors[0].T @ t.reshape(i, j * k)).reshape(-1, j, k)
    return (factors[2].T @ t.reshape(i * j, k).T).reshape(-1, i, j)


def mttkrp(t, factors, mode, partial=None):
    """Mode-``mode`` unfolding of ``t`` times the Khatri-Rao product of the other two factors.

    ``factors`` is (A, B, C) and ``mode`` is 0, 1 or 2; for mode 0 the result
    is M[i, r] = sum_jk t[i, j, k] B[j, r] C[k, r], and likewise for the
    others, so the mode's own factor is not read.

    One GEMM runs on a free reshape of ``t``.  When J*K <= I*J (K <= I) that
    is ``t.reshape(I, J*K)``: mode 0 multiplies it by B kr C, and modes 1
    and 2 contract i against A into an R x J x K intermediate that is then
    reduced against C or B.  Otherwise it is ``t.reshape(I*J, K)``: mode 2
    multiplies by A kr B, and modes 0 and 1 contract k against C into an
    R x I x J intermediate reduced against B or A.  Either way the
    intermediate is the smaller of the two.  That intermediate is
    :func:`mttkrp_partial`: a caller that needs both modes that read it
    passes it as ``partial``, so its GEMM runs once; otherwise it is formed
    here.  The Khatri-Rao mode (:func:`gemm_mode`) does not read it.
    """
    if not (is_integer(mode) and 0 <= mode <= 2):
        raise ValueError(f"mode must be 0, 1 or 2, got {mode!r}")
    a, b, c = factors
    i, j, k = t.shape
    side = gemm_mode(t.shape)
    if mode == side:
        if mode == 0:
            return t.reshape(i, j * k) @ khatri_rao(b, c)
        return (khatri_rao(a, b).T @ t.reshape(i * j, k)).T
    if partial is None:
        partial = mttkrp_partial(t, factors)
    if side == 0:
        return np.einsum("rjk,kr->jr", partial, c) if mode == 1 else np.einsum("rjk,jr->kr", partial, b)
    return np.einsum("rij,jr->ir", partial, b) if mode == 0 else np.einsum("rij,ir->jr", partial, a)


def _out_tensor(out, shape):
    # A reshape of anything but a C-contiguous array is a copy, so a kernel
    # writing into it would leave ``out`` untouched.
    if out is None:
        return np.empty(shape)
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == shape
        and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


def rank_one_sum(x, factors, out=None):
    """Tensor sum_r x_r a_r o b_r o c_r for ``factors`` (A, B, C) and one weight x_r per component.

    One GEMM against the smaller Khatri-Rao product, on the same side as
    :func:`mttkrp`, written straight into a free reshape of ``out`` (a new
    tensor when it is None), which is returned: (A diag(x)) (B kr C)^T is
    I x JK when K <= I, otherwise (A diag(x) kr B) C^T is IJ x K.  Terms
    with x_r = 0 (either sign) add nothing and are left out of both
    products, so the GEMM runs over the nonzero weights only; with none it
    writes zeros.  The factors are gathered only when some weight is zero.
    """
    a, b, c = factors
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ValueError(f"weights must have shape ({a.shape[1]},), one per component, got {x.shape}")
    nonzero = x.nonzero()[0]
    if nonzero.size < x.size:
        x = x[nonzero]
        a, b, c = (f.take(nonzero, axis=1) for f in factors)
    i, j, k = a.shape[0], b.shape[0], c.shape[0]
    out = _out_tensor(out, (i, j, k))
    if gemm_mode((i, j, k)) == 0:
        np.matmul(a * x, khatri_rao(b, c).T, out=out.reshape(i, j * k))
    else:
        np.matmul(khatri_rao(a * x, b), c.T, out=out.reshape(i * j, k))
    return out


def is_integer(value):
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name, value, least):
    """Raise ValueError unless ``value`` is an integer >= ``least``; a bool is not one.

    The one check behind every integer setting of the package, so each
    names the setting and states its rule in the same words.
    """
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def is_real(value):
    """Whether ``value`` is a real number; a bool is not one, nor is a string.
    float and int are exact type tests, ten times faster than the ABC's."""
    return isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)


def check_real(name, value, low, high, ends="[]"):
    """Raise ValueError unless ``value`` is a real number in the interval from
    ``low`` to ``high`` with the brackets ``ends``, so "(]" leaves out ``low``.
    A bool is not a real number, nor is a string, and NaN lies in no interval:
    the one check behind every real setting, so each states its rule alike."""
    if not (is_real(value) and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        raise ValueError(f"{name} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def mask_dims(dims):
    """``dims`` as a tuple of three Python ints >= 1.

    Raises ValueError for any other length or entry, bools and non-integral
    numbers included, so that no dimension is silently rounded.
    """
    dims = tuple(dims)
    if len(dims) != 3 or not all(is_integer(d) and d >= 1 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    return tuple(int(d) for d in dims)


class Mask:
    """Observed entries of an (I, J, K) tensor, held as a boolean tensor.

    ``where[i, j, k]`` is True where entry (i, j, k) is observed, ``count`` is
    the number of observed entries, and ``observed`` lists them as 0-based
    (i, j, k) triples in C order.  The constructor takes the observed
    entries as an n x 3 integer array of distinct in-range triples (an
    empty list for none); any other shape or dtype raises ValueError rather
    than being reshaped or rounded.
    """

    def __init__(self, dims, triples):
        dims = mask_dims(dims)
        triples = np.asarray(triples)
        if triples.shape == (0,):
            triples = np.empty((0, 3), dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3 or triples.dtype.kind not in "iu":
            raise ValueError(f"triples must be an n x 3 integer array, got shape {triples.shape} of {triples.dtype}")
        triples = triples.astype(np.int64, copy=False)
        if triples.size and (triples.min() < 0 or np.any(triples >= np.array(dims))):
            raise ValueError("mask triple out of range")
        where = np.zeros(dims, dtype=bool)
        where[tuple(triples.T)] = True
        if np.count_nonzero(where) != triples.shape[0]:
            raise ValueError("duplicate triples in mask")
        self.dims = dims
        self.where = where
        self.count = triples.shape[0]

    @classmethod
    def full(cls, dims):
        return cls.from_bool(np.ones(mask_dims(dims), dtype=bool))

    @classmethod
    def from_bool(cls, where):
        """The mask observing the True entries of ``where``.

        A boolean array is kept as the mask's ``where``, not copied, so the
        caller must not change it afterwards.
        """
        where = np.asarray(where, dtype=bool)
        mask = cls.__new__(cls)
        mask.dims = mask_dims(where.shape)
        mask.where = where
        mask.count = int(np.count_nonzero(where))
        return mask

    @property
    def observed(self):
        return np.argwhere(self.where)


def masked_copy(t, s, mask, out=None):
    """Tensor equal to ``t`` on the observed entries and ``s`` everywhere else.

    It is written into ``out`` (a new tensor when it is None), which is
    returned; ``out`` may be ``t`` but must not share memory with ``s``.
    The select works on the bits, ((t ^ s) * observed) ^ s, so every value,
    -0.0 and NaN payloads included, is copied exactly, as by ``np.where``,
    in three passes that allocate no tensor.  A full mask needs no branch of
    its own: there the select gives back the bits of ``t``, ``out=t`` included.
    """
    t = as_tensor(t)
    s = as_tensor(s)
    if t.shape != s.shape or t.shape != mask.dims:
        raise ValueError(f"shape mismatch: {t.shape}, {s.shape}, mask {mask.dims}")
    out = _out_tensor(out, t.shape)
    if np.shares_memory(out, s):
        raise ValueError("out must not share memory with s")
    tv, sv, ov = (x.view(np.uint64) for x in (t, s, out))
    np.bitwise_xor(tv, sv, out=ov)
    np.multiply(ov, mask.where.view(np.uint8), out=ov)
    np.bitwise_xor(ov, sv, out=ov)
    return out
