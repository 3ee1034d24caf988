"""CP representation [alpha; A, B, C]: reconstruction, the operator that
applies the vectorized rank-one dictionary Q, Q^T and Q Q^T without forming
Q, factor Grams, and rank truncation.  The dense Q that the tests check the
operator against is ``build_q`` in ``tests/oracles.py``."""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import check_real, mttkrp, rank_one_sum

__all__ = ["CPModel", "check_rank", "CPScalingOperator", "reconstruct", "factor_gram", "truncate_rank"]


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
        check_rank(r, self.dims)

    @property
    def R(self):
        return self.A.shape[1]

    @property
    def dims(self):
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])


def check_rank(r, dims):
    """Raise ValueError unless R <= min(IJ, JK, IK), the CP rank bound for dims (I, J, K)."""
    i, j, k = dims
    if r > min(i * j, j * k, i * k):
        raise ValueError(f"R={r} exceeds the rank upper bound min(IJ, JK, IK) for dims {tuple(dims)}")


def reconstruct(m, out=None):
    """Dense tensor sum_r alpha_r * a_r o b_r o c_r, written into ``out`` when given."""
    return rank_one_sum(m.alpha, (m.A, m.B, m.C), out=out)


def factor_gram(x):
    """X^T X of one factor, one R x R GEMM.

    The Gram of a Khatri-Rao product is the Hadamard product of its factors'
    Grams, (X kr Y)^T (X kr Y) = X^T X * Y^T Y (Kolda & Bader, SIAM Review
    2009, section 3), so each factor's Gram is formed once and every Gram of
    a Khatri-Rao product is read off these.
    """
    return x.T @ x


class CPScalingOperator:
    """The dictionary Q of a model's factors, applied without forming it.

    Q is R x IJK with row r the vectorized rank-one tensor a_r o b_r o c_r, so
    matvec(x) is x Q, the vectorized sum_r x_r a_r o b_r o c_r; rmatvec(y) is
    Q y for a tensor or its vectorization y; and ``gram`` is Q Q^T.  The
    products with Q and Q^T are each one GEMM on a free reshape of the tensor
    (:func:`~cpcomplete.tensor_ops.rank_one_sum`, and the mode-0
    :func:`~cpcomplete.tensor_ops.mttkrp` summed against A), so nothing
    IJK-sized is formed except the tensor reconstruct returns, and not that
    either when it is given ``out``.

    ``factor_grams`` is (A^T A, B^T B, C^T C), which the caller already
    holds (see :func:`factor_gram`); ``gram`` = Q Q^T is their Hadamard
    product, multiplied left to right.
    """

    def __init__(self, m, factor_grams):
        self.A, self.B, self.C = m.A, m.B, m.C
        self.dims = m.dims
        ga, gb, gc = factor_grams
        self.gram = ga * gb * gc

    def coordinates(self, d, qd):
        """(H, c) with [c H] an (R+1) x (R+1) factor of the joint Gram [d Q^T]^T [d Q^T].

        ``qd`` is Q d, which the completion driver reads off its MM sweep
        (:meth:`~cpcomplete.factor_updates.Sweep.qt`) and anyone else gets
        from :meth:`rmatvec`, so nothing IJK-sized is contracted here.
        Every inner product among d and the columns of Q^T is preserved, so
        min ||H x - c||^2 + lambda ||x||_1 is the same problem as
        min ||Q^T x - d||^2 + lambda ||x||_1, posed in R+1 coordinates.  The
        factor is the Cholesky one; when the Gram is numerically indefinite
        (for example an all-zero factor column) it is the eigenvalue square
        root, with negative eigenvalues clipped to zero.
        """
        r = self.A.shape[1]
        xtx = np.empty((r + 1, r + 1))
        xtx[0, 0] = d @ d
        xtx[0, 1:] = xtx[1:, 0] = qd
        xtx[1:, 1:] = self.gram
        try:
            c = np.linalg.cholesky(xtx).T
        except np.linalg.LinAlgError:
            evals, evecs = np.linalg.eigh(xtx)
            c = np.sqrt(np.maximum(evals, 0.0))[:, None] * evecs.T
        return c[:, 1:], c[:, 0]

    def matvec(self, x):
        return self.reconstruct(x).ravel()

    def rmatvec(self, y):
        # (Q y)_r = sum_i A[i, r] M[i, r] with M the mode-0 MTTKRP of y.
        factors = (self.A, self.B, self.C)
        return np.einsum("ir,ir->r", self.A, mttkrp(np.reshape(y, self.dims), factors, 0))

    def reconstruct(self, x, out=None):
        return rank_one_sum(x, (self.A, self.B, self.C), out=out)


def truncate_rank(m, eps):
    """Drop components with |alpha_r| < eps * max|alpha|, sorted by descending |alpha|.

    The threshold is inclusive (ties at exactly eps * max are kept), so a
    nonzero maximal component always survives; zero components never do, so
    an all-zero alpha, like an R=0 model, gives an R=0 model.
    """
    check_real("eps", eps, 0, 1, "()")
    mag = np.abs(m.alpha)
    keep = (mag > 0.0) & (mag >= eps * mag.max(initial=0.0))
    idx = np.nonzero(keep)[0]
    order = idx[np.argsort(-mag[idx], kind="stable")]
    return CPModel(m.A[:, order], m.B[:, order], m.C[:, order], m.alpha[order])
