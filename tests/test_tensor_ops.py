import math
import re

import numpy as np
import pytest

from cpcomplete.tensor_ops import (
    Mask,
    as_tensor,
    check_count,
    check_real,
    is_integer,
    is_real,
    khatri_rao,
    masked_copy,
    mttkrp,
    rank_one_sum,
)
from oracles import matricize


def indexed_tensor():
    # a_{ijk} = 100 i + 10 j + k with 1-based indices
    t = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                t[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return t


def unfold_oracle(t, mode):
    # Brute-force fiber arrangement: column index pairs the two free indices
    # with the first varying slower, matching the Khatri-Rao convention.
    i_n, j_n, k_n = t.shape
    if mode == 1:
        out = np.zeros((i_n, k_n * j_n))
        for i in range(i_n):
            for k in range(k_n):
                for j in range(j_n):
                    out[i, k * j_n + j] = t[i, j, k]
    elif mode == 2:
        out = np.zeros((j_n, k_n * i_n))
        for j in range(j_n):
            for k in range(k_n):
                for i in range(i_n):
                    out[j, k * i_n + i] = t[i, j, k]
    else:
        out = np.zeros((k_n, j_n * i_n))
        for k in range(k_n):
            for j in range(j_n):
                for i in range(i_n):
                    out[k, j * i_n + i] = t[i, j, k]
    return out


def kron_oracle(x, y):
    out = np.zeros(x.size * y.size)
    for i in range(x.size):
        for j in range(y.size):
            out[i * y.size + j] = x[i] * y[j]
    return out


class TestMatricize:
    def test_indexed_rows(self):
        t = indexed_tensor()
        # frozen from the unfold oracle: j varies fastest within each k block
        assert matricize(t, 1)[0].tolist() == [111.0, 121.0, 112.0, 122.0]
        assert np.array_equal(matricize(t, 1), unfold_oracle(t, 1))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_oracle(self, mode):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(3, 4, 5))
        assert np.array_equal(matricize(t, mode), unfold_oracle(t, mode))

    def test_rank_one_identity(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        expected = np.outer(a, kron_oracle(c, b))
        assert np.allclose(matricize(t, 1), expected, rtol=0, atol=1e-14)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            matricize(np.zeros((2, 2, 2)), 4)


class TestKhatriRao:
    def test_single_column(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([[3.0], [4.0]])
        assert khatri_rao(x, y).ravel().tolist() == [3.0, 4.0, 6.0, 8.0]

    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        assert np.array_equal(out[:, 0], [1, 0, 0, 0])
        assert np.array_equal(out[:, 1], [0, 0, 0, 1])

    def test_against_kron_oracle(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        out = khatri_rao(x, y)
        for r in range(2):
            assert np.allclose(out[:, r], kron_oracle(x[:, r], y[:, r]), atol=1e-15)

    @pytest.mark.parametrize("i, j, r", [(5, 6, 4), (40, 40, 50), (267, 3, 50), (30, 30, 12)], ids=str)
    def test_signed_zeros_match_the_outer_products(self, i, j, r):
        # each entry is the product x[i, r] * y[j, r], so -0.0 * 1.5 stays -0.0
        # and -0.0 * -0.0 is +0.0, bit for bit as np.outer gives them; the
        # shapes are the small case and the products the benchmark forms
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(i, r)), rng.normal(size=(j, r))
        for f in (x, y):
            f[rng.random(f.shape) < 0.2] = 0.0
            f[rng.random(f.shape) < 0.1] = -0.0
        oracle = np.stack([np.outer(x[:, c], y[:, c]).ravel() for c in range(r)], axis=1)
        out = khatri_rao(x, y)
        assert np.array_equal(np.signbit(out), np.signbit(oracle))
        assert np.array_equal(out.view(np.uint64), oracle.view(np.uint64))

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((3, 3)))


class TestKhatriRaoConsistency:
    def test_identities_all_modes(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            i, j, k, r = rng.integers(1, 9, size=4)
            a = rng.normal(size=(i, r))
            b = rng.normal(size=(j, r))
            c = rng.normal(size=(k, r))
            d = rng.normal(size=r)
            t = np.einsum("r,ir,jr,kr->ijk", d, a, b, c)
            scale = max(np.linalg.norm(t), 1e-300)
            pairs = [(1, a, (c, b)), (2, b, (c, a)), (3, c, (b, a))]
            for mode, x, (y, z) in pairs:
                lhs = matricize(t, mode)
                rhs = (x * d) @ khatri_rao(y, z).T
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


# Shapes that take each contraction order of the GEMM kernels: K < I (the
# (j, k) side), K > I (the (i, j) side), K == I (the tie goes to the (j, k)
# side), and one-entry axes.
KERNEL_SHAPES = [(5, 4, 3), (3, 4, 5), (4, 6, 4), (2, 7, 9), (9, 1, 2), (1, 3, 1)]


class TestMttkrp:
    @pytest.mark.parametrize("dims", KERNEL_SHAPES)
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_unfolding_oracle(self, dims, r, mode):
        rng = np.random.default_rng(sum(dims) + r)
        t = rng.normal(size=dims)
        a, b, c = (rng.normal(size=(d, r)) for d in dims)
        oracle = [
            matricize(t, 1) @ khatri_rao(c, b),
            matricize(t, 2) @ khatri_rao(c, a),
            matricize(t, 3) @ khatri_rao(b, a),
        ][mode]
        # the mode's own factor is never read
        factors = [a, b, c]
        factors[mode] = None
        out = mttkrp(t, factors, mode)
        assert out.shape == (dims[mode], r)
        assert np.allclose(out, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", [3, 5, -1, True, False, 1.0, "0", None])
    def test_bad_mode_rejected(self, mode):
        # each once returned another mode's product: 5 the mode-2 one, True the mode-1 one
        t = np.ones((2, 3, 4))
        factors = tuple(np.ones((d, 2)) for d in t.shape)
        with pytest.raises(ValueError, match="^mode must be 0, 1 or 2, got "):
            mttkrp(t, factors, mode)

    def test_numpy_integer_mode_accepted(self):
        t = np.random.default_rng(5).normal(size=(2, 3, 4))
        factors = tuple(np.ones((d, 2)) for d in t.shape)
        assert np.array_equal(mttkrp(t, factors, np.int64(1)), mttkrp(t, factors, 1))


class TestSettingChecks:
    @pytest.mark.parametrize("value", [0, -3, 7, np.int64(4), np.uint8(2)])
    def test_integers(self, value):
        assert is_integer(value) and is_real(value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(3.0), "3", None, 1j])
    def test_not_integers(self, value):
        assert not is_integer(value)

    @pytest.mark.parametrize("value, least", [(0, 0), (3, 3), (np.int64(4), 1), (np.uint8(2), 1)])
    def test_counts(self, value, least):
        assert check_count("n", value, least) is None

    @pytest.mark.parametrize("value, least", [(2, 3), (-1, 0), (True, 1), (False, 0), (2.0, 1), ("3", 1), (None, 0)])
    def test_not_counts(self, value, least):
        with pytest.raises(ValueError, match=f"^n must be an integer >= {least}, got {value!r}$"):
            check_count("n", value, least)

    @pytest.mark.parametrize("value", [0.5, float("nan"), float("inf"), np.float32(0.2), 3])
    def test_reals(self, value):
        assert is_real(value)

    @pytest.mark.parametrize("value", [True, False, "0.5", None, 1j, [0.5]])
    def test_not_reals(self, value):
        assert not is_real(value)

    @pytest.mark.parametrize(
        "value, low, high, ends",
        [
            (0.0, 0, 1, "[)"),
            (-0.0, 0, 1, "[)"),
            (1, 0, 1, "(]"),
            (5e-324, 0, 1, "()"),
            (math.inf, 0, math.inf, "(]"),
            (-0.99, -0.99, 0.99, "[]"),
            (np.float32(0.5), 0, 1, "()"),
            (np.int64(3), 0, math.inf, "[)"),
        ],
    )
    def test_reals_in_the_interval(self, value, low, high, ends):
        assert check_real("x", value, low, high, ends) is None

    @pytest.mark.parametrize(
        "value, low, high, ends, interval",
        [
            (0.0, 0, 1, "(]", "(0, 1]"),
            (-0.0, 0, 1, "(]", "(0, 1]"),
            (1.0, 0, 1, "[)", "[0, 1)"),
            (math.inf, 0, math.inf, "[)", "[0, inf)"),
            (-math.inf, 0, math.inf, "[]", "[0, inf]"),
            (math.nan, 0, math.inf, "[]", "[0, inf]"),
            (math.nan, -math.inf, math.inf, "[]", "[-inf, inf]"),
            (-0.991, -0.99, 0.99, "[]", "[-0.99, 0.99]"),
            (True, 0, 1, "[]", "[0, 1]"),
            (False, 0, 1, "[]", "[0, 1]"),
            ("0.5", 0, 1, "[]", "[0, 1]"),
            (None, 0, 1, "[]", "[0, 1]"),
            (0.5j, 0, 1, "[]", "[0, 1]"),
        ],
    )
    def test_not_in_the_interval(self, value, low, high, ends, interval):
        message = f"x must be a real number in {interval}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_real("x", value, low, high, ends)


class TestMask:
    def test_full(self):
        mask = Mask.full((2, 3, 2))
        assert mask.count == 12
        assert mask.where.all()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Mask((2, 2, 2), [(0, 0, 0), (0, 0, 0)])

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 2, 2, 2), (2, 0, 2), (2, -1, 2), (2.7, 2, 2), (2, 2, 2.0), (True, 2, 2), (2, False, 2)]
    )
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dims must be three positive integers"):
            Mask(dims, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Mask((2, 2, 2), [(0, 0, 2)])

    @pytest.mark.parametrize(
        "triples",
        [
            [[0, 0], [0, 1], [1, 1]],
            [[0.9, 1.7, 0.2]],
            [[0.0, 1.0, 0.0]],
            [0, 1, 0],
            [[[0, 1, 0]]],
            [[True, False, True]],
            np.zeros((2, 4), dtype=np.int64),
        ],
        ids=["3x2", "fractional", "float", "flat", "3-d", "bool", "2x4"],
    )
    def test_malformed_triples_rejected(self, triples):
        # the 3 x 2 list once read as the two triples (0, 0, 0) and (1, 1, 1),
        # and the fractional one as (0, 1, 0)
        with pytest.raises(ValueError, match="^triples must be an n x 3 integer array"):
            Mask((2, 2, 2), triples)

    def test_empty_and_unsigned_triples_accepted(self):
        assert Mask((2, 2, 2), []).count == 0
        assert Mask((2, 2, 2), np.empty((0, 3), dtype=np.int64)).count == 0
        mask = Mask((2, 2, 2), np.array([[1, 0, 1]], dtype=np.uint64))
        assert mask.count == 1 and mask.where[1, 0, 1]

    @pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0])
    def test_from_bool_matches_the_triples_path(self, fraction):
        where = np.random.default_rng(3).random((4, 3, 5)) < fraction
        mask, oracle = Mask.from_bool(where), Mask(where.shape, np.argwhere(where))
        assert mask.dims == oracle.dims == (4, 3, 5)
        assert mask.where.dtype == bool and np.array_equal(mask.where, oracle.where)
        assert mask.count == oracle.count and type(mask.count) is int
        assert np.array_equal(mask.observed, oracle.observed)
        assert mask.where is where

    def test_full_matches_the_triples_path(self):
        dims = (3, 4, 2)
        mask, oracle = Mask.full(dims), Mask(dims, np.argwhere(np.ones(dims, dtype=bool)))
        assert mask.dims == oracle.dims and mask.count == oracle.count == 24
        assert np.array_equal(mask.where, oracle.where)
        assert np.array_equal(mask.observed, oracle.observed)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 0, 2), (2.7, 2, 2), (True, 2, 2)])
    def test_full_checks_dims_first(self, dims):
        with pytest.raises(ValueError, match="dims must be three positive integers"):
            Mask.full(dims)

    def test_from_bool_rejects_bad_shapes(self):
        for where in (np.ones((2, 2), dtype=bool), np.ones((2, 0, 2), dtype=bool)):
            with pytest.raises(ValueError, match="dims must be three positive integers"):
                Mask.from_bool(where)

    def test_observed_in_c_order(self):
        # MSK3 files list the triples in this order, whatever order they came in.
        mask = Mask((2, 3, 2), [(1, 0, 1), (0, 2, 0), (0, 0, 1)])
        assert mask.count == 3
        assert mask.observed.tolist() == [[0, 0, 1], [0, 2, 0], [1, 0, 1]]
        assert np.array_equal(Mask.from_bool(mask.where).observed, mask.observed)


class TestMaskedCopy:
    def test_full_mask_returns_first(self):
        rng = np.random.default_rng(10)
        t, s = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3, 3))
        assert np.array_equal(masked_copy(t, s, Mask.full(t.shape)), t)

    def test_empty_mask_returns_second(self):
        rng = np.random.default_rng(11)
        t, s = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3, 3))
        assert np.array_equal(masked_copy(t, s, Mask(t.shape, [])), s)

    def test_mixed_entries(self):
        rng = np.random.default_rng(12)
        t, s = rng.normal(size=(4, 4, 4)), rng.normal(size=(4, 4, 4))
        flat = rng.choice(64, size=20, replace=False)
        triples = np.stack(np.unravel_index(flat, (4, 4, 4)), axis=1)
        mask = Mask((4, 4, 4), triples)
        out = masked_copy(t, s, mask)
        for (i, j, k) in triples:
            assert out[i, j, k] == t[i, j, k]
        inv = ~mask.where
        assert np.array_equal(out[inv], s[inv])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            masked_copy(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), Mask.full((2, 2, 2)))

    @staticmethod
    def special_values():
        # -0.0, +-inf, NaNs with distinct payloads and signs, subnormals.
        nans = np.array([0x7FF8000000000001, 0xFFF0000000000BAD, 0x7FF4000000000000], dtype=np.uint64)
        values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -1.5], nans.view(np.float64)])
        rng = np.random.default_rng(14)
        t = rng.choice(values, size=(4, 5, 6))
        s = rng.choice(values, size=(4, 5, 6))
        return t, s

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0], ids=["empty", "half", "full"])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_bit_exact_against_where(self, fraction, given_out):
        t, s = self.special_values()
        where = np.random.default_rng(15).random(t.shape) < fraction
        mask = Mask.from_bool(where)
        out = np.full(t.shape, 7.0) if given_out else None
        result = masked_copy(t, s, mask, out=out)
        assert out is None or result is out
        assert np.array_equal(result.view(np.uint64), np.where(where, t, s).view(np.uint64))

    def test_out_may_be_t(self):
        # a full mask runs the same in-place select and leaves t's bits as they are
        for fraction in (0.5, 1.0):
            t, s = self.special_values()
            where = np.random.default_rng(16).random(t.shape) < fraction
            expected = np.where(where, t, s)
            assert masked_copy(t, s, Mask.from_bool(where), out=t) is t
            assert np.array_equal(t.view(np.uint64), expected.view(np.uint64)), fraction

    @pytest.mark.parametrize(
        "bad_out",
        [
            np.zeros((2, 3, 4), dtype=np.float32),
            np.zeros((2, 3, 5)),
            np.zeros((4, 3, 2)).transpose(2, 1, 0),
            np.zeros((2, 3, 8))[:, :, ::2],
            [[[0.0] * 4] * 3] * 2,
        ],
        ids=["float32", "shape", "fortran", "strided", "list"],
    )
    def test_bad_out_rejected(self, bad_out):
        t, s = np.ones((2, 3, 4)), np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            masked_copy(t, s, Mask.full(t.shape), out=bad_out)

    @pytest.mark.parametrize("full", [False, True])
    def test_out_sharing_memory_with_s_rejected(self, full):
        # The select would zero the unobserved entries of an out that is s.
        t = np.ones((2, 3, 4))
        buffer = np.zeros(25)
        s = buffer[:24].reshape(t.shape)
        mask = Mask.full(t.shape) if full else Mask(t.shape, [(0, 0, 0)])
        for out in (s, buffer[1:].reshape(t.shape)):
            with pytest.raises(ValueError, match="out must not share memory with s"):
                masked_copy(t, s, mask, out=out)


class TestRankOneSumOut:
    @pytest.mark.parametrize("dims", [(6, 4, 3), (3, 4, 6)], ids=["K<=I", "K>I"])
    def test_out_is_returned_with_the_allocating_bytes(self, dims):
        rng = np.random.default_rng(17)
        factors = tuple(rng.standard_normal((d, 3)) for d in dims)
        x = rng.standard_normal(3)
        out = np.full(dims, np.nan)
        assert rank_one_sum(x, factors, out=out) is out
        assert np.array_equal(out.view(np.uint64), rank_one_sum(x, factors).view(np.uint64))

    @pytest.mark.parametrize("dims", [(6, 4, 3), (3, 4, 6)], ids=["K<=I", "K>I"])
    def test_zero_weights_are_left_out(self, dims):
        # bit for bit the sum over the nonzero-weight components alone
        rng = np.random.default_rng(18)
        factors = tuple(rng.standard_normal((d, 5)) for d in dims)
        x = rng.standard_normal(5)
        x[[1, 4]] = [0.0, -0.0]
        keep = [0, 2, 3]
        expected = rank_one_sum(x[keep], tuple(f[:, keep] for f in factors))
        out = np.full(dims, np.nan)
        assert rank_one_sum(x, factors, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dims", [(6, 4, 3), (3, 4, 6)], ids=["K<=I", "K>I"])
    @pytest.mark.parametrize("r", [0, 3])
    def test_no_nonzero_weight_gives_zeros(self, dims, r):
        factors = tuple(np.ones((d, r)) for d in dims)
        x = np.array([0.0, -0.0, 0.0][:r])
        assert np.array_equal(rank_one_sum(x, factors), np.zeros(dims))
        out = np.full(dims, np.nan)
        assert rank_one_sum(x, factors, out=out) is out
        assert np.array_equal(out.view(np.uint64), np.zeros(dims).view(np.uint64))

    @pytest.mark.parametrize(
        "x", [[2.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], 2.0], ids=["1", "2", "4", "1x3", "scalar"]
    )
    def test_weights_must_be_one_per_component(self, x):
        # a single weight once broadcast over all three components
        factors = tuple(np.ones((d, 3)) for d in (4, 3, 2))
        with pytest.raises(ValueError, match=r"^weights must have shape \(3,\), one per component"):
            rank_one_sum(np.asarray(x), factors)

    @pytest.mark.parametrize("dims", [(6, 4, 3), (3, 4, 6)], ids=["K<=I", "K>I"])
    def test_non_contiguous_out_rejected(self, dims):
        # A reshape of a non-contiguous array is a copy, which the GEMM would fill instead.
        factors = tuple(np.ones((d, 2)) for d in dims)
        out = np.zeros(dims[::-1]).transpose(2, 1, 0)
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            rank_one_sum(np.ones(2), factors, out=out)


def test_as_tensor_validates():
    with pytest.raises(ValueError):
        as_tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"dimensions must be >= 1, got \(2, 0, 3\)"):
        as_tensor(np.zeros((2, 0, 3)))
