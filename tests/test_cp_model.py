import re

import numpy as np
import pytest

from cpcomplete.cp_model import CPModel, CPScalingOperator, factor_gram, reconstruct, truncate_rank
from oracles import build_q


def grams(m):
    return [factor_gram(x) for x in (m.A, m.B, m.C)]


def random_model(seed, dims=(4, 5, 6), r=3, unit=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dims[0], r))
    b = rng.normal(size=(dims[1], r))
    c = rng.normal(size=(dims[2], r))
    if unit:
        a /= np.linalg.norm(a, axis=0)
        b /= np.linalg.norm(b, axis=0)
        c /= np.linalg.norm(c, axis=0)
    return CPModel(a, b, c, rng.normal(size=r))


def reconstruct_oracle(m):
    i, j, k = m.dims
    out = np.zeros((i, j, k))
    for r in range(m.R):
        for ii in range(i):
            for jj in range(j):
                for kk in range(k):
                    out[ii, jj, kk] += m.alpha[r] * m.A[ii, r] * m.B[jj, r] * m.C[kk, r]
    return out


class TestReconstruct:
    def test_single_spike(self):
        e = np.zeros((3, 1))
        e[0] = 1.0
        m = CPModel(e, e.copy(), e.copy(), np.array([2.0]))
        t = reconstruct(m)
        assert t[0, 0, 0] == 2.0
        assert np.count_nonzero(t) == 1

    def test_zero_alpha(self):
        m = random_model(0)
        m.alpha = np.zeros(m.R)
        assert not reconstruct(m).any()

    def test_matches_triple_loop(self):
        m = random_model(1)
        t = reconstruct(m)
        oracle = reconstruct_oracle(m)
        assert np.linalg.norm(t - oracle) <= 1e-13 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("dims", [(6, 4, 3), (3, 4, 6)], ids=["K<=I", "K>I"])
    def test_out_is_returned_with_the_allocating_bytes(self, dims):
        m = random_model(4, dims)
        op = CPScalingOperator(m, grams(m))
        x = np.random.default_rng(4).normal(size=m.R)
        for call, expected in ((lambda out: reconstruct(m, out=out), reconstruct(m)),
                               (lambda out: op.reconstruct(x, out=out), op.reconstruct(x))):
            out = np.full(dims, np.nan)
            assert call(out) is out
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


class TestBuildQ:
    def test_unit_spike_row(self):
        e2 = np.zeros((2, 1))
        e2[0] = 1.0
        m = CPModel(e2, e2.copy(), e2.copy(), np.array([1.0]))
        q = build_q(m)
        assert q.shape == (1, 8)
        assert q[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_vectorized_reconstruction(self):
        m = random_model(6)
        q = build_q(m)
        lhs = m.alpha @ q
        rhs = reconstruct(m).ravel()
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1e-300)

    def test_unit_rows_when_normalized(self):
        m = random_model(7, unit=True)
        q = build_q(m)
        assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


class TestHadamardGram:
    def test_matches_dictionary_gram(self):
        m = random_model(8)
        q = build_q(m)
        gram = CPScalingOperator(m, grams(m)).gram
        assert np.abs(gram - q @ q.T).max() <= 1e-12 * np.abs(gram).max()

    def test_left_to_right_product(self):
        m = random_model(9)
        expected = (m.A.T @ m.A) * (m.B.T @ m.B) * (m.C.T @ m.C)
        assert np.array_equal(factor_gram(m.C), m.C.T @ m.C)
        # Grams handed in are read as they are, and multiplied when the
        # operator is built, so a later change to the list does not reach it
        factor_grams = grams(m)
        op = CPScalingOperator(m, factor_grams)
        factor_grams[0] = np.zeros_like(factor_grams[0])
        assert np.array_equal(op.gram, expected)


class TestTruncateRank:
    def test_threshold_examples(self):
        m = random_model(8, r=3, unit=True)
        m.alpha = np.array([10.0, 5.0, 0.05])
        out = truncate_rank(m, 1e-2)
        assert out.R == 2
        assert out.alpha.tolist() == [10.0, 5.0]

    def test_single_component_kept(self):
        m = random_model(9, r=1)
        assert truncate_rank(m, 0.5).R == 1

    def test_matches_filter_oracle(self):
        rng = np.random.default_rng(10)
        m = random_model(11, dims=(6, 6, 6), r=6, unit=True)
        m.alpha = rng.normal(size=6) * 10
        out = truncate_rank(m, 1e-2)
        expected = sorted(
            (abs(a) for a in m.alpha if abs(a) >= 1e-2 * np.abs(m.alpha).max()),
            reverse=True,
        )
        assert np.allclose(np.abs(out.alpha), expected)

    def test_ties_kept(self):
        m = random_model(12, r=2, unit=True)
        m.alpha = np.array([10.0, 0.1])
        assert truncate_rank(m, 1e-2).R == 2

    def test_idempotent(self):
        m = random_model(13, dims=(5, 5, 5), r=5, unit=True)
        once = truncate_rank(m, 1e-2)
        twice = truncate_rank(once, 1e-2)
        assert np.array_equal(once.alpha, twice.alpha)

    def test_sorted_descending(self):
        m = random_model(14, dims=(5, 5, 5), r=5, unit=True)
        out = truncate_rank(m, 1e-3)
        mags = np.abs(out.alpha)
        assert np.all(mags[:-1] >= mags[1:])

    def test_all_zero_alpha_gives_rank_zero(self):
        m = random_model(16, r=3, unit=True)
        m.alpha = np.array([0.0, -0.0, 0.0])
        out = truncate_rank(m, 1e-2)
        assert out.R == 0
        assert out.dims == m.dims
        assert not reconstruct(out).any()

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, float("nan"), float("inf"), True, "0.5"])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=re.escape(f"eps must be a real number in (0, 1), got {eps!r}")):
            truncate_rank(random_model(17, unit=True), eps)

    @pytest.mark.parametrize("eps", [5e-324, 1.0 - 2.0**-53])
    def test_open_interval_ends_accepted(self, eps):
        m = random_model(17, unit=True)
        m.alpha = np.array([1.0, 0.5, 1e-300])
        assert truncate_rank(m, eps).R == (3 if eps < 0.5 else 1)

    def test_rank_zero_model_accepted(self):
        empty = CPModel(np.zeros((4, 0)), np.zeros((5, 0)), np.zeros((6, 0)), np.zeros(0))
        assert truncate_rank(empty, 1e-2).R == 0


def test_rank_bound_enforced():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        CPModel(
            rng.normal(size=(2, 5)),
            rng.normal(size=(2, 5)),
            rng.normal(size=(2, 5)),
            rng.normal(size=5),
        )


@pytest.mark.parametrize("short", ["B", "C", "alpha"])
def test_component_counts_must_agree(short):
    m = random_model(18)
    parts = {"A": m.A, "B": m.B, "C": m.C, "alpha": m.alpha}
    parts[short] = parts[short][..., :2]
    with pytest.raises(ValueError, match="inconsistent component counts"):
        CPModel(**parts)
