import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cpcomplete import completion, cp_model, factor_updates, hybrid_l1, tensor_ops
from cpcomplete.completion import (
    CompletionConfig,
    CPScalingOperator,
    complete,
    make_random_mask,
    relative_error,
)
from cpcomplete.cp_model import CPModel, factor_gram, reconstruct
from cpcomplete.exceptions import DataError
from cpcomplete.fileio import load_model, save_model
from cpcomplete.hybrid_l1 import HybridConfig, solve_l1_hybrid
from cpcomplete.tensor_ops import Mask
from oracles import build_q


def grams(m):
    return [factor_gram(x) for x in (m.A, m.B, m.C)]


def synthetic_rank(seed, dims, r, scale=10.0):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((d, r)) for d in dims]
    mats = [m / np.linalg.norm(m, axis=0) for m in mats]
    return reconstruct(CPModel(*mats, rng.uniform(1, 3, r) * scale))


class TestScalingOperator:
    def test_matches_dictionary_matrix(self):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(d, 4)) for d in (5, 6, 7)]
        m = CPModel(*mats, rng.normal(size=4))
        op = CPScalingOperator(m, grams(m))
        q = build_q(m)
        x = rng.normal(size=4)
        assert np.allclose(op.matvec(x), x @ q, atol=1e-12)
        y = rng.normal(size=5 * 6 * 7)
        assert np.allclose(op.rmatvec(y), q @ y, atol=1e-12)

    @pytest.mark.parametrize("dims", [(5, 4, 3), (3, 4, 5), (4, 6, 4), (2, 7, 9)])
    @pytest.mark.parametrize("r", [1, 3])
    def test_gemm_kernels_match_dense_q(self, dims, r):
        # every contraction order: K < I, K > I and the K == I tie
        rng = np.random.default_rng(sum(dims) + r)
        m = CPModel(*(rng.normal(size=(d, r)) for d in dims), rng.normal(size=r))
        op = CPScalingOperator(m, grams(m))
        q = build_q(m)
        y = rng.normal(size=dims)
        x = rng.normal(size=r)
        assert np.allclose(op.rmatvec(y), q @ y.ravel(), rtol=1e-12, atol=1e-12)
        assert np.allclose(op.rmatvec(y.ravel()), q @ y.ravel(), rtol=1e-12, atol=1e-12)
        recon = op.reconstruct(x)
        assert recon.shape == dims
        assert np.allclose(recon.ravel(), x @ q, rtol=1e-12, atol=1e-12)

    def test_reconstruct_consistency(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(d, 3)) for d in (4, 4, 4)]
        m = CPModel(*mats, rng.normal(size=3))
        op = CPScalingOperator(m, grams(m))
        assert np.allclose(op.reconstruct(m.alpha), reconstruct(m), atol=1e-12)


def coordinates(m, d):
    # The coordinate problem for d, with Q d from the operator's rmatvec.
    op = CPScalingOperator(m, grams(m))
    return op.coordinates(d, op.rmatvec(d))


def coordinate_case(zero_column):
    # A model with one all-zero factor column makes the joint Gram singular
    # with an exact zero pivot, so its Cholesky factorization fails.
    rng = np.random.default_rng(2)
    mats = [rng.normal(size=(d, 5)) for d in (4, 5, 6)]
    if zero_column:
        mats[1][:, 2] = 0.0
    m = CPModel(*mats, rng.normal(size=5))
    d = rng.normal(size=4 * 5 * 6)
    x = np.column_stack([d, build_q(m).T])
    return m, d, x.T @ x


class TestCoordinates:
    @pytest.mark.parametrize("zero_column", [False, True], ids=["cholesky", "eigh"])
    def test_reproduces_joint_gram(self, zero_column):
        m, d, joint = coordinate_case(zero_column)
        h, c = coordinates(m, d)
        assert h.shape == (6, 5) and c.shape == (6,)
        factor = np.column_stack([c, h])
        assert np.abs(factor.T @ factor - joint).max() <= 1e-12 * np.abs(joint).max()

    def test_zero_column_defeats_cholesky(self):
        _, _, joint = coordinate_case(zero_column=True)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(joint)

    @pytest.mark.parametrize("zero_column", [False, True], ids=["cholesky", "eigh"])
    def test_solve_matches_dense_problem(self, zero_column):
        m, d, _ = coordinate_case(zero_column)
        cfg = HybridConfig(k_max=m.R)
        sol, lams = solve_l1_hybrid(*coordinates(m, d), cfg)
        dense_sol, dense_lams = solve_l1_hybrid(build_q(m).T, d, cfg)
        assert np.abs(sol - dense_sol).max() <= 1e-12 * np.abs(dense_sol).max()
        assert np.allclose(lams, dense_lams, rtol=1e-12)

    def test_steps_capped_at_column_count(self):
        m, d, _ = coordinate_case(zero_column=False)
        h, c = coordinates(m, d)
        sol, lams = solve_l1_hybrid(h, c, HybridConfig(k_max=m.R))
        long_sol, long_lams = solve_l1_hybrid(h, c, HybridConfig(k_max=m.R + 10))
        assert lams.size == long_lams.size == m.R
        assert sol.tobytes() == long_sol.tobytes()


class TestMakeRandomMask:
    def test_full_fraction(self):
        assert make_random_mask((3, 3, 3), 1.0).count == 27

    def test_count_and_reproducibility(self):
        a = make_random_mask((10, 10, 10), 0.7, seed=5)
        b = make_random_mask((10, 10, 10), 0.7, seed=5)
        assert a.count == 700
        assert np.array_equal(a.observed, b.observed)

    def test_different_seeds_differ(self):
        a = make_random_mask((10, 10, 10), 0.3, seed=1)
        b = make_random_mask((10, 10, 10), 0.3, seed=2)
        assert not np.array_equal(a.observed, b.observed)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_random_mask((3, 3, 3), 0.0)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan"), True, "0.5", None])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match=re.escape(f"fraction must be a real number in (0, 1], got {fraction!r}")):
            make_random_mask((3, 3, 3), fraction)

    @pytest.mark.parametrize("dims", [(2.7, 2, 2), (2, 2.0, 2), (True, 2, 2), (2, 2), (2, 0, 2)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dims must be three positive integers"):
            make_random_mask(dims, 0.5)

    @pytest.mark.parametrize("seed", [True, 2.5, -1])
    def test_bad_seed_rejected(self, seed):
        # True once drew the mask of seed 1, and 2.5 raised a numpy TypeError
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            make_random_mask((3, 3, 3), 0.5, seed)

    def test_numpy_integer_dims(self):
        mask = make_random_mask(np.array([3, 2, 2]), 0.5)
        assert mask.dims == (3, 2, 2)
        assert all(type(d) is int for d in mask.dims)


class TestRelativeError:
    def test_identical(self):
        t = np.ones((2, 2, 2))
        assert relative_error(t, t) == 0.0

    def test_double(self):
        t = np.random.default_rng(2).normal(size=(3, 3, 3))
        assert np.isclose(relative_error(2 * t, t), 1.0)

    def test_direct_formula(self):
        rng = np.random.default_rng(3)
        s, a = rng.normal(size=(4, 4, 4)), rng.normal(size=(4, 4, 4))
        expected = np.linalg.norm((s - a).ravel()) / np.linalg.norm(a.ravel())
        assert np.isclose(relative_error(s, a), expected, rtol=1e-14)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_error(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


class TestComplete:
    def test_full_mask_exact_rank(self):
        # the tolerance is set below the straggler scale so redundant
        # components have merged by the time the driver stops
        t = synthetic_rank(42, (12, 13, 14), 3)
        cfg = CompletionConfig(R0=10, m_max=500, eps_tol=1e-4, mode="hybrid", seed=0,
                               hybrid=HybridConfig(omega=0.2))
        model, s, trace = complete(t, Mask.full(t.shape), cfg)
        assert relative_error(s, t) <= 1e-3
        assert model.R == 3

    def test_masked_recovery(self):
        t = synthetic_rank(7, (30, 30, 30), 5)
        mask = make_random_mask(t.shape, 0.7, seed=7)
        cfg = CompletionConfig(R0=12, m_max=800, eps_tol=3e-4, mode="hybrid", seed=7,
                               hybrid=HybridConfig(omega=0.2))
        model, s, trace = complete(t, mask, cfg)
        assert relative_error(s, t) <= 5e-2

    def test_observed_entries_bit_exact(self):
        t = synthetic_rank(8, (10, 10, 10), 3)
        mask = make_random_mask(t.shape, 0.5, seed=8)
        cfg = CompletionConfig(R0=5, m_max=20, eps_tol=1e-3, seed=8)
        _, s, _ = complete(t, mask, cfg)
        assert np.array_equal(s[mask.where], t[mask.where])

    def test_trace_residual_progress(self):
        t = synthetic_rank(9, (10, 10, 10), 3)
        mask = make_random_mask(t.shape, 0.6, seed=9)
        cfg = CompletionConfig(R0=6, m_max=60, eps_tol=1e-6, seed=9)
        _, _, trace = complete(t, mask, cfg)
        assert trace.residual[-1] <= trace.residual[0]
        assert len(trace) == 60

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    def test_trace_residual_is_the_gathered_observed_residual(self, mode, monkeypatch):
        # The driver reads the residual off the next imputation; it must equal
        # ||s_hat(Omega) - t(Omega)|| / ||t(Omega)|| for each iteration's s_hat.
        # Hybrid mode forms s_hat with the operator, fixed mode inside the
        # ISTA step.
        t = synthetic_rank(13, (7, 8, 9), 3)
        mask = make_random_mask(t.shape, 0.6, seed=13)
        recons = []

        def recording(original):
            def wrapper(*args, out=None):
                # The driver reuses its reconstruction tensor, so keep a copy.
                result = original(*args, out=out)
                recons.append(result.copy())
                return result

            return wrapper

        if mode == "hybrid":
            monkeypatch.setattr(CPScalingOperator, "reconstruct", recording(CPScalingOperator.reconstruct))
        else:
            monkeypatch.setattr(hybrid_l1, "reconstruct", recording(hybrid_l1.reconstruct))
        cfg = CompletionConfig(R0=5, m_max=12, eps_tol=1e-8, mode=mode, lam=0.1, seed=13)
        _, s, trace = complete(t, mask, cfg)
        assert len(recons) == len(trace) == 12
        t_obs = t[mask.where]
        for s_hat, residual in zip(recons, trace.residual):
            gathered = np.linalg.norm(s_hat[mask.where] - t_obs) / np.linalg.norm(t_obs)
            assert residual == pytest.approx(gathered, rel=1e-13, abs=0.0)
        # the returned tensor is the last imputation
        assert np.array_equal(s, np.where(mask.where, t, recons[-1]))

    def test_deterministic_given_seed(self):
        t = synthetic_rank(10, (9, 9, 9), 3)
        mask = make_random_mask(t.shape, 0.7, seed=10)
        cfg = CompletionConfig(R0=5, m_max=25, eps_tol=1e-8, seed=11)
        m1, s1, tr1 = complete(t, mask, cfg)
        m2, s2, tr2 = complete(t, mask, cfg)
        assert np.array_equal(s1, s2)
        assert np.array_equal(m1.alpha, m2.alpha)
        assert tr1.residual == tr2.residual
        assert tr1.lam == tr2.lam

    @pytest.mark.xfail(strict=True, reason="ROADMAP 'Make the hybrid solve unit-free': the solve's "
                       "FGK weights and absolute constants carry the data's units")
    @pytest.mark.parametrize("c", [4.0**-5, 4.0**4])
    def test_scaling_the_data_scales_the_fit(self, c):
        # Powers of 4 scale exactly in binary, and so do their square roots,
        # so a unit-free hybrid fit of c t is c times the fit of t, bit for
        # bit.  Fixed mode is left out: its lambda is in data units by design.
        t = synthetic_rank(14, (9, 8, 7), 3)
        mask = make_random_mask(t.shape, 0.6, seed=14)
        cfg = CompletionConfig(R0=6, m_max=5, eps_tol=1e-8, seed=14)
        m1, s1, tr1 = complete(t, mask, cfg)
        mc, sc, trc = complete(c * t, mask, cfg)
        assert np.array_equal(sc, c * s1)
        assert np.array_equal(mc.alpha, c * m1.alpha)
        for name in ("A", "B", "C"):
            assert np.array_equal(getattr(mc, name), getattr(m1, name)), name
        assert trc.residual == tr1.residual

    @pytest.mark.parametrize("c", [4.0**-20, 4.0**-5, 4.0**4, 4.0**20])
    def test_scaling_the_data_and_lambda_scales_the_fixed_fit(self, c):
        # In fixed mode the MM step size is 1 / L with L in alpha^2's units,
        # so the fit of c t at lambda c is c times the fit of t, bit for bit,
        # as long as no floor on L binds.
        t = synthetic_rank(14, (9, 8, 7), 3)
        mask = make_random_mask(t.shape, 0.6, seed=14)

        def fit(scale):
            cfg = CompletionConfig(R0=6, m_max=40, eps_tol=1e-8, mode="fixed", lam=0.5 * scale, seed=14)
            return complete(scale * t, mask, cfg)

        m1, s1, tr1 = fit(1.0)
        mc, sc, trc = fit(c)
        assert np.array_equal(sc, c * s1)
        assert np.array_equal(mc.alpha, c * m1.alpha)
        for name in ("A", "B", "C"):
            assert np.array_equal(getattr(mc, name), getattr(m1, name)), name
        assert trc.residual == tr1.residual

    @pytest.mark.parametrize("c", [4.0**20, 4.0**24])
    def test_hybrid_fit_of_large_data_is_not_the_zero_model(self, c):
        # fgk_init stops only when H^T u_1 is exactly zero.  Measuring it
        # against a multiple of ||d|| would compare H's units with the
        # data's, and return the zero model once the data are large enough.
        t = synthetic_rank(14, (9, 8, 7), 3)
        mask = make_random_mask(t.shape, 0.6, seed=14)
        cfg = CompletionConfig(R0=6, m_max=40, eps_tol=1e-8, seed=14)
        model, _, trace = complete(c * t, mask, cfg)
        assert model.R >= 1
        assert trace.residual[-1] < 0.5

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    def test_data_too_large_to_square_rejected(self, mode):
        t = synthetic_rank(14, (9, 8, 7), 3)
        mask = make_random_mask(t.shape, 0.6, seed=14)
        cfg = CompletionConfig(R0=6, m_max=5, mode=mode, lam=0.5, seed=14)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="observed entries overflows"):
            complete(1e160 * t, mask, cfg)

    @pytest.mark.parametrize("dims, r0", [((10, 9, 8), 6), ((6, 5, 4), 12)])
    def test_data_whose_squares_overflow_in_the_hybrid_solve_rejected(self, dims, r0):
        # The observed entries' norm, about 1e154, squares to a finite number,
        # but the lambda selection multiplies the imputation's squared norm by
        # up to min(k_max, R0) steps, which overflows.
        t = synthetic_rank(1, dims, 3, scale=1.0) * 10**153.5
        mask = make_random_mask(dims, 0.6, seed=1)
        assert np.isfinite(np.linalg.norm(t[mask.where]))
        cfg = CompletionConfig(R0=r0, m_max=5, seed=1)
        with pytest.raises(DataError, match="squared norm of the imputed data overflows"):
            complete(t, mask, cfg)

    def test_scaling_vector_whose_square_overflows_is_data_error(self):
        # Between 10^152.9 and 10^153.2 this input once raised LinAlgError:
        # alpha_r^2 overflowed in the MM step's Lipschitz matrix.
        dims = (10, 9, 8)
        t = synthetic_rank(1, dims, 3, scale=1.0) * 10**153.0
        mask = make_random_mask(dims, 0.6, seed=1)
        cfg = CompletionConfig(R0=6, m_max=30, seed=0)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="squared scaling vector overflows"):
            complete(t, mask, cfg)

    def test_fixed_mode_runs(self):
        t = synthetic_rank(11, (8, 8, 8), 2, scale=1.0)
        mask = make_random_mask(t.shape, 0.8, seed=11)
        cfg = CompletionConfig(R0=4, m_max=30, eps_tol=1e-6, mode="fixed", lam=0.01, seed=11)
        _, _, trace = complete(t, mask, cfg)
        assert all(l == 0.01 for l in trace.lam)

    def test_shrinking_every_component_gives_rank_zero(self, tmp_path):
        # lambda far above every correlation zeroes alpha at the first step.
        t = synthetic_rank(12, (8, 9, 3), 3, scale=1.0)
        mask = make_random_mask(t.shape, 0.7, seed=12)
        cfg = CompletionConfig(R0=5, m_max=3, mode="fixed", lam=1e6, seed=12)
        model, s, _ = complete(t, mask, cfg)
        assert model.R == 0
        assert not s[~mask.where].any()
        save_model(model, tmp_path / "zero.cpm1")
        assert load_model(tmp_path / "zero.cpm1").R == 0

    def test_stops_at_the_all_zero_fixed_point(self):
        # Once alpha is zero on two iterations running, D = 0 freezes the
        # factors and every later iteration would repeat the last one.
        t = synthetic_rank(12, (8, 9, 3), 3, scale=1.0)
        mask = make_random_mask(t.shape, 0.7, seed=12)
        cfg = CompletionConfig(R0=5, mode="fixed", lam=1e6, seed=12)
        model, s, trace = complete(t, mask, cfg)
        assert cfg.m_max == 500
        assert len(trace) <= 3
        assert trace.residual == [1.0] * len(trace)
        assert model.R == 0
        assert np.array_equal(s, np.where(mask.where, t, 0.0))

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    @pytest.mark.parametrize("dims", [(9, 6, 4), (4, 6, 9)], ids=["K<=I", "K>I"])
    def test_the_solves_get_q_s_of_the_imputation(self, dims, mode, monkeypatch):
        # Q s, read off the sweep after its MM steps, is the dense oracle's
        # Q s for the model and the imputation the sweep has just fitted.
        reads = []
        qt = factor_updates.Sweep.qt

        def logged_qt(sweep):
            reads.append((sweep.model, sweep.t.copy(), qt(sweep), sweep.model.alpha.all()))
            return reads[-1][2]

        monkeypatch.setattr(factor_updates.Sweep, "qt", logged_qt)
        cfg = CompletionConfig(R0=6, m_max=5, eps_tol=1e-12, mode=mode, lam=5.0, seed=11)
        complete(synthetic_rank(11, dims, 2), make_random_mask(dims, 0.7, seed=11), cfg)
        assert len(reads) == 5
        for m, s, q_s, _ in reads:
            expected = build_q(m) @ s.ravel()
            assert np.linalg.norm(q_s - expected) <= 1e-12 * np.linalg.norm(expected)
        # hybrid alpha is dense; in fixed mode the sweeps over the nonzero components ran
        assert [dense for *_, dense in reads] == [True] + [mode == "hybrid"] * 4

    def test_a_zeroed_component_comes_back(self, monkeypatch):
        # On this run the fourth ISTA step zeroes alpha_3 and the fifth
        # restores it.  While alpha_r = 0 the MM sweep runs over the other
        # components and leaves r's factor columns as they were, bit for
        # bit; the ISTA gradient stays R0 wide, so once |grad_r| > lambda
        # component r re-enters and the next sweep moves it again.
        dims, lam = (8, 9, 3), 1.0
        steps, widths = [], []  # per iteration: (factors, alpha, |ISTA gradient|), MM sweep width
        ista, active = completion.ista_alpha_step, factor_updates.Sweep.active

        def logged_ista(m, qt, lam, op, work=None):
            grad = np.abs(op.gram @ m.alpha - qt)
            alpha = ista(m, qt, lam, op, work)
            steps.append(([x.copy() for x in (m.A, m.B, m.C)], alpha.copy(), grad))
            return alpha

        def logged_active(sweep):
            columns = active(sweep)
            widths.append(columns.model.R)
            return columns

        monkeypatch.setattr(completion, "ista_alpha_step", logged_ista)
        monkeypatch.setattr(factor_updates.Sweep, "active", logged_active)
        cfg = CompletionConfig(R0=6, m_max=6, eps_tol=1e-12, mode="fixed", lam=lam, seed=0)
        complete(synthetic_rank(0, dims, 2), make_random_mask(dims, 0.7, seed=0), cfg)
        assert len(steps) == 6 and widths[0] == 6
        back = []
        for k in range(1, 6):
            (before, alpha, _), (after, new_alpha, grad) = steps[k - 1], steps[k]
            zero = alpha == 0.0
            assert widths[k] == 6 - zero.sum()
            for x, y in zip(before, after):
                assert np.array_equal(x[:, zero], y[:, zero])
            back += [(k, r) for r in np.flatnonzero(zero & (new_alpha != 0.0))]
            assert np.array_equal(grad[zero] > lam, new_alpha[zero] != 0.0)
        assert back == [(4, 3)]
        for x, y in zip(steps[4][0], steps[5][0]):
            assert not np.array_equal(x[:, 3], y[:, 3])

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            complete(np.ones((3, 3, 3)), Mask((3, 3, 3), []), CompletionConfig(R0=2))

    def test_mask_dims_must_match_tensor(self):
        with pytest.raises(ValueError, match=r"mask dims \(3, 3, 2\) do not match tensor \(3, 3, 3\)"):
            complete(np.ones((3, 3, 3)), Mask.full((3, 3, 2)), CompletionConfig(R0=2))

    def test_non_finite_rejected(self):
        t = np.ones((3, 3, 3))
        t[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            complete(t, Mask.full(t.shape), CompletionConfig(R0=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompletionConfig(R0=0)
        with pytest.raises(ValueError):
            CompletionConfig(eps_tol=2.0)
        with pytest.raises(ValueError):
            CompletionConfig(mode="banana")

    @pytest.mark.parametrize("name", ["R0", "m_max"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
            CompletionConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, -1, "0", True, None])
    def test_bad_seed_rejected(self, value):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {value!r}"):
            CompletionConfig(seed=value)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf"), True, "3"])
    def test_bad_fixed_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"lam must be a real number in [0, inf), got {lam!r}")):
            CompletionConfig(mode="fixed", lam=lam)
        CompletionConfig(mode="hybrid", lam=lam)  # lam is not read in hybrid mode

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, float("nan"), None, "0.1"])
    def test_bad_eps_truncate_rejected(self, eps):
        with pytest.raises(ValueError, match=re.escape(f"eps_truncate must be a real number in (0, 1), got {eps!r}")):
            CompletionConfig(eps_truncate=eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, float("nan"), None, "0.1", True])
    def test_bad_eps_tol_rejected(self, eps):
        with pytest.raises(ValueError, match=re.escape(f"eps_tol must be a real number in (0, 1), got {eps!r}")):
            CompletionConfig(eps_tol=eps)


def start_factors(dims, seed):
    """The unit factor columns complete() starts from at R0 = 1 with ``seed``."""
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal((n, 1)) for n in dims]
    return [x / np.linalg.norm(x) for x in cols]


class TestDegenerateInputs:
    """Accepted inputs that reach the branches no workload takes; each test
    checks that its branches ran."""

    @pytest.fixture
    def branches(self, monkeypatch):
        seen = Counter()
        init, expand, solve = hybrid_l1.fgk_init, hybrid_l1.fgk_expand, completion.solve_l1_hybrid
        mm, cholesky = completion.mm_update, np.linalg.cholesky

        def fgk_init(h, d):
            state = init(h, d)
            seen["fgk_init zero"] += state is None
            return state

        def fgk_expand(state, h, weights=None):
            expand(state, h, weights)
            # a u-side breakdown adds no column to U
            seen["u-side breakdown"] += state.breakdown and state.U.shape[1] == state.k
            return state

        def solve_l1_hybrid(h, d, cfg):
            sol, lams = solve(h, d, cfg)
            seen["solve zero"] += lams.size == 0 and not sol.any()
            return sol, lams

        def mm_update(mode, sweep):
            before = sweep.model
            after = mm(mode, sweep)
            seen["mm identity"] += after is before
            return after

        def cholesky_or_eigenvalue_factor(a, *args, **kwargs):
            # CPScalingOperator.coordinates, the only Cholesky caller, takes
            # the eigenvalue square root when the factorization fails
            try:
                return cholesky(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                seen["eigenvalue factor"] += 1
                raise

        monkeypatch.setattr(hybrid_l1, "fgk_init", fgk_init)
        monkeypatch.setattr(hybrid_l1, "fgk_expand", fgk_expand)
        monkeypatch.setattr(completion, "solve_l1_hybrid", solve_l1_hybrid)
        monkeypatch.setattr(completion, "mm_update", mm_update)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_or_eigenvalue_factor)
        return seen

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    def test_all_zero_data(self, mode, branches):
        t = np.zeros((6, 5, 4))
        cfg = CompletionConfig(R0=3, mode=mode, seed=0)
        model, s, trace = complete(t, make_random_mask(t.shape, 0.5, seed=0), cfg)
        assert len(trace) == 1 and model.R == 0 and not s.any()
        assert branches["mm identity"] == 3
        if mode == "hybrid":
            assert np.isnan(trace.lam[0])
            assert branches["eigenvalue factor"] == branches["fgk_init zero"] == branches["solve zero"] == 1
        else:
            assert trace.lam == [cfg.lam]

    @pytest.mark.parametrize(
        "t",
        [np.array([[[2.0]]]), reconstruct(CPModel(*start_factors((5, 4, 3), 0), [2.0]))],
        ids=["1x1x1", "rank-1-from-the-start"],
    )
    def test_exact_rank_one_fit_at_rank_one(self, t, branches):
        # The start is an exact fit, so [d Q^T] has rank 1: its Gram needs
        # the eigenvalue factor, and H p_1 lies in the span of u_1.
        cfg = CompletionConfig(R0=1, seed=0)
        model, _, trace = complete(t, Mask.full(t.shape), cfg)
        assert len(trace) == 1 and model.R == 1
        assert trace.residual[0] == pytest.approx(1e-10, rel=1e-3)
        assert branches["eigenvalue factor"] == branches["u-side breakdown"] == 1


# Modules that call the counted kernels, each through its own binding.
KERNEL_CALLERS = (tensor_ops, cp_model, factor_updates, completion, hybrid_l1)


def count_kernel_calls(monkeypatch, log=None):
    """Wrap the Gram and IJK-sized kernels wherever they are bound; return the counter.

    ``factor_gram`` is one R x R GEMM; ``mttkrp_partial`` and
    ``rank_one_sum`` are one IJK-sized GEMM each, and so is ``mttkrp`` in
    its Khatri-Rao mode (counted as ``mttkrp_gemm``); ``khatri_rao`` counts
    the Khatri-Rao products formed.  ``rmatvec`` counts the scaling
    operator's separate Q y, whose MTTKRP is counted as well.

    Given a list ``log``, each ``mttkrp_partial``, ``mttkrp_gemm``,
    ``khatri_rao`` and ``rmatvec`` call also appends (name, components) to
    it in call order, with components the column count of the factors it
    reads.  ``rank_one_sum`` multiplies by the Khatri-Rao product it forms,
    so that product's entry gives its width.
    """
    calls = Counter()
    log = [] if log is None else log

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "mttkrp":
                key = "mttkrp_gemm" if args[2] == tensor_ops.gemm_mode(args[0].shape) else None
            else:
                key = name
            if key is not None:
                calls[key] += 1
            if key == "mttkrp_partial":
                log.append((key, args[1][tensor_ops.gemm_mode(args[0].shape)].shape[1]))
            elif key == "mttkrp_gemm":  # the mode's own factor is not read
                log.append((key, args[1][(args[2] + 1) % 3].shape[1]))
            elif key == "khatri_rao":
                log.append((key, np.shape(args[0])[1]))
            elif key == "rmatvec":  # args[0] is the operator
                log.append((key, args[0].A.shape[1]))
            return fn(*args, **kwargs)

        return wrapper

    kernels = {
        "factor_gram": cp_model.factor_gram,
        "mttkrp_partial": tensor_ops.mttkrp_partial,
        "mttkrp": tensor_ops.mttkrp,
        "rank_one_sum": tensor_ops.rank_one_sum,
        "khatri_rao": tensor_ops.khatri_rao,
    }
    for name, fn in kernels.items():
        wrapper = counted(name, fn)
        for module in KERNEL_CALLERS:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    op = cp_model.CPScalingOperator
    monkeypatch.setattr(op, "rmatvec", counted("rmatvec", op.rmatvec))
    return calls


class TestKernelBudget:
    """Kernel calls per outer iteration of ``complete``, so a duplicate Gram or
    contraction cannot come back unnoticed.

    Per iteration the MM sweep forms 3 factor Grams, one Khatri-Rao GEMM and
    one shared partial; Q Q^T is read off the same Grams.  Both modes then
    read Q s off the sweep's mode-C MTTKRP, for the coordinate problem in
    hybrid mode and for the ISTA gradient Q Q^T alpha - Q s in fixed mode,
    and form one reconstruction from the new alpha, so the two modes run the
    same kernels.  ``rank_one_sum`` forms its own Khatri-Rao product, so
    none is shared.  The scaling operator's ``rmatvec`` runs once per run,
    for the least-squares start.
    """

    # (factor_gram, mttkrp_partial, mttkrp_gemm, rank_one_sum, khatri_rao, rmatvec), on either side
    BUDGET = (3, 1, 1, 1, 2, 0)

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    @pytest.mark.parametrize("dims", [(9, 6, 4), (4, 6, 9)], ids=["K<=I", "K>I"])
    def test_calls_per_outer_iteration(self, dims, mode, monkeypatch):
        t = synthetic_rank(11, dims, 2)
        mask = make_random_mask(dims, 0.7, seed=11)
        calls = count_kernel_calls(monkeypatch)
        runs = []
        for iters in (2, 3):
            calls.clear()
            cfg = CompletionConfig(R0=3, m_max=iters, eps_tol=1e-12, mode=mode, lam=0.05, seed=11)
            _, _, trace = complete(t, mask, cfg)
            assert len(trace) == iters
            runs.append(dict(calls))
            assert calls["rmatvec"] == 1  # the least-squares start's
        names = ("factor_gram", "mttkrp_partial", "mttkrp_gemm", "rank_one_sum", "khatri_rao", "rmatvec")
        per_iteration = tuple(runs[1].get(n, 0) - runs[0].get(n, 0) for n in names)
        assert per_iteration == self.BUDGET
        # IJK-sized contractions: 3 in either mode, on either side
        assert sum(per_iteration[1:4]) == 3

    @pytest.mark.parametrize("dims", [(9, 6, 4), (4, 6, 9)], ids=["K<=I", "K>I"])
    def test_fixed_mode_products_run_over_the_nonzero_components(self, dims, monkeypatch):
        # Between two ISTA steps come the MM sweep, over the first step's
        # nonzero components, and the second step's reconstruction from its
        # new alpha, over that alpha's nonzero components.  The sweep still
        # forms 3 Grams, each R0 x R0, and reads the active blocks off them.
        # Its mode-C MTTKRP is formed R0 wide, and so is the partial when
        # K <= I, whose rows mode B reads; the active sweep reads their
        # columns, and the step reads Q s off it, so no separate Q s runs.
        r0 = 6
        log, grams = [], []
        calls = count_kernel_calls(monkeypatch, log)
        ista = completion.ista_alpha_step

        def logged(*args, **kwargs):
            alpha = ista(*args, **kwargs)
            log.append(("ista", np.count_nonzero(alpha)))
            grams.append(calls["factor_gram"])
            return alpha

        monkeypatch.setattr(completion, "ista_alpha_step", logged)
        cfg = CompletionConfig(R0=r0, m_max=6, eps_tol=1e-12, mode="fixed", lam=5.0, seed=11)
        complete(synthetic_rank(11, dims, 2), make_random_mask(dims, 0.7, seed=11), cfg)
        steps = [i for i, (name, _) in enumerate(log) if name == "ista"]
        widths = [log[i][1] for i in steps]
        assert len(steps) == 6 and min(widths) < r0 - 1
        assert np.diff([3] + grams).tolist() == [3] * 6  # the start's 3, then 3 per sweep
        for start, stop, w, w_next in zip(steps, steps[1:], widths, widths[1:]):
            if dims[2] <= dims[0]:
                sweep = [("mttkrp_gemm", w), ("khatri_rao", w), ("mttkrp_partial", r0)]
            else:
                sweep = [("mttkrp_partial", w), ("mttkrp_gemm", r0), ("khatri_rao", r0)]
            assert log[start + 1 : stop] == sweep + [("khatri_rao", w_next)]
        assert calls["rmatvec"] == 1 and log.count(("rmatvec", r0)) == 1

    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    def test_initial_grams_formed_once(self, mode, monkeypatch):
        # The least-squares start reads the sweep's three Grams, so one outer
        # iteration forms 3 + 3 of them, not 3 + 3 + 3.
        dims = (9, 6, 4)
        calls = count_kernel_calls(monkeypatch)
        cfg = CompletionConfig(R0=3, m_max=1, mode=mode, lam=0.05, seed=11)
        complete(synthetic_rank(11, dims, 2), make_random_mask(dims, 0.7, seed=11), cfg)
        assert calls["factor_gram"] == 6


class TestMemory:
    """The driver keeps two IJK-sized tensors, its imputation and its
    reconstruction, for the whole run and allocates no other one per
    iteration.  On a 40^3 input at R0=6 the rest of the peak is about
    0.2 IJK (the Khatri-Rao products and the shared partial), so a third
    tensor would take it above the pin."""

    @pytest.mark.parametrize("m_max", [2, 10])
    @pytest.mark.parametrize("mode", ["hybrid", "fixed"])
    def test_traced_peak_stays_under_two_and_a_half_tensors(self, mode, m_max):
        t = synthetic_rank(3, (40, 40, 40), 3)
        mask = make_random_mask(t.shape, 0.5, seed=3)
        cfg = CompletionConfig(R0=6, m_max=m_max, eps_tol=1e-12, mode=mode, lam=0.05, seed=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, trace = complete(t, mask, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == m_max
        assert (peak - base) / t.nbytes <= 2.5


class TestModeComparison:
    def test_hybrid_beats_fixed_lambda_on_image_like_data(self):
        # deterministic synthetic image: smooth ramps plus blocks, 8-bit
        # quantized, with the baseline's fixed lambda = 35
        h, w = 24, 32
        yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
        img = np.stack(
            [
                0.5 + 0.4 * np.sin(3 * xx) * np.cos(2 * yy),
                0.3 + 0.5 * xx * yy,
                0.6 - 0.3 * np.cos(4 * xx * yy),
            ],
            axis=2,
        )
        img[6:12, 8:16, :] *= 0.4
        img = np.clip(np.floor(img * 255 + 0.5), 0, 255) / 255.0
        mask = make_random_mask(img.shape, 0.7, seed=0)
        errors = {}
        for mode, lam in (("hybrid", None), ("fixed", 35.0)):
            cfg = CompletionConfig(
                R0=10, m_max=120, eps_tol=1e-3, mode=mode,
                lam=lam if lam else 35.0, seed=0, hybrid=HybridConfig(omega=0.2),
            )
            _, s, _ = complete(img, mask, cfg)
            errors[mode] = relative_error(s, img)
        assert errors["hybrid"] < errors["fixed"]
