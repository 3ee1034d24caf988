import copy
import itertools
import math
import re

import numpy as np
import pytest

from cpcomplete import hybrid_l1
from cpcomplete.cp_model import CPModel, CPScalingOperator, factor_gram, reconstruct
from cpcomplete.hybrid_l1 import (
    HybridConfig,
    ProjectedProblem,
    fgk_expand,
    fgk_init,
    irn_weights,
    ista_alpha_step,
    projected_tikhonov,
    soft_threshold,
    solve_l1_hybrid,
    wgcv_select,
)
from oracles import build_q


def grams(m):
    return [factor_gram(x) for x in (m.A, m.B, m.C)]


def prox_grid_oracle(v, lam, zoom=4):
    # 1-D grid search minimizer of lam|x| + 0.5 (x - v)^2 with refinement.
    lo, hi = -abs(v) - lam - 1.0, abs(v) + lam + 1.0
    best = 0.0
    for _ in range(zoom):
        xs = np.linspace(lo, hi, 2001)
        vals = lam * np.abs(xs) + 0.5 * (xs - v) ** 2
        best = xs[int(np.argmin(vals))]
        half = (hi - lo) / 2000 * 2
        lo, hi = best - half, best + half
    return best


class TestSoftThreshold:
    def test_closed_form_example(self):
        out = soft_threshold(np.array([2.0, -0.5, 1.0]), 1.0)
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_lambda_zero_identity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(-3, 3)
            lam = rng.uniform(0, 2)
            prox = soft_threshold(np.array([v]), lam)[0]
            assert abs(prox - prox_grid_oracle(v, lam)) <= 1e-6

    def test_negative_lambda_rejected(self):
        for lam in (-1.0, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"lambda must be a real number in [0, inf], got {lam!r}")):
                soft_threshold(np.zeros(2), lam)


def cd_lasso(q, t, lam, sweeps=500):
    # Coordinate descent for 0.5 ||alpha Q - t||^2 + lam ||alpha||_1.
    r_count = q.shape[0]
    alpha = np.zeros(r_count)
    resid = t - alpha @ q
    for _ in range(sweeps):
        for r in range(r_count):
            qr = q[r]
            rho = qr @ (resid + alpha[r] * qr)
            denom = qr @ qr
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / denom
            resid += (alpha[r] - new) * qr
            alpha[r] = new
    return alpha


class TestIstaAlphaStep:
    def test_fixed_point_at_exact_fit(self):
        rng = np.random.default_rng(1)
        a = np.linalg.qr(rng.normal(size=(6, 3)))[0]
        b = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        c = np.linalg.qr(rng.normal(size=(8, 3)))[0]
        m = CPModel(a, b, c, rng.uniform(1, 2, 3))
        op = CPScalingOperator(m, grams(m))
        out = ista_alpha_step(m, op.rmatvec(reconstruct(m)), 0.0, op)
        assert np.allclose(out, m.alpha, atol=1e-12)

    def test_full_shrinkage_far_above_correlations(self):
        rng = np.random.default_rng(2)
        m = CPModel(
            *(x / np.linalg.norm(x, axis=0) for x in rng.normal(size=(3, 5, 2))),
            np.zeros(2),
        )
        op = CPScalingOperator(m, grams(m))
        out = ista_alpha_step(m, op.rmatvec(rng.normal(size=(5, 5, 5))), 1e9, op)
        assert not out.any()

    def test_zero_component_with_a_large_gradient_comes_back(self):
        # alpha_1 = 0 leaves component 1 out of the reconstruction, not out of
        # the gradient Q (alpha Q - t) or of eta
        rng = np.random.default_rng(5)
        mats = [x / np.linalg.norm(x, axis=0) for x in rng.normal(size=(3, 5, 3))]
        m = CPModel(*mats, np.array([1.0, 0.0, 2.0]))
        t = reconstruct(CPModel(*mats, np.array([1.0, 3.0, 2.0])))
        op = CPScalingOperator(m, grams(m))
        eta = np.linalg.eigvalsh(op.gram)[-1]
        grad = build_q(m) @ (reconstruct(m) - t).ravel()
        lam = 0.1
        assert abs(grad[1]) > lam  # outside the threshold lam / (s eta) of the step
        alpha = ista_alpha_step(m, op.rmatvec(t), lam, op)
        assert alpha[1] != 0.0
        assert np.isclose(alpha[1], -(grad[1] - lam * np.sign(grad[1])) / (1.05 * eta))

    def test_out_gives_the_same_bytes_and_the_new_reconstruction(self):
        rng = np.random.default_rng(4)
        mats = [x / np.linalg.norm(x, axis=0) for x in rng.normal(size=(3, 5, 4))]
        m = CPModel(*mats, rng.normal(size=4))
        t = rng.normal(size=(5, 5, 5))
        op = CPScalingOperator(m, grams(m))
        qt = op.rmatvec(t)
        qt_before, alpha_before = qt.copy(), m.alpha.copy()
        expected = ista_alpha_step(m, qt, 0.3, op)
        out = np.full_like(t, np.nan)
        assert np.array_equal(ista_alpha_step(m, qt, 0.3, op, out), expected)
        assert np.array_equal(out, reconstruct(CPModel(*mats, expected)))
        assert np.array_equal(qt, qt_before)
        assert np.array_equal(m.alpha, alpha_before)
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array of shape"):
            ista_alpha_step(m, qt, 0.3, op, out=np.empty((5, 5, 4)))

    @pytest.mark.parametrize("lam", [0.0, 0.4])
    @pytest.mark.parametrize("alpha_kind", ["dense", "partly zero"])
    @pytest.mark.parametrize("dims", [(7, 6, 5), (5, 6, 7)], ids=["K<=I", "K>I"])
    def test_matches_the_dense_oracle_step(self, dims, alpha_kind, lam):
        # alpha - s Q (Q^T alpha - t), thresholded at lambda s, with Q formed
        # densely and s = 1 / (STEP_SAFETY eta), eta = lambda_max(Q Q^T).
        rng = np.random.default_rng(len(alpha_kind) + 10 * int(lam > 0) + dims[0])
        mats = [x / np.linalg.norm(x, axis=0) for x in (rng.normal(size=(d, 4)) for d in dims)]
        t = reconstruct(CPModel(*mats, rng.uniform(1.0, 3.0, 4))) + 0.1 * rng.normal(size=dims)
        alpha = rng.normal(size=4)
        if alpha_kind == "partly zero":
            alpha[[1, 3]] = 0.0
        m = CPModel(*mats, alpha)
        q = build_q(m)
        grad = q @ (alpha @ q - t.ravel())
        step = 1.0 / (hybrid_l1.STEP_SAFETY * np.linalg.eigvalsh(q @ q.T)[-1])
        expected = soft_threshold(alpha - step * grad, lam * step)

        out = np.empty(dims)
        op = CPScalingOperator(m, grams(m))
        new = ista_alpha_step(m, op.rmatvec(t), lam, op, out)
        assert np.linalg.norm(new - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(new == 0.0, expected == 0.0)
        assert np.array_equal(out, reconstruct(CPModel(*mats, new)))
        assert np.array_equal(m.alpha, alpha)
        # a zero component whose gradient exceeds lambda comes back
        back = (alpha == 0.0) & (np.abs(grad) > lam)
        assert back.sum() == (2 if alpha_kind == "partly zero" else 0)
        assert new[back].all()

    def test_matches_coordinate_descent_objective(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(5, 4)) for _ in range(3)]
        mats = [x / np.linalg.norm(x, axis=0) for x in mats]
        m = CPModel(*mats, rng.normal(size=4))
        t_tensor = rng.normal(size=(5, 5, 5))
        lam = 0.5
        work = copy.deepcopy(m)
        op = CPScalingOperator(work, grams(work))
        qt = op.rmatvec(t_tensor)
        for _ in range(500):
            work.alpha = ista_alpha_step(work, qt, lam, op)
        q = build_q(work)
        t = t_tensor.ravel()
        oracle_alpha = cd_lasso(q, t, lam)

        def obj(alpha):
            return 0.5 * np.linalg.norm(alpha @ q - t) ** 2 + lam * np.abs(alpha).sum()

        assert obj(work.alpha) <= obj(oracle_alpha) * (1 + 1e-6)


class TestIRNWeights:
    def test_case_split(self):
        w = irn_weights(np.array([4.0, 0.0]))
        assert np.isclose(w[0], 0.5)
        assert np.isclose(w[1], 1e7)

    def test_l1_surrogate_identity(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(0.5, 2.0, 20) * rng.choice([-1.0, 1.0], 20)
        w = irn_weights(s)
        assert np.isclose(np.linalg.norm(w * s) ** 2, np.abs(s).sum(), rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=30)
        s[:3] = [0.0, 5e-11, -1e-12]
        tau1, tau2 = 1e-10, 1e-14
        w = irn_weights(s)
        for i, si in enumerate(s):
            f = abs(si) if abs(si) >= tau1 else tau2
            assert np.isclose(w[i], 1.0 / np.sqrt(f), rtol=1e-14)


def gk_bidiag_oracle(h, d, steps):
    # Textbook Golub-Kahan bidiagonalization with reorthogonalization.
    beta = np.linalg.norm(d)
    u = d / beta
    us = [u]
    z = h.T @ u
    alpha = np.linalg.norm(z)
    v = z / alpha
    vs = [v]
    alphas, betas = [alpha], []
    for _ in range(steps):
        w = h @ v - alpha * u
        for uu in us:
            w -= (uu @ w) * uu
        beta_k = np.linalg.norm(w)
        if beta_k == 0:
            break
        u = w / beta_k
        us.append(u)
        betas.append(beta_k)
        z = h.T @ u - beta_k * v
        for vv in vs:
            z -= (vv @ z) * vv
        alpha = np.linalg.norm(z)
        if alpha == 0:
            break
        v = z / alpha
        vs.append(v)
        alphas.append(alpha)
    return np.array(alphas), np.array(betas)


def projected(state):
    return ProjectedProblem(state.M, state.beta1)


class TestFGK:
    def test_bootstrap_vectors(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(12, 7))
        d = rng.normal(size=12)
        state = fgk_init(h, d)
        assert np.allclose(state.U[:, 0], d / np.linalg.norm(d))
        z = h.T @ state.U[:, 0]
        assert np.allclose(state.V[:, 0], z / np.linalg.norm(z))
        assert np.isclose(state.beta1, np.linalg.norm(d))

    def test_identity_breakdown_after_exact_solve(self):
        h = np.eye(4)
        d = np.zeros(4)
        d[0] = 1.0
        state = fgk_init(h, d)
        fgk_expand(state, h, None)
        assert state.breakdown
        assert state.k == 1
        q, *_ = np.linalg.lstsq(state.M, state.beta1 * np.eye(state.k + 1)[0], rcond=None)
        assert np.allclose(state.P @ q, d, atol=1e-14)
        with pytest.raises(ValueError, match="broken-down"):
            fgk_expand(state, h, None)

    @pytest.mark.parametrize(
        "h, d, message",
        [
            (np.ones(3), np.ones(3), "two-dimensional"),
            ([[1.0, 2.0]], [1.0], "two-dimensional"),
            (np.ones((3, 2)), np.ones(4), "data length 4 does not match operator rows 3"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), "must be finite"),
            (np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2), "must be finite"),
            (np.eye(2), np.array([1.0, np.nan]), "must be finite"),
            (np.eye(2), np.array([np.inf, 0.0]), "must be finite"),
        ],
        ids=["1-D", "list", "length", "nan-operator", "inf-operator", "nan-data", "inf-data"],
    )
    def test_bad_operator_or_data_rejected(self, h, d, message):
        with pytest.raises(ValueError, match=message):
            fgk_init(h, d)

    def test_invariants_with_random_preconditioners(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            m, n = rng.integers(15, 40), rng.integers(8, 14)
            h = rng.normal(size=(m, n))
            d = rng.normal(size=m)
            state = fgk_init(h, d)
            hnorm = np.linalg.norm(h)
            for _ in range(6):
                w = irn_weights(rng.uniform(0.2, 3.0, n))
                fgk_expand(state, h, w)
                ucols, vcols = state.U.shape[1], state.V.shape[1]
                assert np.abs(state.U.T @ state.U - np.eye(ucols)).max() <= 1e-10
                assert np.abs(state.V.T @ state.V - np.eye(vcols)).max() <= 1e-10
                rel1 = np.linalg.norm(h @ state.P - state.U @ state.M)
                assert rel1 <= 1e-10 * hnorm * max(np.linalg.norm(state.P), 1.0)
                rel2 = np.linalg.norm(h.T @ state.U - state.V @ state.Tt)
                assert rel2 <= 1e-10 * hnorm
                below = np.tril(state.M, -2)
                assert np.abs(below).max() == 0.0
                assert np.abs(np.tril(state.Tt, -1)).max() == 0.0

    def test_identity_weights_reduce_to_golub_kahan(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(30, 20))
        d = rng.normal(size=30)
        state = fgk_init(h, d)
        steps = 5
        for _ in range(steps):
            fgk_expand(state, h, None)
        alphas, betas = gk_bidiag_oracle(h, d, steps)
        m = state.M
        expected = np.zeros_like(m)
        for j in range(m.shape[1]):
            expected[j, j] = alphas[j]
            expected[j + 1, j] = betas[j]
        assert np.abs(m - expected).max() <= 1e-10


class TestProjectedTikhonov:
    def test_diagonal_shrinkage(self):
        state = fgk_init(np.eye(3), np.array([2.0, 0.0, 0.0]))
        fgk_expand(state, np.eye(3), None)
        q = projected_tikhonov(projected(state), 1.0)
        assert np.allclose(q, [1.0])  # 2 / (1 + 1)

    def test_negative_lambda_rejected(self):
        state = fgk_init(np.eye(3), np.array([2.0, 0.0, 0.0]))
        fgk_expand(state, np.eye(3), None)
        with pytest.raises(ValueError, match=re.escape("lambda must be a real number in (0, inf], got -1.0")):
            projected_tikhonov(projected(state), -1.0)

    @pytest.mark.parametrize("lam", [0.0, -0.0, float("nan")])
    def test_lambda_not_positive_rejected(self, lam):
        # Every lambda solve_l1_hybrid passes is positive: a WGCV grid point
        # or a point within half a grid step of one.
        state = fgk_init(np.eye(3), np.array([2.0, 0.0, 0.0]))
        fgk_expand(state, np.eye(3), None)
        with pytest.raises(ValueError, match=re.escape(f"lambda must be a real number in (0, inf], got {lam!r}")):
            projected_tikhonov(projected(state), lam)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = rng.integers(2, 9)
            m_mat = rng.normal(size=(k + 1, k))
            lam = 10.0 ** rng.uniform(-8, 2)
            beta1 = rng.uniform(0.5, 3.0)
            b = np.zeros(k + 1)
            b[0] = beta1
            q = projected_tikhonov(ProjectedProblem(m_mat, beta1), lam)
            oracle = np.linalg.solve(m_mat.T @ m_mat + lam * np.eye(k), m_mat.T @ b)
            assert np.linalg.norm(q - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)


def wgcv_dense_oracle(m_mat, beta1, omega, grid):
    b = np.zeros(m_mat.shape[0])
    b[0] = beta1
    k = m_mat.shape[1]
    best_val, best_lam = np.inf, None
    for lam in grid:
        phi = np.linalg.solve(m_mat.T @ m_mat + lam * np.eye(k), m_mat.T)
        resid = b - m_mat @ (phi @ b)
        tr = m_mat.shape[0] - omega * np.trace(m_mat @ phi)
        val = k * (resid @ resid) / tr**2
        if val < best_val:
            best_val, best_lam = val, lam
    return best_lam


class TestWGCV:
    def test_matches_dense_grid_oracle(self):
        m_mat = np.zeros((3, 2))
        m_mat[0, 0] = 1.0
        m_mat[1, 1] = 0.1
        beta1 = 1.3
        problem = ProjectedProblem(m_mat, beta1)
        lam = wgcv_select(problem, 1.0)
        grid = m_mat[0, 0] * np.logspace(-10, 0, 2000)
        oracle = wgcv_dense_oracle(m_mat, beta1, 1.0, grid)
        assert abs(np.log10(lam) - np.log10(oracle)) <= 0.05

    def test_noiseless_consistent_selects_tiny_lambda(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(40, 8))
        x = rng.normal(size=8)
        d = h @ x
        state = fgk_init(h, d)
        for _ in range(8):
            fgk_expand(state, h, None)
        lam = wgcv_select(projected(state), 1.0)
        smax = np.linalg.svd(state.M, compute_uv=False)[0]
        assert lam <= 1e-6 * smax

    def test_hand_svd_evaluation(self):
        # 2x1 operator with known singular value sigma = 5
        m_mat = np.array([[3.0], [4.0]])
        beta1 = 2.0
        problem = ProjectedProblem(m_mat, beta1)
        lam = 0.7
        omega = 0.9
        # by hand through the SVD: c = U^T b = 3/5 * 2, rho2 = (4/5*2)^2
        f = 25.0 / (25.0 + lam)
        num = 1 * ((1 - f) ** 2 * (1.2) ** 2 + 1.6**2)
        den = (2 - omega * f) ** 2
        from cpcomplete.hybrid_l1 import _wgcv_curve

        val = _wgcv_curve(problem, omega, np.array([lam]))[0]
        assert np.isclose(val, num / den, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_selection_matches_fine_grid_minimum(self, seed):
        # The value at the chosen lambda is within 1e-6 relative of the best
        # of 20,001 log-spaced lambdas over the same range; seed 0 is the
        # hand-built 3x2 problem, the rest random upper Hessenberg ones.
        from cpcomplete.hybrid_l1 import _wgcv_curve

        rng = np.random.default_rng(seed)
        if seed == 0:
            m_mat = np.zeros((3, 2))
            m_mat[0, 0] = 1.0
            m_mat[1, 1] = 0.1
            beta1, omega = 1.3, 1.0
        else:
            k = int(rng.integers(1, 13))
            m_mat = np.triu(rng.normal(size=(k + 1, k)), -1) * 10.0 ** rng.uniform(-3, 3, size=k)
            beta1, omega = rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.0)
        problem = ProjectedProblem(m_mat, beta1)
        lam = wgcv_select(problem, omega)
        smax = np.linalg.svd(m_mat, compute_uv=False)[0]
        dense = _wgcv_curve(problem, omega, smax * np.logspace(-10, 0, 20001))
        val = _wgcv_curve(problem, omega, np.array([lam]))[0]
        assert val <= dense.min() * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "omega, steps, message",
        [
            (0.0, 1, re.escape("omega must be a real number in (0, 1], got 0.0")),
            (1.5, 1, re.escape("omega must be a real number in (0, 1], got 1.5")),
            (float("nan"), 1, re.escape("omega must be a real number in (0, 1], got nan")),
            (1.0, 0, "at least one expansion"),
        ],
        ids=["omega-zero", "omega-above-one", "omega-nan", "no-step"],
    )
    def test_bad_omega_or_step_count_rejected(self, omega, steps, message):
        h = np.eye(3)
        state = fgk_init(h, np.array([2.0, 1.0, 0.0]))
        for _ in range(steps):
            fgk_expand(state, h, None)
        problem = projected(state)
        with pytest.raises(ValueError, match=message):
            wgcv_select(problem, omega)

    def test_zero_matrix_raises(self):
        # sigma_max(M) = 0 puts the whole grid at 0, where the curve is 0/0.
        problem = ProjectedProblem(np.zeros((3, 2)), 1.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite anywhere"):
            wgcv_select(problem, 1.0)

    def test_non_finite_curve_raises(self):
        # sigma_max(M) is finite and positive, but a NaN beta1 makes the WGCV
        # numerator NaN at every lambda.
        m_mat = np.zeros((3, 2))
        m_mat[0, 0], m_mat[1, 1] = 1.0, 0.5
        problem = ProjectedProblem(m_mat, np.nan)
        with pytest.raises(ValueError, match="not finite anywhere"):
            wgcv_select(problem, 1.0)


def small_problem():
    state = fgk_init(np.eye(3), np.array([2.0, 1.0, 0.0]))
    fgk_expand(state, np.eye(3), None)
    return projected(state)


# Each real setting of the inner-solve kernels: a call that passes it, its
# name and the interval its check states.
REAL_SETTINGS = {
    "soft_threshold": (lambda lam: soft_threshold(np.array([0.5, -2.0]), lam), "lambda", "[0, inf]"),
    "projected_tikhonov": (lambda lam: projected_tikhonov(small_problem(), lam), "lambda", "(0, inf]"),
    "wgcv_select": (lambda omega: wgcv_select(small_problem(), omega), "omega", "(0, 1]"),
}


class TestRealSettings:
    @pytest.mark.parametrize(
        "kernel, value",
        [
            *((kernel, value) for kernel in REAL_SETTINGS for value in (True, "0.5")),
            ("soft_threshold", -5e-324), ("soft_threshold", -math.inf), ("projected_tikhonov", -math.inf),
            ("wgcv_select", 1.0 + 2.0**-52), ("wgcv_select", math.inf),
        ],
    )
    def test_bool_string_or_outside_the_interval_rejected(self, kernel, value):
        call, name, interval = REAL_SETTINGS[kernel]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number in {interval}, got {value!r}")):
            call(value)

    @pytest.mark.parametrize(
        "kernel, value",
        [
            ("soft_threshold", 0.0), ("soft_threshold", -0.0), ("soft_threshold", math.inf),
            ("projected_tikhonov", 5e-324), ("projected_tikhonov", math.inf),
            ("wgcv_select", 5e-324), ("wgcv_select", 1.0),
        ],
    )
    def test_interval_ends_accepted(self, kernel, value):
        out = REAL_SETTINGS[kernel][0](value)
        assert np.all(np.isfinite(out))

    def test_infinite_lambda_gives_zero(self):
        assert not soft_threshold(np.array([0.5, -2.0]), math.inf).any()
        assert not projected_tikhonov(small_problem(), math.inf).any()


def wgcv_row_layout_oracle(m_mat, beta1, omega):
    # The WGCV search with a (lambda x k) filter array: the 200-point grid,
    # then the vertex of the parabola through the grid minimum and its two
    # neighbours in log10 lambda.  Returns (grid index, lambda), and raises
    # ValueError when the curve is not finite on the grid.
    k = m_mat.shape[1]
    u, s, _ = np.linalg.svd(m_mat, full_matrices=False)
    c = beta1 * u[0]
    rho2 = max(beta1**2 - float(c @ c), 0.0)

    def curve(lams):
        filt = s**2 / (s**2 + lams[:, None])
        vals = k * (((1.0 - filt) ** 2) @ c**2 + rho2) / (k + 1 - omega * filt.sum(axis=1)) ** 2
        return np.where(np.isfinite(vals), vals, np.inf)

    grid = float(s[0]) * np.logspace(-10.0, 0.0, 200)
    vals = curve(grid)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise ValueError("the WGCV curve is not finite anywhere on its grid")
    if best in (0, 199) or np.isinf(vals[best - 1]) or np.isinf(vals[best + 1]):
        return best, float(grid[best])
    v0, v1, v2 = vals[best - 1 : best + 2]
    delta = (v0 - v2) / (2.0 * (v0 - 2.0 * v1 + v2))
    return best, float(grid[best] * 10.0 ** (10.0 / 199 * delta))


def hessenberg_problems():
    # 240 random upper Hessenberg problems, k = 1..60 four times over,
    # columns scaled over 14 decades so that for k >= 2 the singular values
    # spread over at least 12, beta1 over 6 decades, omega in (0, 1].
    for seed in range(240):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 60
        scales = 10.0 ** rng.uniform(-7.0, 7.0, size=k)
        if k >= 2:
            scales[rng.choice(k, 2, replace=False)] = (1e-7, 1e7)
        m_mat = np.triu(rng.normal(size=(k + 1, k)), -1) * scales
        if k >= 2:
            s = np.linalg.svd(m_mat, compute_uv=False)
            assert s[0] >= 1e12 * s[-1], seed
        beta1 = 10.0 ** rng.uniform(-3.0, 3.0)
        omega = 1.0 if seed % 8 == 0 else 1.0 - rng.uniform()
        yield seed, ProjectedProblem(m_mat, beta1), m_mat, beta1, omega


def grid_curve(problem, omega):
    """The grid and the curve values that wgcv_select searches."""
    grid = float(problem.s[0]) * hybrid_l1._UNIT_GRID
    return grid, hybrid_l1._wgcv_curve(problem, omega, grid)


class TestWGCVExactOracle:
    def test_same_lambda_as_row_layout_search(self):
        # Same grid point bit for bit, and lambda within 1e-9 relative: the
        # vertex reads three curve values, which the two layouts round apart.
        mismatches = []
        for seed, problem, m_mat, beta1, omega in hessenberg_problems():
            lam = wgcv_select(problem, omega)
            best, oracle = wgcv_row_layout_oracle(m_mat, beta1, omega)
            if int(grid_curve(problem, omega)[1].argmin()) != best or abs(lam - oracle) > 1e-9 * oracle:
                mismatches.append(seed)
        assert mismatches == []

    def test_vertex_lies_toward_the_lower_neighbour_within_half_a_step(self):
        half = 0.5 * hybrid_l1._GRID_STEP
        interior = 0
        for seed, problem, *_, omega in hessenberg_problems():
            lam = wgcv_select(problem, omega)
            grid, vals = grid_curve(problem, omega)
            best = int(vals.argmin())
            if best in (0, grid.size - 1):
                assert lam == grid[best], seed
                continue
            interior += 1
            shift = np.log10(lam / grid[best])
            assert abs(shift) <= half * (1.0 + 1e-12), seed
            if vals[best - 1] < vals[best + 1]:
                assert shift <= 0.0, seed
            elif vals[best + 1] < vals[best - 1]:
                assert shift >= 0.0, seed
            else:
                assert lam == grid[best], seed
        # 57 interior minima; 167 sit at the first grid point and 16 at the last
        assert interior >= 50

    def test_grid_end_or_infinite_neighbour_returns_the_grid_point(self):
        # The grid minimum sits at an end on 183 of the problems.  On each
        # interior one, beta1 is scaled so that the numerator overflows to
        # +inf at the next grid point but not at the minimum, where
        # beta1^2 stays finite; the grid depends on M only.
        big = float(np.finfo(float).max)
        ends = infinite = 0
        for seed, problem, m_mat, beta1, omega in hessenberg_problems():
            grid, vals = grid_curve(problem, omega)
            best = int(vals.argmin())
            if best in (0, grid.size - 1):
                ends += 1
                assert wgcv_select(problem, omega) == grid[best], seed
                continue
            s2 = problem.s2[:, None]
            filt = s2 / (s2 + grid[best : best + 2])
            num_at, num_next = (problem.k * (problem.c2 @ (1.0 - filt) ** 2 + problem.rho2)).tolist()
            scale = big / math.sqrt(num_at * num_next)
            if not float(beta1) ** 2 * scale < big:
                continue
            scaled = ProjectedProblem(m_mat, beta1 * math.sqrt(scale))
            with np.errstate(over="ignore"):
                scaled_vals = hybrid_l1._wgcv_curve(scaled, omega, grid)
                lam = wgcv_select(scaled, omega)
            assert int(scaled_vals.argmin()) == best and np.isinf(scaled_vals[best + 1]), seed
            assert lam == grid[best], seed
            infinite += 1
        assert ends >= 150 and infinite >= 10

    def test_within_a_step_of_a_brute_force_minimizer(self):
        # 20,001 log-spaced lambdas over the bracket of the grid minimum, or
        # over its one-step half at a grid end.
        step = hybrid_l1._GRID_STEP
        for seed, problem, *_, omega in hessenberg_problems():
            lam = wgcv_select(problem, omega)
            grid, vals = grid_curve(problem, omega)
            best = int(vals.argmin())
            lo = -step if best > 0 else 0.0
            hi = step if best < grid.size - 1 else 0.0
            fine = grid[best] * np.logspace(lo, hi, 20001)
            brute = fine[int(hybrid_l1._wgcv_curve(problem, omega, fine).argmin())]
            assert abs(np.log10(lam / brute)) <= step, seed
            val = hybrid_l1._wgcv_curve(problem, omega, np.array([lam]))[0]
            assert val <= vals[best] * (1.0 + 1e-6), seed

    @pytest.mark.parametrize(
        "m_mat, beta1",
        [
            (np.zeros((3, 2)), 1.0),
            (np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]), np.nan),
            (np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]), np.inf),
        ],
        ids=["zero-matrix", "nan-beta1", "inf-beta1"],
    )
    def test_non_finite_raises(self, m_mat, beta1):
        # inf * 0 in c = beta1 * u[0], and 0 / 0 on the zero matrix's grid
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="not finite anywhere"):
                wgcv_row_layout_oracle(m_mat, beta1, 1.0)
            with pytest.raises(ValueError, match="not finite anywhere"):
                wgcv_select(ProjectedProblem(m_mat, beta1), 1.0)


def svd_oracle(m_mat, beta1):
    # The projected problem from the SVD of M, with rho2 = beta1^2 - ||c||^2.
    problem = object.__new__(ProjectedProblem)
    problem.k = m_mat.shape[1]
    w, problem.s, problem.vt = np.linalg.svd(m_mat, full_matrices=False)
    problem.c = beta1 * w[0]
    problem.s2 = problem.s * problem.s
    problem.c2 = problem.c * problem.c
    problem.rho2 = max(beta1**2 - float(problem.c @ problem.c), 0.0)
    return problem


def fgk_problems():
    # 240 projected problems as the solver builds them: k = 1..60 four times
    # over, flexible Golub-Kahan on a random (k+15) x (k+5) H with IRN
    # weights spread over 0-4 decades, which scale M's columns, and beta1
    # over 6 decades.  On these sigma_min^2 / sigma_max^2 >= 1.0e-7 and
    # rho2 / beta1^2 >= 0.026, like the solver's own problems.
    for seed in range(240):
        rng = np.random.default_rng(seed)
        k, decades = 1 + seed % 60, seed % 5
        n = k + 5
        h = rng.normal(size=(n + 10, n))
        state = fgk_init(h, rng.normal(size=n + 10) * 10.0 ** rng.uniform(-3.0, 3.0))
        for _ in range(k):
            fgk_expand(state, h, 10.0 ** rng.uniform(0.0, decades, n) if decades else None)
        omega = 1.0 if seed % 8 == 0 else 1.0 - rng.uniform()
        yield seed, state.M.copy(), state.beta1, omega


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes np.linalg.svd is called with, in order."""
    calls, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or real_svd(a, **kw))
    return calls


class TestProjectedProblemPaths:
    def test_gram_path_agrees_with_the_svd(self, svd_calls):
        # Measured worst cases over this set: s^2 3.3e-11 relative,
        # c^2 and rho2 1.5e-11 relative to beta1^2, q 1.4e-10 relative and
        # lambda 3.4e-10 relative; the tolerances leave about 30x.
        for seed, m_mat, beta1, omega in fgk_problems():
            problem = ProjectedProblem(m_mat, beta1)
            assert svd_calls == [], seed
            oracle = svd_oracle(m_mat, beta1)
            svd_calls.clear()
            assert grid_curve(problem, omega)[1].argmin() == grid_curve(oracle, omega)[1].argmin(), seed
            lam = wgcv_select(oracle, omega)
            assert wgcv_select(problem, omega) == pytest.approx(lam, rel=1e-8), seed
            assert problem.s2 == pytest.approx(oracle.s2, rel=1e-9), seed
            assert np.abs(problem.c2 - oracle.c2).max() <= 1e-9 * beta1**2, seed
            assert abs(problem.rho2 - oracle.rho2) <= 1e-9 * beta1**2, seed
            q, ref = projected_tikhonov(problem, lam), projected_tikhonov(oracle, lam)
            assert np.linalg.norm(q - ref) <= 1e-8 * np.linalg.norm(ref), seed

    @pytest.mark.parametrize("kind", ["hessenberg", "zero", "rank-deficient", "gram-overflows"])
    def test_ill_conditioned_m_takes_the_svd_bit_for_bit(self, kind, svd_calls):
        if kind == "hessenberg":
            # k = 1 has one singular value, so only k >= 2 is ill-conditioned
            cases = [(m_mat, beta1) for _, problem, m_mat, beta1, _ in hessenberg_problems() if problem.k >= 2]
        elif kind == "zero":
            cases = [(np.zeros((k + 1, k)), 1.5) for k in (1, 2, 7)]
        elif kind == "rank-deficient":
            rng = np.random.default_rng(3)
            cases = []
            for k in (2, 5, 12):
                m_mat = np.triu(rng.normal(size=(k + 1, k)), -1)
                m_mat[:, -1] = m_mat[:, :-1] @ rng.normal(size=k - 1)
                cases.append((m_mat, 0.7))
        else:
            # M is finite but its Gram is not, and s^2 overflows as before
            cases = [(1e160 * m_mat, beta1) for _, m_mat, beta1, _ in itertools.islice(fgk_problems(), 20)]
        start = len(svd_calls)  # hessenberg_problems() takes SVDs of its own
        for i, (m_mat, beta1) in enumerate(cases):
            with np.errstate(over="ignore", invalid="ignore"):
                problem = ProjectedProblem(m_mat, beta1)
                oracle = svd_oracle(m_mat, beta1)
            assert svd_calls[-2:] == [m_mat.shape] * 2, i  # the problem's, then the oracle's
            for name in ("s", "s2", "c", "c2", "vt"):
                assert np.array_equal(getattr(problem, name), getattr(oracle, name)), (i, name)
            assert problem.rho2 == oracle.rho2, i
        assert len(svd_calls) - start == 2 * len(cases)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_scaling_m_selects_the_same_path(self, scale, svd_calls):
        cases = [(m_mat, beta1) for _, m_mat, beta1, _ in fgk_problems()]
        cases += [(m_mat, beta1) for _, _, m_mat, beta1, _ in hessenberg_problems()]
        fallbacks = 0
        for i, (m_mat, beta1) in enumerate(cases):
            before = len(svd_calls)
            ProjectedProblem(m_mat, beta1)
            fallback = len(svd_calls) - before
            ProjectedProblem(scale * m_mat, beta1)
            assert len(svd_calls) - before == 2 * fallback, i
            fallbacks += fallback
        # every FGK problem takes the Gram, every k >= 2 Hessenberg one the SVD
        assert fallbacks == 236

    def test_null_vector_rho2_is_as_accurate_as_the_difference(self):
        # FGK run to the breakdown at n steps on d = H x + noise, so rho2 is
        # the least-squares residual, 1e-9 to 1e-19 of beta1^2.  mpmath at 60
        # digits gives the reference; beta1^2 - ||c||^2 loses all its digits
        # on the last problems, the null vector keeps about 12.
        mpmath = pytest.importorskip("mpmath")
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = 4 + seed
            h = rng.normal(size=(n + 6, n))
            d = h @ rng.normal(size=n) + 10.0 ** (-4 - seed) * rng.normal(size=n + 6)
            state = fgk_init(h, d)
            for _ in range(n):
                fgk_expand(state, h, 10.0 ** rng.uniform(0.0, 2.0, n))
            m_mat, beta1 = state.M, state.beta1
            with mpmath.workdps(60):
                a = mpmath.matrix(m_mat.tolist())
                b = mpmath.matrix([beta1] + [0.0] * n)
                r = a * mpmath.lu_solve(a.T * a, a.T * b) - b
                ref = float(sum(x * x for x in r))
            assert ref < 1e-8 * beta1**2, seed
            gram_err = abs(ProjectedProblem(m_mat, beta1).rho2 - ref) / ref
            svd_err = abs(svd_oracle(m_mat, beta1).rho2 - ref) / ref
            assert gram_err <= min(svd_err, 1e-10), seed


class TestSolveHybrid:
    def test_identity_recovers_sparse_nonnegative(self):
        rng = np.random.default_rng(12)
        n = 40
        d = np.zeros(n)
        d[rng.choice(n, 5, replace=False)] = rng.uniform(1.0, 2.0, 5)
        sol, lams = solve_l1_hybrid(np.eye(n), d, HybridConfig(k_max=n))
        assert np.linalg.norm(sol - d) <= 1e-4 * np.linalg.norm(d)
        assert len(lams) >= 1

    def test_zero_data(self):
        sol, lams = solve_l1_hybrid(np.eye(5), np.zeros(5), HybridConfig())
        assert not sol.any()
        assert lams.size == 0

    def test_data_orthogonal_to_range(self):
        # d != 0 but H^T d = 0: fgk_init has nothing to expand.
        h = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        d = np.array([0.0, 4.0, 0.0])
        assert fgk_init(h, d) is None
        sol, lams = solve_l1_hybrid(h, d, HybridConfig())
        assert sol.tolist() == [0.0, 0.0]
        assert lams.size == 0

    @pytest.mark.parametrize(
        "settings, named",
        [
            ({"k_max": 0}, "k_max"),
            ({"k_max": -3}, "k_max"),
            ({"k_max": 2.5}, "k_max"),
            ({"k_max": True}, "k_max"),
            ({"omega": "adpt"}, "omega"),
            ({"omega": "adapt"}, "omega"),
            ({"omega": 0.0}, "omega"),
            ({"omega": 1.5}, "omega"),
            ({"omega": float("nan")}, "omega"),
            ({"omega": None}, "omega"),
            ({"omega": True}, "omega"),
        ],
        ids=["k_max-zero", "k_max-negative", "k_max-fraction", "k_max-bool", "omega-typo", "omega-adapt", "omega-zero", "omega-above-one",
             "omega-nan", "omega-none", "omega-bool"],
    )
    def test_bad_settings_rejected(self, settings, named):
        with pytest.raises(ValueError, match=f"{named} must be .*got {next(iter(settings.values()))!r}"):
            HybridConfig(**settings)

    @pytest.mark.parametrize("omega", [0.5])
    @pytest.mark.parametrize("k_max, stop", [(20, "breakdown"), (4, "k_max")])
    def test_one_projected_factorization_per_expansion(self, monkeypatch, omega, k_max, stop):
        # A 12 x 7 H breaks down at its 7th step; k_max=4 stops the run first.
        # Each step factors its projected problem once: eigh of the
        # (k+1) x (k+1) Gram, which resolves this well-conditioned M, so the
        # SVD fallback never runs.
        rng = np.random.default_rng(16)
        h = rng.normal(size=(12, 7))
        d = rng.normal(size=12)
        expansions, factorizations = [], []
        real_expand, real_eigh, real_svd = hybrid_l1.fgk_expand, np.linalg.eigh, np.linalg.svd

        def expand(state, h, weights=None):
            state = real_expand(state, h, weights)
            expansions.append(state.breakdown)
            return state

        def eigh(*args, **kwargs):
            factorizations.append(("eigh", args[0].shape))
            return real_eigh(*args, **kwargs)

        def svd(*args, **kwargs):
            factorizations.append(("svd", args[0].shape))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(hybrid_l1, "fgk_expand", expand)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "svd", svd)
        _, lams = solve_l1_hybrid(h, d, HybridConfig(k_max=k_max, omega=omega))
        steps = 7 if stop == "breakdown" else k_max
        assert expansions == [False] * (steps - 1) + [stop == "breakdown"]
        assert factorizations == [("eigh", (k + 1, k + 1)) for k in range(1, steps + 1)]
        assert lams.size == steps
        assert (lams > 0.0).all()  # through the breakdown too

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_lambda_history_positive_at_any_scale(self, scale):
        # projected_tikhonov rejects lambda <= 0, so every lambda the solver
        # picks must stay positive, far from 1 in either direction too.
        rng = np.random.default_rng(17)
        h = scale * rng.normal(size=(30, 12))
        d = scale * rng.normal(size=30)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _, lams = solve_l1_hybrid(h, d, HybridConfig(k_max=12))
        assert lams.size == 12
        assert (lams > 0.0).all()

    def test_sparse_recovery_with_noise(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(200, 100))
        s_true = np.zeros(100)
        support = rng.choice(100, 10, replace=False)
        s_true[support] = rng.uniform(1, 2, 10) * rng.choice([-1.0, 1.0], 10)
        d = h @ s_true
        noise = rng.normal(size=200)
        d = d + 0.01 * np.linalg.norm(d) * noise / np.linalg.norm(noise)
        sol, _ = solve_l1_hybrid(h, d, HybridConfig(k_max=60))
        assert set(np.argsort(-np.abs(sol))[:10]) == set(support)

    def test_residual_not_increased(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(50, 30))
        d = rng.normal(size=50)
        sol, _ = solve_l1_hybrid(h, d, HybridConfig(k_max=25))
        assert np.linalg.norm(h @ sol - d) <= np.linalg.norm(d) * (1 + 1e-12)

    def test_data_fit_monotone_with_frozen_weights_and_lambda(self):
        # pure Krylov expansion: fixed lambda, identity preconditioner
        rng = np.random.default_rng(15)
        h = rng.normal(size=(40, 25))
        d = rng.normal(size=40)
        state = fgk_init(h, d)
        prev = np.inf
        for _ in range(10):
            fgk_expand(state, h, None)
            q, *_ = np.linalg.lstsq(state.M, state.beta1 * np.eye(state.k + 1)[0], rcond=None)
            resid = np.linalg.norm(h @ (state.P @ q) - d)
            assert resid <= prev * (1 + 1e-12)
            prev = resid
