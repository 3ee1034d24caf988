import copy
import re

import numpy as np
import pytest

from cpcomplete.cp_model import CPModel, CPScalingOperator, reconstruct
from cpcomplete.exceptions import DataError, NumericalRankError
from cpcomplete.factor_updates import (
    Sweep,
    _set_unit_columns,
    gradient,
    lipschitz_estimate,
    mm_update,
    regularized_als_step,
)
from cpcomplete.hybrid_l1 import ista_alpha_step
from cpcomplete.tensor_ops import khatri_rao, mttkrp
from oracles import build_q, matricize, objective


def random_model(seed, dims=(4, 5, 6), r=3, alpha_scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dims[0], r))
    b = rng.normal(size=(dims[1], r))
    c = rng.normal(size=(dims[2], r))
    a /= np.linalg.norm(a, axis=0)
    b /= np.linalg.norm(b, axis=0)
    c /= np.linalg.norm(c, axis=0)
    return CPModel(a, b, c, rng.uniform(0.5, 2.0, r) * alpha_scale)


def fd_gradient(mode, m, t, h=1e-6):
    # Central finite differences of f = 0.5 ||t - reconstruct||_F^2.
    mat = {"A": m.A, "B": m.B, "C": m.C}[mode]
    out = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        saved = mat[idx]
        mat[idx] = saved + h
        fp = objective(m, t)
        mat[idx] = saved - h
        fm = objective(m, t)
        mat[idx] = saved
        out[idx] = (fp - fm) / (2 * h)
    return out


def power_iteration(g, iters=500):
    v = np.ones(g.shape[0]) / np.sqrt(g.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


class TestGradient:
    def test_zero_at_exact_fit(self):
        m = random_model(0)
        t = reconstruct(m)
        for mode in "ABC":
            g = gradient(mode, Sweep(m, t))
            assert np.abs(g).max() <= 1e-11 * np.linalg.norm(t)

    @pytest.mark.parametrize("mode", ["A", "B", "C"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(1)
        m = random_model(2)
        t = rng.normal(size=(4, 5, 6))
        g = gradient(mode, Sweep(m, t))
        fd = fd_gradient(mode, m, t)
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_zero_alpha_annihilates(self):
        m = random_model(3)
        m.alpha = np.zeros(m.R)
        t = np.random.default_rng(4).normal(size=(4, 5, 6))
        for mode in "ABC":
            assert not gradient(mode, Sweep(m, t)).any()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_alpha_columns_are_exactly_zero(self, zero):
        rng = np.random.default_rng(7)
        m = random_model(8, r=4)
        m.alpha[[0, 2]] = zero
        t = rng.normal(size=(4, 5, 6))
        for mode in "ABC":
            g = gradient(mode, Sweep(m, t))
            assert not g[:, [0, 2]].any()
            assert g[:, [1, 3]].all()
            assert np.linalg.norm(g - fd_gradient(mode, m, t)) <= 1e-5 * np.linalg.norm(g)

    def test_matches_khatri_rao_form(self):
        # the Gram shortcut equals the explicit (X D W^T - T(m)) W D formula
        rng = np.random.default_rng(5)
        m = random_model(6)
        t = rng.normal(size=(4, 5, 6))
        d = np.diag(m.alpha)
        w = khatri_rao(m.C, m.B)
        explicit = (m.A @ d @ w.T - matricize(t, 1)) @ w @ d
        assert np.allclose(gradient("A", Sweep(m, t)), explicit, atol=1e-12)


@pytest.mark.parametrize("dims", [(5, 4, 3), (3, 4, 5), (4, 6, 4)], ids=["K<I", "K>I", "K=I"])
@pytest.mark.parametrize("r", [1, 4])
def test_mode_mttkrp_matches_unfolding_oracle(dims, r):
    # T(1) W_A with W_A = C kr B, and analogously for B and C
    m = random_model(7, dims, r)
    t = np.random.default_rng(8).normal(size=dims)
    oracles = {
        "A": matricize(t, 1) @ khatri_rao(m.C, m.B),
        "B": matricize(t, 2) @ khatri_rao(m.C, m.A),
        "C": matricize(t, 3) @ khatri_rao(m.B, m.A),
    }
    sweep = Sweep(m, t)  # the two modes that share the partial contraction read it in turn
    for mode, oracle in oracles.items():
        assert np.allclose(sweep.mttkrp(mode), oracle, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", ["D", "alpha"])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda mode, m, t: gradient(mode, Sweep(m, t)),
        lambda mode, m, t: lipschitz_estimate(mode, Sweep(m, t)),
        lambda mode, m, t: mm_update(mode, Sweep(m, t)),
    ],
    ids=["gradient", "lipschitz_estimate", "mm_update"],
)
def test_unknown_mode_rejected(kernel, mode):
    m = random_model(20)
    with pytest.raises(ValueError, match="mode must be one of"):
        kernel(mode, m, reconstruct(m))


class TestLipschitz:
    def test_rank_one_unit(self):
        e = np.eye(3)[:, :1]
        m = CPModel(e, e.copy(), e.copy(), np.array([2.0]))
        assert np.isclose(lipschitz_estimate("A", Sweep(m, np.zeros(m.dims))), 4.0)

    def test_against_power_iteration(self):
        m = random_model(7)
        for mode, (y, z) in [("A", (m.C, m.B)), ("B", (m.C, m.A)), ("C", (m.B, m.A))]:
            w = khatri_rao(y, z) * m.alpha
            oracle = power_iteration(w.T @ w)
            assert lipschitz_estimate(mode, Sweep(m, np.zeros(m.dims))) >= oracle * (1 - 1e-8)

    def test_zero_alpha_components_give_the_full_eigenvalue(self):
        m = random_model(9, r=5)
        m.alpha[[1, 3]] = [0.0, -0.0]
        for mode, (y, z) in [("A", (m.C, m.B)), ("B", (m.C, m.A)), ("C", (m.B, m.A))]:
            w = khatri_rao(y, z) * m.alpha
            full = np.linalg.eigvalsh(w.T @ w)[-1]
            assert abs(lipschitz_estimate(mode, Sweep(m, np.zeros(m.dims))) - full) <= 1e-13 * full

    def test_zero_alpha_floor(self):
        m = random_model(8)
        m.alpha = np.zeros(m.R)
        assert lipschitz_estimate("B", Sweep(m, np.zeros(m.dims))) == np.finfo(np.float64).tiny

    def test_squared_norm_at_the_overflow_edge(self):
        m = random_model(8)
        big = np.sqrt(np.finfo(np.float64).max)
        m.alpha = np.array([0.5, -0.99 * big, 1.0])
        assert np.isfinite(lipschitz_estimate("C", Sweep(m, np.zeros(m.dims))))
        m.alpha[1] = -1.01 * big
        with np.errstate(over="ignore"), pytest.raises(DataError, match="squared scaling vector overflows"):
            lipschitz_estimate("C", Sweep(m, np.zeros(m.dims)))


class TestMMUpdate:
    def test_fixed_point_at_exact_fit(self):
        m = random_model(9)
        t = reconstruct(m)
        out = mm_update("A", Sweep(m, t))
        assert np.allclose(out.A, m.A, atol=1e-9)

    def test_column_normalization(self):
        rng = np.random.default_rng(10)
        m = random_model(11)
        t = rng.normal(size=(4, 5, 6))
        sweep = Sweep(m, t)
        for mode in "ABC":
            m = mm_update(mode, sweep)
        for mat in (m.A, m.B, m.C):
            assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-10)

    def test_unit_columns_match_column_loop(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(5, 4))
        g[:, 1] = 0.0
        prev = rng.normal(size=(5, 4))
        expected = prev.copy()
        norms = np.linalg.norm(g, axis=0)
        for r in range(4):
            if norms[r] > 0.0:
                expected[:, r] = g[:, r] / norms[r]
        target = prev.copy()
        assert np.array_equal(_set_unit_columns(target, g), norms)
        assert np.array_equal(target, expected)

    def test_three_four_normalizes(self):
        # a step whose pre-normalization column is (3, 4) lands on (0.6, 0.8)
        d = np.array([[3.0], [4.0]])
        assert np.allclose(d.ravel() / np.linalg.norm(d), [0.6, 0.8])

    def test_monotone_descent(self):
        rng = np.random.default_rng(12)
        t = reconstruct(random_model(13, r=2))
        t += 0.1 * rng.normal(size=t.shape)
        m = random_model(14, r=4)
        f = objective(m, t)
        sweep = Sweep(m, t)
        for _ in range(30):
            for mode in "ABC":
                m = mm_update(mode, sweep)
                f_new = objective(m, t)
                assert f_new <= f * (1 + 1e-10)
                f = f_new

    def test_rank_one_convergence(self):
        t = reconstruct(random_model(15, r=1, alpha_scale=2.0))
        m = random_model(16, r=1)
        m.alpha = np.array([np.linalg.norm(t)])
        sweep = Sweep(m, t)
        for _ in range(200):
            for mode in "ABC":
                m = mm_update(mode, sweep)
            # scaling refit keeps the iteration honest for a pure factor test
            q = reconstruct(CPModel(m.A, m.B, m.C, np.ones(1)))
            m.alpha = np.array([float((q * t).sum() / max((q * q).sum(), 1e-300))])
        assert np.linalg.norm(t - reconstruct(m)) <= 1e-6 * np.linalg.norm(t)


class TestRegularizedALS:
    def test_rho_zero_matches_least_squares(self):
        # each mode pass solves the exact ALS subproblem given the factors it
        # sees; alpha is refreshed per pass, so compare unit directions
        rng = np.random.default_rng(17)
        m = random_model(18)
        t = rng.normal(size=(4, 5, 6))
        out = regularized_als_step(Sweep(m, t), 0.0)
        g, *_ = np.linalg.lstsq(khatri_rao(m.C, m.B), matricize(t, 1).T, rcond=None)
        g = g.T
        assert np.allclose(out.A, g / np.linalg.norm(g, axis=0), atol=1e-8)
        g2, *_ = np.linalg.lstsq(khatri_rao(m.C, out.A), matricize(t, 2).T, rcond=None)
        g2 = g2.T
        assert np.allclose(out.B, g2 / np.linalg.norm(g2, axis=0), atol=1e-8)
        g3, *_ = np.linalg.lstsq(khatri_rao(out.B, out.A), matricize(t, 3).T, rcond=None)
        g3 = g3.T
        assert np.allclose(out.C * out.alpha, g3, atol=1e-8)

    def test_monotone_shrinkage_in_rho(self):
        rng = np.random.default_rng(19)
        m = random_model(20)
        t = rng.normal(size=(4, 5, 6))
        norms = []
        for rho in (0.0, 1e2, 1e4):
            out = regularized_als_step(Sweep(m, t), rho)
            norms.append(np.linalg.norm(out.A * out.alpha))
        assert norms[0] > norms[1] > norms[2]

    def test_negative_rho_rejected(self):
        for rho in (-1.0, float("nan"), float("inf"), True, "0"):
            with pytest.raises(ValueError, match=re.escape(f"rho must be a real number in [0, inf), got {rho!r}")):
                regularized_als_step(Sweep(random_model(25), np.zeros((4, 5, 6))), rho)

    def test_exact_rank_convergence(self):
        t = reconstruct(random_model(21, dims=(8, 8, 8), r=3, alpha_scale=3.0))
        m = random_model(22, dims=(8, 8, 8), r=3)
        sweep = Sweep(m, t)
        for _ in range(100):
            m = regularized_als_step(sweep, 1e-6)
        assert np.linalg.norm(t - reconstruct(m)) <= 1e-5 * np.linalg.norm(t)

    def test_rank_zero_model_comes_back_unchanged(self):
        m = CPModel(np.zeros((4, 0)), np.zeros((5, 0)), np.zeros((6, 0)), np.zeros(0))
        sweep = Sweep(m, np.zeros((4, 5, 6)))
        for rho in (0.0, 1.0):
            assert regularized_als_step(sweep, rho) is m

    def test_rank_zero_model_mm_step_is_identity(self):
        m = CPModel(np.zeros((4, 0)), np.zeros((5, 0)), np.zeros((6, 0)), np.zeros(0))
        sweep = Sweep(m, np.ones((4, 5, 6)))
        assert lipschitz_estimate("A", sweep) == np.finfo(np.float64).tiny
        for mode in "ABC":
            assert mm_update(mode, sweep) is m

    def test_rank_zero_model_ista_step_gives_empty_alpha(self):
        m = CPModel(np.zeros((4, 0)), np.zeros((5, 0)), np.zeros((6, 0)), np.zeros(0))
        sweep = Sweep(m, np.ones((4, 5, 6)))
        alpha = ista_alpha_step(m, sweep.qt(), 0.1, CPScalingOperator(m, sweep.grams))
        assert alpha.shape == (0,)

    def test_singular_system_raises(self):
        m = random_model(23)
        m.B[:, 1] = m.B[:, 0]
        m.C[:, 1] = m.C[:, 0]  # duplicate component makes W rank deficient
        t = np.random.default_rng(24).normal(size=(4, 5, 6))
        with pytest.raises(NumericalRankError):
            regularized_als_step(Sweep(m, t), 0.0)


class TestSweepExactOracle:
    """One sweep through :class:`Sweep` against the per-call code it replaced.

    The oracle below is the three-call ``mm_update`` sweep and the ALS sweep
    as they were before the factor Grams and the shared MTTKRP partial were
    formed once per sweep: each call formed its mode's two factor Grams,
    its own MTTKRP and a copy of the whole model.  Same arithmetic in the
    same order, so the results must be equal to the last bit.
    """

    @staticmethod
    def old_hadamard_gram(*factors):
        gram = factors[0].T @ factors[0]
        for f in factors[1:]:
            gram = gram * (f.T @ f)
        return gram

    @staticmethod
    def old_mttkrp(t, factors, mode):
        a, b, c = factors
        i, j, k = t.shape
        if k <= i:
            flat = t.reshape(i, j * k)
            if mode == 0:
                return flat @ khatri_rao(b, c)
            part = (a.T @ flat).reshape(-1, j, k)
            return np.einsum("rjk,kr->jr", part, c) if mode == 1 else np.einsum("rjk,jr->kr", part, b)
        flat = t.reshape(i * j, k)
        if mode == 2:
            return (khatri_rao(a, b).T @ flat).T
        part = (c.T @ flat.T).reshape(-1, i, j)
        return np.einsum("rij,jr->ir", part, b) if mode == 0 else np.einsum("rij,ir->jr", part, a)

    OLD_MODES = {"A": (0, "B", "C"), "B": (1, "A", "C"), "C": (2, "A", "B")}

    def old_mode_gram(self, mode, m):
        _, x, y = self.OLD_MODES[mode]
        return self.old_hadamard_gram(getattr(m, x), getattr(m, y))

    def old_mm_update(self, mode, m, t):
        d = m.alpha
        h = self.old_mode_gram(mode, m) * np.outer(d, d)
        step = 1.0 / (1.05 * max(float(np.linalg.eigvalsh(h)[-1]), 1e-12))
        mtt = self.old_mttkrp(t, (m.A, m.B, m.C), self.OLD_MODES[mode][0])
        grad = ((getattr(m, mode) * d) @ self.old_mode_gram(mode, m) - mtt) * d
        out = copy.deepcopy(m)
        _set_unit_columns(getattr(out, mode), getattr(m, mode) - step * grad)
        return out

    def active_mm_update(self, mode, m, t):
        # The per-call step on the components with alpha_r != 0 only; the
        # other columns stay as they were.
        active = np.flatnonzero(m.alpha)
        out = copy.deepcopy(m)
        if active.size:
            sub = CPModel(m.A[:, active], m.B[:, active], m.C[:, active], m.alpha[active])
            getattr(out, mode)[:, active] = getattr(self.old_mm_update(mode, sub, t), mode)
        return out

    def old_als_step(self, m, t, rho):
        work = copy.deepcopy(m)
        eye = np.eye(m.R)
        for mode in "ABC":
            lhs = self.old_mode_gram(mode, work) + rho * eye
            mtt = self.old_mttkrp(t, (work.A, work.B, work.C), self.OLD_MODES[mode][0])
            g = np.linalg.solve(lhs, mtt.T).T
            work.alpha = _set_unit_columns(getattr(work, mode), g)
        return work

    @staticmethod
    def case(dims, alpha_case):
        m = random_model(30, dims, r=4)
        if alpha_case == "zero":
            m.alpha = np.zeros(m.R)
        elif alpha_case == "collapsed":
            # alpha_1 = 0 and b_1 = 0: component 1 is not active, so every
            # step leaves column 1 of B at zero
            m.alpha[1] = 0.0
            m.B[:, 1] = 0.0
        rng = np.random.default_rng(31)
        return m, rng.normal(size=dims), rng.normal(size=dims)

    @staticmethod
    def assert_same(new, old):
        for name in ("A", "B", "C", "alpha"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name

    @pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
    @pytest.mark.parametrize("alpha_case", ["generic", "zero", "collapsed"])
    def test_mm_sweeps_match_per_call_code(self, dims, alpha_case):
        m, t1, t2 = self.case(dims, alpha_case)
        start = copy.deepcopy(m)
        # two outer iterations: the Grams carry over, the tensor changes
        sweep = Sweep(m, t1)
        old = m
        oracle = self.old_mm_update if alpha_case == "generic" else self.active_mm_update
        for t in (t1, t2):
            sweep.set_tensor(t)
            active = sweep.active()  # as the driver runs its MM sweep
            for mode in "ABC":
                mm_update(mode, active)
                new = sweep.model
                old = oracle(mode, old, t)
                self.assert_same(new, old)
            assert np.array_equal(CPScalingOperator(new, sweep.grams).gram, self.old_hadamard_gram(old.A, old.B, old.C))
            new.alpha = old.alpha = old.alpha * 0.5  # a scaling refit between sweeps
        if alpha_case == "collapsed":
            assert not new.B[:, 1].any()
        self.assert_same(m, start)  # the input model is not written

    @pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
    def test_als_sweeps_match_per_call_code(self, dims):
        m, t, _ = self.case(dims, "generic")
        sweep = Sweep(m, t)
        old = m
        for _ in range(3):
            new = regularized_als_step(sweep, 1e-3)
            old = self.old_als_step(old, t, 1e-3)
            self.assert_same(new, old)


@pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
def test_sweep_products_stay_current_in_any_order(dims):
    # updates, reads and tensor changes in random order: every MTTKRP and Gram
    # the sweep hands out equals one formed afresh from its current state,
    # and its Q t the dense oracle's
    # (alpha_1 = 0, but the MM steps run on the full sweep, so they read
    # full-width MTTKRPs; test_active_sweep_writes_through covers the
    # active-column sweep)
    rng = np.random.default_rng(40)
    m = random_model(41, dims, r=3)
    m.alpha[1] = 0.0
    sweep = Sweep(m, rng.normal(size=dims))
    for _ in range(80):
        mode = "ABC"[rng.integers(3)]
        action = rng.integers(3)
        if action == 0:
            m = sweep.model
            fresh = mttkrp(sweep.t, (m.A, m.B, m.C), "ABC".index(mode))
            assert np.array_equal(sweep.mttkrp(mode), fresh)
            TestQtReadOffTheSweep.assert_matches(sweep)
        elif action == 1:
            mm_update(mode, sweep)
        else:
            sweep.set_tensor(rng.normal(size=dims))
        m = sweep.model
        for gram, x in zip(sweep.grams, (m.A, m.B, m.C)):
            assert np.array_equal(gram, x.T @ x)


@pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
def test_active_sweep_writes_through(dims):
    # alpha_1 = 0, so the active sweep holds components 0, 2 and 3.  MM steps
    # and MTTKRP reads in random order: its factors and Grams stay the
    # active columns and blocks of the full sweep's, the full Grams are
    # formed afresh from the full factors, column 1 keeps its bits, every
    # MTTKRP equals one formed afresh from the active factors, and the full
    # sweep's Q t is the dense oracle's.
    rng = np.random.default_rng(42)
    m = random_model(43, dims, r=4)
    dense = Sweep(m, np.zeros(dims))
    assert dense.active() is dense  # alpha dense: the sweep itself
    m.alpha[1] = -0.0
    sweep = Sweep(m, rng.normal(size=dims))
    active, cols = sweep.active(), [0, 2, 3]
    for _ in range(40):
        mode = "ABC"[rng.integers(3)]
        if rng.integers(2):
            part = active.model
            fresh = mttkrp(sweep.t, (part.A, part.B, part.C), "ABC".index(mode))
            assert np.array_equal(active.mttkrp(mode), fresh)
            TestQtReadOffTheSweep.assert_matches(sweep)
        else:
            mm_update(mode, active)
        full, part = sweep.model, active.model
        assert np.shares_memory(full.alpha, m.alpha) and np.array_equal(part.alpha, m.alpha[cols])
        for x, y, x0, gram, block in zip(
            (full.A, full.B, full.C), (part.A, part.B, part.C), (m.A, m.B, m.C), sweep.grams, active.grams
        ):
            assert np.array_equal(x[:, cols], y) and np.array_equal(x[:, 1], x0[:, 1])
            assert np.array_equal(gram, x.T @ x) and np.array_equal(block, gram[np.ix_(cols, cols)])
    assert not np.array_equal(full.A, m.A)
    with pytest.raises(TypeError):  # alpha is the full sweep's to replace
        active.replace("A", part.A, part.alpha)


class TestQtReadOffTheSweep:
    """``Sweep.qt`` against the dense ``build_q(model) @ t``, to 1e-12
    relative: after MM sweeps run as the driver runs them (through
    ``active()``, with alpha dense or partly zero), after a second sweep on
    the same tensor, after a tensor change with no sweep in between, and
    after ALS sweeps; the two random-order sweep tests above read it too.
    A mode-C MTTKRP kept past a change of A, B or the tensor reads off the
    old one."""

    @staticmethod
    def assert_matches(sweep):
        expected = build_q(sweep.model) @ sweep.t.ravel()
        assert np.linalg.norm(sweep.qt() - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
    @pytest.mark.parametrize("alpha_kind", ["dense", "partly zero"])
    def test_after_mm_sweeps_in_the_driver_order(self, dims, alpha_kind):
        rng = np.random.default_rng(50)
        m = random_model(51, dims, r=5)
        if alpha_kind == "partly zero":
            m.alpha[[1, 3]] = 0.0
        sweep = Sweep(m, rng.normal(size=dims))
        for t in (None, rng.normal(size=dims)):  # a second pass on a new tensor
            if t is not None:
                sweep.set_tensor(t)
            for _ in range(2):  # two sweeps on one tensor
                active = sweep.active()
                assert (active is sweep) == (alpha_kind == "dense")
                for mode in "ABC":
                    mm_update(mode, active)
                self.assert_matches(sweep)
        sweep.set_tensor(rng.normal(size=dims))  # between the sweep and the read
        self.assert_matches(sweep)

    @pytest.mark.parametrize("dims", [(7, 5, 3), (3, 5, 7)], ids=["K<=I", "K>I"])
    def test_after_als_sweeps(self, dims):
        rng = np.random.default_rng(52)
        m = random_model(53, dims, r=4)
        m.alpha[2] = 0.0
        sweep = Sweep(m, rng.normal(size=dims))
        for mode in "ABC":
            mm_update(mode, sweep.active())
        for _ in range(2):
            regularized_als_step(sweep, 1e-3)
            self.assert_matches(sweep)
        sweep.set_tensor(rng.normal(size=dims))
        self.assert_matches(sweep)
