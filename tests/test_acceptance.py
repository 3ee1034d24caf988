"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the heavier runs (masked completion, the model-reduction pipeline)
take a few minutes.
"""

import subprocess
import sys
import time

import numpy as np

import cpcomplete as cp
from cpcomplete.factor_updates import Sweep, gradient
from cpcomplete.hybrid_l1 import (
    HybridConfig,
    ProjectedProblem,
    fgk_expand,
    fgk_init,
    irn_weights,
    projected_tikhonov,
    soft_threshold,
    solve_l1_hybrid,
)
from cpcomplete.mor import (
    DiffusionProblem,
    compression_ratio,
    diffusion_residual,
    run_mor_demo,
)
from oracles import matricize, objective


def report(num, desc, ok, secs, budget):
    status = "PASS" if (ok and secs < budget) else "FAIL"
    print(f"\n[{status}] criterion {num}: {desc} ({secs:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({desc}) failed"
    assert secs < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({secs:.1f}s)"


def random_cp(rng, dims, r, alpha_scale=1.0):
    mats = [rng.standard_normal((d, r)) for d in dims]
    mats = [m / np.linalg.norm(m, axis=0) for m in mats]
    return cp.CPModel(*mats, rng.uniform(0.5, 2.0, r) * alpha_scale)


def test_01_khatri_rao_identities():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        i, j, k, r = rng.integers(1, 9, size=4)
        r = int(min(r, i * j, j * k, i * k))
        m = random_cp(rng, (i, j, k), r)
        t = cp.reconstruct(m)
        scale = max(np.linalg.norm(t), 1e-300)
        for mode, x, (y, z) in [(1, m.A, (m.C, m.B)), (2, m.B, (m.C, m.A)), (3, m.C, (m.B, m.A))]:
            lhs = matricize(t, mode)
            rhs = (x * m.alpha) @ cp.khatri_rao(y, z).T
            ok = ok and np.linalg.norm(lhs - rhs) <= 1e-12 * scale
    report(1, "unfolding identities vs Khatri-Rao products (100 random cases)", ok, time.time() - t0, 5)


def test_02_gradient_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(22)
    ok = True
    h = 1e-6
    for _ in range(20):
        dims = tuple(rng.integers(3, 7, size=3))
        m = random_cp(rng, dims, int(rng.integers(2, 5)))
        t = rng.normal(size=dims)
        for mode in "ABC":
            g = gradient(mode, Sweep(m, t))
            mat = {"A": m.A, "B": m.B, "C": m.C}[mode]
            fd = np.zeros_like(mat)
            for idx in np.ndindex(mat.shape):
                saved = mat[idx]
                mat[idx] = saved + h
                fp = objective(m, t)
                mat[idx] = saved - h
                fm = objective(m, t)
                mat[idx] = saved
                fd[idx] = (fp - fm) / (2 * h)
            ok = ok and np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)
    report(2, "factor gradients match central finite differences (20 instances)", ok, time.time() - t0, 10)


def test_03_fgk_invariants():
    t0 = time.time()
    rng = np.random.default_rng(33)
    ok = True
    for trial in range(20):
        m_rows = int(rng.integers(40, 301))
        n_cols = int(rng.integers(10, 101))
        h = rng.normal(size=(m_rows, n_cols))
        d = rng.normal(size=m_rows)
        hnorm = np.linalg.norm(h)
        state = fgk_init(h, d)
        for _ in range(6):
            w = irn_weights(rng.uniform(0.2, 3.0, n_cols))
            fgk_expand(state, h, w)
            if state.breakdown:
                break
            ucols, vcols = state.U.shape[1], state.V.shape[1]
            ok = ok and np.abs(state.U.T @ state.U - np.eye(ucols)).max() <= 1e-10
            ok = ok and np.abs(state.V.T @ state.V - np.eye(vcols)).max() <= 1e-10
            rel1 = np.linalg.norm(h @ state.P - state.U @ state.M)
            ok = ok and rel1 <= 1e-10 * hnorm * max(np.linalg.norm(state.P), 1.0)
            rel2 = np.linalg.norm(h.T @ state.U - state.V @ state.Tt)
            ok = ok and rel2 <= 1e-10 * hnorm
        # identity preconditioners collapse to Golub-Kahan bidiagonalization
        state = fgk_init(h, d)
        for _ in range(6):
            fgk_expand(state, h, None)
        m_mat = state.M
        off = m_mat.copy()
        for jj in range(m_mat.shape[1]):
            off[jj, jj] = 0.0
            off[jj + 1, jj] = 0.0
        ok = ok and np.abs(off).max() <= 1e-10
    report(3, "flexible Golub-Kahan orthogonality/relations + bidiagonal reduction", ok, time.time() - t0, 10)


def test_04_projected_tikhonov_oracle():
    t0 = time.time()
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 12))
        m_mat = rng.normal(size=(k + 1, k))
        lam = 10.0 ** rng.uniform(-8, 2)
        beta1 = float(rng.uniform(0.5, 3.0))
        # Draws the (k+1) x k operator and k+1 data entries of an FGK state the
        # test does not use, so that the 50 cases stay fixed.
        rng.normal(size=(k + 1, k + 1))
        b = np.zeros(k + 1)
        b[0] = beta1
        q = projected_tikhonov(ProjectedProblem(m_mat, beta1), lam)
        oracle = np.linalg.solve(m_mat.T @ m_mat + lam * np.eye(k), m_mat.T @ b)
        ok = ok and np.linalg.norm(q - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)
    report(4, "projected Tikhonov solves match normal equations (50 cases)", ok, time.time() - t0, 2)


def test_05_prox_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(1000):
        v = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0, 2))
        prox = float(soft_threshold(np.array([v]), lam)[0])
        lo, hi = -abs(v) - lam - 1.0, abs(v) + lam + 1.0
        best = 0.0
        for _ in range(4):
            xs = np.linspace(lo, hi, 2001)
            vals = lam * np.abs(xs) + 0.5 * (xs - v) ** 2
            best = xs[int(np.argmin(vals))]
            half = 2 * (hi - lo) / 2000
            lo, hi = best - half, best + half
        ok = ok and abs(prox - best) <= 1e-6
    report(5, "soft threshold matches per-component grid minimization (1000 scalars)", ok, time.time() - t0, 2)


def test_06_sparse_recovery():
    t0 = time.time()
    wins = 0
    for trial in range(10):
        rng = np.random.default_rng(6000 + trial)
        h = rng.normal(size=(200, 100))
        s_true = np.zeros(100)
        support = rng.choice(100, 10, replace=False)
        s_true[support] = rng.uniform(1, 2, 10) * rng.choice([-1.0, 1.0], 10)
        d = h @ s_true
        noise = rng.normal(size=200)
        d = d + 0.01 * np.linalg.norm(d) * noise / np.linalg.norm(noise)
        sol, _ = solve_l1_hybrid(h, d, HybridConfig(k_max=60))
        wins += set(np.argsort(-np.abs(sol))[:10]) == set(support)
    report(6, f"support recovery at 1% noise in {wins}/10 trials (need >= 9)", wins >= 9, time.time() - t0, 30)


def _rank5_tensor(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((30, 5)) for _ in range(3)]
    mats = [m / np.linalg.norm(m, axis=0) for m in mats]
    return cp.reconstruct(cp.CPModel(*mats, rng.uniform(1, 3, 5) * 10))


def test_07_exact_rank_completion():
    t0 = time.time()
    wins = 0
    details = []
    for trial in range(10):
        t = _rank5_tensor(100 + trial)
        mask = cp.make_random_mask(t.shape, 0.7, seed=trial)
        cfg = cp.CompletionConfig(
            R0=12, m_max=2000, eps_tol=1e-4, mode="hybrid", seed=trial,
            hybrid=HybridConfig(omega=0.2),
        )
        model, s, _ = cp.complete(t, mask, cfg)
        err = cp.relative_error(s, t)
        good = err <= 5e-2 and model.R == 5
        wins += good
        details.append(f"{err:.1e}/R{model.R}")
    ok = wins >= 9
    report(7, f"masked rank-5 recovery in {wins}/10 seeds (need >= 9): {details}", ok, time.time() - t0, 300)


def test_07b_hybrid_beats_fixed_lambda_on_substitute_image():
    # the source images are unavailable; the directional claim is asserted
    # on a deterministic synthetic substitute
    t0 = time.time()
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
    mask = cp.make_random_mask(img.shape, 0.7, seed=0)
    errors = {}
    for mode in ("hybrid", "fixed"):
        cfg = cp.CompletionConfig(
            R0=10, m_max=120, eps_tol=1e-3, mode=mode, lam=35.0, seed=0,
            hybrid=HybridConfig(omega=0.2),
        )
        _, s, _ = cp.complete(img, mask, cfg)
        errors[mode] = cp.relative_error(s, img)
    ok = errors["hybrid"] < errors["fixed"]
    report(
        7, f"hybrid ({errors['hybrid']:.3f}) beats fixed lambda=35 ({errors['fixed']:.3f}) on substitute image",
        ok, time.time() - t0, 60,
    )


def test_08_compression_ratios():
    t0 = time.time()
    pod = compression_ratio((100, 100, 81), 20, "pod")
    cpr = compression_ratio((100, 100, 81), 20, "cp")
    ok = abs(pod - 4.02) <= 0.01 and abs(cpr - 143.62) <= 0.01
    report(8, f"compression ratios pod={pod:.4f}, cp={cpr:.4f}", ok, time.time() - t0, 1)


def test_09_mor_pipeline():
    t0 = time.time()
    res = run_mor_demo(nx=40, grid_n=9, r0=50, eps=1e-2, n_tests=10, pod_rank=20, seed=0, m_max=200)
    pod_err = res["pod_errors"]
    cp_err = res["cp_errors"]
    n_basis = res["cp_basis"].phi.shape[1]
    snaps = res["snapshots"]
    worst = max(
        diffusion_residual(DiffusionProblem(40, *g), snaps[:, :, k])
        for k, g in enumerate(res["grid"])
    )
    from cpcomplete.mor import solve_diffusion

    for mu in res["tests"]:
        prob = DiffusionProblem(40, *mu)
        worst = max(worst, diffusion_residual(prob, solve_diffusion(prob)))
    ok = (
        pod_err.min() >= 1e-4
        and pod_err.max() <= 5e-1
        and cp_err.mean() > pod_err.mean()
        and worst <= 1e-9
        and 10 <= n_basis <= 30
    )
    report(
        9,
        f"MOR pipeline: pod errors [{pod_err.min():.2g}, {pod_err.max():.2g}], "
        f"cp mean {cp_err.mean():.2g} > pod mean {pod_err.mean():.2g}, "
        f"residual {worst:.1e}, basis count {n_basis}",
        ok, time.time() - t0, 600,
    )


def test_10_cli_determinism(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(99)
    mats = [rng.standard_normal((d, 4)) for d in (10, 11, 3)]
    mats = [m / np.linalg.norm(m, axis=0) for m in mats]
    t = cp.reconstruct(cp.CPModel(*mats, rng.uniform(1, 2, 4)))
    from cpcomplete.fileio import save_tensor

    save_tensor(t, tmp_path / "t.tns3")

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "cpcomplete", *map(str, args)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("mask", "--dims", "10,11,3", "--fraction", "0.6", "--seed", "1", "--out", tmp_path / "m.msk3")
    blobs = []
    for tag in ("a", "b"):
        run(
            "complete", "--input", tmp_path / "t.tns3", "--mask", tmp_path / "m.msk3",
            "--rank", "6", "--max-iter", "40", "--seed", "5",
            "--out", tmp_path / f"{tag}.cpm1", "--trace", tmp_path / f"{tag}.csv",
        )
        blobs.append(
            ((tmp_path / f"{tag}.cpm1").read_bytes(), (tmp_path / f"{tag}.csv").read_bytes())
        )
    ok = blobs[0] == blobs[1]
    report(10, "identical seeds give byte-identical model and trace files", ok, time.time() - t0, 60)
