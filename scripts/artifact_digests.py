"""Print one sha256 digest per artifact of a fixed set of CLI runs.

Builds deterministic inputs with the standard library (a synthetic
189x267x3 pixmap, a 70% random mask made by ``cpcomplete mask`` and a small
snapshot tensor), then runs ``python -m cpcomplete`` from this checkout's
``src`` for:

- ``complete`` on the pixmap at rank 50 in hybrid mode;
- ``complete`` on the pixmap at ``fixed:35``;
- ``pod`` on the small tensor;
- a small ``mor-demo``;
- ``mor-demo --seed 1`` at the default size, whose polished factors have
  exactly zero boundary rows, so the basis depends on the sign of each
  zero product (the small demo's basis does not);
- ``mask`` for the small tensor at the default fraction and seed, and
  ``complete`` on the small tensor with that mask, taking rank, mode and
  tolerance from the defaults and the iteration cap from a ``--config``
  file, so the defaults the CLI hands the library are covered byte for byte;
- ``complete`` on the small tensor with that mask at rank 60, 10 iterations:
  the only run whose rank exceeds ``HybridConfig.k_max`` (50), so the cap on
  the inner steps binds;
- ``report`` on the hybrid trace;
- ``mask --like`` on the pixmap with a hidden rectangle;
- ``mask --like`` on a small plain-text (P3) pixmap and a short ``complete``
  on it, so the P3 reader and the input sniffing are covered.

No run reaches the SVD fallback of ``hybrid_l1.ProjectedProblem``: over all
of them the smallest ratio of the projected Gram's k-th eigenvalue to its
largest is 6.3e-6 (on ``mor-demo --seed 1``), against the fallback's 1e-8.
So byte-identical artifacts say nothing about that branch; its unit tests
in ``tests/test_hybrid_l1.py`` cover it.

Every run is its own process with OPENBLAS/OMP/MKL_NUM_THREADS=1, because
results are byte-identical only at a fixed BLAS thread count.  Two trees that
print the same lines wrote byte-identical artifacts.

With ``--against DIR``, where DIR holds the artifacts of another tree kept
with ``--keep``, each artifact whose bytes differ from DIR's copy is also
read back as numbers (CPM1, MAT1, TNS3 and MSK3 through the package's
readers, the numeric columns of a CSV or of a gnuplot ``.dat`` report, the
samples of a PPM) and the largest
absolute and elementwise relative differences are printed, so a change that
moves the outputs shows how far.  The last line then reads "N of M
artifacts differ", where an artifact found in only one of the two trees
counts as differing, and the exit status is 1 when N > 0, so
"byte-identical" is the exit status.

    python scripts/artifact_digests.py [--keep DIR] [--against DIR]
"""

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEIGHT, WIDTH = 189, 267
MAX_ITER = 200
DEFAULTS_MAX_ITER = 40


def write_pixmap(path):
    # Smooth integer ramps, nearly rank 2 per channel, with values in [0, 255].
    rows = bytearray()
    for i in range(HEIGHT):
        for j in range(WIDTH):
            for c in range(3):
                rows.append(((i * 255) // (HEIGHT - 1) * (c + 1) + (j * 255) // (WIDTH - 1) * (3 - c)) // 4)
    path.write_bytes(b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT) + bytes(rows))


def write_p3(path, height=12, width=16):
    # A small ramp image as a plain-text pixmap, one row of samples per line.
    lines = [f"P3\n# ramp\n{width} {height}\n255"]
    for i in range(height):
        lines.append(" ".join(str((i * 19 + j * 13 + c * 40) % 256) for j in range(width) for c in range(3)))
    path.write_text("\n".join(lines) + "\n")


def write_tensor(path, dims=(12, 10, 8)):
    # Sum of three integer rank-one terms, exact in float64, C order.
    i_n, j_n, k_n = dims
    vals = [
        sum((i + r + 1) * (j * r + 1) * (k + 2 * r + 1) for r in range(3))
        for i in range(i_n)
        for j in range(j_n)
        for k in range(k_n)
    ]
    path.write_bytes(b"TNS3" + struct.pack("<3Q", *dims) + struct.pack(f"<{len(vals)}d", *vals))


def numbers(path):
    """The numbers an artifact holds as a float array, or None for an unknown type."""
    import numpy as np
    from cpcomplete import fileio

    if path.suffix == ".cpm1":
        m = fileio.load_model(path)
        return np.concatenate([m.A.ravel(), m.B.ravel(), m.C.ravel(), m.alpha])
    if path.suffix == ".mat1":
        return fileio.load_matrix(path)
    if path.suffix == ".tns3":
        return fileio.load_tensor(path)
    if path.suffix == ".msk3":
        return fileio.load_mask(path).observed.astype(float)
    if path.suffix == ".ppm":
        return np.rint(fileio.load_ppm(path) * 255.0)
    if path.suffix in (".csv", ".dat"):
        if path.suffix == ".csv":
            _, rows = fileio.read_csv_columns(path)
        else:  # gnuplot data: whitespace-separated values under a "#" header
            lines = path.read_text().splitlines()
            rows = [line.split() for line in lines if line.strip() and not line.lstrip().startswith("#")]
        columns = []
        for col in zip(*rows):
            try:
                columns.append([float(cell) for cell in col])
            except ValueError:
                continue
        return np.array(columns).T
    return None


def compare(path, ref):
    """One line on how far the numbers of ``path`` moved from those of ``ref``."""
    import numpy as np

    a, b = numbers(path), numbers(ref)
    if a is None or a.size == 0:
        return "differs; holds no numbers this script reads"
    if a.shape != b.shape:
        return f"differs; shape {a.shape} against {b.shape}"
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return f"max abs diff {diff.max():.3g}, max rel diff {rel.max():.3g} over {a.size} numbers"


def differences(out, ref_dir):
    """Compare the artifacts under ``out`` with those under ``ref_dir``.

    Prints one line per artifact that is missing from either directory or
    whose bytes differ, and returns (number of such artifacts, number of
    artifacts in either directory).
    """
    def names(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    ours, theirs = names(out), names(ref_dir)
    differ = 0
    for name in sorted(ours | theirs):
        path, ref = out / name, ref_dir / name
        if name not in theirs:
            print(f"{name}: not in {ref_dir}")
        elif name not in ours:
            print(f"{name}: only in {ref_dir}")
        elif ref.read_bytes() != path.read_bytes():
            print(f"{name}: {compare(path, ref)}")
        else:
            continue
        differ += 1
    return differ, len(ours | theirs)


def run(args, env):
    res = subprocess.run([sys.executable, "-m", "cpcomplete", *args], env=env, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"cpcomplete {args[0]} failed with exit code {res.returncode}:\n{res.stderr}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="write the artifacts here instead of a temporary directory")
    parser.add_argument(
        "--against", help="compare with the artifacts in this directory; exit 1 if any differ or is missing"
    )
    args = parser.parse_args()
    if args.against:
        sys.path.insert(0, str(SRC))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.keep or tmp)
        out.mkdir(parents=True, exist_ok=True)
        write_pixmap(out / "image.ppm")
        write_tensor(out / "snaps.tns3")
        run(["mask", "--dims", f"{HEIGHT},{WIDTH},3", "--fraction", "0.7", "--seed", "1",
             "--out", out / "obs.msk3"], env)
        for name, mode in (("hybrid", "hybrid"), ("fixed", "fixed:35")):
            run(["complete", "--input", out / "image.ppm", "--mask", out / "obs.msk3", "--rank", "50",
                 "--mode", mode, "--max-iter", str(MAX_ITER), "--out", out / f"{name}.cpm1",
                 "--trace", out / f"{name}.csv", "--recon", out / f"{name}.ppm"], env)
        run(["pod", "--input", out / "snaps.tns3", "--rank", "6", "--out", out / "pod.mat1"], env)
        (out / "mor").mkdir(exist_ok=True)
        run(["mor-demo", "--nx", "16", "--grid", "5", "--rank0", "12", "--tests", "3", "--pod-rank", "6",
             "--max-iter", "60", "--outdir", out / "mor"], env)
        (out / "mor_seed1").mkdir(exist_ok=True)
        run(["mor-demo", "--seed", "1", "--outdir", out / "mor_seed1"], env)
        run(["mask", "--dims", "12,10,8", "--out", out / "defaults.msk3"], env)
        (out / "defaults.cfg").write_text(f"max-iter = {DEFAULTS_MAX_ITER}\n")
        run(["complete", "--input", out / "snaps.tns3", "--mask", out / "defaults.msk3",
             "--config", out / "defaults.cfg", "--out", out / "defaults.cpm1",
             "--trace", out / "defaults.csv", "--recon", out / "defaults.tns3"], env)
        run(["complete", "--input", out / "snaps.tns3", "--mask", out / "defaults.msk3", "--rank", "60",
             "--max-iter", "10", "--out", out / "kmax.cpm1", "--trace", out / "kmax.csv"], env)
        run(["report", "--input", out / "hybrid.csv", "--out", out / "hybrid.dat"], env)
        run(["mask", "--like", out / "image.ppm", "--rect", "60,40,140,120", "--out", out / "rect.msk3"], env)
        write_p3(out / "small.ppm")
        run(["mask", "--like", out / "small.ppm", "--fraction", "0.8", "--seed", "2", "--out", out / "small.msk3"], env)
        run(["complete", "--input", out / "small.ppm", "--mask", out / "small.msk3", "--rank", "8",
             "--max-iter", "20", "--out", out / "small.cpm1", "--trace", out / "small.csv",
             "--recon", out / "small_recon.ppm"], env)
        paths = sorted(p for p in out.rglob("*") if p.is_file())
        for path in paths:
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out).as_posix())
        if args.against:
            differ, total = differences(out, Path(args.against))
            print(f"{differ} of {total} artifacts differ")
            if differ:
                sys.exit(1)


if __name__ == "__main__":
    main()
