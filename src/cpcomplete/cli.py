"""Command-line surface.

Subcommands: ``complete`` (run the completion driver on a tensor or pixmap),
``mask`` (generate random or rectangular observation masks), ``mor-demo``
(snapshot pipeline with CP and POD bases), ``pod`` (POD basis of a stored
tensor), ``report`` (render CSV traces for gnuplot).  Exit codes: 0 success,
2 argument errors, 3 data errors.

Option precedence is flags > config file (key=value lines) > built-in
defaults.
"""

import argparse
import os
import sys

import numpy as np

from . import fileio
from .completion import CompletionConfig, complete, make_random_mask
from .exceptions import DataError
from .mor import pod_basis, run_mor_demo
from .tensor_ops import Mask

__all__ = ["main"]


def _parse_config_file(path):
    if path is None:
        return {}
    values = {}
    try:
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = line.split("=", 1)
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    return values


class _Options:
    """Merges command-line values, config-file entries, and defaults."""

    def __init__(self, args):
        self.args = args
        self.config = _parse_config_file(getattr(args, "config", None))

    def get(self, name, typ, default):
        cli_val = getattr(self.args, name.replace("-", "_"))
        if cli_val is not None:
            return cli_val
        if name in self.config:
            return typ(self.config[name])
        return default


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_mode(text):
    if text == "hybrid":
        return "hybrid", None
    if text.startswith("fixed:"):
        return "fixed", float(text.split(":", 1)[1])
    raise ValueError(f"mode must be 'hybrid' or 'fixed:<lambda>', got {text!r}")


def _parse_ints(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _load_input_tensor(path):
    # Input files self-describe: TNS3 containers and P3/P6 pixmaps both work.
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == b"TNS3":
        return fileio.load_tensor(path)
    if head[:2] in (b"P3", b"P6"):
        return fileio.load_ppm(path)
    raise DataError(f"{path}: unrecognized input format (magic {head!r})")


def _cmd_complete(args):
    opts = _Options(args)
    rank = opts.get("rank", int, 50)
    mode_text = opts.get("mode", str, "hybrid")
    max_iter = opts.get("max-iter", int, 500)
    tol = opts.get("tol", float, 1e-3)
    seed = opts.get("seed", int, 0)
    timings = bool(opts.get("timings", _parse_bool, False))
    mode, lam = _parse_mode(mode_text)
    cfg = CompletionConfig(
        R0=rank,
        m_max=max_iter,
        eps_tol=tol,
        mode=mode,
        lam=lam if lam is not None else 35.0,
        seed=seed,
    )

    t = _load_input_tensor(args.input)
    mask = fileio.load_mask(args.mask)
    model, s, trace = complete(t, mask, cfg)
    if args.out:
        fileio.save_model(model, args.out)
    if args.trace:
        fileio.write_trace_csv(trace, args.trace, timings=timings)
    if args.recon:
        if args.recon.endswith(".ppm"):
            fileio.save_ppm(s, args.recon)
        else:
            fileio.save_tensor(s, args.recon)
    final = trace.residual[-1] if len(trace) else float("nan")
    print(f"completed in {len(trace)} iterations, observed residual {final:.6g}, rank {model.R}")
    return 0


def _cmd_mask(args):
    opts = _Options(args)
    if args.like is not None:
        dims = _load_input_tensor(args.like).shape
    elif args.dims is not None:
        dims = _parse_ints(args.dims, 3, "--dims")
    else:
        raise ValueError("one of --dims or --like is required")

    if args.rect is not None:
        x0, y0, x1, y1 = _parse_ints(args.rect, 4, "--rect")
        if not (0 <= x0 <= x1 < dims[1] and 0 <= y0 <= y1 < dims[0]):
            raise ValueError(f"rectangle {args.rect} out of bounds for dims {dims}")
        where = np.ones(dims, dtype=bool)
        where[y0 : y1 + 1, x0 : x1 + 1, :] = False
        mask = Mask.from_bool(where)
    else:
        fraction = opts.get("fraction", float, 0.3)
        seed = opts.get("seed", int, 0)
        mask = make_random_mask(dims, fraction, seed)
    fileio.save_mask(mask, args.out)
    print(f"mask with {mask.count} of {int(np.prod(dims))} entries written to {args.out}")
    return 0


def _cmd_mor_demo(args):
    opts = _Options(args)
    nx = opts.get("nx", int, 40)
    grid_n = opts.get("grid", int, 9)
    r0 = opts.get("rank0", int, 50)
    eps = opts.get("eps", float, 1e-2)
    n_tests = opts.get("tests", int, 10)
    pod_rank = opts.get("pod-rank", int, 20)
    seed = opts.get("seed", int, 0)
    max_iter = opts.get("max-iter", int, 200)
    if not os.path.isdir(args.outdir):
        raise ValueError(f"--outdir {args.outdir!r} is not a directory")

    res = run_mor_demo(
        nx=nx, grid_n=grid_n, r0=r0, eps=eps, n_tests=n_tests,
        pod_rank=pod_rank, seed=seed, m_max=max_iter,
    )
    outdir = args.outdir.rstrip("/")
    fileio.save_matrix(res["cp_basis"].phi, f"{outdir}/cp_basis.mat1")
    fileio.save_matrix(res["pod_basis"].phi, f"{outdir}/pod_basis.mat1")
    with open(f"{outdir}/errors.csv", "w") as fh:
        fh.write("test,mu1,mu2,cp_error,pod_error\n")
        for i, (m1, m2) in enumerate(res["tests"]):
            fh.write(f"{i},{m1!r},{m2!r},{float(res['cp_errors'][i])!r},{float(res['pod_errors'][i])!r}\n")
    with open(f"{outdir}/compression.csv", "w") as fh:
        fh.write("scheme,rank,ratio\n")
        fh.write(f"cp,{res['cp_basis'].phi.shape[1]},{res['ratios']['cp']!r}\n")
        fh.write(f"pod,{res['pod_basis'].phi.shape[1]},{res['ratios']['pod']!r}\n")
    print(
        f"cp basis: {res['cp_basis'].phi.shape[1]} columns, "
        f"pod basis: {res['pod_basis'].phi.shape[1]} columns; "
        f"reports in {outdir}/"
    )
    return 0


def _cmd_pod(args):
    opts = _Options(args)
    rank = opts.get("rank", int, 20)
    t = fileio.load_tensor(args.input)
    basis = pod_basis(t, rank)
    fileio.save_matrix(basis.phi, args.out)
    print(f"pod basis with {rank} columns written to {args.out}")
    return 0


def _cmd_report(args):
    fileio.csv_to_gnuplot(args.input, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpcomplete",
        description="Low-rank CP tensor completion with automatic per-iteration regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a partially observed tensor or image")
    p.add_argument("--input", required=True, help="TNS3 tensor or P3/P6 pixmap")
    p.add_argument("--mask", required=True, help="MSK3 observation mask")
    p.add_argument("--rank", type=int, help="upper-bound rank (default 50)")
    p.add_argument("--mode", help="'hybrid' or 'fixed:<lambda>' (default hybrid)")
    p.add_argument("--max-iter", type=int, help="outer iteration cap (default 500)")
    p.add_argument("--tol", type=float, help="observed-residual tolerance (default 1e-3)")
    p.add_argument("--seed", type=int, help="initialization seed (default 0)")
    p.add_argument("--out", help="write the CP model (CPM1)")
    p.add_argument("--trace", help="write the per-iteration trace CSV")
    p.add_argument("--recon", help="write the completed tensor (TNS3, or PPM by extension)")
    p.add_argument("--timings", action="store_const", const=True, help="record wall times in the trace")
    p.add_argument("--config", help="key=value config file (flags win)")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("mask", help="generate an observation mask")
    p.add_argument("--dims", help="I,J,K dimensions")
    p.add_argument("--like", help="take dimensions from this tensor/pixmap file")
    p.add_argument("--fraction", type=float, help="observed fraction for random masks (default 0.3)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--rect", help="x0,y0,x1,y1 rectangle to hide (inclusive, all channels)")
    p.add_argument("--out", required=True, help="output MSK3 path")
    p.add_argument("--config", help="key=value config file (flags win)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("mor-demo", help="diffusion snapshot pipeline with CP and POD bases")
    p.add_argument("--nx", type=int, help="collocation points per direction (default 40)")
    p.add_argument("--grid", type=int, help="training grid is grid x grid (default 9)")
    p.add_argument("--rank0", type=int, help="upper-bound rank (default 50)")
    p.add_argument("--eps", type=float, help="rank truncation tolerance (default 1e-2)")
    p.add_argument("--tests", type=int, help="number of random test parameters (default 10)")
    p.add_argument("--pod-rank", type=int, help="POD basis size (default 20)")
    p.add_argument("--seed", type=int, help="seed (default 0)")
    p.add_argument("--max-iter", type=int, help="completion iteration cap (default 200)")
    p.add_argument("--outdir", default=".", help="directory for bases and reports")
    p.add_argument("--config", help="key=value config file (flags win)")
    p.set_defaults(func=_cmd_mor_demo)

    p = sub.add_parser("pod", help="POD basis of a stored snapshot tensor")
    p.add_argument("--input", required=True, help="TNS3 tensor")
    p.add_argument("--rank", type=int, help="basis size (default 20)")
    p.add_argument("--out", required=True, help="output MAT1 path")
    p.add_argument("--config", help="key=value config file (flags win)")
    p.set_defaults(func=_cmd_pod)

    p = sub.add_parser("report", help="render a CSV trace as a gnuplot data file")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output .dat path")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
