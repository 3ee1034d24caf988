"""Command-line surface.

Subcommands: ``complete`` (run the completion driver on a tensor or pixmap),
``mask`` (generate random or rectangular observation masks), ``mor-demo``
(snapshot pipeline with CP and POD bases), ``pod`` (POD basis of a stored
tensor), ``report`` (render CSV traces for gnuplot).  Exit codes: 0 success,
2 argument errors, 3 data errors.

Option precedence is flags > config file (key=value lines) > defaults.  Each
default lives in the library parameter its setting feeds; --help reads it
from there.
"""

import argparse
import inspect
import os
import sys

import numpy as np

from . import fileio
from .completion import CompletionConfig, complete, make_random_mask
from .exceptions import DataError
from .mor import pod_basis, run_mor_demo
from .tensor_ops import Mask

__all__ = ["main"]


def _config_flags(path, keys):
    """The entries of a key=value config file as flags; each key must be one of ``keys``."""
    flags = []
    for lineno, key, val in fileio.read_config(path):
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; settings are {', '.join(keys)}")
        flags.append(f"--{key}={val}")
    return flags


def _given(args, *names):
    """The values among ``names`` set by flag or config file; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if name in args}


def _check_dir(flag, path):
    if not os.path.isdir(path):
        raise ValueError(f"{flag}: {path!r} is not a directory")


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _parse_mode(text):
    """'hybrid' or 'fixed:<lambda>' as the CompletionConfig fields it sets."""
    if text == "hybrid":
        return {"mode": "hybrid"}
    if text.startswith("fixed:"):
        return {"mode": "fixed", "lam": float(text.split(":", 1)[1])}
    raise argparse.ArgumentTypeError(f"mode must be 'hybrid' or 'fixed:<lambda>', got {text!r}")


def _parse_ints(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _cmd_complete(args):
    settings = _given(args, *inspect.signature(CompletionConfig).parameters)
    settings.update(settings.pop("mode", {}))  # --mode gives both mode and lam
    cfg = CompletionConfig(**settings)
    outputs = _given(args, "out", "trace", "recon")
    for name, path in outputs.items():
        if not os.path.basename(path):
            raise ValueError(f"--{name} {path!r} names no file")
        _check_dir(f"--{name}", os.path.dirname(path) or ".")

    t = fileio.load_input(args.input)
    if "recon" in outputs and args.recon.endswith(".ppm") and t.shape[2] != 3:
        raise ValueError(f"--recon {args.recon!r}: a pixmap needs 3 channels, the input has {t.shape[2]}")
    mask = fileio.load_mask(args.mask)
    model, s, trace = complete(t, mask, cfg)
    if "out" in outputs:
        fileio.save_model(model, args.out)
    if "trace" in outputs:
        fileio.write_trace_csv(trace, args.trace, **_given(args, "timings"))
    if "recon" in outputs:
        save = fileio.save_ppm if args.recon.endswith(".ppm") else fileio.save_tensor
        save(s, args.recon)
    final = trace.residual[-1] if len(trace) else float("nan")
    print(f"completed in {len(trace)} iterations, observed residual {final:.6g}, rank {model.R}")
    return 0


def _cmd_mask(args):
    # --rect fixes the observed entries, so a sampling setting would be dropped
    # without a word (argparse keeps --dims and --like apart).
    clash = [f"--{name}" for name in ("fraction", "seed") if name in args]
    if "rect" in args and clash:
        raise ValueError(f"--rect cannot be combined with {' or '.join(clash)}")
    dims = fileio.load_input(args.like).shape if "like" in args else _parse_ints(args.dims, 3, "--dims")

    if "rect" in args:
        x0, y0, x1, y1 = _parse_ints(args.rect, 4, "--rect")
        if not (0 <= x0 <= x1 < dims[1] and 0 <= y0 <= y1 < dims[0]):
            raise ValueError(f"rectangle {args.rect} out of bounds for dims {dims}")
        where = np.ones(dims, dtype=bool)
        where[y0 : y1 + 1, x0 : x1 + 1, :] = False
        mask = Mask.from_bool(where)
    else:
        mask = make_random_mask(dims, **_given(args, "fraction", "seed"))
    fileio.save_mask(mask, args.out)
    print(f"mask with {mask.count} of {int(np.prod(dims))} entries written to {args.out}")
    return 0


def _cmd_mor_demo(args):
    _check_dir("--outdir", args.outdir)
    res = run_mor_demo(**_given(args, *inspect.signature(run_mor_demo).parameters))
    outdir = args.outdir.rstrip("/")
    fileio.save_matrix(res["cp_basis"].phi, f"{outdir}/cp_basis.mat1")
    fileio.save_matrix(res["pod_basis"].phi, f"{outdir}/pod_basis.mat1")
    fileio.write_csv(
        f"{outdir}/errors.csv",
        ("test", "mu1", "mu2", "cp_error", "pod_error"),
        [(i, *mu, res["cp_errors"][i], res["pod_errors"][i]) for i, mu in enumerate(res["tests"])],
    )
    fileio.write_csv(
        f"{outdir}/compression.csv",
        ("scheme", "rank", "ratio"),
        [(scheme, res[f"{scheme}_basis"].phi.shape[1], res["ratios"][scheme]) for scheme in ("cp", "pod")],
    )
    print(
        f"cp basis: {res['cp_basis'].phi.shape[1]} columns, "
        f"pod basis: {res['pod_basis'].phi.shape[1]} columns; "
        f"reports in {outdir}/"
    )
    return 0


def _cmd_pod(args):
    t = fileio.load_tensor(args.input)
    basis = pod_basis(t, **_given(args, "r"))
    fileio.save_matrix(basis.phi, args.out)
    print(f"pod basis with {basis.phi.shape[1]} columns written to {args.out}")
    return 0


def _cmd_report(args):
    fileio.csv_to_gnuplot(args.input, args.out)
    print(f"wrote {args.out}")
    return 0


def _command(sub, name, func, text):
    """A subcommand parser that leaves unset options out of the namespace and
    reads its settings from ``--config`` too."""
    p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="key=value file of the settings shown with a default (flags win)")
    p.set_defaults(func=func, settings=[])
    return p


def _setting(p, flag, text, owner, name, **kw):
    """Add ``flag``, which a config file may also set, feeding parameter ``name`` of
    ``owner``; --help shows the default declared there.  An unset flag stays out
    of the namespace."""
    default = inspect.signature(owner).parameters[name].default
    p.get_default("settings").append(flag[2:])
    p.add_argument(flag, dest=name, help=f"{text} (default {default})", **kw)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpcomplete",
        description="Low-rank CP tensor completion with automatic per-iteration regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "complete", _cmd_complete, "complete a partially observed tensor or image")
    p.add_argument("--input", required=True, help="TNS3 tensor or P3/P6 pixmap")
    p.add_argument("--mask", required=True, help="MSK3 observation mask")
    _setting(p, "--rank", "upper-bound rank", CompletionConfig, "R0", type=int)
    _setting(p, "--mode", "'hybrid' or 'fixed:<lambda>'", CompletionConfig, "mode", type=_parse_mode)
    _setting(p, "--max-iter", "outer iteration cap", CompletionConfig, "m_max", type=int)
    _setting(p, "--tol", "observed-residual tolerance", CompletionConfig, "eps_tol", type=float)
    _setting(p, "--seed", "initialization seed", CompletionConfig, "seed", type=int)
    p.add_argument("--out", help="write the CP model (CPM1)")
    p.add_argument("--trace", help="write the per-iteration trace CSV")
    p.add_argument("--recon", help="write the completed tensor (TNS3, or PPM by extension)")
    _setting(p, "--timings", "record wall times in the trace", fileio.write_trace_csv, "timings",
             type=_parse_bool, nargs="?", const=True)

    p = _command(sub, "mask", _cmd_mask, "generate an observation mask")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--dims", help="I,J,K dimensions")
    shape.add_argument("--like", help="take dimensions from this tensor/pixmap file")
    _setting(p, "--fraction", "observed fraction for random masks", make_random_mask, "fraction", type=float)
    _setting(p, "--seed", "sampling seed", make_random_mask, "seed", type=int)
    p.add_argument("--rect", help="x0,y0,x1,y1 rectangle to hide (inclusive, all channels)")
    p.add_argument("--out", required=True, help="output MSK3 path")

    p = _command(sub, "mor-demo", _cmd_mor_demo, "diffusion snapshot pipeline with CP and POD bases")
    _setting(p, "--nx", "collocation points per direction", run_mor_demo, "nx", type=int)
    _setting(p, "--grid", "training grid is grid x grid", run_mor_demo, "grid_n", type=int)
    _setting(p, "--rank0", "upper-bound rank", run_mor_demo, "r0", type=int)
    _setting(p, "--eps", "rank truncation tolerance", run_mor_demo, "eps", type=float)
    _setting(p, "--tests", "number of random test parameters", run_mor_demo, "n_tests", type=int)
    _setting(p, "--pod-rank", "POD basis size", run_mor_demo, "pod_rank", type=int)
    _setting(p, "--seed", "seed", run_mor_demo, "seed", type=int)
    _setting(p, "--max-iter", "completion iteration cap", run_mor_demo, "m_max", type=int)
    p.add_argument("--outdir", default=".", help="directory for bases and reports")

    p = _command(sub, "pod", _cmd_pod, "POD basis of a stored snapshot tensor")
    p.add_argument("--input", required=True, help="TNS3 tensor")
    _setting(p, "--rank", "basis size", pod_basis, "r", type=int)
    p.add_argument("--out", required=True, help="output MAT1 path")

    p = sub.add_parser("report", help="render a CSV trace as a gnuplot data file")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output .dat path")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "config" in args:
            # Config entries become flags ahead of the command line's own, so
            # argparse converts and checks both alike and the command line wins.
            args = parser.parse_args([argv[0], *_config_flags(args.config, args.settings), *argv[1:]])
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
