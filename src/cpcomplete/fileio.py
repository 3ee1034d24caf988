"""Binary containers, portable pixmaps, and CSV trace handling.

All binary formats are little-endian and self-describe through a four-byte
magic: "TNS3" (third-order tensor), "MSK3" (observed-index mask, 1-based on
disk), "CPM1" (CP model, factors column-major), "MAT1" (plain matrix,
row-major).  Pixmaps are P3/P6 with maxval 255, mapped to [0, 1] floats.
"""

import os
import struct

import numpy as np

from .cp_model import CPModel
from .exceptions import DataError, PixmapParseError
from .tensor_ops import Mask, as_tensor

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_mask",
    "load_mask",
    "save_model",
    "load_model",
    "save_matrix",
    "load_matrix",
    "load_ppm",
    "save_ppm",
    "write_trace_csv",
    "read_csv_columns",
    "csv_to_gnuplot",
]

_MAGIC_TENSOR = b"TNS3"
_MAGIC_MASK = b"MSK3"
_MAGIC_MODEL = b"CPM1"
_MAGIC_MATRIX = b"MAT1"


def _read_exact(fh, n, what):
    # Sizes come from headers, so check them against the bytes left before
    # reading: a corrupt header must not request an impossible allocation.
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"truncated file while reading {what}")
    return fh.read(n)


def _check_magic(fh, magic, path):
    got = fh.read(4)
    if got != magic:
        raise DataError(f"{path}: bad magic {got!r}, expected {magic.decode()}")


def save_tensor(t, path):
    t = as_tensor(t)
    with open(path, "wb") as fh:
        fh.write(_MAGIC_TENSOR)
        fh.write(struct.pack("<3Q", *t.shape))
        fh.write(t.astype("<f8").tobytes())


def load_tensor(path):
    with open(path, "rb") as fh:
        _check_magic(fh, _MAGIC_TENSOR, path)
        dims = struct.unpack("<3Q", _read_exact(fh, 24, "dims"))
        count = dims[0] * dims[1] * dims[2]
        data = np.frombuffer(_read_exact(fh, 8 * count, "payload"), dtype="<f8")
    return as_tensor(data.reshape(dims))


def save_mask(mask, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC_MASK)
        fh.write(struct.pack("<3Q", *mask.dims))
        fh.write(struct.pack("<Q", mask.count))
        fh.write((mask.observed + 1).astype("<u8").tobytes())


def load_mask(path):
    with open(path, "rb") as fh:
        _check_magic(fh, _MAGIC_MASK, path)
        dims = struct.unpack("<3Q", _read_exact(fh, 24, "dims"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "count"))
        raw = np.frombuffer(_read_exact(fh, 24 * count, "triples"), dtype="<u8")
    triples = raw.reshape(count, 3).astype(np.int64) - 1
    try:
        return Mask(dims, triples)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_model(m, path):
    i, j, k = m.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC_MODEL)
        fh.write(struct.pack("<3Q", i, j, k))
        fh.write(struct.pack("<Q", m.R))
        for mat in (m.A, m.B, m.C):
            fh.write(np.asfortranarray(mat).astype("<f8").tobytes(order="F"))
        fh.write(m.alpha.astype("<f8").tobytes())


def load_model(path):
    with open(path, "rb") as fh:
        _check_magic(fh, _MAGIC_MODEL, path)
        i, j, k = struct.unpack("<3Q", _read_exact(fh, 24, "dims"))
        (r,) = struct.unpack("<Q", _read_exact(fh, 8, "rank"))
        mats = []
        for dim, name in ((i, "A"), (j, "B"), (k, "C")):
            raw = np.frombuffer(_read_exact(fh, 8 * dim * r, f"factor {name}"), dtype="<f8")
            mats.append(raw.reshape((dim, r), order="F"))
        alpha = np.frombuffer(_read_exact(fh, 8 * r, "alpha"), dtype="<f8")
    return CPModel(*mats, alpha)


def save_matrix(mat, path):
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_MATRIX)
        fh.write(struct.pack("<2Q", *mat.shape))
        fh.write(mat.astype("<f8").tobytes())


def load_matrix(path):
    with open(path, "rb") as fh:
        _check_magic(fh, _MAGIC_MATRIX, path)
        rows, cols = struct.unpack("<2Q", _read_exact(fh, 16, "shape"))
        data = np.frombuffer(_read_exact(fh, 8 * rows * cols, "payload"), dtype="<f8")
    return data.reshape(rows, cols).copy()


# -- portable pixmaps ---------------------------------------------------------


def _next_token(buf, pos):
    # Skip whitespace and '#' comments, then collect one token.
    n = len(buf)
    while pos < n:
        ch = buf[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PixmapParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def load_ppm(path):
    """Read a P3 or P6 pixmap as an (height, width, 3) tensor with values in [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic not in (b"P3", b"P6"):
        raise PixmapParseError(f"not a P3/P6 pixmap (magic {magic!r})", 0)
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PixmapParseError(f"non-numeric {name} field {tok!r}", pos) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PixmapParseError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PixmapParseError(f"unsupported maxval {maxval} (only 255)", pos)
    count = width * height * 3
    if magic == b"P6":
        if pos >= len(buf) or not buf[pos : pos + 1].isspace():
            raise PixmapParseError("missing whitespace after maxval", pos)
        pos += 1
        payload = buf[pos : pos + count]
        if len(payload) != count:
            raise PixmapParseError(
                f"truncated payload: {len(payload)} of {count} bytes", pos + len(payload)
            )
        samples = np.frombuffer(payload, dtype=np.uint8)
    else:
        samples = np.empty(count, dtype=np.uint8)
        for idx in range(count):
            tok, pos = _next_token(buf, pos)
            try:
                val = int(tok)
            except ValueError:
                raise PixmapParseError(f"non-numeric sample {tok!r}", pos) from None
            if not 0 <= val <= maxval:
                raise PixmapParseError(f"sample {val} out of range", pos)
            samples[idx] = val
    return samples.reshape(height, width, 3).astype(np.float64) / 255.0


def save_ppm(img, path):
    """Write an (height, width, 3) tensor in [0, 1] as a binary P6 pixmap.

    Values are mapped with round-half-up and clamped to [0, 255], so data that
    originated from 8-bit samples round-trips exactly.
    """
    img = as_tensor(img)
    if img.shape[2] != 3:
        raise ValueError(f"expected 3 channels, got {img.shape[2]}")
    quantized = np.clip(np.floor(img * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)
    height, width, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(quantized.tobytes())


# -- traces -------------------------------------------------------------------


def write_trace_csv(trace, path, timings=False):
    """Trace CSV with columns iteration, residual, lambda, wall_ms.

    The wall-time column is zeroed unless ``timings`` is set, keeping output
    files byte-identical across reruns with the same seed.
    """
    with open(path, "w", newline="") as fh:
        fh.write("iteration,residual,lambda,wall_ms\n")
        for i in range(len(trace)):
            ms = trace.wall_ms[i] if timings else 0.0
            fh.write(f"{i + 1},{trace.residual[i]!r},{trace.lam[i]!r},{ms!r}\n")


def read_csv_columns(path):
    """Read a simple comma-separated file into (header list, list of row lists)."""
    with open(path, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: ragged CSV row {row}")
    return header, rows


def csv_to_gnuplot(csv_path, dat_path):
    """Render a CSV as a gnuplot-ready whitespace-separated data file."""
    header, rows = read_csv_columns(csv_path)
    with open(dat_path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(row) + "\n")
