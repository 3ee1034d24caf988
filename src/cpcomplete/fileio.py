"""Every file layout the package reads or writes: binary containers, portable
pixmaps, key=value config files and CSV reports.

The binary containers share one layout: a four-byte magic, a header of
little-endian u64 sizes, then little-endian payload arrays whose lengths
follow from the header and that end the file.  "TNS3" (tensor): I, J, K; the
entries in C order.  "MSK3" (mask): I, J, K, count; count 1-based (i, j, k)
u64 triples.  "CPM1" (CP model): I, J, K, R; factors A, B, C column-major,
then alpha.  "MAT1" (matrix): rows, cols; the entries row-major.  Entries are
float64.

Pixmaps are P3/P6 with maxval 255, mapped to [0, 1] floats.  CSV reports
write every float as the ``repr`` of a Python float, the shortest text that
reads back to the same double, and integers and labels as they are.
"""

import os
import re
import struct

import numpy as np

from .cp_model import CPModel
from .exceptions import DataError, PixmapParseError
from .tensor_ops import Mask, as_tensor

__all__ = [
    "save_tensor", "load_tensor", "save_mask", "load_mask", "save_model", "load_model",
    "save_matrix", "load_matrix", "load_ppm", "save_ppm", "load_input",
    "read_config", "write_csv", "write_trace_csv", "read_csv_columns", "csv_to_gnuplot",
]

_TENSOR = b"TNS3"
_MASK = b"MSK3"
_MODEL = b"CPM1"
_MATRIX = b"MAT1"
_PIXMAPS = (b"P3", b"P6")


def _save(path, magic, header, *payloads):
    # Each payload array goes out in its C order.
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(header)}Q", *header))
        for payload in payloads:
            fh.write(payload.tobytes())


def _load(path, magic, n_header, counts, dtype="<f8"):
    """The header of the container at ``path`` and its ``dtype`` payload arrays,
    of the lengths ``counts(*header)`` lists, each read into its own buffer.

    A corrupt header must not request an impossible allocation, so the sizes
    are checked against the bytes left in the file before any is allocated;
    they must account for every byte, so a file with bytes past its payload
    is rejected too.
    """
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}, expected {magic.decode()}")
        left = os.fstat(fh.fileno()).st_size - 4 - 8 * n_header
        if left < 0:
            raise DataError(f"{path}: truncated header")
        header = struct.unpack(f"<{n_header}Q", fh.read(8 * n_header))
        lengths = counts(*header)
        need = sum(lengths) * np.dtype(dtype).itemsize
        if need != left:
            problem = "truncated file" if need > left else "bytes past the payload"
            raise DataError(f"{path}: {problem}: the header needs {need} payload bytes, {left} follow")
        payloads = [np.empty(n, dtype=dtype) for n in lengths]
        for payload in payloads:
            fh.readinto(payload)
    return header, payloads


def _contents(path, make, *args):
    # make(*args) on a container's decoded payload; the ValueError of
    # malformed contents becomes a DataError naming the file.
    try:
        return make(*args)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_tensor(t, path):
    t = as_tensor(t)
    _save(path, _TENSOR, t.shape, t.astype("<f8"))


def load_tensor(path):
    dims, (data,) = _load(path, _TENSOR, 3, lambda i, j, k: [i * j * k])
    return _contents(path, as_tensor, data.reshape(dims))


def save_mask(mask, path):
    _save(path, _MASK, (*mask.dims, mask.count), (mask.observed + 1).astype("<u8"))


def load_mask(path):
    (*dims, count), (raw,) = _load(path, _MASK, 4, lambda i, j, k, count: [3 * count], "<u8")
    triples = raw.reshape(count, 3).astype(np.int64) - 1
    return _contents(path, Mask, dims, triples)


def save_model(m, path):
    # The transpose of a factor in C order is the factor in column-major order.
    factors = (mat.T.astype("<f8") for mat in (m.A, m.B, m.C))
    _save(path, _MODEL, (*m.dims, m.R), *factors, m.alpha.astype("<f8"))


def load_model(path):
    (*dims, r), payloads = _load(path, _MODEL, 4, lambda i, j, k, r: [i * r, j * r, k * r, r])
    factors = (raw.reshape((dim, r), order="F") for dim, raw in zip(dims, payloads))
    return _contents(path, CPModel, *factors, payloads[3])


def save_matrix(mat, path):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    _save(path, _MATRIX, mat.shape, mat.astype("<f8"))


def load_matrix(path):
    shape, (data,) = _load(path, _MATRIX, 2, lambda rows, cols: [rows * cols])
    return data.reshape(shape)


# -- portable pixmaps ---------------------------------------------------------


# Whitespace and '#' comments, then one token; a comment runs to the end of
# its line, so no backtracking can end it early.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")


def _next_token(buf, pos):
    match = _TOKEN.match(buf, pos)
    if match is None:
        raise PixmapParseError("unexpected end of header", len(buf))
    return match.group(1), match.end()


def load_ppm(path):
    """Read a P3 or P6 pixmap as an (height, width, 3) tensor with values in [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic not in _PIXMAPS:
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
            raise PixmapParseError(f"truncated payload: {len(payload)} of {count} bytes", pos + len(payload))
        samples = np.frombuffer(payload, dtype=np.uint8)
    else:
        # Each sample takes at least one byte, so a header asking for more
        # samples than bytes remain is rejected before anything is allocated.
        if count > len(buf) - pos:
            raise PixmapParseError(f"truncated payload: {count} samples, {len(buf) - pos} bytes follow", pos)
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
    originated from 8-bit samples round-trips exactly; +inf and -inf clamp
    to 255 and 0.  A NaN sample has no byte and raises DataError, before
    the file is opened.
    """
    img = as_tensor(img)
    if img.shape[2] != 3:
        raise ValueError(f"expected 3 channels, got {img.shape[2]}")
    if np.isnan(img).any():
        raise DataError("image contains NaN samples")
    quantized = np.clip(np.floor(img * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)
    height, width, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(quantized.tobytes())


def load_input(path):
    """A TNS3 tensor or a P3/P6 pixmap, told apart by the file's magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _TENSOR:
        return load_tensor(path)
    if head[:2] in _PIXMAPS:
        return load_ppm(path)
    raise DataError(f"{path}: unrecognized input format (magic {head!r})")


# -- text files ---------------------------------------------------------------


def read_config(path):
    """The (line number, key, value) entries of a file of ``key = value`` lines,
    where ``#`` starts a comment."""
    entries = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            entries.append((lineno, key, val))
    return entries


def _write_table(path, rows, sep):
    with open(path, "w", newline="") as fh:
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
            fh.write(sep.join(cells) + "\n")


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as a CSV report, numbers as the module
    docstring states."""
    _write_table(path, [header, *rows], ",")


def write_trace_csv(trace, path, timings=False):
    """Trace CSV with columns iteration, residual, lambda, wall_ms.

    The wall-time column is zeroed unless ``timings`` is set, keeping output
    files byte-identical across reruns with the same seed.
    """
    wall_ms = trace.wall_ms if timings else [0.0] * len(trace)
    rows = zip(range(1, len(trace) + 1), trace.residual, trace.lam, wall_ms)
    write_csv(path, ("iteration", "residual", "lambda", "wall_ms"), rows)


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
    _write_table(dat_path, [["#", *header], *rows], " ")
