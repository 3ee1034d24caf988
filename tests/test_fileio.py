import struct
import warnings

import numpy as np
import pytest

from cpcomplete.cp_model import CPModel
from cpcomplete.exceptions import DataError, PixmapParseError
from cpcomplete.fileio import (
    csv_to_gnuplot,
    load_input,
    load_mask,
    load_matrix,
    load_model,
    load_ppm,
    load_tensor,
    read_csv_columns,
    save_mask,
    save_matrix,
    save_model,
    save_ppm,
    save_tensor,
    write_csv,
    write_trace_csv,
)
from cpcomplete.completion import CompletionTrace, make_random_mask
from cpcomplete.tensor_ops import Mask


class TestTensorContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4, 5))
        path = tmp_path / "t.tns3"
        save_tensor(t, path)
        assert np.array_equal(load_tensor(path), t)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.tns3"
        save_tensor(np.zeros((2, 3, 4)), path)
        raw = path.read_bytes()
        assert raw[:4] == b"TNS3"
        assert np.frombuffer(raw[4:28], dtype="<u8").tolist() == [2, 3, 4]
        assert len(raw) == 28 + 8 * 24

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tns3"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(DataError):
            load_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.tns3"
        save_tensor(np.zeros((2, 2, 2)), path)
        short = path.read_bytes()[:-8]
        # headers whose payload overflows a C ssize_t, or exceeds any memory
        overflowing = b"TNS3" + struct.pack("<3Q", 2**40, 2**40, 2**40) + b"\x00" * 8
        huge = b"TNS3" + struct.pack("<3Q", 100000, 100000, 1000) + b"\x00" * 64
        short_header = b"TNS3" + struct.pack("<2Q", 2, 2)
        for payload in (short, overflowing, huge, short_header):
            path.write_bytes(payload)
            with pytest.raises(DataError, match="truncated"):
                load_tensor(path)

    def test_zero_dimension_is_data_error(self, tmp_path):
        path = tmp_path / "empty.tns3"
        path.write_bytes(b"TNS3" + struct.pack("<3Q", 0, 4, 5))
        with pytest.raises(DataError, match=r"empty.tns3: all dimensions must be >= 1"):
            load_tensor(path)


@pytest.mark.parametrize("kind", ["tns3-header-shrunk", "tns3-appended", "msk3-appended"])
def test_bytes_past_the_payload_rejected(tmp_path, kind):
    # A 3x3x3 tensor whose header is rewritten to 2x2x2 keeps 27 entries after
    # a header that promises 8; the other files carry one extra payload item.
    path = tmp_path / "x.bin"
    if kind == "tns3-header-shrunk":
        save_tensor(np.arange(27.0).reshape(3, 3, 3), path)
        path.write_bytes(b"TNS3" + struct.pack("<3Q", 2, 2, 2) + path.read_bytes()[28:])
        load, need, left = load_tensor, 64, 216
    elif kind == "tns3-appended":
        save_tensor(np.ones((2, 2, 2)), path)
        path.write_bytes(path.read_bytes() + struct.pack("<d", 1.0))
        load, need, left = load_tensor, 64, 72
    else:
        save_mask(Mask((2, 2, 2), [(0, 0, 0)]), path)
        path.write_bytes(path.read_bytes() + struct.pack("<3Q", 1, 1, 2))
        load, need, left = load_mask, 24, 48
    message = f"bytes past the payload: the header needs {need} payload bytes, {left} follow"
    with pytest.raises(DataError, match=message):
        load(path)


class TestMaskContainer:
    def test_round_trip(self, tmp_path):
        mask = make_random_mask((5, 6, 7), 0.4, seed=3)
        path = tmp_path / "m.msk3"
        save_mask(mask, path)
        back = load_mask(path)
        assert back.dims == mask.dims
        assert np.array_equal(back.observed, mask.observed)

    def test_one_based_on_disk(self, tmp_path):
        mask = Mask((2, 2, 2), [(0, 0, 0)])
        path = tmp_path / "m.msk3"
        save_mask(mask, path)
        raw = path.read_bytes()
        triple = np.frombuffer(raw[36:60], dtype="<u8")
        assert triple.tolist() == [1, 1, 1]

    def test_duplicate_triples_rejected(self, tmp_path):
        path = tmp_path / "dup.msk3"
        payload = b"MSK3" + struct.pack("<3Q", 2, 2, 2) + struct.pack("<Q", 2)
        payload += struct.pack("<3Q", 1, 1, 1) * 2
        path.write_bytes(payload)
        with pytest.raises(DataError):
            load_mask(path)

    def test_overflowing_count(self, tmp_path):
        path = tmp_path / "huge.msk3"
        path.write_bytes(b"MSK3" + struct.pack("<3Q", 2, 2, 2) + struct.pack("<Q", 2**62) + b"\x00" * 24)
        with pytest.raises(DataError):
            load_mask(path)


class TestModelContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = CPModel(
            rng.normal(size=(4, 3)),
            rng.normal(size=(5, 3)),
            rng.normal(size=(6, 3)),
            rng.normal(size=3),
        )
        path = tmp_path / "m.cpm1"
        save_model(m, path)
        back = load_model(path)
        for a, b in [(m.A, back.A), (m.B, back.B), (m.C, back.C), (m.alpha, back.alpha)]:
            assert np.array_equal(a, b)

    def test_factors_column_major(self, tmp_path):
        m = CPModel(
            np.array([[1.0, 3.0], [2.0, 4.0]]),
            np.eye(2),
            np.eye(2),
            np.ones(2),
        )
        path = tmp_path / "m.cpm1"
        save_model(m, path)
        raw = np.frombuffer(path.read_bytes()[36 : 36 + 32], dtype="<f8")
        assert raw.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_overflowing_rank(self, tmp_path):
        path = tmp_path / "huge.cpm1"
        path.write_bytes(b"CPM1" + struct.pack("<3Q", 2, 2, 2) + struct.pack("<Q", 2**62) + b"\x00" * 64)
        with pytest.raises(DataError):
            load_model(path)

    def test_rank_above_the_bound_is_data_error(self, tmp_path):
        # R = 5 > min(IJ, JK, IK) = 4 for a 2 x 2 x 2 model
        path = tmp_path / "big.cpm1"
        path.write_bytes(b"CPM1" + struct.pack("<4Q", 2, 2, 2, 5) + b"\x00" * 8 * (3 * 2 * 5 + 5))
        with pytest.raises(DataError, match=r"big.cpm1: R=5 exceeds the rank upper bound"):
            load_model(path)


class TestMatrixContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(7, 3))
        path = tmp_path / "b.mat1"
        save_matrix(mat, path)
        assert np.array_equal(load_matrix(path), mat)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "b.mat1"
        save_tensor(np.zeros((2, 2, 2)), path)
        with pytest.raises(DataError):
            load_matrix(path)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_save_needs_a_matrix(self, tmp_path, shape):
        with pytest.raises(ValueError, match="expected a matrix"):
            save_matrix(np.zeros(shape), tmp_path / "b.mat1")
        assert not (tmp_path / "b.mat1").exists()

    def test_overflowing_shape(self, tmp_path):
        path = tmp_path / "huge.mat1"
        path.write_bytes(b"MAT1" + struct.pack("<2Q", 2**62, 2**62) + b"\x00" * 64)
        with pytest.raises(DataError):
            load_matrix(path)


class TestPixmaps:
    def test_single_white_pixel(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = load_ppm(path)
        assert img.shape == (1, 1, 3)
        assert np.array_equal(img, np.ones((1, 1, 3)))

    @pytest.mark.parametrize("channels", [1, 4])
    def test_save_needs_three_channels(self, tmp_path, channels):
        with pytest.raises(ValueError, match=f"expected 3 channels, got {channels}"):
            save_ppm(np.zeros((2, 2, channels)), tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()

    def test_save_rejects_nan(self, tmp_path):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = np.nan
        with pytest.raises(DataError, match="NaN"):
            save_ppm(img, tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()

    def test_save_clamps_infinities(self, tmp_path):
        img = np.array([[[np.inf, -np.inf, 2.0], [-1.0, 0.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_ppm(img, tmp_path / "x.ppm")
        assert (tmp_path / "x.ppm").read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 255, 0, 0, 255])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(9, 7, 3)).astype(np.float64) / 255.0
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        save_ppm(img, p1)
        save_ppm(load_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_p3_p6_equivalence(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = rng.integers(0, 256, size=(4, 5, 3))
        p6 = tmp_path / "img.p6.ppm"
        header = b"P6\n5 4\n255\n"
        p6.write_bytes(header + samples.astype(np.uint8).tobytes())
        p3 = tmp_path / "img.p3.ppm"
        body = " ".join(str(v) for v in samples.ravel())
        p3.write_text(f"P3\n# a comment\n5 4\n255\n{body}\n")
        assert np.array_equal(load_ppm(p6), load_ppm(p3))

    def test_truncated_payload_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(PixmapParseError) as exc:
            load_ppm(path)
        assert exc.value.offset > 0

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(PixmapParseError):
            load_ppm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pgm.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PixmapParseError):
            load_ppm(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"P6\n2 2\n", "unexpected end of header"),
            (b"P6\n2 2 # no maxval", "unexpected end of header"),
            (b"P6\nx 2\n255\n", "non-numeric width"),
            (b"P6\n2 y\n255\n", "non-numeric height"),
            (b"P3\n2 2\n25z\n", "non-numeric maxval"),
            (b"P6\n0 2\n255\n", "bad dimensions"),
            (b"P3\n2 0\n255\n", "bad dimensions"),
            (b"P6\n1 1\n255", "missing whitespace after maxval"),
            (b"P6\n1 1\n255#c\n\x00\x00\x00", "missing whitespace after maxval"),
            (b"P3\n1 1\n255\n1 2 x\n", "non-numeric sample"),
            (b"P3\n1 1\n255\n1 2 256\n", "out of range"),
            (b"P3\n1 1\n255\n-1 2 3\n", "out of range"),
            (b"P3\n1 1\n255\n1 2\n", "unexpected end of header"),
            (b"P3 3000 3000 255\n1 2 3\n", "truncated payload: 27000000 samples, 7 bytes follow"),
        ],
        ids=[
            "no-maxval", "comment-to-eof", "width", "height", "maxval", "zero-width", "zero-height",
            "p6-eof-after-maxval", "p6-comment-after-maxval", "p3-word", "p3-256", "p3-negative", "p3-short",
            "p3-more-samples-than-bytes",
        ],
    )
    def test_malformed_header_or_samples(self, tmp_path, raw, message):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(PixmapParseError, match=message):
            load_ppm(path)


def test_loaders_return_writable_arrays(tmp_path):
    rng = np.random.default_rng(7)
    arrays = []
    for r in (1, 3):  # at R=1 the column-major factors are also C-contiguous
        save_model(CPModel(*(rng.normal(size=(d, r)) for d in (4, 5, 6)), rng.normal(size=r)), tmp_path / "m.cpm1")
        m = load_model(tmp_path / "m.cpm1")
        arrays += [m.A, m.B, m.C, m.alpha]
    save_tensor(rng.normal(size=(3, 4, 5)), tmp_path / "t.tns3")
    save_matrix(rng.normal(size=(4, 2)), tmp_path / "b.mat1")
    save_mask(make_random_mask((3, 4, 5), 0.5, seed=1), tmp_path / "m.msk3")
    save_ppm(rng.uniform(size=(2, 3, 3)), tmp_path / "p6.ppm")
    (tmp_path / "p3.ppm").write_text("P3\n1 1\n255\n1 2 3\n")
    mask = load_mask(tmp_path / "m.msk3")
    arrays += [
        load_tensor(tmp_path / "t.tns3"),
        load_matrix(tmp_path / "b.mat1"),
        mask.where,
        mask.observed,
        load_ppm(tmp_path / "p6.ppm"),
        load_input(tmp_path / "t.tns3"),
        load_input(tmp_path / "p3.ppm"),
    ]
    for a in arrays:
        a[...] = 0
        assert not a.any()


class TestInputSniffing:
    def test_magic_picks_the_reader(self, tmp_path):
        t = np.arange(24.0).reshape(2, 3, 4) / 24.0
        save_tensor(t, tmp_path / "t.bin")
        assert np.array_equal(load_input(tmp_path / "t.bin"), t)
        (tmp_path / "p3.bin").write_text("P3\n1 2\n255\n0 51 102 153 204 255\n")
        assert np.array_equal(load_input(tmp_path / "p3.bin"), np.arange(6.0).reshape(2, 1, 3) / 5.0)

    def test_unknown_magic(self, tmp_path):
        save_matrix(np.eye(2), tmp_path / "b.mat1")
        with pytest.raises(DataError, match="unrecognized input format"):
            load_input(tmp_path / "b.mat1")


class TestTraceCsv:
    def make_trace(self):
        trace = CompletionTrace()
        trace.append(0.5, 2.0, 13.25)
        trace.append(0.25, 1.0, 27.5)
        return trace

    def test_wall_time_zeroed_by_default(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.make_trace(), path)
        header, rows = read_csv_columns(path)
        assert header == ["iteration", "residual", "lambda", "wall_ms"]
        assert all(row[3] == "0.0" for row in rows)

    def test_timings_opt_in(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.make_trace(), path, timings=True)
        _, rows = read_csv_columns(path)
        assert rows[0][3] == "13.25"

    def test_gnuplot_render(self, tmp_path):
        src = tmp_path / "trace.csv"
        write_trace_csv(self.make_trace(), src)
        dst = tmp_path / "trace.dat"
        csv_to_gnuplot(src, dst)
        lines = dst.read_text().splitlines()
        assert lines[0].startswith("# iteration residual")
        assert lines[1].split() == ["1", "0.5", "2.0", "0.0"]


class TestCsvReports:
    def test_floats_are_python_float_reprs(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(path, ("scheme", "rank", "ratio"), [("cp", 3, np.float64(0.1)), ("pod", np.int64(2), 2.5)])
        assert path.read_text() == "scheme,rank,ratio\ncp,3,0.1\npod,2,2.5\n"

    @pytest.mark.parametrize(
        "text", ["", "\n  \n", "a,b\n1,2\n3\n", "a,b\n1,2,3\n"], ids=["empty", "blank", "short-row", "long-row"]
    )
    def test_empty_or_ragged_csv_rejected(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            read_csv_columns(path)
