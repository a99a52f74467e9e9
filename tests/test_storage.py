import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corp import read_map_pgm, read_tensor, write_map_pgm, write_tensor
from corp.errors import (
    ArgumentError,
    BadMagicError,
    FormatError,
    PgmFormatError,
    RangeViolationError,
    ShapeError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)


class TestCrpt:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_identical(self, rng, tmp_path, dtype):
        t = rng.standard_normal((3, 4, 5)).astype(dtype)
        path = tmp_path / "t.crpt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dtype == t.dtype
        assert np.array_equal(back.view(np.uint8), t.view(np.uint8))

    def test_header_layout(self, rng, tmp_path):
        t = rng.standard_normal((2, 3)).astype(np.float32)
        path = tmp_path / "t.crpt"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert raw[:4] == b"CRPT"
        assert raw[4] == 1          # version
        assert raw[5] == 1          # float32
        assert raw[6] == 2          # ndim
        assert struct.unpack_from("<2I", raw, 7) == (2, 3)
        assert len(raw) == 7 + 8 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.crpt"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.crpt"
        path.write_bytes(b"CRPT" + bytes([9, 1, 1]) + struct.pack("<I", 1) + bytes(4))
        with pytest.raises(UnsupportedVersionError):
            read_tensor(path)

    def test_bad_dtype(self, tmp_path):
        path = tmp_path / "x.crpt"
        path.write_bytes(b"CRPT" + bytes([1, 7, 1]) + struct.pack("<I", 1) + bytes(4))
        with pytest.raises(UnsupportedDtypeError):
            read_tensor(path)

    def test_truncated_payload_reports_counts(self, rng, tmp_path):
        t = rng.standard_normal((2, 3)).astype(np.float32)
        path = tmp_path / "t.crpt"
        write_tensor(path, t)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedPayloadError, match="expected 24 payload bytes .* got 19"):
            read_tensor(path)

    def test_oversized_payload_rejected(self, rng, tmp_path):
        t = rng.standard_normal((2, 3)).astype(np.float32)
        path = tmp_path / "t.crpt"
        write_tensor(path, t)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_zero_extent_rejected(self, tmp_path):
        path = tmp_path / "x.crpt"
        path.write_bytes(b"CRPT" + bytes([1, 1, 1]) + struct.pack("<I", 0))
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_extent_product_does_not_wrap(self, tmp_path):
        # 2**31 * 2**31 * 4 elements wrap a 64-bit product to 0, which would
        # match this 19-byte file's empty payload.
        path = tmp_path / "x.crpt"
        path.write_bytes(b"CRPT" + bytes([1, 1, 3]) + struct.pack("<3I", 2 ** 31, 2 ** 31, 4))
        with pytest.raises(TruncatedPayloadError, match="got 0"):
            read_tensor(path)

    def test_zero_ndim_rejected(self, tmp_path):
        # The writer refuses 0-d tensors, so the reader does too.
        path = tmp_path / "x.crpt"
        path.write_bytes(b"CRPT" + bytes([1, 1, 0]) + bytes(4))
        with pytest.raises(FormatError, match="ndim"):
            read_tensor(path)

    def test_integer_tensor_rejected_on_write(self, tmp_path):
        with pytest.raises(ArgumentError):
            write_tensor(tmp_path / "t.crpt", np.ones((2, 2), dtype=np.int32))


class TestPgm:
    def test_known_quantization(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_map_pgm(path, np.array([[0.0, 0.5, 1.0]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 1\n255\n")
        assert list(raw[-3:]) == [0, 128, 255]
        back = read_map_pgm(path)
        assert back[0, 0] == 0.0 and back[0, 2] == 1.0
        assert back[0, 1] == pytest.approx(128 / 255)

    def test_all_zero_roundtrip_exact(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_map_pgm(path, np.zeros((4, 4)))
        assert np.array_equal(read_map_pgm(path), np.zeros((4, 4), dtype=np.float32))

    def test_idempotent_after_first_quantization(self, rng, tmp_path):
        m = rng.random((6, 7)).astype(np.float32)
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_map_pgm(p1, m)
        once = read_map_pgm(p1)
        write_map_pgm(p2, once)
        assert np.array_equal(read_map_pgm(p2), once)

    def test_every_level_decodes_to_its_float32_quotient(self, tmp_path):
        path = tmp_path / "m.pgm"
        for k in range(256):
            path.write_bytes(b"P5\n1 1\n255\n" + bytes([k]))
            got = read_map_pgm(path)
            assert got.dtype == np.float32
            assert got.view(np.uint32)[0, 0] == np.float32(k / 255.0).view(np.uint32), k

    def test_write_read_write_gives_the_same_bytes(self, rng, tmp_path):
        write_map_pgm(tmp_path / "a.pgm", rng.random((9, 11)))
        write_map_pgm(tmp_path / "b.pgm", read_map_pgm(tmp_path / "a.pgm"))
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_ascii_pgm_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(PgmFormatError):
            read_map_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n128\n" + bytes(4))
        with pytest.raises(PgmFormatError, match="maxval"):
            read_map_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 200]))
        m = read_map_pgm(path)
        assert m.shape == (1, 2)
        assert m[0, 1] == pytest.approx(200 / 255)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(PgmFormatError, match="payload"):
            read_map_pgm(path)

    def test_out_of_range_map_rejected_on_write(self, tmp_path):
        with pytest.raises(RangeViolationError):
            write_map_pgm(tmp_path / "m.pgm", np.array([[1.5]]))

    def test_non_2d_rejected_on_write(self, tmp_path):
        with pytest.raises(ShapeError):
            write_map_pgm(tmp_path / "m.pgm", np.zeros((2, 2, 2)))

    def test_no_leftover_temp_files(self, rng, tmp_path):
        write_map_pgm(tmp_path / "m.pgm", rng.random((3, 3)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.pgm"]


def valid_or(valid, strategy):
    """Mostly ``valid``, otherwise a draw from ``strategy``: deep paths stay reachable."""
    return st.one_of(st.just(valid), st.just(valid), strategy)


def crpt_bytes():
    """CRPT files near the valid ones: header fields drawn, payload length off by a little."""
    @st.composite
    def build(draw):
        magic = draw(valid_or(b"CRPT", st.binary(max_size=5)))
        version = draw(valid_or(1, st.integers(0, 255)))
        dtype_code = draw(st.one_of(st.sampled_from([1, 2]), st.integers(0, 255)))
        dims = draw(st.lists(st.one_of(st.integers(1, 4), st.sampled_from([0, 2 ** 31, 2 ** 32 - 1])),
                             max_size=4))
        ndim = draw(valid_or(len(dims), st.integers(0, 255)))
        head = magic + bytes([version, dtype_code, ndim]) + struct.pack(f"<{len(dims)}I", *dims)
        size = int(np.prod(dims, dtype=object)) if dims else 0
        n = min(size * (4 if dtype_code == 1 else 8), 512) + draw(valid_or(0, st.integers(-9, 9)))
        return head + draw(st.binary(min_size=max(n, 0), max_size=max(n, 0)))

    return st.one_of(st.binary(max_size=40), build(), build())


def pgm_bytes():
    """P5 files near the valid ones: header tokens, separators and payload length drawn."""
    @st.composite
    def build(draw):
        sep = valid_or(b" ", st.sampled_from([b"\n", b"\t ", b" # note\n", b"#\n", b""]))
        w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        tokens = [
            draw(valid_or(b"P5", st.sampled_from([b"P2", b"P", b"p5"]))),
            draw(valid_or(str(w).encode(), st.sampled_from([b"0", b"-3", b"x", b"9" * 40]))),
            draw(valid_or(str(h).encode(), st.sampled_from([b"0", b"+2", b"1_0", b"\xff"]))),
            draw(valid_or(b"255", st.sampled_from([b"256", b"65535", b"1e3"]))),
        ]
        head = b"".join(draw(sep) + t for t in tokens)[1:] + draw(valid_or(b"\n", sep))
        n = w * h + draw(valid_or(0, st.integers(-3, 3)))
        return head + draw(st.binary(min_size=max(n, 0), max_size=max(n, 0)))

    return st.one_of(st.binary(max_size=40), build(), build())


class TestByteFuzzing:
    # Whatever the bytes, a reader returns an array or raises a FormatError.
    # Both readers take their bytes from Path.read_bytes, which is patched to
    # return the drawn bytes so that no example waits on a disk write.
    @given(data=crpt_bytes())
    def test_read_tensor(self, data):
        try:
            with mock.patch.object(Path, "read_bytes", lambda self: data):
                arr = read_tensor("fuzz.crpt")
        except FormatError:
            return
        assert arr.dtype in (np.float32, np.float64)
        assert data[:4] == b"CRPT" and arr.ndim == data[6]
        assert arr.nbytes == len(data) - 7 - 4 * arr.ndim

    @given(data=pgm_bytes())
    def test_read_map_pgm(self, data):
        try:
            with mock.patch.object(Path, "read_bytes", lambda self: data):
                arr = read_map_pgm("fuzz.pgm")
        except FormatError:
            return
        assert arr.dtype == np.float32 and arr.ndim == 2 and arr.size >= 1
        assert (np.round(arr.astype(np.float64) * 255.0).astype(np.uint8).tobytes()
                == data[len(data) - arr.size:])
