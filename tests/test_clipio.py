import csv
import os
import random
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pulse_tn import (
    BadMagicError,
    BadVersionError,
    ClipFormatError,
    FrameClip,
    TruncatedClipError,
    UnsupportedDtypeError,
    Waveform,
    read_clip,
    read_labels,
    upsert_label,
    write_clip,
)
from pulse_tn import clipio, extract_diff_pooled, extract_green, extract_tn_pooled


def random_clip(seed=0, t=12, h=3, w=4, c=3):
    rng = np.random.default_rng(seed)
    return FrameClip(rng.random((t, h, w, c)).astype(np.float32), 30.0)


class TestClipRoundTrip:
    def test_f32_bit_identical(self, tmp_path):
        clip = random_clip()
        path = tmp_path / "clip.rpgc"
        write_clip(clip, path)
        back = read_clip(path)
        assert np.array_equal(back.data, clip.data)
        assert back.fps == clip.fps

    def test_u8_scale_convention(self, tmp_path):
        data = np.zeros((2, 1, 2, 1))
        data[0, 0, 0, 0] = 1.0
        data[0, 0, 1, 0] = 0.0
        data[1, 0, 0, 0] = 128 / 255
        data[1, 0, 1, 0] = 37 / 255
        path = tmp_path / "clip.rpgc"
        write_clip(FrameClip(data, 25.0), path, dtype="u8")
        back = read_clip(path)
        assert back.data[0, 0, 0, 0] == 1.0
        assert back.data[0, 0, 1, 0] == 0.0
        assert back.data[1, 0, 0, 0] == pytest.approx(128 / 255)
        assert back.data[1, 0, 1, 0] == pytest.approx(37 / 255)

    def test_unknown_write_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_clip(random_clip(), tmp_path / "x.rpgc", dtype="f64")


class TestClipParsing:
    def write_valid(self, tmp_path):
        path = tmp_path / "clip.rpgc"
        write_clip(random_clip(), path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path, buf = self.write_valid(tmp_path)
        buf[:4] = b"XXXX"
        path.write_bytes(buf)
        with pytest.raises(BadMagicError):
            read_clip(path)

    def test_bad_version(self, tmp_path):
        path, buf = self.write_valid(tmp_path)
        buf[4:8] = struct.pack("<I", 9)
        path.write_bytes(buf)
        with pytest.raises(BadVersionError):
            read_clip(path)

    def test_unsupported_dtype(self, tmp_path):
        path, buf = self.write_valid(tmp_path)
        buf[24:28] = struct.pack("<I", 7)
        path.write_bytes(buf)
        with pytest.raises(UnsupportedDtypeError):
            read_clip(path)

    def test_truncated_payload(self, tmp_path):
        path, buf = self.write_valid(tmp_path)
        path.write_bytes(buf[:-5])
        with pytest.raises(TruncatedClipError):
            read_clip(path)

    def test_dims_overflow_rejected(self, tmp_path):
        path, buf = self.write_valid(tmp_path)
        buf[8:12] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(buf)
        with pytest.raises(TruncatedClipError):
            read_clip(path)

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_non_finite_sample_in_any_channel(self, tmp_path, channel):
        path, buf = self.write_valid(tmp_path)
        # the little-endian f32 payload of the 12x3x4x3 clip, in T, H, W, C order
        offset = clipio._HEADER.size + 4 * (((5 * 3 + 2) * 4 + 3) * 3 + channel)
        buf[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(buf)
        with pytest.raises(ClipFormatError, match="clip data must not contain NaN or Inf$"):
            read_clip(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "clip.rpgc"
        path.write_bytes(b"RPGC\x01")
        with pytest.raises(TruncatedClipError):
            read_clip(path)

    def test_header_mutation_fuzz_never_crashes(self, tmp_path):
        path, valid = self.write_valid(tmp_path)
        rng = np.random.default_rng(99)
        rejected = 0
        for case in range(50):
            buf = bytearray(valid)
            kind = case % 5
            if kind == 0:  # magic
                buf[rng.integers(0, 4)] ^= 0xFF
            elif kind == 1:  # version
                buf[4:8] = struct.pack("<I", int(rng.integers(2, 2**32)))
            elif kind == 2:  # dims, guaranteed to change one value
                offset = 8 + 4 * int(rng.integers(0, 4))
                (old,) = struct.unpack_from("<I", buf, offset)
                buf[offset : offset + 4] = struct.pack("<I", old ^ int(rng.integers(1, 2**31)))
            elif kind == 3:  # dtype code
                buf[24:28] = struct.pack("<I", int(rng.integers(2, 2**32)))
            else:  # truncate or extend
                if rng.integers(0, 2):
                    buf = buf[: int(rng.integers(0, len(buf)))]
                else:
                    buf = buf + bytes(int(rng.integers(1, 64)))
            path.write_bytes(bytes(buf))
            try:
                read_clip(path)
            except ValueError:
                rejected += 1  # ClipFormatError or an invariant violation
        assert rejected == 50


class TestStreamingRead:
    """read_clip with the chunk size shrunk so a small clip takes several chunks."""

    SHAPE = (7, 3, 4, 3)  # 252 samples

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # 100 samples per chunk: two full chunks and a ragged last one of 52
        monkeypatch.setattr(clipio, "_CHUNK_BYTES", 100 * 4)

    def write(self, tmp_path, dtype):
        rng = np.random.default_rng(21)
        path = tmp_path / "clip.rpgc"
        write_clip(FrameClip(rng.random(self.SHAPE), 30.0), path, dtype=dtype)
        return path, path.read_bytes()

    def test_f32_decodes_like_frombuffer(self, tmp_path):
        path, buf = self.write(tmp_path, "f32")
        expected = np.frombuffer(buf, "<f4", offset=32).astype(np.float64).reshape(self.SHAPE)
        assert np.array_equal(read_clip(path).data, expected)

    def test_u8_decodes_like_frombuffer(self, tmp_path, monkeypatch):
        # u8 samples are one byte each: 400 per chunk would read the clip in one go
        monkeypatch.setattr(clipio, "_CHUNK_BYTES", 100)
        path, buf = self.write(tmp_path, "u8")
        expected = np.frombuffer(buf, "u1", offset=32).astype(np.float64).reshape(self.SHAPE)
        expected /= 255.0
        assert np.array_equal(read_clip(path).data, expected)

    @pytest.mark.parametrize("payload", ["short", "long"])
    def test_payload_off_by_one_byte(self, tmp_path, payload):
        path, buf = self.write(tmp_path, "f32")
        path.write_bytes(buf[:-1] if payload == "short" else buf + b"\0")
        with pytest.raises(TruncatedClipError):
            read_clip(path)

    def test_header_only(self, tmp_path):
        path, buf = self.write(tmp_path, "f32")
        path.write_bytes(buf[:32])
        with pytest.raises(TruncatedClipError):
            read_clip(path)

    @pytest.mark.parametrize("channels", [3, 1])
    @pytest.mark.parametrize("dtype", ["f32", "u8"])
    def test_green_only_is_the_green_slice_of_the_full_read(self, tmp_path, monkeypatch, dtype, channels):
        # whole pixels per chunk: 100 samples hold 33 three-channel pixels and one left over
        if dtype == "u8":
            monkeypatch.setattr(clipio, "_CHUNK_BYTES", 100)
        path = tmp_path / "clip.rpgc"
        data = np.random.default_rng(26).random(self.SHAPE[:3] + (channels,))
        write_clip(FrameClip(data, 30.0), path, dtype=dtype)
        green = 1 if channels == 3 else 0
        expected = read_clip(path).data[..., green : green + 1]
        clip = read_clip(path, green_only=True)
        # an f32 payload's green channel keeps the file's float32 samples, which widen to the full read's
        assert clip.data.dtype == (np.float32 if dtype == "f32" else np.float64)
        assert clip.data.shape == expected.shape
        assert clip.data.flags.c_contiguous
        assert clip.data.astype(np.float64).tobytes() == expected.tobytes()
        assert clip.fps == 30.0


@pytest.mark.parametrize("threads", ["1", "2"])
class TestParallelDecode:
    """read_clip's chunks decoded on one and on two workers, in 9 chunks of 10
    pixels of a 7x3x4 clip: eight full chunks and a ragged last one of 4."""

    SHAPE = (7, 3, 4)

    @pytest.fixture(autouse=True)
    def workers(self, monkeypatch, threads):
        monkeypatch.setattr(clipio.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PULSE_TN_THREADS", threads)

    def write(self, monkeypatch, tmp_path, dtype="f32", channels=3):
        path = tmp_path / "clip.rpgc"
        data = np.random.default_rng(29).random(self.SHAPE + (channels,))
        write_clip(FrameClip(data, 30.0), path, dtype=dtype)
        monkeypatch.setattr(clipio, "_CHUNK_BYTES", 10 * channels * clipio._DTYPES[clipio.DTYPE_CODES[dtype]].itemsize)
        return path, bytearray(path.read_bytes())

    def pixel_offset(self, pixel):
        """The file offset of a pixel of the three-channel f32 clip."""
        return clipio._HEADER.size + 4 * 3 * pixel

    def cut_short(self, monkeypatch, path, buf, pixel):
        """Keep the first `pixel` pixels and a byte of the next, while stat still
        reports the whole file, as a file cut after read_clip checked its size."""
        path.write_bytes(buf[: self.pixel_offset(pixel) + 1])
        real_stat = os.stat

        def stat(p, *args, **kwargs):
            info = real_stat(p, *args, **kwargs)
            return os.stat_result((*info[:6], len(buf), *info[7:])) if p == path else info

        monkeypatch.setattr(clipio.os, "stat", stat)

    @pytest.mark.parametrize("green_only", [False, True])
    @pytest.mark.parametrize("channels", [3, 1])
    @pytest.mark.parametrize("dtype", ["f32", "u8"])
    def test_decodes_like_frombuffer(self, monkeypatch, tmp_path, dtype, channels, green_only):
        path, buf = self.write(monkeypatch, tmp_path, dtype, channels)
        expected = np.frombuffer(buf, "<f4" if dtype == "f32" else "u1", offset=32).astype(np.float64)
        if dtype == "u8":
            expected /= 255.0
        expected = expected.reshape(self.SHAPE + (channels,))
        if green_only:
            green = 1 if channels == 3 else 0
            expected = expected[..., green : green + 1]
        data = read_clip(path, green_only=green_only).data
        assert data.dtype == (np.float32 if dtype == "f32" and green_only else np.float64)
        assert data.astype(np.float64).tobytes() == expected.tobytes()

    def test_a_file_cut_inside_a_middle_chunk(self, monkeypatch, tmp_path):
        path, buf = self.write(monkeypatch, tmp_path)
        self.cut_short(monkeypatch, path, buf, 45)
        assert read_error(path) == (TruncatedClipError, f"{path}: file ended inside the payload")

    def test_a_nan_in_the_last_chunk(self, monkeypatch, tmp_path):
        path, buf = self.write(monkeypatch, tmp_path)
        offset = self.pixel_offset(83)
        buf[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(buf)
        assert read_error(path) == (ClipFormatError, f"{path}: clip data must not contain NaN or Inf")

    def test_a_nan_in_the_first_chunk_ends_the_reads(self, monkeypatch, tmp_path, threads, held_pool):
        path, buf = self.write(monkeypatch, tmp_path)
        buf[self.pixel_offset(0) : self.pixel_offset(0) + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(buf)
        caller, reads, preadv = threading.get_ident(), [], os.preadv

        def held_preadv(fd, buffers, offset):
            # a pool thread's read waits until the map has stopped claiming chunks
            if threading.get_ident() != caller:
                assert held_pool.cancelled.wait(timeout=30)
            reads.append(offset)
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(clipio.os, "preadv", held_preadv)
        assert read_error(path) == (ClipFormatError, f"{path}: clip data must not contain NaN or Inf")
        assert len(reads) <= int(threads)  # chunk 0, and at most one chunk a pool thread took

    def test_a_nan_before_a_cut_is_the_error(self, monkeypatch, tmp_path):
        path, buf = self.write(monkeypatch, tmp_path)
        offset = self.pixel_offset(15)  # chunk 1
        buf[offset : offset + 4] = struct.pack("<f", float("nan"))
        self.cut_short(monkeypatch, path, buf, 35)  # inside chunk 3
        assert read_error(path) == (ClipFormatError, f"{path}: clip data must not contain NaN or Inf")


def test_read_and_extract_peak_memory(tmp_path):
    # the decoded float64 clip itself is the floor; the file bytes and the
    # two channels tn_pooled does not pool must not add to it
    path = tmp_path / "clip.rpgc"
    write_clip(FrameClip(np.random.default_rng(22).random((300, 32, 32, 3)), 30.0), path)
    clip_bytes = 300 * 32 * 32 * 3 * 8
    tracemalloc.start()
    try:
        extract_tn_pooled(read_clip(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * clip_bytes


def test_write_clip_peak_memory(tmp_path):
    # the encoded payload is the floor; a second full-size copy of it must not add to it
    clip = FrameClip(np.random.default_rng(25).random((300, 32, 32, 3)), 30.0)
    payload_bytes = 300 * 32 * 32 * 3 * 4
    tracemalloc.start()
    try:
        write_clip(clip, tmp_path / "clip.rpgc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * payload_bytes


def test_green_only_read_and_extract_peak_memory(tmp_path):
    # only the green channel is widened to float64, a third of the full clip;
    # tn_pooled's trace-major copy and its output add about one green channel each
    path = tmp_path / "clip.rpgc"
    write_clip(FrameClip(np.random.default_rng(22).random((300, 32, 32, 3)), 30.0), path)
    clip_bytes = 300 * 32 * 32 * 3 * 8
    tracemalloc.start()
    try:
        extract_tn_pooled(read_clip(path, green_only=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * clip_bytes


@pytest.fixture(scope="module")
def f32_clip_600x64x64(tmp_path_factory):
    path = tmp_path_factory.mktemp("f32") / "clip.rpgc"
    write_clip(FrameClip(np.random.default_rng(27).random((600, 64, 64, 3)), 30.0), path)
    return path


@pytest.mark.parametrize("extractor", [extract_green, extract_tn_pooled, extract_diff_pooled])
def test_f32_green_channel_is_never_widened_whole(monkeypatch, f32_clip_600x64x64, extractor):
    # the float32 green channel is half of its float64 widening, and the bands and
    # chunks that widen it add a few MB: a float64 copy of it would exceed the bound
    monkeypatch.setenv("PULSE_TN_THREADS", "1")
    green_f64_bytes = 600 * 64 * 64 * 8
    tracemalloc.start()
    try:
        extractor(read_clip(f32_clip_600x64x64, green_only=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * green_f64_bytes


@pytest.mark.parametrize("dtype", ["f32", "u8"])
def test_write_clip_writes_a_float32_clip_as_its_float64_widening(tmp_path, f32_green, dtype):
    clip, wide = f32_green
    write_clip(clip, tmp_path / "narrow.rpgc", dtype=dtype)
    write_clip(wide, tmp_path / "wide.rpgc", dtype=dtype)
    assert (tmp_path / "narrow.rpgc").read_bytes() == (tmp_path / "wide.rpgc").read_bytes()


def read_error(path, **kwargs):
    """The class and message of the ClipFormatError that read_clip raises."""
    with pytest.raises(ClipFormatError) as exc:
        read_clip(path, **kwargs)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("channel", [0, 1, 2])
def test_green_only_rejects_non_finite_in_every_channel(tmp_path, channel, value):
    path = tmp_path / "clip.rpgc"
    write_clip(random_clip(), path)
    buf = bytearray(path.read_bytes())
    # the last pixel of the 12x3x4x3 clip, so every chunk before it was clean
    offset = len(buf) - 4 * (3 - channel)
    buf[offset : offset + 4] = struct.pack("<f", value)
    path.write_bytes(buf)
    error = read_error(path, green_only=True)
    assert error == read_error(path)
    assert error[1] == f"{path}: clip data must not contain NaN or Inf"


def clip_header(t=7, h=3, w=4, c=3, code=clipio.DTYPE_F32, magic=clipio.MAGIC, version=clipio.VERSION):
    return clipio._HEADER.pack(magic, version, t, h, w, c, code, 30.0)


PAYLOAD = bytes(7 * 3 * 4 * 3 * 4)  # float32 zeros for the default header dims

MALFORMED_CLIPS = {
    "bad_magic": (BadMagicError, clip_header(magic=b"XXXX") + PAYLOAD),
    "bad_version": (BadVersionError, clip_header(version=9) + PAYLOAD),
    "bad_dtype": (UnsupportedDtypeError, clip_header(code=7) + PAYLOAD),
    "short_payload": (TruncatedClipError, clip_header() + PAYLOAD[:-1]),
    "long_payload": (TruncatedClipError, clip_header() + PAYLOAD + b"\0"),
    "header_only": (TruncatedClipError, clip_header()),
    "short_header": (TruncatedClipError, clip_header()[:5]),
    "two_channels": (ClipFormatError, clip_header(c=2) + bytes(7 * 3 * 4 * 2 * 4)),
    "one_frame": (ClipFormatError, clip_header(t=1) + bytes(3 * 4 * 3 * 4)),
    "zero_fps": (ClipFormatError, clip_header()[:-4] + struct.pack("<f", 0.0) + PAYLOAD),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CLIPS))
def test_green_only_rejects_what_the_full_read_rejects(tmp_path, case):
    cls, contents = MALFORMED_CLIPS[case]
    path = tmp_path / "clip.rpgc"
    path.write_bytes(contents)
    error = read_error(path, green_only=True)
    assert error == read_error(path)
    assert error[0] is cls


def test_green_only_checks_the_shape_before_the_samples(tmp_path):
    # a 2-channel header has no green channel: its shape is the error, not its NaN
    path = tmp_path / "clip.rpgc"
    path.write_bytes(clip_header(c=2) + struct.pack("<f", float("nan")) * (7 * 3 * 4 * 2))
    assert read_error(path, green_only=True)[1] == f"{path}: clip channel count must be 1 or 3, got 2"


@pytest.mark.parametrize("green_only", [False, True])
def test_zero_fps_is_checked_after_every_sample(tmp_path, green_only):
    path = tmp_path / "clip.rpgc"
    path.write_bytes(MALFORMED_CLIPS["zero_fps"][1])
    assert read_error(path, green_only=green_only)[1] == f"{path}: fps must be finite and > 0, got 0.0"
    # a NaN in the red channel of the last pixel is still reported before the fps
    path.write_bytes(MALFORMED_CLIPS["zero_fps"][1][:-12] + struct.pack("<f", float("nan")) + bytes(8))
    assert read_error(path, green_only=green_only)[1] == f"{path}: clip data must not contain NaN or Inf"


@pytest.mark.parametrize("green_only", [False, True])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", ["f32", "u8"])
def test_read_clip_does_not_validate_its_clip_again(tmp_path, monkeypatch, dtype, channels, green_only):
    # every f32 sample was checked as its chunk was read, and a u8 sample is finite by construction
    path = tmp_path / "clip.rpgc"
    write_clip(random_clip(c=channels), path, dtype=dtype)
    calls = []
    check = FrameClip.__post_init__
    monkeypatch.setattr(FrameClip, "__post_init__", lambda self: calls.append(self) or check(self))
    clip = read_clip(path, green_only=green_only)
    assert calls == []
    assert clip.data.dtype == (np.float32 if dtype == "f32" and green_only else np.float64)
    assert clip.data.shape == (12, 3, 4, 1 if green_only else channels)
    assert clip.fps == 30.0
    if green_only:
        green = 1 if channels == 3 else 0
        expected = read_clip(path).data[..., green : green + 1]
        assert clip.data.astype(np.float64).tobytes() == expected.tobytes()


def test_green_only_rejects_a_directory(tmp_path):
    assert read_error(tmp_path, green_only=True) == read_error(tmp_path) == (ClipFormatError, f"{tmp_path}: not a regular file")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_green_only_rejects_a_fifo_without_opening(tmp_path):
    path = tmp_path / "clip.rpgc"
    os.mkfifo(path)
    # a writer, so that a read_clip that opened the FIFO would not block forever
    guard = os.open(path, os.O_RDWR | os.O_NONBLOCK)
    try:
        assert read_error(path, green_only=True) == read_error(path) == (ClipFormatError, f"{path}: not a regular file")
    finally:
        os.close(guard)


def test_write_clip_u8_peak_memory(tmp_path, monkeypatch):
    # quantized through one 64 KiB float64 buffer, not a float64 copy of the clip
    monkeypatch.setattr(clipio, "_CHUNK_BYTES", 64 * 1024)
    clip = FrameClip(np.random.default_rng(27).random((300, 32, 32, 3)), 30.0)
    payload_bytes = 300 * 32 * 32 * 3
    tracemalloc.start()
    try:
        write_clip(clip, tmp_path / "clip.rpgc", dtype="u8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * payload_bytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_clip_u8_bytes(tmp_path, monkeypatch, order):
    # 100 float64 samples per chunk: four 24-sample frames, and a ragged last chunk
    monkeypatch.setattr(clipio, "_CHUNK_BYTES", 100 * 8)
    k = np.arange(255)
    edges = [-1e3, -1.0, -0.5 / 255, -1e-12, 0.0, 1.0, 1 + 1e-12, 1 + 0.5 / 255, 2.0, 1e3]
    values = np.concatenate([(k + 0.5) / 255, k / 255, edges])
    rng = np.random.default_rng(28)
    shape = (23, 2, 4, 3)
    data = np.concatenate([rng.permutation(values), rng.random(np.prod(shape) - values.size)]).reshape(shape)
    path = tmp_path / "clip.rpgc"
    write_clip(FrameClip(np.asarray(data, order=order), 30.0), path, dtype="u8")
    expected = np.round(np.clip(data, 0.0, 1.0) * 255.0).astype("u1")
    assert path.read_bytes() == clip_header(*shape, code=clipio.DTYPE_U8) + expected.tobytes()


class TestLabels:
    def test_upsert_and_read(self, tmp_path):
        path = tmp_path / "labels.csv"
        upsert_label(path, "v001", 72.0)
        upsert_label(path, "v000", 66.0)
        upsert_label(path, "v001", 75.0)  # replaces
        labels = read_labels(path)
        assert labels == {"v000": 66.0, "v001": 75.0}
        lines = path.read_text().splitlines()
        assert lines[0] == "video_id,hr_bpm"
        assert lines[1].startswith("v000")

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            upsert_label(path, "x", 60.0)
            upsert_label(path, "y", 80.0)
        assert a.read_bytes() == b.read_bytes()

    def test_upsert_into_a_time_series_file_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,t_s,bvp\n" + "".join(f"v0,{k / 20},{np.sin(k)}\n" for k in range(40)))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="labels\\.csv: cannot append a plain label to a time-series file$"):
            upsert_label(path, "v1", 72.0)
        assert path.read_bytes() == before

    def test_out_of_range_hr_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,hr_bpm\nv0,250.0\nv1,72.0\n")
        labels = read_labels(path)
        assert_rejected(labels["v0"], r"labels\.csv: hr_bpm 250\.0 outside \[30, 180\] for v0")
        assert labels["v1"] == 72.0

    def test_duplicate_video_id_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,hr_bpm\nv001,72.0\nv001,150.0\n")
        assert_rejected(read_labels(path)["v001"], r"labels\.csv.*duplicate video_id v001")

    def test_time_series_form(self, tmp_path):
        path = tmp_path / "labels.csv"
        rows = ["video_id,t_s,bvp"]
        t = np.arange(40) / 20.0
        rows += [f"v0,{ts},{np.sin(2 * np.pi * ts)}" for ts in t]
        path.write_text("\n".join(rows) + "\n")
        labels = read_labels(path)
        assert isinstance(labels["v0"], Waveform)
        assert labels["v0"].fps == pytest.approx(20.0)
        assert len(labels["v0"]) == 40

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,rate\nv0,72\n")
        with pytest.raises(ValueError):
            read_labels(path)


@pytest.mark.parametrize("header, rows", [
    ("video_id,hr_bpm", ["v0,72.0", "v1,66.5"]),
    ("video_id,t_s,bvp", [f"{vid},{k / 20!r},{float(np.sin(k))!r}" for vid in ("v0", "v1") for k in range(40)]),
], ids=["hr", "series"])
def test_labels_with_a_byte_order_mark(tmp_path, header, rows):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "\n".join([header, *rows]) + "\n"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    expected, got = read_labels(plain), read_labels(marked)
    assert list(got) == list(expected) == ["v0", "v1"]
    for vid, label in expected.items():
        if isinstance(label, Waveform):
            assert got[vid].samples.tobytes() == label.samples.tobytes()
            assert got[vid].fps == label.fps
        else:
            assert got[vid] == label


def test_upsert_label_writes_utf8_in_any_locale(tmp_path):
    # a C locale with UTF-8 mode off makes ASCII the default text encoding
    path = tmp_path / "labels.csv"
    code = (
        "import sys; from pulse_tn import read_labels, upsert_label; "
        "upsert_label(sys.argv[1], 'vid\\xe9o-\\u03b1', 72.0); upsert_label(sys.argv[1], 'v0', 60.0); "
        "print(ascii(read_labels(sys.argv[1])))"
    )
    src = str(Path(clipio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    result = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "{'v0': 60.0, 'vid\\xe9o-\\u03b1': 72.0}\n"
    assert path.read_bytes() == "video_id,hr_bpm\r\nv0,60.0\r\nvid\u00e9o-\u03b1,72.0\r\n".encode("utf-8")
    assert read_labels(path) == {"v0": 60.0, "vid\u00e9o-\u03b1": 72.0}


def assert_rejected(label, pattern):
    """A label that read_labels rejected maps to the ValueError naming why."""
    assert isinstance(label, ValueError)
    assert re.search(pattern, str(label))


def write_series(path, rows):
    path.write_text("video_id,t_s,bvp\n" + "".join(f"{v},{t!r},{b!r}\n" for v, t, b in rows))


class TestLabelRows:
    def test_short_series_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,t_s,bvp\nv0,0.0,1.0\nv0,0.1\nv0,0.2,1.0\n")
        with pytest.raises(ValueError, match=r"labels\.csv: line 3: 2 fields, expected at least 3"):
            read_labels(path)

    def test_short_hr_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,hr_bpm\nv0\n")
        with pytest.raises(ValueError, match=r"labels\.csv: line 2: 1 fields, expected at least 2"):
            read_labels(path)

    def test_unparsable_value_names_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,hr_bpm\nv0,72\n\nv1,fast\n")
        with pytest.raises(ValueError, match=r"labels\.csv: line 4: could not convert"):
            read_labels(path)

    def test_irregular_spacing_rejected(self, tmp_path):
        # alternating steps of 0.0566 and 0.01 s average to ~30 fps
        t = np.cumsum(np.tile([0.0566, 0.01], 300))
        path = tmp_path / "labels.csv"
        write_series(path, [("v7", float(ts), 0.0) for ts in t])
        assert_rejected(read_labels(path)["v7"], r"labels\.csv: irregular t_s spacing for v7")

    def test_repeated_t_s_rejected(self, tmp_path):
        rows = [("v4", k / 30.0, 0.5) for k in range(60)]
        rows[9] = ("v4", rows[8][1], 0.5)
        path = tmp_path / "labels.csv"
        write_series(path, rows)
        assert_rejected(read_labels(path)["v4"], r"labels\.csv: non-increasing t_s for v4")

    @pytest.mark.parametrize("fps", [12.0, 25.0, 30.0, 29.97])
    def test_regular_spacing_accepted(self, tmp_path, fps):
        path = tmp_path / "labels.csv"
        write_series(path, [("v0", k / fps, float(np.sin(k))) for k in range(3600)])
        assert read_labels(path)["v0"].fps == pytest.approx(fps, rel=1e-9)

    @pytest.mark.parametrize("bad", ["nan_bvp", "inf_t_s"])
    def test_non_finite_rejected(self, tmp_path, bad):
        rows = [("v3", k / 30.0, 0.5) for k in range(60)]
        rows[20] = ("v3", rows[20][1], float("nan")) if bad == "nan_bvp" else ("v3", float("inf"), 0.5)
        path = tmp_path / "labels.csv"
        write_series(path, rows)
        assert_rejected(read_labels(path)["v3"], r"labels\.csv: non-finite t_s or bvp for v3")


# longer than the 131072 characters csv reads in one field by default
HUGE_ID = "x" * 200_000
# "1_0" is a float to Python but not to numpy's reader, so csv reads the series file again
OVERSIZED_FIELD_FILES = {
    "hr_row": ("video_id,hr_bpm", "v0,72", f"{HUGE_ID},70"),
    "hr_header": (f"{HUGE_ID},hr_bpm", "v0,72"),
    "series_row": ("video_id,t_s,bvp", "v0,1_0,0.5", f"{HUGE_ID},0.0,0.5"),
}


@pytest.mark.parametrize("case, line", [("hr_row", 3), ("hr_header", 1), ("series_row", 3)])
def test_field_over_the_csv_limit_names_its_line(tmp_path, case, line):
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(OVERSIZED_FIELD_FILES[case]) + "\n")
    with pytest.raises(ValueError) as exc:
        read_labels(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{path}: line {line}: field larger than field limit (131072)"


def test_upsert_label_refuses_a_file_with_a_field_over_the_csv_limit(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(OVERSIZED_FIELD_FILES["hr_row"]) + "\n")
    with pytest.raises(ValueError, match=r"labels\.csv: line 3: field larger than field limit"):
        upsert_label(path, "v1", 60.0)


def write_lines(path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode())


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
class TestLabelsCsvDialect:
    """The CSV dialect both label schemas accept: quoted fields (an id may
    hold a comma), LF or CRLF line ends, columns in any order beside extra
    ones, and blank lines between rows, which still count toward the line
    numbers errors name."""

    def test_hr_schema_values(self, tmp_path, newline):
        path = tmp_path / "labels.csv"
        lines = ["note,hr_bpm,video_id", "x,72.0,v0", "", '"a, b","66.5","id,with,commas"', "", "", "y,80,v2"]
        write_lines(path, lines, newline)
        assert read_labels(path) == {"v0": 72.0, "id,with,commas": 66.5, "v2": 80.0}

    def test_hr_schema_error_lines(self, tmp_path, newline):
        path = tmp_path / "labels.csv"
        head = ["note,hr_bpm,video_id", '"a,b",72.0,"v,0"', ""]
        write_lines(path, head + ["", "x,fast,v1"], newline)
        with pytest.raises(ValueError, match=r"labels\.csv: line 5: could not convert string to float: 'fast'"):
            read_labels(path)
        write_lines(path, head + ['"y,z",72.0'], newline)
        with pytest.raises(ValueError, match=r"labels\.csv: line 4: 2 fields, expected at least 3"):
            read_labels(path)

    def test_series_schema_values(self, tmp_path, newline):
        path = tmp_path / "labels.csv"
        lines = ["bvp,extra,t_s,video_id"]
        for k in range(40):
            lines += [f'{0.1 * k!r},"n, {k}",{k / 20!r},"a,b"', f"{-0.1 * k!r},,{k / 25!r},v1"]
            if k % 9 == 0:
                lines.append("")
        write_lines(path, lines, newline)
        labels = read_labels(path)
        assert list(labels) == ["a,b", "v1"]
        assert labels["a,b"].fps == pytest.approx(20.0)
        assert labels["a,b"].samples.tolist() == [0.1 * k for k in range(40)]
        assert labels["v1"].fps == pytest.approx(25.0)
        assert labels["v1"].samples.tolist() == [-0.1 * k for k in range(40)]

    def test_series_schema_error_lines(self, tmp_path, newline):
        path = tmp_path / "labels.csv"
        head = ["bvp,extra,t_s,video_id", '0.5,"x,y",0.0,"a,b"', "", '0.6,"",0.04,"a,b"', ""]
        write_lines(path, head + ["0.7,,0.08,v1", "high,,0.12,v1"], newline)
        with pytest.raises(ValueError, match=r"labels\.csv: line 7: could not convert string to float: 'high'"):
            read_labels(path)
        write_lines(path, head + ['0.7,"z",0.08'], newline)
        with pytest.raises(ValueError, match=r"labels\.csv: line 6: 3 fields, expected at least 4"):
            read_labels(path)


def dict_reader_series(path):
    """The csv.DictReader time-series parser that read_labels replaced."""
    with open(path, newline="") as fh:
        series = {}
        for row in csv.DictReader(fh):
            series.setdefault(row["video_id"], []).append((float(row["t_s"]), float(row["bvp"])))
    labels = {}
    for vid, points in series.items():
        points.sort()
        t_s = np.array([p[0] for p in points])
        labels[vid] = Waveform(np.array([p[1] for p in points]), 1.0 / float(np.mean(np.diff(t_s))))
    return labels


def test_series_parse_matches_dict_reader(tmp_path):
    rng = np.random.default_rng(23)
    rows = [
        (vid, k / fps, float(rng.normal()))
        for vid, fps in (("v2", 30.0), ("a,b", 25.0), ("v0", 29.97), ("v1", 12.0))
        for k in range(200)
    ]
    order = rng.permutation(len(rows))
    lines = ["video_id,t_s,bvp"]
    for i, j in enumerate(order):
        vid, t, b = rows[j]
        line = f'"{vid}",{t!r},{b!r}' if "," in vid or i % 7 == 0 else f"{vid},{t!r},{b!r}"
        lines.append(line + ("\n" if i % 11 == 0 else ""))  # blank lines between some rows
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = dict_reader_series(path)
    got = read_labels(path)
    assert list(got) == list(expected)
    for vid, w in expected.items():
        assert got[vid].samples.tobytes() == w.samples.tobytes()
        assert got[vid].fps == w.fps


def test_series_parse_peak_memory(tmp_path):
    path = tmp_path / "labels.csv"
    rng = np.random.default_rng(24)
    write_series(path, [(f"v{i:03d}", k / 30.0, float(rng.normal())) for i in range(16) for k in range(3600)])
    tracemalloc.start()
    try:
        read_labels(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 1024 * 1024


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_rejected_without_opening(tmp_path):
    path = tmp_path / "clip.rpgc"
    os.mkfifo(path)
    # a read-write descriptor counts as a writer, so a read_clip that opened
    # the FIFO would fail on its contents rather than block forever
    guard = os.open(path, os.O_RDWR | os.O_NONBLOCK)
    try:
        with pytest.raises(ClipFormatError, match=r"clip\.rpgc: not a regular file"):
            read_clip(path)
    finally:
        os.close(guard)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_labels_fifo_rejected_without_opening(tmp_path):
    path = tmp_path / "labels.csv"
    os.mkfifo(path)
    # a read-write descriptor counts as a writer; the header it holds has no
    # known schema, so a read_labels that opened the FIFO would fail on it at
    # once rather than block forever waiting for more lines
    guard = os.open(path, os.O_RDWR | os.O_NONBLOCK)
    try:
        os.write(guard, b"id\n")
        with pytest.raises(ValueError, match=r"labels\.csv: not a regular file"):
            read_labels(path)
    finally:
        os.close(guard)


# Characters of the random lines among the rows of a fuzzed labels file.
FUZZ_ALPHABET = [*'0123456789.,"\r\n #e-_', "nan"]


def fuzz_series_text(rnd):
    """A time-series labels file of multi-row videos, in runs or interleaved,
    with lines of random FUZZ_ALPHABET characters among the rows."""
    names = rnd.choice([("video_id", "t_s", "bvp"), ("bvp", "video_id", "t_s"), ("t_s", "bvp", "video_id", "note")])
    vids = rnd.sample(["v0", "v1", "#2", '"a,b"', '"c\nd"', '""'], 2)
    rows = [(vid, k) for vid in vids for k in range(rnd.randint(2, 6))]
    if rnd.random() < 0.5:
        rnd.shuffle(rows)
    lines = [",".join(names)]
    for vid, k in rows:
        fields = {"video_id": vid, "t_s": repr(k / 30), "bvp": repr(rnd.random()), "note": ""}
        lines.append(",".join(fields[name] for name in names))
    while rnd.random() < 0.6:
        junk = "".join(rnd.choices(FUZZ_ALPHABET, k=rnd.randint(0, 8)))
        lines.insert(rnd.randint(1, len(lines)), junk)
    newline = rnd.choice(["\n", "\r\n", "\r"])
    return newline.join(lines) + rnd.choice(["", newline])


def label_outcome(path):
    """read_labels' labels in comparable form, or the class and message of its error."""
    try:
        labels = read_labels(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return [
        (vid, (label.samples.tobytes(), label.fps) if isinstance(label, Waveform) else (type(label), str(label)))
        for vid, label in labels.items()
    ]


def refuse(*args):
    raise ValueError("refused")


@pytest.mark.parametrize("block_chars", [clipio._LABEL_BLOCK_CHARS, 40], ids=["default_block", "few_lines"])
def test_series_fast_parse_matches_the_row_loop(tmp_path, monkeypatch, block_chars):
    """Whatever numpy's reader accepts, it reads as csv's row loop does; what it
    refuses, the row loop reads, and names the line of any error."""
    monkeypatch.setattr(clipio, "_LABEL_BLOCK_CHARS", block_chars)
    fast_parses = []
    series_blocks = clipio._series_blocks

    def counted(*args):
        series = series_blocks(*args)
        fast_parses.append(args)
        return series

    rnd = random.Random(26)
    path = tmp_path / "labels.csv"
    outcomes = set()
    for _ in range(400):
        path.write_bytes(fuzz_series_text(rnd).encode())
        with monkeypatch.context() as patch:
            patch.setattr(clipio, "_series_blocks", refuse)
            expected = label_outcome(path)
        with monkeypatch.context() as patch:
            patch.setattr(clipio, "_series_blocks", counted)
            before = len(fast_parses)
            assert label_outcome(path) == expected
        outcomes.add((isinstance(expected, list), len(fast_parses) > before))
    # numpy's reader parsed files, and refused others, which were read again;
    # some of the files read again parsed, some raised
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("block_chars", [clipio._LABEL_BLOCK_CHARS, 1], ids=["default_block", "line_per_block"])
@pytest.mark.parametrize("text, vids", [
    # a note whose quoted line end is followed by a row-shaped line
    ('video_id,t_s,bvp,note\nv0,0.0,0.5,"x\nv1,0.1,0.6,y"\nv0,0.1,0.7,\n', ["v0"]),
    # an id left open by the last line, with blank lines after it
    ('t_s,bvp,video_id\n0.0,0.5,v0\n0.1,0.6,"v0\n\n\r\n', ["v0", "v0\n\n\r\n"]),
], ids=["row_in_a_note", "open_at_the_end"])
def test_quoted_line_ends_read_as_csv_reads_them(tmp_path, monkeypatch, block_chars, text, vids):
    monkeypatch.setattr(clipio, "_LABEL_BLOCK_CHARS", block_chars)
    path = tmp_path / "labels.csv"
    path.write_bytes(text.encode())
    with monkeypatch.context() as patch:
        patch.setattr(clipio, "_series_blocks", refuse)
        expected = label_outcome(path)
    assert label_outcome(path) == expected
    assert [vid for vid, _ in expected] == vids


@pytest.mark.parametrize("block_chars", [clipio._LABEL_BLOCK_CHARS, 1], ids=["default_block", "line_per_block"])
def test_a_quote_leaves_the_file_to_csv(tmp_path, monkeypatch, block_chars):
    # numpy's reader would read the quoted id as a third video, `"v0"`
    monkeypatch.setattr(clipio, "_LABEL_BLOCK_CHARS", block_chars)
    path = tmp_path / "labels.csv"
    path.write_bytes(b'video_id,t_s,bvp\nv0,0.0,0.5\nv1,0.0,0.1\n"v0",0.1,0.6\nv1,0.1,0.2\n')
    with path.open(newline="") as fh:
        next(fh)
        with pytest.raises(ValueError, match="^a quoted field is read by csv$"):
            clipio._series_blocks(fh, 0, 1, 2)
    with monkeypatch.context() as patch:
        patch.setattr(clipio, "_series_blocks", refuse)
        expected = label_outcome(path)
    assert label_outcome(path) == expected
    assert [vid for vid, _ in expected] == ["v0", "v1"]


def row_loop_must_not_run(*args):
    raise AssertionError("csv's row loop read a file that numpy's reader should parse")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_bench_shaped_series_parse_needs_no_row_loop(tmp_path, monkeypatch, newline):
    rng = np.random.default_rng(27)
    vids = [f"v{i:03d}" for i in range(16)]
    bvp = rng.normal(size=(16, 3600))
    lines = ["video_id,t_s,bvp", ""]
    for vid, row in zip(vids, bvp):
        # a blank line after each video's rows, and a run of them after the last
        lines += [f"{vid},{k / 30.0!r},{float(b)!r}" for k, b in enumerate(row)] + [""]
    lines += ["", ""]
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (newline.join(lines) + newline).encode())
    monkeypatch.setattr(clipio, "_series_rows", row_loop_must_not_run)
    labels = read_labels(path)
    assert list(labels) == vids
    fps = 1.0 / float(np.mean(np.diff(np.arange(3600) / 30.0)))
    for vid, row in zip(vids, bvp):
        assert labels[vid].samples.tobytes() == row.tobytes()
        assert labels[vid].fps == fps


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_block_of_line_ends_is_skipped_and_one_of_spaces_is_not(tmp_path, monkeypatch, newline):
    # one line per block: numpy's reader would warn of a block of line ends that it holds no data
    monkeypatch.setattr(clipio, "_LABEL_BLOCK_CHARS", 1)
    path = tmp_path / "labels.csv"
    lines = ["video_id,t_s,bvp", "", "v0,0.0,0.5", "", "", "v0,0.1,0.6", ""]
    write_lines(path, lines, newline)
    with monkeypatch.context() as patch:
        patch.setattr(clipio, "_series_rows", row_loop_must_not_run)
        assert read_labels(path)["v0"].samples.tolist() == [0.5, 0.6]
    # a line of spaces is a short row to csv
    write_lines(path, [*lines[:3], " ", *lines[3:]], newline)
    with pytest.raises(ValueError, match=r"labels\.csv: line 4: 1 fields, expected at least 3"):
        read_labels(path)
