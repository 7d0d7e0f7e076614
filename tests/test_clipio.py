import csv
import os
import re
import struct
import tracemalloc

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
from pulse_tn import clipio, extract_tn_pooled


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
