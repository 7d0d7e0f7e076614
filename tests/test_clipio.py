import struct

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
        path.write_text("video_id,hr_bpm\nv0,250.0\n")
        with pytest.raises(ValueError):
            read_labels(path)

    def test_duplicate_video_id_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,hr_bpm\nv001,72.0\nv001,150.0\n")
        with pytest.raises(ValueError, match=r"labels\.csv.*duplicate video_id v001"):
            read_labels(path)

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
