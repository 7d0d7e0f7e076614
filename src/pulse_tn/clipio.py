"""Binary clip files and the labels CSV.

Clip file layout (all integers little-endian):

    offset  size  field
    0       4     magic "RPGC"
    4       4     version, u32, currently 1
    8       16    dims T, H, W, C, u32 each
    24      4     dtype code, u32: 0 = float32, 1 = uint8
    28      4     fps, float32
    32      -     payload, row-major with T outermost, T*H*W*C samples

float32 payloads round-trip losslessly; uint8 payloads are mapped to [0, 1]
on read (value / 255).
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .core import FrameClip, Waveform

MAGIC = b"RPGC"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1
_HEADER = struct.Struct("<4sIIIIIIf")
_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}
# Payload bytes read per chunk by read_clip.
_CHUNK_BYTES = 4 * 1024 * 1024


class ClipFormatError(ValueError):
    """A clip file that cannot be parsed."""


class BadMagicError(ClipFormatError):
    pass


class BadVersionError(ClipFormatError):
    pass


class UnsupportedDtypeError(ClipFormatError):
    pass


class TruncatedClipError(ClipFormatError):
    """Header or payload shorter/longer than the dims promise."""


def write_clip(clip: FrameClip, path, dtype: str = "f32") -> None:
    """Serialize a clip; dtype "f32" is lossless, "u8" quantizes [0,1] to 255 steps."""
    t, h, w, c = clip.data.shape
    if dtype == "f32":
        code = DTYPE_F32
        payload = clip.data.astype("<f4").tobytes()
    elif dtype == "u8":
        code = DTYPE_U8
        payload = np.round(np.clip(clip.data, 0.0, 1.0) * 255.0).astype("u1").tobytes()
    else:
        raise ValueError(f"dtype must be 'f32' or 'u8', got {dtype!r}")
    header = _HEADER.pack(MAGIC, VERSION, t, h, w, c, code, clip.fps)
    Path(path).write_bytes(header + payload)


def read_clip(path) -> FrameClip:
    """Parse a clip file, rejecting malformed headers with structured errors.

    The payload size is checked against the header dims before anything is
    allocated; the payload is then streamed in chunks through one reused
    buffer into the float64 clip, so the file bytes are never held whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise TruncatedClipError(f"{path}: file shorter than the {_HEADER.size}-byte header")
        magic, version, t, h, w, c, code, fps = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise BadVersionError(f"{path}: unsupported version {version}, expected {VERSION}")
        if code not in _DTYPES:
            raise UnsupportedDtypeError(f"{path}: unknown dtype code {code}")
        dtype = _DTYPES[code]
        expected = t * h * w * c * dtype.itemsize
        actual = size - _HEADER.size
        if expected != actual:
            raise TruncatedClipError(
                f"{path}: payload of {actual} bytes does not match dims "
                f"{t}x{h}x{w}x{c} ({expected} bytes expected)"
            )
        data = _read_payload(fh, dtype, t * h * w * c, path).reshape(t, h, w, c)
    try:
        return FrameClip(data, fps)
    except ValueError as exc:
        raise ClipFormatError(f"{path}: {exc}") from exc


def _read_payload(fh, dtype: np.dtype, count: int, path) -> np.ndarray:
    """Read `count` samples of `dtype` from `fh` into a new float64 array
    (u8 samples divided by 255), one chunk at a time."""
    data = np.empty(count, dtype=np.float64)
    u8 = dtype == _DTYPES[DTYPE_U8]
    step = max(1, _CHUNK_BYTES // dtype.itemsize)
    buf = np.empty(min(step, count), dtype=dtype)
    for start in range(0, count, step):
        chunk = buf[: min(step, count - start)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise TruncatedClipError(f"{path}: file ended inside the payload")
        out = data[start : start + chunk.size]
        if u8:
            np.divide(chunk, 255.0, out=out)
        else:
            out[...] = chunk
    return data


def read_labels(path) -> dict[str, object]:
    """Read a labels CSV into {video_id: hr_bpm} or {video_id: Waveform}.

    Two schemas are accepted, selected by header:
      - video_id,hr_bpm          one heart rate per video
      - video_id,t_s,bvp         a reference pulse time series per video
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "hr_bpm" in fields:
            labels: dict[str, object] = {}
            for row in reader:
                hr = float(row["hr_bpm"])
                if not 30.0 <= hr <= 180.0:
                    raise ValueError(f"{path}: hr_bpm {hr} outside [30, 180] for {row['video_id']}")
                if row["video_id"] in labels:
                    raise ValueError(f"{path}: duplicate video_id {row['video_id']}")
                labels[row["video_id"]] = hr
            return labels
        if "t_s" in fields and "bvp" in fields:
            series: dict[str, list[tuple[float, float]]] = {}
            for row in reader:
                series.setdefault(row["video_id"], []).append((float(row["t_s"]), float(row["bvp"])))
            labels = {}
            for vid, points in series.items():
                points.sort()
                t_s = np.array([p[0] for p in points])
                bvp = np.array([p[1] for p in points])
                dt = np.diff(t_s)
                if len(dt) < 1 or np.any(dt <= 0):
                    raise ValueError(f"{path}: non-increasing t_s for {vid}")
                labels[vid] = Waveform(bvp, 1.0 / float(np.mean(dt)))
            return labels
        raise ValueError(f"{path}: expected columns video_id,hr_bpm or video_id,t_s,bvp")


def upsert_label(path, video_id: str, hr_bpm: float) -> None:
    """Add or replace one row of a video_id,hr_bpm labels CSV.

    The file is rewritten sorted by video_id, so repeated identical runs
    produce identical bytes.
    """
    path = Path(path)
    rows: dict[str, float] = {}
    if path.exists():
        existing = read_labels(path)
        for vid, value in existing.items():
            if not isinstance(value, float):
                raise ValueError(f"{path}: cannot append a plain label to a time-series file")
            rows[vid] = value
    rows[str(video_id)] = float(hr_bpm)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "hr_bpm"])
        for vid in sorted(rows):
            writer.writerow([vid, repr(rows[vid])])
