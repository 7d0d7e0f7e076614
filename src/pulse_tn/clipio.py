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
import stat
import struct
from array import array
from operator import itemgetter
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
# Largest allowed |step - mean step| of a time-series label, relative to the mean step.
_SPACING_TOLERANCE = 0.01


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

    The path must be a regular file. The payload size is checked against
    the header dims before anything is allocated; the payload is then
    streamed in chunks through one reused buffer into the float64 clip, so
    the file bytes are never held whole.
    """
    info = os.stat(path)
    # checked before open: opening a FIFO would block until a writer appears
    if not stat.S_ISREG(info.st_mode):
        raise ClipFormatError(f"{path}: not a regular file")
    size = info.st_size
    with open(path, "rb") as fh:
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

    Blank lines are skipped. A heart rate must lie in [30, 180] BPM and a
    video_id may have only one. A time-series label must be finite and
    evenly spaced in time: every step may differ from the mean step by at
    most 1% of it. A video whose label breaks one of these rules maps to the
    ValueError that says why, so that it flags only its own video. A
    malformed file (unknown header, short row, unparsable number) raises.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader, []))}
        if "video_id" in col and "hr_bpm" in col:
            labels: dict[str, object] = {}
            for vid, text in _label_rows(path, reader, col["video_id"], col["hr_bpm"]):
                hr = _parse_float(path, reader, text)
                if vid in labels:
                    labels[vid] = ValueError(f"{path}: duplicate video_id {vid}")
                elif not 30.0 <= hr <= 180.0:
                    labels[vid] = ValueError(f"{path}: hr_bpm {hr} outside [30, 180] for {vid}")
                else:
                    labels[vid] = hr
            return labels
        if "video_id" in col and "t_s" in col and "bvp" in col:
            # one pair of growing float arrays per video, in first-appearance order
            series: dict[str, tuple[array, array]] = {}
            rows = _label_rows(path, reader, col["video_id"], col["t_s"], col["bvp"])
            for vid, t_s, bvp in rows:
                columns = series.get(vid)
                if columns is None:
                    columns = series[vid] = (array("d"), array("d"))
                columns[0].append(_parse_float(path, reader, t_s))
                columns[1].append(_parse_float(path, reader, bvp))
            return {vid: _series_label(path, vid, *columns) for vid, columns in series.items()}
        raise ValueError(f"{path}: expected columns video_id,hr_bpm or video_id,t_s,bvp")


def _label_rows(path, reader, *columns: int):
    """The given columns of each non-blank row; a row too short for them is a ValueError."""
    width = max(columns) + 1
    pick = itemgetter(*columns)
    for row in reader:
        if len(row) >= width:
            yield pick(row)
        elif row:
            raise ValueError(
                f"{path}: line {reader.line_num}: {len(row)} fields, expected at least {width}"
            )


def _parse_float(path, reader, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _series_label(path, vid: str, t_s: array, bvp: array) -> Waveform | ValueError:
    """The time-ordered samples of one video's t_s,bvp rows as a Waveform, or
    the ValueError that rejects them."""
    try:
        return _series_waveform(path, vid, t_s, bvp)
    except ValueError as exc:
        return exc


def _series_waveform(path, vid: str, t_s: array, bvp: array) -> Waveform:
    t_s = np.frombuffer(t_s, dtype=np.float64)
    bvp = np.frombuffer(bvp, dtype=np.float64)
    if not (np.all(np.isfinite(t_s)) and np.all(np.isfinite(bvp))):
        raise ValueError(f"{path}: non-finite t_s or bvp for {vid}")
    order = np.lexsort((bvp, t_s))
    t_s, bvp = t_s[order], bvp[order]
    dt = np.diff(t_s)
    if len(dt) < 1 or np.any(dt <= 0):
        raise ValueError(f"{path}: non-increasing t_s for {vid}")
    step = float(np.mean(dt))
    jitter = float(np.max(np.abs(dt - step)))
    if jitter > _SPACING_TOLERANCE * step:
        raise ValueError(
            f"{path}: irregular t_s spacing for {vid}: a step differs from the mean "
            f"step {step} by {jitter} (tolerance {_SPACING_TOLERANCE:.0%})"
        )
    return Waveform(bvp, 1.0 / step)


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
            if isinstance(value, ValueError):
                raise value
            if not isinstance(value, float):
                raise ValueError(f"{path}: cannot append a plain label to a time-series file")
            rows[vid] = value
    rows[str(video_id)] = float(hr_bpm)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "hr_bpm"])
        for vid in sorted(rows):
            writer.writerow([vid, repr(rows[vid])])
