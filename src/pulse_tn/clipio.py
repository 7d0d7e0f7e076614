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

import contextlib
import csv
import os
import stat
import struct
import threading
from array import array
from collections import defaultdict
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import FrameClip, Waveform, _ordered_map, _require_clip_shape, _require_finite, green_channel

MAGIC = b"RPGC"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1
# write_clip's dtype names and the codes they are stored as
DTYPE_CODES = {"f32": DTYPE_F32, "u8": DTYPE_U8}
_HEADER = struct.Struct("<4sIIIIIIf")
_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}
# Payload bytes read, or float64 bytes quantized, per chunk by read_clip and write_clip.
_CHUNK_BYTES = 1024 * 1024
# Largest allowed |step - mean step| of a time-series label, relative to the mean step.
_SPACING_TOLERANCE = 0.01
# Characters of time-series label lines handed to numpy's reader at a time.
_LABEL_BLOCK_CHARS = 64 * 1024
# csv's default dialect without quoting, for numpy's reader: comma-separated, no comment lines.
_CSV_DIALECT = {"delimiter": ",", "comments": None}


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
    if dtype not in DTYPE_CODES:
        raise ValueError(f"dtype must be {' or '.join(map(repr, DTYPE_CODES))}, got {dtype!r}")
    if dtype == "f32":
        # the C-ordered array itself is written, not a bytes copy of it
        with np.errstate(over="ignore"):
            payload = clip.data.astype("<f4", order="C")
        # read_clip would reject the inf a sample beyond float32 casts to, so refuse before opening
        if not np.all(np.isfinite(payload)):
            raise ValueError("clip data must lie within the float32 range to be written as f32")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, t, h, w, c, DTYPE_CODES[dtype], clip.fps))
        if dtype == "f32":
            fh.write(payload)
        else:
            _write_u8(fh, clip.data)


def _write_u8(fh, data: np.ndarray) -> None:
    """Write round(clip(data, 0, 1) * 255) as bytes in C order, quantizing as
    many whole frames at a time as fit one reused float64 buffer of
    _CHUNK_BYTES (at least one frame), so no full-size temporary is made."""
    frame = data[0].size
    step = max(1, _CHUNK_BYTES // (8 * frame))
    scaled = np.empty(min(step, len(data)) * frame)
    for start in range(0, len(data), step):
        block = data[start : start + step]
        f64 = scaled[: block.size]
        np.clip(block, 0.0, 1.0, out=f64.reshape(block.shape))
        f64 *= 255.0
        np.round(f64, out=f64)
        fh.write(f64.astype("u1"))


def read_clip(path, green_only: bool = False) -> FrameClip:
    """Parse a clip file, rejecting malformed headers with structured errors.

    The path must be a regular file. The payload size is checked against the
    header dims, and the dims against FrameClip's shape rules, before anything
    is allocated. The payload is then read in chunks of whole pixels on the
    worker pool, through one reused buffer per thread, so the file bytes are
    never held whole, and every sample of every channel is checked finite on
    the way, and only there.

    By default every channel is widened into a float64 clip. With
    green_only, only the green channel is kept (channel 1 of 3, channel 0 of
    1), as a one-channel clip: the extractors read nothing else. An f32
    payload's green channel then stays float32, its samples exactly the
    file's, since the package's transforms and pooling widen their input
    inside their own float64 arithmetic; a u8 payload's is divided by 255
    into float64.
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
        # FrameClip's checks in its order: shape, then finiteness, each done once, then fps
        with _names_file(path):
            _require_clip_shape((t, h, w, c))
        g = green_channel(c)
        keep = slice(g, g + 1) if green_only else slice(0, c)
        # float32 to float64 is exact, so an f32 green channel is left for its consumers to widen
        out_dtype = np.float32 if green_only and code == DTYPE_F32 else np.float64
        # outside _names_file: a bad PULSE_TN_THREADS is the caller's error, not the file's
        data = _read_payload(fh.fileno(), dtype, t * h * w, c, keep, out_dtype, path)
    with _names_file(path):
        return FrameClip._checked(data.reshape(t, h, w, -1), fps)


@contextlib.contextmanager
def _names_file(path):
    """Re-raise a failed check's ValueError as a ClipFormatError naming the file."""
    try:
        yield
    except ValueError as exc:
        raise ClipFormatError(f"{path}: {exc}") from exc


def _read_payload(
    fd: int, dtype: np.dtype, pixels: int, channels: int, keep: slice, out_dtype: type, path
) -> np.ndarray:
    """Read `pixels` pixels of `channels` samples of `dtype` from the payload
    of the open file `fd`, whole pixels per chunk, and return the `keep`
    channels as a new (pixels, kept) array of `out_dtype`, u8 samples divided
    by 255. Every f32 sample of every channel is checked finite, kept or not.

    The chunks are decoded on the worker pool: each is read with a positional
    read at its own offset, into a chunk buffer that each thread reuses. The
    first failing chunk in file order gives the error.
    """
    data = np.empty((pixels, keep.stop - keep.start), dtype=out_dtype)
    u8 = dtype == _DTYPES[DTYPE_U8]
    step = max(1, _CHUNK_BYTES // (dtype.itemsize * channels))
    buffers = threading.local()

    def decode(start: int) -> None:
        if not hasattr(buffers, "chunk"):
            buffers.chunk = np.empty((min(step, pixels), channels), dtype=dtype)
        chunk = buffers.chunk[: min(step, pixels - start)]
        # a regular file's positional read comes back short only at the file's end
        if os.preadv(fd, [chunk], _HEADER.size + start * channels * dtype.itemsize) != chunk.nbytes:
            raise TruncatedClipError(f"{path}: file ended inside the payload")
        out = data[start : start + len(chunk)]
        if u8:
            np.divide(chunk[:, keep], 255.0, out=out)
        else:
            with _names_file(path):
                _require_finite(chunk, "clip data")
            out[...] = chunk[:, keep]

    for _ in _ordered_map(decode, range(0, pixels, step)):
        pass
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
    malformed file (not a regular file, unknown header, short row,
    unparsable number) raises.

    The time-series rows are parsed by numpy's C reader, a block of lines at
    a time. A file it refuses, or that holds a quote character, is read
    again, row by row, with csv: that read names the bad line, or returns the
    labels when Python's float accepts what the C reader did not (`1_000`,
    non-ASCII digits) or the file quotes a field.
    """
    path = Path(path)
    # checked before open: opening a FIFO would block until a writer appears
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file")
    with _open_labels(path) as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(_csv_rows(path, reader), []))}
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
        if not ("video_id" in col and "t_s" in col and "bvp" in col):
            raise ValueError(f"{path}: expected columns video_id,hr_bpm or video_id,t_s,bvp")
        columns = col["video_id"], col["t_s"], col["bvp"]
        try:
            series = _series_blocks(fh, *columns)
        except ValueError:
            series = None
    if series is None:
        # the C reader refused a line, or met a quote: csv reads the file again, and names any bad line
        with _open_labels(path) as fh:
            reader = csv.reader(fh)
            next(reader)
            series = _series_rows(path, reader, *columns)
    return {vid: _series_label(path, vid, *pair) for vid, pair in series.items()}


def _open_labels(path: Path):
    # utf-8-sig: a byte order mark, as spreadsheet programs write, is not part of the header
    return path.open(newline="", encoding="utf-8-sig")


def _series_rows(path, reader, *columns: int) -> dict[str, tuple[array, array]]:
    """The t_s and bvp values of each video's rows, in first-appearance order of
    the videos, read row by row; an error names the file and the line."""
    series = defaultdict(lambda: (array("d"), array("d")))
    for vid, t_s, bvp in _label_rows(path, reader, *columns):
        pair = series[vid]
        pair[0].append(_parse_float(path, reader, t_s))
        pair[1].append(_parse_float(path, reader, bvp))
    return series


def _series_blocks(fh, vid_col: int, t_col: int, bvp_col: int) -> dict[str, tuple[array, array]]:
    """_series_rows's result for the rest of fh, parsed by numpy's C reader a
    block of lines at a time, blank lines skipped. A line the reader refuses
    raises ValueError, and so does a block holding a quote character: quoting
    is left to csv."""
    series = defaultdict(lambda: (array("d"), array("d")))
    row_dtype = [("id", object), ("t", "f8"), ("bvp", "f8")]
    while block := fh.readlines(_LABEL_BLOCK_CHARS):
        text = "".join(block)
        if '"' in text:
            raise ValueError("a quoted field is read by csv")
        if not text.strip("\r\n"):  # numpy's reader warns that such a block holds no data
            continue
        rows = np.loadtxt(block, usecols=(vid_col, t_col, bvp_col), dtype=row_dtype, ndmin=1, **_CSV_DIALECT)
        ids, t_s, bvp = rows["id"], rows["t"], rows["bvp"]
        # one run per stretch of consecutive rows of one video
        edges = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1), len(ids)]
        for start, stop in zip(edges, edges[1:]):
            pair = series[ids[start]]
            pair[0].frombytes(t_s[start:stop].tobytes())
            pair[1].frombytes(bvp[start:stop].tobytes())
    return series


def _csv_rows(path, reader):
    """The reader's rows; a line csv refuses (a field over its size limit) is a
    ValueError that names it, as the other errors of a labels file are."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _label_rows(path, reader, *columns: int):
    """The given columns of each non-blank row; a row too short for them is a ValueError."""
    width = max(columns) + 1
    pick = itemgetter(*columns)
    for row in _csv_rows(path, reader):
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
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "hr_bpm"])
        for vid in sorted(rows):
            writer.writerow([vid, repr(rows[vid])])
