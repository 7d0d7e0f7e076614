"""Manifest evaluation: batch HR estimation, metric reports, extractor comparison.

A manifest is a directory of *.rpgc clip files plus a labels.csv. Clips
produced by the simulator carry a <name>.sim.json sidecar with the generating
parameters, which lets the comparison report recompute feature-space noise
ratios against the exact ground truth.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import clipio
from .core import Waveform, _ordered_map, _require_number, _require_positive
from .extract import ExtractorKind, run_extractor
from .hr import PipelineConfig, SamplingRateError, _rate, compute_metrics, video_hr
from .simulate import NoiseSpec, PulseSpec, SceneSpec, _trace_model, parse_noise_string, synth_pulse
from .tn import EPSILON

# A simulator sidecar's keys: the spec field names (the jitter seed as `seed`), fps, frames, size and noise.
_SCENE_KEYS = tuple(field.name for field in fields(SceneSpec) if field.name != "jitter_seed")
_PULSE_KEYS = tuple(field.name for field in fields(PulseSpec))
SIDECAR_KEYS = (*_SCENE_KEYS, *_PULSE_KEYS, "fps", "frames", "height", "width", "noise", "seed")


def sidecar_path(clip_path: Path) -> Path:
    """The simulator sidecar beside a clip: `<clip>.sim.json`."""
    return clip_path.with_suffix(clip_path.suffix + ".sim.json")


def noise_feature_ratios(
    scene: SceneSpec,
    pulse: Waveform,
    noise: NoiseSpec,
    height: int,
    width: int,
    epsilon: float = EPSILON,
) -> tuple[float, float]:
    """Noise-residual RMS over pulse-signal RMS, in each feature space.

    For a feature transform F this is rms(F(noisy) - F(ideal)) / rms(F(ideal)),
    returned for the temporal-normalization features and for raw frame
    differences. Per-trace gains, offsets and linear drifts sit in the
    detrend null space, so for affine illumination drift the normalized
    features keep an order of magnitude less leakage than differences do
    (on clips up to roughly 550 frames at 30 fps with the default pulse
    amplitude; longer clips shrink the per-frame drift and flatter the
    difference baseline). Band-limited wobble (e.g. a 0.3 Hz sinusoid)
    survives detrending and is renormalized to unit scale whenever it
    exceeds the pulse amplitude, which caps the achievable contrast in this
    metric; the waveform-correlation comparison stays meaningful there.

    Nothing clip-sized is rendered or transformed: each trace is a fixed
    combination of four length-T series (`simulate._trace_model`), with ideal
    coefficients a and residual coefficients r. With R the triangular factor of
    the detrended series (`_triangle`), a trace's detrended ideal and noisy
    traces have the sums of squares |R a|² and |R (a + r)|², which set the TN
    divisors sa and sb, and its TN residual D(a)/sb - D(a)/sa + D(r)/sb has
    |R (k a + r/sb)|², k = 1/sb - 1/sa; with R of the differenced series, the
    differences give |R a|² and |R r|². These are within 2e-14 relative of the
    exact values, where rendering both clips is up to 1.3e-11 off. A scene with
    no noise, or only zero-valued terms, has R r = 0 and ratios of exactly 0.

    The renders are checked as clips are, before the epsilon and the
    frame count: `_trace_model` computes both, in their own arithmetic, at each
    channel's least and greatest diffuse value only. A render is linear in the
    diffuse value, so it overflows there if at any pixel. Sums that overflow
    float64 raise a ValueError.
    """
    frames = len(pulse)
    vd = scene.diffuse_field(height, width)
    series, ideal, residual = _trace_model(scene, pulse, noise, vd)
    epsilon = _require_positive(epsilon, "epsilon")
    if frames < 3:
        raise ValueError(f"temporal normalization needs at least 3 frames, got {frames}")
    t = np.arange(frames) - (frames - 1) / 2.0

    def dots(u, v):  # the sum of u_i v_i, trace by trace
        return np.einsum("i...,i...->...", u, v)

    with np.errstate(over="ignore", invalid="ignore"):
        detrended = series - series.mean(axis=1, keepdims=True)
        detrended -= (np.einsum("it,t->i", detrended, t) / np.einsum("t,t->", t, t))[:, None] * t
        tn_factor, diff_factor = _triangle(detrended), _triangle(np.diff(series))
        a, r = (np.einsum("ij,j...->i...", tn_factor, c) for c in (ideal, residual))
        diff_a, diff_r = (np.einsum("ij,j...->i...", diff_factor, c) for c in (ideal, residual))
        sa, sar, sr = dots(a, a), dots(a, r), dots(r, r)
        rms_a, rms_b = np.sqrt(sa / frames + epsilon), np.sqrt(dots(a + r, a + r) / frames + epsilon)
        # 1/sb - 1/sa as (sa² - sb²) / (sa sb (sa + sb)), which cancels nothing
        k = -(2.0 * sar + sr) / (frames * rms_a * rms_b * (rms_a + rms_b))
        tn_r = k * a + r / rms_b
        sums = [dots(tn_r, tn_r).sum(), (sa / rms_a**2).sum(), dots(diff_r, diff_r).sum(), dots(diff_a, diff_a).sum()]
    if not np.all(np.isfinite(sums)):
        raise ValueError("the noise ratio's sums of squares overflow float64: the scene's samples are too large")
    return _ratio(*sums[:2], frames * vd.size), _ratio(*sums[2:], (frames - 1) * vd.size)


def _triangle(x: np.ndarray) -> np.ndarray:
    """The upper-triangular factor R (k, k) of the rows of x (k, T), by Householder
    reflections: |c @ x| = |R @ c| for every coefficient vector c. Unlike a
    quadratic form of the Gram matrix x @ x.T, which squares the cancellation
    between nearly parallel rows (a constant illumination gain makes gi p a
    multiple of p: 2e-11 relative off), R keeps it at the rows' own scale."""
    a = x.copy()
    for i in range(min(a.shape)):
        row = a[i, i:]
        v = row.copy()
        v[0] += np.copysign(np.sqrt(np.einsum("t,t->", row, row)), row[0])
        vv = np.einsum("t,t->", v, v)
        if vv == 0.0:  # nothing left to reflect
            continue
        a[i:, i:] -= np.einsum("jt,t->j", a[i:, i:], v)[:, None] * (v * (2.0 / vv))
    return np.triu(a[:, : len(a)].T)


def _ratio(residual: float, ideal: float, count: int) -> float:
    """sqrt(residual / count) / sqrt(ideal / count): the RMS ratio of two sums of
    squares over `count` samples.

    A pulse-free scene has all-zero ideal features, so its ratio is undefined
    and raises a ValueError.
    """
    scale = float(np.sqrt(ideal / count))
    if scale == 0.0:
        raise ValueError("the ideal features have zero RMS: a pulse-free scene has no noise ratio")
    return float(np.sqrt(residual / count)) / scale


def scene_from_sidecar(meta: dict) -> tuple[SceneSpec, Waveform, NoiseSpec, int, int]:
    """`render_noisy`'s arguments for the clip a simulator sidecar with SIDECAR_KEYS
    records. A number field holds an int or a float, never a boolean, and `frames`, `height` and
    `width` an int; `illumination`, `specular` and `diffuse` may hold a list of such numbers."""
    for key in [k for k in SIDECAR_KEYS if k not in ("shape", "noise", "seed")]:
        value = meta.get(key, 0)  # a missing field raises its KeyError where it is read
        items = value if key in _SCENE_KEYS[:3] and isinstance(value, list) else [value]
        for item in items:
            _require_number(item, key, integer=key in ("frames", "height", "width"))
    scene = SceneSpec(jitter_seed=meta["seed"], **{key: meta[key] for key in _SCENE_KEYS})
    pulse = PulseSpec(**{key: meta[key] for key in _PULSE_KEYS})
    noise = parse_noise_string(meta["noise"])
    return scene, synth_pulse(pulse, meta["fps"], meta["frames"]), noise, meta["height"], meta["width"]


def _label_fields(label, cfg: PipelineConfig) -> dict:
    """A clip's label fields. Direct HR labels pass through; reference pulse series get the
    same pipeline. A label that read_labels rejected (the ValueError it carries), or that
    yields no heart rate, flags its own rows only."""
    if label is None:
        return {"hr_label": None, "label_missing": True}
    if isinstance(label, ValueError):
        return {"label_error": str(label)}
    try:
        return {"hr_label": video_hr(label, cfg) if isinstance(label, Waveform) else float(label)}
    except ValueError as exc:  # a short or degenerate label
        return {"label_error": str(exc)}


def _clip_rows(path: Path, kinds: list[ExtractorKind], label, cfg: PipelineConfig) -> tuple[list, list, tuple | None]:
    """One row per extractor from one read of the clip's green channel (the
    only channel the extractors read), each scored against the label HR,
    which is computed once. Also returned are the errors that rows failed
    their extraction with, and the clip's frames, height, width and fps, or
    None when it could not be read. The clip is freed on return."""
    try:
        clip = clipio.read_clip(path, green_only=True)
    except (OSError, clipio.ClipFormatError) as exc:
        return [{"video_id": path.stem, "error": str(exc)} for _ in kinds], [], None
    rows, failures, fields = [], [], None
    for kind in kinds:
        row: dict = {"video_id": path.stem}
        rows.append(row)
        try:
            hr_pred, dropped = _rate(run_extractor(kind, clip, cfg.epsilon), cfg)
        except ValueError as exc:
            # degenerate spectra, clips shorter than one segment, etc.: flag the row
            row["error"] = str(exc)
            failures.append(exc.with_traceback(None))  # a traceback would hold the clip until the walk ends
            continue
        row.update(hr_pred=hr_pred, segments_dropped=dropped)
        fields = fields or _label_fields(label, cfg)
        row.update(fields)
        if row.get("hr_label") is not None:
            row["abs_err"] = abs(row["hr_pred"] - row["hr_label"])
    return rows, failures, (*clip.data.shape[:3], clip.fps)


def _noise_ratio_row(path: Path, dims: tuple | None, epsilon: float) -> dict | None:
    """Noise ratios of a clip with a simulator sidecar. A clip that was not read
    (`dims` None), a sidecar whose frames, height, width or fps differ from `dims`,
    or one that cannot be read or decoded as JSON, lacks a field or holds a bad value gives
    the row an `error` instead, and no ratio is computed. A dangling link counts as a
    sidecar."""
    sidecar = sidecar_path(path)
    if not os.path.lexists(sidecar):
        return None
    if dims is None:
        error = "its clip could not be read, so the sidecar cannot be checked against it"
        return {"video_id": path.stem, "error": f"{sidecar}: {error}"}
    row: dict = {"video_id": path.stem}
    try:
        meta = json.loads(sidecar.read_text())
        *sizes, fps = dims
        for key, size in zip(("frames", "height", "width"), sizes):
            if meta[key] != size:
                raise ValueError(f"{key} {meta[key]!r} does not match the clip's {size}")
        scene = scene_from_sidecar(meta)
        # after scene_from_sidecar, so a non-positive fps keeps its own message; the header stores fps
        # as float32, so a sidecar's 29.97 matches it once rounded alike (and 1e300 rounds to inf)
        with np.errstate(over="ignore"):
            if np.float32(meta["fps"]) != fps:
                raise ValueError(f"fps {meta['fps']!r} does not match the clip's {fps}")
        ratio_tn, ratio_diff = noise_feature_ratios(*scene, epsilon)
    except KeyError as exc:
        row["error"] = f"{sidecar}: missing field {exc}"
    except (OSError, RecursionError, TypeError, ValueError) as exc:  # RecursionError: JSON nested too deep
        row["error"] = f"{sidecar}: {exc}"
    else:
        row.update(tn_residual_ratio=ratio_tn, diff_residual_ratio=ratio_diff)
    return row


def _walk(manifest_dir, kinds, cfg, noise_ratios) -> tuple[list, list]:
    """One task per clip, on the worker pool. Returns each extractor's rows and
    the noise-ratio rows, if asked for (compare), all in video-id order.

    A band no clip's frame rate can carry is a bad setting, not a set of bad
    clips: when every row failed its extraction with SamplingRateError, the
    first such error is raised.
    """
    manifest_dir = Path(manifest_dir)
    clip_paths = sorted(manifest_dir.glob("*.rpgc"), key=lambda path: path.stem)
    if not clip_paths:
        raise ValueError(f"manifest {manifest_dir} contains no .rpgc clips")
    labels_path = manifest_dir / "labels.csv"
    labels = clipio.read_labels(labels_path) if os.path.lexists(labels_path) else {}

    def task(path: Path) -> tuple[list[dict], list, dict | None]:
        rows, failures, dims = _clip_rows(path, kinds, labels.get(path.stem), cfg)
        return rows, failures, _noise_ratio_row(path, dims, cfg.epsilon) if noise_ratios else None

    results = list(_ordered_map(task, clip_paths))
    per_kind = [[rows[k] for rows, _, _ in results] for k in range(len(kinds))]
    failures = [exc for _, errors, _ in results for exc in errors]
    if len(failures) == len(clip_paths) * len(kinds) and all(type(exc) is SamplingRateError for exc in failures):
        raise failures[0]
    return per_kind, [ratios for _, _, ratios in results if ratios is not None]


def _metrics(rows: list[dict]) -> dict:
    """The mae/rmse/pearson block over the rows scored against a label."""
    scored = [row for row in rows if "abs_err" in row]
    if not scored:
        return {"mae": None, "rmse": None, "pearson": None, "pearson_defined": False}
    report = compute_metrics([row["hr_pred"] for row in scored], [row["hr_label"] for row in scored])
    return {
        "mae": report.mae,
        "rmse": report.rmse,
        "pearson": report.pearson if report.pearson_defined else None,
        "pearson_defined": report.pearson_defined,
    }


def evaluate_manifest(manifest_dir, kind: ExtractorKind, cfg: PipelineConfig = PipelineConfig()) -> dict:
    """Estimate HR for every clip in a manifest and aggregate metrics.

    Videos without a label, or whose label is rejected or yields no heart
    rate (`label_error`), are kept as flagged rows and excluded from the
    aggregates. A clip that cannot be read or yields no heart rate becomes a
    row with an `error` field. Results are merged by sorted video id, so
    reports are deterministic regardless of scheduling.
    """
    (rows,), _ = _walk(manifest_dir, [kind], cfg, noise_ratios=False)
    n_evaluated = sum("abs_err" in row for row in rows)
    doc = {"config": cfg.to_json([kind.value]), "per_video": rows, "n_videos": len(rows), "n_evaluated": n_evaluated}
    return doc | _metrics(rows)


def compare_manifest(manifest_dir, kinds: list[ExtractorKind], cfg: PipelineConfig = PipelineConfig()) -> dict:
    """Side-by-side metrics per extractor, plus noise ratios where sidecars exist.

    Each extractor's block holds the rows and metrics `evaluate_manifest`
    gives it; each clip is read once for all of them. An empty or repeated
    extractor list is a ValueError. The mean ratios leave out rows with an
    `error`.
    """
    if not kinds:
        raise ValueError("compare needs at least one extractor")
    names = [kind.value for kind in kinds]
    repeated = [name for name in names if names.count(name) > 1]
    if repeated:
        raise ValueError(f"extractor {repeated[0]} is listed more than once")
    per_kind, ratio_rows = _walk(manifest_dir, kinds, cfg, noise_ratios=True)
    noise: dict = {"per_video": ratio_rows}
    usable = [row for row in ratio_rows if "error" not in row]
    if usable:
        noise["mean_tn_ratio"] = float(np.mean([row["tn_residual_ratio"] for row in usable]))
        noise["mean_diff_ratio"] = float(np.mean([row["diff_residual_ratio"] for row in usable]))
    blocks = {name: _metrics(rows) | {"per_video": rows} for name, rows in zip(names, per_kind)}
    return {"config": cfg.to_json(names), "extractors": blocks, "noise_ratios": noise}


def write_report(doc: dict, path) -> None:
    """Serialize a report deterministically (sorted keys, stable float repr, strict JSON)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
