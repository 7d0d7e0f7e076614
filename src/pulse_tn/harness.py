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
from .core import Waveform, _ordered_map
from .diff import frame_diff
from .extract import ExtractorKind, run_extractor
from .hr import PipelineConfig, SamplingRateError, _rate, compute_metrics, video_hr
from .simulate import (
    NO_NOISE,
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    parse_noise_string,
    render_ideal,
    render_noisy,
    synth_pulse,
)
from .tn import EPSILON, tn

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

    At most three clip-sized arrays are alive at once, and each ratio is the
    float that the two whole clips and their whole feature arrays give. A
    noise-free scene is rendered once: its noisy clip would be the same
    clip, so both residuals are exactly 0. A noisy scene renders both clips
    first (so the first error is the one transforming each whole would
    meet), frees the ideal clip once its TN features exist, and renders it
    again for the frame differences, which costs less than a fourth array.
    """
    ideal = render_ideal(scene, pulse, height, width)
    if noise == NO_NOISE:
        ratio_tn = _residual_ratio(tn(ideal, epsilon).data, None)
        return ratio_tn, _residual_ratio(frame_diff(ideal).data, None)
    noisy = render_noisy(scene, pulse, noise, height, width)
    ideal_tn = tn(ideal, epsilon).data
    del ideal
    ratio_tn = _residual_ratio(ideal_tn, tn(noisy, epsilon).data)
    del ideal_tn
    noisy_diff = frame_diff(noisy).data
    del noisy
    ideal_diff = frame_diff(render_ideal(scene, pulse, height, width)).data
    return ratio_tn, _residual_ratio(ideal_diff, noisy_diff)


def _residual_ratio(ideal: np.ndarray, noisy: np.ndarray | None) -> float:
    """rms(noisy - ideal) / rms(ideal), with the residual written over `noisy` and
    both arrays squared in place. `noisy` None stands for `ideal` itself, whose
    residual is 0.

    A pulse-free scene has all-zero ideal features, so its ratio is undefined
    and raises a ValueError.
    """
    residual = 0.0
    if noisy is not None:
        noisy -= ideal
        residual = np.mean(np.square(noisy, out=noisy))
    scale = float(np.sqrt(np.mean(np.square(ideal, out=ideal))))
    if scale == 0.0:
        raise ValueError("the ideal features have zero RMS: a pulse-free scene has no noise ratio")
    return float(np.sqrt(residual)) / scale


def scene_from_sidecar(meta: dict) -> tuple[SceneSpec, Waveform, NoiseSpec, int, int]:
    """`render_noisy`'s arguments for the clip a simulator sidecar with SIDECAR_KEYS
    records. A number field takes no boolean or string, and `frames`, `height` and `width`
    take integers; `illumination`, `specular` and `diffuse` may hold one number per channel."""
    for key in [k for k in SIDECAR_KEYS if k not in ("shape", "noise", "seed")]:
        value = meta.get(key, 0)  # a missing field raises its KeyError where it is read
        kind = int if key in ("frames", "height", "width") else (int, float)
        items = value if key in _SCENE_KEYS[:3] and isinstance(value, list) else [value]
        if not all(isinstance(item, kind) and not isinstance(item, bool) for item in items):
            raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    scene = SceneSpec(jitter_seed=meta["seed"], **{key: meta[key] for key in _SCENE_KEYS})
    pulse = PulseSpec(**{key: meta[key] for key in _PULSE_KEYS})
    noise = parse_noise_string(meta["noise"])
    return scene, synth_pulse(pulse, meta["fps"], meta["frames"]), noise, meta["height"], meta["width"]


def _label_hr(label, cfg: PipelineConfig) -> float:
    """Direct HR labels pass through; reference pulse series get the same pipeline.

    A label that read_labels rejected is the ValueError it carries, raised here.
    """
    if isinstance(label, ValueError):
        raise label
    return video_hr(label, cfg) if isinstance(label, Waveform) else float(label)


def _clip_rows(path: Path, kinds: list[ExtractorKind], label, cfg: PipelineConfig) -> tuple[list, list, tuple | None]:
    """One row per extractor from one read of the clip's green channel (the
    only channel the extractors read), each scored against the label HR,
    which is computed once. Also returned are the classes of the errors that
    flagged rows, and the clip's frames, height, width and fps, or None when
    it could not be read. The clip is freed on return."""
    try:
        clip = clipio.read_clip(path, green_only=True)
    except (OSError, clipio.ClipFormatError) as exc:
        return [{"video_id": path.stem, "error": str(exc)} for _ in kinds], [type(exc)] * len(kinds), None
    rows, failures, fields = [], [], None
    for kind in kinds:
        row: dict = {"video_id": path.stem}
        rows.append(row)
        try:
            hr_pred, dropped = _rate(run_extractor(kind, clip, cfg.epsilon), cfg)
        except ValueError as exc:
            # degenerate spectra, clips shorter than one segment, etc.: flag the row
            row["error"] = str(exc)
            failures.append(type(exc))
            continue
        row.update(hr_pred=hr_pred, segments_dropped=dropped)
        if fields is None:
            fields = {"hr_label": None, "label_missing": True}
            if label is not None:
                try:
                    fields = {"hr_label": _label_hr(label, cfg)}
                except ValueError as exc:
                    # a rejected, short or degenerate label flags its own rows only
                    fields = {"label_error": str(exc)}
        row.update(fields)
        if row.get("hr_label") is not None:
            row["abs_err"] = abs(row["hr_pred"] - row["hr_label"])
    return rows, failures, (*clip.data.shape[:3], clip.fps)


def _noise_ratio_row(path: Path, dims: tuple | None, epsilon: float) -> dict | None:
    """Noise ratios of a clip with a simulator sidecar. A clip that was not read
    (`dims` None), a sidecar whose frames, height, width or fps differ from `dims`,
    or one that cannot be read, is not JSON, lacks a field or holds a bad value gives
    the row an `error` instead, and nothing is rendered. A dangling link counts as a
    sidecar."""
    sidecar = sidecar_path(path)
    if not os.path.lexists(sidecar):
        return None
    row: dict = {"video_id": path.stem}
    try:
        if dims is None:
            raise ValueError("its clip could not be read, so the sidecar cannot be checked against it")
        meta = json.loads(sidecar.read_text())
        *sizes, fps = dims
        for key, size in zip(("frames", "height", "width"), sizes):
            if meta[key] != size:
                raise ValueError(f"{key} {meta[key]!r} does not match the clip's {size}")
        scene = scene_from_sidecar(meta)
        # after scene_from_sidecar, so a non-positive fps keeps its own message; the header
        # stores fps as float32, so a sidecar's 29.97 matches it once rounded alike
        if np.float32(meta["fps"]) != fps:
            raise ValueError(f"fps {meta['fps']!r} does not match the clip's {fps}")
        ratio_tn, ratio_diff = noise_feature_ratios(*scene, epsilon)
    except KeyError as exc:
        row["error"] = f"{sidecar}: missing field {exc}"
    except (OSError, TypeError, ValueError) as exc:
        row["error"] = f"{sidecar}: {exc}"
    else:
        row.update(tn_residual_ratio=ratio_tn, diff_residual_ratio=ratio_diff)
    return row


def _walk(manifest_dir, kinds, cfg, noise_ratios) -> tuple[list, list]:
    """One task of the worker pool per clip. Returns each extractor's rows and the
    noise-ratio rows, if asked for, all in video-id order.

    A band no clip's frame rate can carry is a bad setting, not a set of bad
    clips: when every row failed with SamplingRateError, that error is raised.
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
    failures = [cls for _, classes, _ in results for cls in classes]
    if len(failures) == len(clip_paths) * len(kinds) and all(cls is SamplingRateError for cls in failures):
        raise SamplingRateError(per_kind[0][0]["error"])
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
