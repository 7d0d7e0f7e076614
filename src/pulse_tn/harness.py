"""Manifest evaluation: batch HR estimation, metric reports, extractor comparison.

A manifest is a directory of *.rpgc clip files plus a labels.csv. Clips
produced by the simulator carry a <name>.sim.json sidecar with the generating
parameters, which lets the comparison report recompute feature-space noise
ratios against the exact ground truth.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import clipio
from .core import Waveform
from .diff import frame_diff
from .extract import ExtractorKind, run_extractor
from .hr import DegenerateSignalError, PipelineConfig, compute_metrics, segment_heart_rates, video_hr
from .simulate import (
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    parse_noise_string,
    render_ideal,
    render_noisy,
    synth_pulse,
)
from .tn import TnConfig, tn

THREADS_ENV = "PULSE_TN_THREADS"


def worker_count(n_tasks: int) -> int:
    """Bounded pool size; the PULSE_TN_THREADS env var caps it."""
    workers = min(os.cpu_count() or 1, max(n_tasks, 1))
    cap = os.environ.get(THREADS_ENV, "").strip()
    if cap and not (cap.isdecimal() and int(cap) >= 1):
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {cap!r}")
    return min(workers, int(cap)) if cap else workers


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


def noise_feature_ratios(
    scene: SceneSpec,
    pulse: Waveform,
    noise: NoiseSpec,
    height: int,
    width: int,
    cfg: TnConfig = TnConfig(),
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
    """
    ideal = render_ideal(scene, pulse, height, width)
    noisy = render_noisy(scene, pulse, noise, height, width)
    # each pair of feature arrays is freed when its ratio returns
    ratio_tn = _residual_ratio(tn(ideal, cfg).data, tn(noisy, cfg).data)
    ratio_diff = _residual_ratio(frame_diff(ideal).data, frame_diff(noisy).data)
    return ratio_tn, ratio_diff


def _residual_ratio(ideal: np.ndarray, noisy: np.ndarray) -> float:
    """rms(noisy - ideal) / rms(ideal), with the residual written over `noisy`.

    A pulse-free scene has all-zero ideal features, so its ratio is undefined
    and raises a ValueError.
    """
    scale = _rms(ideal)
    if scale == 0.0:
        raise ValueError("the ideal features have zero RMS: a pulse-free scene has no noise ratio")
    noisy -= ideal
    return _rms(noisy) / scale


def scene_from_sidecar(meta: dict) -> tuple[SceneSpec, PulseSpec, NoiseSpec]:
    """The specs a simulator sidecar records; its keys are the spec field names, but `seed`."""
    scene_keys = ("illumination", "specular", "diffuse", "pixel_jitter")
    scene = SceneSpec(jitter_seed=meta["seed"], **{key: meta[key] for key in scene_keys})
    pulse = PulseSpec(**{key: meta[key] for key in ("hr_bpm", "amplitude", "shape", "harmonic_ratio")})
    return scene, pulse, parse_noise_string(meta["noise"])


def _label_hr(label, cfg: PipelineConfig) -> float:
    """Direct HR labels pass through; reference pulse series get the same pipeline.

    A label that read_labels rejected is the ValueError it carries, raised here.
    """
    if isinstance(label, ValueError):
        raise label
    return video_hr(label, cfg) if isinstance(label, Waveform) else float(label)


def _clip_rows(path: Path, kinds: list[ExtractorKind], label, cfg: PipelineConfig, skip_bad: bool) -> list:
    """One row per extractor from one read of the clip, each scored against
    the label HR, which is computed once. The clip is freed on return."""
    try:
        clip = clipio.read_clip(path)
    except ValueError as exc:
        if isinstance(exc, clipio.ClipFormatError) and not skip_bad:
            raise
        return [{"video_id": path.stem, "error": str(exc)} for _ in kinds]
    rows, fields = [], None
    for kind in kinds:
        row: dict = {"video_id": path.stem}
        rows.append(row)
        try:
            rates, dropped = segment_heart_rates(run_extractor(kind, clip, cfg.tn), cfg)
            if not rates:
                raise DegenerateSignalError(f"{path.stem}: all {dropped} segments degenerate")
        except ValueError as exc:
            # degenerate spectra, clips shorter than one segment, etc.: flag the row
            row["error"] = str(exc)
            continue
        row.update(hr_pred=float(np.mean(rates)), segments_dropped=dropped)
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
    return rows


def _noise_ratio_row(path: Path, cfg: TnConfig) -> dict | None:
    """Noise ratios of a clip with a simulator sidecar; a sidecar that is not
    JSON, lacks a field or holds a bad value gives the row an `error` instead."""
    sidecar = path.with_suffix(path.suffix + ".sim.json")
    if not sidecar.exists():
        return None
    row: dict = {"video_id": path.stem}
    try:
        meta = json.loads(sidecar.read_text())
        scene, pulse_spec, noise = scene_from_sidecar(meta)
        pulse = synth_pulse(pulse_spec, meta["fps"], meta["frames"])
        ratio_tn, ratio_diff = noise_feature_ratios(scene, pulse, noise, meta["height"], meta["width"], cfg)
    except KeyError as exc:
        row["error"] = f"{sidecar}: missing field {exc}"
    except (TypeError, ValueError) as exc:
        row["error"] = f"{sidecar}: {exc}"
    else:
        row.update(tn_residual_ratio=ratio_tn, diff_residual_ratio=ratio_diff)
    return row


def _walk(manifest_dir, kinds, cfg, skip_bad, noise_ratios) -> tuple[list, list]:
    """One pool task per clip. Returns each extractor's rows and the
    noise-ratio rows, if asked for, all in video-id order."""
    manifest_dir = Path(manifest_dir)
    clip_paths = sorted(manifest_dir.glob("*.rpgc"), key=lambda path: path.stem)
    if not clip_paths:
        raise ValueError(f"manifest {manifest_dir} contains no .rpgc clips")
    labels_path = manifest_dir / "labels.csv"
    labels = clipio.read_labels(labels_path) if labels_path.exists() else {}

    def task(path: Path) -> tuple[list[dict], dict | None]:
        rows = _clip_rows(path, kinds, labels.get(path.stem), cfg, skip_bad)
        return rows, _noise_ratio_row(path, cfg.tn) if noise_ratios else None

    with ThreadPoolExecutor(max_workers=worker_count(len(clip_paths))) as pool:
        results = list(pool.map(task, clip_paths))
    per_kind = [[rows[k] for rows, _ in results] for k in range(len(kinds))]
    return per_kind, [ratios for _, ratios in results if ratios is not None]


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


def evaluate_manifest(
    manifest_dir,
    kind: ExtractorKind,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    skip_bad: bool = False,
) -> dict:
    """Estimate HR for every clip in a manifest and aggregate metrics.

    Videos without a label, or whose label is rejected or yields no heart
    rate (`label_error`), are kept as flagged rows and excluded from the
    aggregates. Unreadable clips raise unless skip_bad is set, in which case
    they become rows with an `error` field. Results are merged by sorted
    video id, so reports are deterministic regardless of scheduling.
    """
    (rows,), _ = _walk(manifest_dir, [kind], cfg, skip_bad, noise_ratios=False)
    n_evaluated = sum("abs_err" in row for row in rows)
    doc = {"config": cfg.to_json([kind.value]), "per_video": rows, "n_videos": len(rows), "n_evaluated": n_evaluated}
    return doc | _metrics(rows)


def compare_manifest(
    manifest_dir,
    kinds: list[ExtractorKind],
    cfg: PipelineConfig = PipelineConfig(),
    *,
    skip_bad: bool = False,
) -> dict:
    """Side-by-side metrics per extractor, plus noise ratios where sidecars exist.

    Each extractor's block holds the rows and metrics `evaluate_manifest`
    gives it; each clip is read once for all of them. A repeated extractor is
    a ValueError. The mean ratios leave out rows with an `error`.
    """
    names = [kind.value for kind in kinds]
    repeated = [name for name in names if names.count(name) > 1]
    if repeated:
        raise ValueError(f"extractor {repeated[0]} is listed more than once")
    per_kind, ratio_rows = _walk(manifest_dir, kinds, cfg, skip_bad, noise_ratios=True)
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
