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
from .hr import DegenerateSignalError, PipelineConfig, compute_metrics, segment_heart_rates
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
    if cap:
        workers = min(workers, max(int(cap), 1))
    return workers


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
    tn_ideal = tn(ideal, cfg).data
    tn_noisy = tn(noisy, cfg).data
    ratio_tn = _rms(tn_noisy - tn_ideal) / _rms(tn_ideal)
    fd_ideal = frame_diff(ideal).data
    fd_noisy = frame_diff(noisy).data
    ratio_diff = _rms(fd_noisy - fd_ideal) / _rms(fd_ideal)
    return ratio_tn, ratio_diff


def scene_from_sidecar(meta: dict) -> tuple[SceneSpec, PulseSpec, NoiseSpec]:
    scene = SceneSpec(
        illumination=meta["illumination"],
        specular=meta["specular"],
        diffuse=meta["diffuse"],
        pixel_jitter=meta["pixel_jitter"],
        jitter_seed=meta["seed"],
    )
    pulse = PulseSpec(
        hr_bpm=meta["hr_bpm"],
        amplitude=meta["amplitude"],
        shape=meta["shape"],
        harmonic_ratio=meta["harmonic_ratio"],
    )
    return scene, pulse, parse_noise_string(meta["noise"])


def _label_hr(label, cfg: PipelineConfig) -> float:
    """Direct HR labels pass through; reference pulse series get the same pipeline.

    A label that read_labels rejected is the ValueError it carries, raised here.
    """
    if isinstance(label, ValueError):
        raise label
    if isinstance(label, Waveform):
        rates, dropped = segment_heart_rates(label, cfg)
        if not rates:
            raise DegenerateSignalError(f"time-series label: all {dropped} segments degenerate")
        return float(np.mean(rates))
    return float(label)


def _estimate_one(path: Path, kind: ExtractorKind, cfg: PipelineConfig) -> dict:
    clip = clipio.read_clip(path)
    waveform = run_extractor(kind, clip, cfg.tn)
    rates, dropped = segment_heart_rates(waveform, cfg)
    if not rates:
        raise DegenerateSignalError(f"{path.stem}: all {dropped} segments degenerate")
    return {"hr_pred": float(np.mean(rates)), "segments_dropped": dropped}


def evaluate_manifest(
    manifest_dir,
    kind: ExtractorKind,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    skip_bad: bool = False,
    max_workers: int | None = None,
) -> dict:
    """Estimate HR for every clip in a manifest and aggregate metrics.

    Videos without a label, or whose label is rejected or yields no heart
    rate (`label_error`), are kept as flagged rows and excluded from the
    aggregates. Unreadable clips raise unless skip_bad is set, in which case
    they become rows with an `error` field. Results are merged by sorted
    video id, so reports are deterministic regardless of scheduling.
    """
    manifest_dir = Path(manifest_dir)
    clip_paths = sorted(manifest_dir.glob("*.rpgc"))
    if not clip_paths:
        raise ValueError(f"manifest {manifest_dir} contains no .rpgc clips")
    labels_path = manifest_dir / "labels.csv"
    labels = clipio.read_labels(labels_path) if labels_path.exists() else {}

    def work(path: Path) -> tuple[str, dict]:
        row: dict = {"video_id": path.stem}
        try:
            row.update(_estimate_one(path, kind, cfg))
        except clipio.ClipFormatError as exc:
            if not skip_bad:
                raise
            row["error"] = str(exc)
        except ValueError as exc:
            # degenerate spectra, clips shorter than one segment, etc.:
            # flag the row, keep the batch going
            row["error"] = str(exc)
        return path.stem, row

    workers = max_workers or worker_count(len(clip_paths))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = dict(pool.map(work, clip_paths))

    per_video = []
    preds, labs, ids = [], [], []
    for vid in sorted(rows):
        row = rows[vid]
        label = labels.get(vid)
        per_video.append(row)
        if "error" in row:
            continue
        if label is None:
            row["hr_label"] = None
            row["label_missing"] = True
            continue
        try:
            hr_label = _label_hr(label, cfg)
        except ValueError as exc:
            # a rejected, short or degenerate label flags its own row only
            row["label_error"] = str(exc)
            continue
        row["hr_label"] = hr_label
        row["abs_err"] = abs(row["hr_pred"] - hr_label)
        preds.append(row["hr_pred"])
        labs.append(hr_label)
        ids.append(vid)

    doc: dict = {
        "config": cfg.to_json([kind.value]),
        "per_video": per_video,
        "n_videos": len(per_video),
        "n_evaluated": len(preds),
    }
    if preds:
        report = compute_metrics(preds, labs, ids)
        doc.update(
            mae=report.mae,
            rmse=report.rmse,
            pearson=report.pearson if report.pearson_defined else None,
            pearson_defined=report.pearson_defined,
        )
    else:
        doc.update(mae=None, rmse=None, pearson=None, pearson_defined=False)
    return doc


def compare_manifest(
    manifest_dir,
    kinds: list[ExtractorKind],
    cfg: PipelineConfig = PipelineConfig(),
    *,
    skip_bad: bool = False,
    max_workers: int | None = None,
) -> dict:
    """Side-by-side metrics per extractor, plus noise ratios where sidecars exist."""
    manifest_dir = Path(manifest_dir)
    extractors = {}
    for kind in kinds:
        sub = evaluate_manifest(manifest_dir, kind, cfg, skip_bad=skip_bad, max_workers=max_workers)
        extractors[kind.value] = {
            "mae": sub["mae"],
            "rmse": sub["rmse"],
            "pearson": sub["pearson"],
            "pearson_defined": sub["pearson_defined"],
            "per_video": sub["per_video"],
        }

    ratio_rows = []
    for path in sorted(manifest_dir.glob("*.rpgc")):
        sidecar = path.with_suffix(path.suffix + ".sim.json")
        if not sidecar.exists():
            continue
        meta = json.loads(sidecar.read_text())
        scene, pulse_spec, noise = scene_from_sidecar(meta)
        pulse = synth_pulse(pulse_spec, meta["fps"], meta["frames"])
        ratio_tn, ratio_diff = noise_feature_ratios(
            scene, pulse, noise, meta["height"], meta["width"], cfg.tn
        )
        ratio_rows.append(
            {"video_id": path.stem, "tn_residual_ratio": ratio_tn, "diff_residual_ratio": ratio_diff}
        )

    doc: dict = {
        "config": cfg.to_json([k.value for k in kinds]),
        "extractors": extractors,
        "noise_ratios": {"per_video": ratio_rows},
    }
    if ratio_rows:
        doc["noise_ratios"]["mean_tn_ratio"] = float(
            np.mean([r["tn_residual_ratio"] for r in ratio_rows])
        )
        doc["noise_ratios"]["mean_diff_ratio"] = float(
            np.mean([r["diff_residual_ratio"] for r in ratio_rows])
        )
    return doc


def write_report(doc: dict, path) -> None:
    """Serialize a report deterministically (sorted keys, stable float repr, strict JSON)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
