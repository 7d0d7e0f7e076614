"""Command-line interface: simulate, transform, estimate, evaluate, compare."""

from __future__ import annotations

import argparse
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import clipio
from .core import _require_positive
from .diff import diff_normalized, frame_diff
from .extract import ExtractorKind, run_extractor
from .harness import SIDECAR_KEYS, compare_manifest, evaluate_manifest, scene_from_sidecar, sidecar_path, write_report
from .hr import PipelineConfig, _spectra, video_hr
from .simulate import PULSE_SHAPES, PulseSpec, SceneSpec, render_noisy
from .tn import EPSILON, tn

EXTRACTOR_NAMES = [k.value for k in ExtractorKind]


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must look like 8x8, got {text!r}") from None


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    d = PipelineConfig()
    p.add_argument("--segment-s", type=float, default=d.segment_s, help="segment length in seconds")
    p.add_argument("--band-low", dest="band_low_hz", type=float, default=d.band_low_hz, help="bandpass low edge in Hz")
    p.add_argument("--band-high", dest="band_high_hz", type=float, default=d.band_high_hz, help="bandpass high edge in Hz")
    p.add_argument("--order", dest="band_order", type=int, default=d.band_order, help="Butterworth filter order (even)")
    p.add_argument("--window-len", type=int, default=d.window_len, help="Welch window length")
    p.add_argument("--overlap", type=float, default=d.overlap, help="Welch window overlap fraction")
    p.add_argument("--nfft", type=int, default=d.nfft, help="zero-padded FFT length")
    p.add_argument("--epsilon", type=float, default=d.epsilon, help="normalization guard epsilon")


def _pipeline(args) -> PipelineConfig:
    """The pipeline settings of the flags, each stored under its field's name; a bad
    value raises ValueError, which exits 2."""
    return PipelineConfig(**{field.name: getattr(args, field.name) for field in fields(PipelineConfig)})


def cmd_simulate(args) -> int:
    height, width = args.size
    # each sidecar key is its flag's dest, but the frame size, which --size holds
    flags = vars(args) | {"height": height, "width": width}
    sidecar = {key: flags[key] for key in SIDECAR_KEYS}
    # rendered from the sidecar, so compare recomputes exactly this clip
    clip = render_noisy(*scene_from_sidecar(sidecar))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the label first: a refused label leaves no clip behind
    clipio.upsert_label(Path(args.labels) if args.labels else out.parent / "labels.csv", out.stem, args.hr_bpm)
    clipio.write_clip(clip, out, dtype=args.dtype)
    sidecar_path(out).write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({args.frames}x{height}x{width}x3 @ {args.fps} fps), label {args.hr_bpm} BPM")
    return 0


def cmd_transform(args) -> int:
    _require_positive(args.epsilon, "epsilon")
    clip = clipio.read_clip(args.infile)
    if args.method == "tn":
        result = tn(clip, args.epsilon)
    elif args.method == "diff":
        result = frame_diff(clip)
    else:
        result = diff_normalized(clip)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    clipio.write_clip(result, out, dtype="f32")
    print(f"wrote {out} ({result.frames} frames)")
    return 0


def cmd_estimate(args) -> int:
    cfg = _pipeline(args)
    clip = clipio.read_clip(args.infile, green_only=True)
    waveform = run_extractor(ExtractorKind(args.extractor), clip, cfg.epsilon)
    hr = video_hr(waveform, cfg)
    if args.dump_waveform:
        t_s = np.arange(len(waveform)) / waveform.fps
        lines = ["t_s,value"] + [
            f"{t:.6f},{float(v)!r}" for t, v in zip(t_s, waveform.samples)
        ]
        Path(args.dump_waveform).write_text("\n".join(lines) + "\n")
    if args.dump_psd:
        freqs, power = next(_spectra(waveform.samples[np.newaxis], waveform.fps, cfg))
        lines = ["freq_hz,power"] + [f"{float(f)!r},{float(p)!r}" for f, p in zip(freqs, power[0])]
        Path(args.dump_psd).write_text("\n".join(lines) + "\n")
    print(f"{hr:.3f}")
    return 0


def cmd_evaluate(args) -> int:
    kind = ExtractorKind(args.extractor)
    doc = evaluate_manifest(args.manifest, kind, _pipeline(args))
    write_report(doc, args.out)
    mae = doc["mae"]
    summary = f"n={doc['n_evaluated']}"
    if mae is not None:
        summary += f" mae={mae:.3f} rmse={doc['rmse']:.3f}"
        if doc["pearson_defined"]:
            summary += f" pearson={doc['pearson']:.3f}"
    print(f"wrote {args.out} ({summary})")
    return 0


def cmd_compare(args) -> int:
    kinds = [ExtractorKind(name) for name in args.extractors]
    doc = compare_manifest(args.manifest, kinds, _pipeline(args))
    write_report(doc, args.out)
    for name, block in doc["extractors"].items():
        mae = block["mae"]
        print(f"{name}: mae={mae:.3f}" if mae is not None else f"{name}: no usable videos")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulse-tn",
        description="Synthesize reflectance-model clips, normalize them, and estimate heart rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic clip and record its label")
    p.add_argument("--hr", dest="hr_bpm", metavar="HR", type=float, required=True, help="ground-truth heart rate in BPM")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--size", type=_parse_size, default=(8, 8), help="HxW, e.g. 8x8")
    p.add_argument("--noise", default="none", help='e.g. "linear:0.1+vs/sin:0.5:0.02"')
    p.add_argument("--seed", type=int, default=SceneSpec.jitter_seed)
    p.add_argument("--out", required=True, help="output .rpgc path")
    p.add_argument("--labels", default=None, help="labels.csv path (default: beside --out)")
    p.add_argument("--amplitude", type=float, default=PulseSpec.amplitude)
    p.add_argument("--jitter", dest="pixel_jitter", metavar="JITTER", type=float, default=SceneSpec.pixel_jitter)
    p.add_argument("--pulse-shape", dest="shape", choices=PULSE_SHAPES, default=PulseSpec.shape)
    p.add_argument("--harmonic-ratio", type=float, default=PulseSpec.harmonic_ratio)
    p.add_argument("--illumination", type=float, default=SceneSpec.illumination)
    p.add_argument("--specular", type=float, default=SceneSpec.specular)
    p.add_argument("--diffuse", type=float, default=SceneSpec.diffuse)
    p.add_argument("--dtype", choices=list(clipio.DTYPE_CODES), default="f32")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="apply a feature transform to a clip file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["tn", "diff", "diffnorm"], required=True)
    p.add_argument("--epsilon", type=float, default=EPSILON)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("estimate", help="estimate the heart rate of one clip")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--extractor", choices=EXTRACTOR_NAMES, default="tn_pooled")
    p.add_argument("--dump-waveform", default=None, help="write the extracted waveform CSV")
    p.add_argument("--dump-psd", default=None, help="write the bandpassed power spectrum CSV")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="evaluate an extractor over a manifest directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--extractor", choices=EXTRACTOR_NAMES, default="tn_pooled")
    p.add_argument("--out", required=True, help="report JSON path")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare extractors side by side on one manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--extractors", nargs="+", choices=EXTRACTOR_NAMES, default=EXTRACTOR_NAMES)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        # a bad setting, manifest or file, or a size beyond memory: one line, no report
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
