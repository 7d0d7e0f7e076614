"""Workload definitions: seeded input generation, the CLI call of one unit, and
the checks every unit's output must pass.

Inputs are rendered with ``pulse_tn.simulate`` and written with
``pulse_tn.clipio``; the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pulse_tn import clipio, hr, simulate

FPS = 30.0
NOISE_KINDS = ("none", "linear:0.1", "sin:0.3:0.05", "linear:0.1+vs/sin:0.5:0.02")
COMPARE_EXTRACTORS = ("tn_pooled", "diff_pooled", "green_raw")
ESTIMATE_BPM = 72.0
# One Welch bin at the default pipeline settings, in BPM.
WELCH_BIN_BPM = 60.0 * FPS / hr.WELCH_NFFT


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI command a unit runs on them.

    A unit is one ``pulse_tn.cli.main`` call: for ``estimate`` one clip file
    turned into a printed BPM, otherwise one manifest turned into a report.
    """

    name: str
    command: str  # "estimate", "evaluate" or "compare"
    clips: int
    frames: int
    size: int  # frame height = width, in pixels
    threads: str | None  # PULSE_TN_THREADS while the workload runs

    def unit_argv(self, data_dir: Path, out: Path) -> list[str]:
        if self.command == "estimate":
            return ["estimate", "--in", str(data_dir / "v000.rpgc"), "--extractor", "tn_pooled"]
        if self.command == "evaluate":
            return ["evaluate", "--manifest", str(data_dir), "--extractor", "tn_pooled", "--out", str(out)]
        return ["compare", "--manifest", str(data_dir), "--extractors", *COMPARE_EXTRACTORS, "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-large", "estimate", clips=1, frames=1800, size=64, threads=None,
        ),
        Workload(
            "evaluate-many", "evaluate", clips=16, frames=3600, size=4, threads="2",
        ),
        Workload(
            "compare-sim", "compare", clips=6, frames=900, size=16, threads="2",
        ),
    )
}


def generate(w: Workload, seed: int, data_dir: Path) -> None:
    """Write the workload's clips and labels (and sidecars for compare) into data_dir."""
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if w.command == "estimate":
        pulse = simulate.synth_pulse(simulate.PulseSpec(hr_bpm=ESTIMATE_BPM), FPS, w.frames)
        noise = simulate.parse_noise_string("linear:0.1")
        clip = simulate.render_noisy(simulate.SceneSpec(jitter_seed=seed), pulse, noise, w.size, w.size)
        clipio.write_clip(clip, data_dir / "v000.rpgc")
        return
    label_rows = []
    for i in range(w.clips):
        vid = f"v{i:03d}"
        bpm = round(float(rng.uniform(50.0, 110.0)), 3)
        jitter_seed = int(rng.integers(2**31))
        noise_text = NOISE_KINDS[i % len(NOISE_KINDS)]
        pulse = simulate.synth_pulse(simulate.PulseSpec(hr_bpm=bpm), FPS, w.frames)
        clip = simulate.render_noisy(
            simulate.SceneSpec(jitter_seed=jitter_seed), pulse, simulate.parse_noise_string(noise_text), w.size, w.size
        )
        if w.command == "evaluate":
            # each noise kind appears in both payload types
            dtype = "u8" if (i // len(NOISE_KINDS)) % 2 else "f32"
            clipio.write_clip(clip, data_dir / f"{vid}.rpgc", dtype=dtype)
            label_rows += [f"{vid},{k / FPS!r},{float(v)!r}" for k, v in enumerate(pulse.samples)]
        else:
            path = data_dir / f"{vid}.rpgc"
            clipio.write_clip(clip, path)
            clipio.upsert_label(data_dir / "labels.csv", vid, bpm)
            sidecar = {
                "hr_bpm": bpm, "amplitude": 0.005, "shape": "sinusoid", "harmonic_ratio": 0.3,
                "fps": FPS, "frames": w.frames, "height": w.size, "width": w.size,
                "noise": noise_text, "seed": jitter_seed,
                "illumination": 1.0, "specular": 0.2, "diffuse": 0.5, "pixel_jitter": 0.05,
            }
            path.with_suffix(".rpgc.sim.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    if label_rows:
        (data_dir / "labels.csv").write_text("video_id,t_s,bvp\n" + "\n".join(label_rows) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def parse_strict(text: str):
    """json.loads that rejects NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_reference(w: Workload, report: bytes) -> tuple[list[str], float]:
    """Problems with a unit's report, and its HR error against the labels (BPM)."""
    try:
        doc = parse_strict(report.decode())
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"], math.nan
    if w.command == "estimate":
        err = abs(float(doc) - ESTIMATE_BPM)
        problems = [] if err <= WELCH_BIN_BPM else [f"BPM {doc} is more than one Welch bin from {ESTIMATE_BPM}"]
        return problems, err
    if w.command == "evaluate":
        blocks = {"tn_pooled": doc}
    else:
        blocks = doc.get("extractors", {})
        if sorted(blocks) != sorted(COMPARE_EXTRACTORS):
            return [f"compare report has extractors {sorted(blocks)}"], math.nan
        if len(doc["noise_ratios"]["per_video"]) != w.clips:
            return [f"compare report has {len(doc['noise_ratios']['per_video'])} noise-ratio rows"], math.nan
    problems = []
    for name, block in blocks.items():
        rows = block["per_video"]
        if len(rows) != w.clips:
            problems.append(f"{name}: {len(rows)} rows for {w.clips} clips")
        problems += [f"{name}: unplanned error row {r['video_id']}: {r['error']}" for r in rows if "error" in r]
        if block["mae"] is None:
            problems.append(f"{name}: no MAE")
    mae = blocks["tn_pooled"]["mae"]
    return problems, math.nan if mae is None else float(mae)
