import argparse
import contextlib
import json
import threading
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pulse_tn import (
    ExtractorKind,
    FrameClip,
    PipelineConfig,
    PulseSpec,
    SamplingRateError,
    SceneSpec,
    clipio,
    harness,
    hr,
    render_ideal,
    synth_pulse,
    write_clip,
)
from pulse_tn.cli import build_parser
from pulse_tn.cli import main as cli_main
from pulse_tn.core import worker_count
from pulse_tn.diff import frame_diff
from pulse_tn.harness import (
    SIDECAR_KEYS as DECLARED_KEYS,
    compare_manifest,
    evaluate_manifest,
    noise_feature_ratios,
    scene_from_sidecar,
    sidecar_path,
    write_report,
)
from pulse_tn.simulate import NO_NOISE, LinearNoise, NoiseSpec, noise_profile, parse_noise_string, render_noisy
from pulse_tn.tn import EPSILON, tn


def write_manifest_clip(path, hr, frames=600, seed=0, fps=30.0):
    scene = SceneSpec(jitter_seed=seed)
    pulse = synth_pulse(PulseSpec(hr_bpm=hr), fps, frames)
    write_clip(render_ideal(scene, pulse, 8, 8), path)


def write_series_labels(path, series):
    rows = ["video_id,t_s,bvp"]
    for vid, bvp in series.items():
        rows += [f"{vid},{i / 30.0},{v}" for i, v in enumerate(bvp)]
    path.write_text("\n".join(rows) + "\n")


class TestWorkerCount:
    def test_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setenv("PULSE_TN_THREADS", "1")
        assert worker_count(16) == 1

    def test_defaults_to_task_bound(self, monkeypatch):
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)
        assert worker_count(1) == 1
        assert worker_count(1000) >= 1

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("PULSE_TN_THREADS", value)
        with pytest.raises(ValueError, match=f"^PULSE_TN_THREADS must be an integer >= 1, got '{value}'$"):
            worker_count(4)

    def test_counts_only_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert worker_count(16) == 1

    def test_falls_back_to_the_host_cpu_count(self, monkeypatch):
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert worker_count(16) == 8
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert worker_count(16) == 1


class TestEvaluateManifest:
    def test_time_series_labels_run_through_the_pipeline(self, tmp_path):
        write_manifest_clip(tmp_path / "v0.rpgc", hr=72.0)
        t = np.arange(600) / 30.0
        rows = ["video_id,t_s,bvp"] + [f"v0,{ts},{np.sin(2 * np.pi * 1.2 * ts)}" for ts in t]
        (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED)
        row = doc["per_video"][0]
        assert row["hr_label"] == pytest.approx(72.0, abs=0.6)
        assert row["abs_err"] <= 1.0

    def test_short_video_flagged_not_fatal(self, tmp_path):
        write_manifest_clip(tmp_path / "good.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "short.rpgc", hr=72.0, frames=120)
        (tmp_path / "labels.csv").write_text(
            "video_id,hr_bpm\ngood,72.0\nshort,72.0\n"
        )
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED)
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert "error" in by_id["short"]
        assert doc["n_evaluated"] == 1

    def test_constant_series_label_flags_its_row_only(self, tmp_path):
        write_manifest_clip(tmp_path / "good.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "flat.rpgc", hr=72.0)
        pulse = np.sin(2 * np.pi * 1.2 * np.arange(600) / 30.0)
        write_series_labels(tmp_path / "labels.csv", {"good": pulse, "flat": np.full(600, 0.5)})
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED)
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert by_id["flat"]["label_error"] == "all 1 segments are spectrally degenerate (in-band power < 1e-12)"
        assert "hr_label" not in by_id["flat"]
        assert by_id["good"]["abs_err"] <= 1.0
        assert doc["n_evaluated"] == 1
        assert doc["mae"] == by_id["good"]["abs_err"]
        write_report(doc, tmp_path / "report.json")  # strict JSON: raises on NaN

    def test_short_series_label_flags_its_row_only(self, tmp_path):
        write_manifest_clip(tmp_path / "good.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "brief.rpgc", hr=72.0)
        pulse = np.sin(2 * np.pi * 1.2 * np.arange(600) / 30.0)
        write_series_labels(tmp_path / "labels.csv", {"good": pulse, "brief": pulse[:150]})
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED)
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert "label_error" in by_id["brief"]
        assert "hr_label" not in by_id["brief"]
        assert by_id["good"]["abs_err"] <= 1.0
        assert doc["n_evaluated"] == 1

    def test_no_labels_file_yields_flagged_rows(self, tmp_path):
        write_manifest_clip(tmp_path / "v0.rpgc", hr=72.0)
        doc = evaluate_manifest(tmp_path, ExtractorKind.GREEN_RAW)
        assert doc["mae"] is None
        assert doc["per_video"][0]["label_missing"]


ALL_KINDS = list(ExtractorKind)


class TestOneWalk:
    def test_compare_blocks_equal_evaluate_reports(self, tmp_path):
        write_manifest_clip(tmp_path / "good.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "good2.rpgc", hr=84.0, seed=1)
        write_manifest_clip(tmp_path / "short.rpgc", hr=72.0, frames=120)
        write_manifest_clip(tmp_path / "unlabeled.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "flat.rpgc", hr=72.0)
        (tmp_path / "bad.rpgc").write_bytes(b"XXXX garbage")
        t = np.arange(600) / 30.0
        write_series_labels(tmp_path / "labels.csv", {
            "good": np.sin(2 * np.pi * 1.2 * t),
            "good2": np.sin(2 * np.pi * 1.4 * t),
            "short": np.sin(2 * np.pi * 1.2 * t),
            "flat": np.full(600, 0.5),
            "bad": np.sin(2 * np.pi * 1.2 * t),
        })
        doc = compare_manifest(tmp_path, ALL_KINDS)
        for kind in ALL_KINDS:
            single = evaluate_manifest(tmp_path, kind)
            fields = ("mae", "rmse", "pearson", "pearson_defined", "per_video")
            assert doc["extractors"][kind.value] == {key: single[key] for key in fields}
        rows = {row["video_id"]: row for row in doc["extractors"]["tn_pooled"]["per_video"]}
        assert sorted(rows) == ["bad", "flat", "good", "good2", "short", "unlabeled"]
        assert "error" in rows["bad"] and "error" in rows["short"]
        assert rows["unlabeled"]["label_missing"]
        assert "degenerate" in rows["flat"]["label_error"]
        assert doc["extractors"]["tn_pooled"]["pearson_defined"]

    def test_compare_reads_each_clip_and_label_once(self, tmp_path, monkeypatch):
        for i, hr in enumerate([60.0, 72.0, 84.0]):
            write_manifest_clip(tmp_path / f"v{i}.rpgc", hr=hr, seed=i)
        (tmp_path / "labels.csv").write_text("video_id,hr_bpm\nv0,60.0\nv1,72.0\nv2,84.0\n")
        reads, labels = [], []
        read_clip, label_fields = clipio.read_clip, harness._label_fields
        monkeypatch.setattr(clipio, "read_clip", lambda path, **kw: reads.append(path.stem) or read_clip(path, **kw))
        monkeypatch.setattr(harness, "_label_fields", lambda label, cfg: labels.append(label) or label_fields(label, cfg))
        doc = compare_manifest(tmp_path, ALL_KINDS)
        assert sorted(reads) == ["v0", "v1", "v2"]
        assert sorted(labels) == [60.0, 72.0, 84.0]
        for block in doc["extractors"].values():
            assert [row["hr_label"] for row in block["per_video"]] == [60.0, 72.0, 84.0]

    def test_compare_runs_its_clips_one_at_a_time_and_evaluate_spreads_them(self, tmp_path, monkeypatch):
        for i in range(4):
            write_manifest_clip(tmp_path / f"v{i}.rpgc", hr=72.0, seed=i)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PULSE_TN_THREADS", "2")
        here, threads, pool_started = threading.get_ident(), [], threading.Event()
        clip_rows = harness._clip_rows

        def recorded(path, *args):
            threads.append(threading.get_ident())
            if threads[-1] != here:
                pool_started.set()
            elif path.stem == "v0" and wait:
                pool_started.wait(timeout=30)  # so that the pool thread takes an item before this one claims all
            return clip_rows(path, *args)

        monkeypatch.setattr(harness, "_clip_rows", recorded)
        wait = False
        compare_manifest(tmp_path, ALL_KINDS)
        assert threads == [here] * 4
        threads.clear()
        wait = True
        evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED)
        assert len(threads) == 4 and len(set(threads)) == 2

    @pytest.mark.parametrize("walk", [compare_manifest, lambda path, kinds: evaluate_manifest(path, kinds[0])])
    def test_a_bad_thread_cap_fails_a_walk_of_unreadable_clips(self, tmp_path, monkeypatch, walk):
        (tmp_path / "bad.rpgc").write_bytes(b"XXXX garbage")
        monkeypatch.setenv("PULSE_TN_THREADS", "abc")
        with pytest.raises(ValueError, match="^PULSE_TN_THREADS must be an integer >= 1, got 'abc'$"):
            walk(tmp_path, ALL_KINDS)

    @pytest.mark.parametrize("fault", ["short", "rate", "nan"])
    def test_a_failed_clip_is_freed_with_its_rows(self, tmp_path, monkeypatch, fault):
        # every row fails: segments longer than the clips, a band the frame rate cannot carry, or
        # a NaN in the last sample, so that the whole payload is decoded before the read fails
        monkeypatch.setenv("PULSE_TN_THREADS", "1")
        for i in range(6):
            path = tmp_path / f"v{i}.rpgc"
            write_clip(FrameClip(np.random.default_rng(i).random((300, 32, 32, 3)), 30.0), path)
            if fault == "nan":
                path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        settings = {"short": {"segment_s": 30.0}, "rate": {"band_high_hz": 20.0, "segment_s": 5.0}, "nan": {}}
        cfg = PipelineConfig(**settings[fault])
        tracemalloc.start()
        try:
            with pytest.raises(SamplingRateError) if fault == "rate" else contextlib.nullcontext():
                evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few float32 green channels: a kept error's traceback would hold every clip until the walk ends
        assert peak <= 4 * (300 * 32 * 32 * 4)

    def test_compare_rejects_an_empty_extractor_list_before_any_clip_is_read(self, tmp_path, monkeypatch):
        write_manifest_clip(tmp_path / "v0.rpgc", hr=72.0)
        monkeypatch.setattr(clipio, "read_clip", lambda path, **kw: pytest.fail(f"{path} was read"))
        with pytest.raises(ValueError, match="compare needs at least one extractor"):
            compare_manifest(tmp_path, [])


DEGENERATE = "all 1 segments are spectrally degenerate (in-band power < 1e-12)"


class TestOneRateRule:
    """Every BPM, of a clip or of a label, comes from `hr`'s one rate rule."""

    def test_constant_clip_row_carries_the_label_message(self, tmp_path):
        write_clip(FrameClip(np.full((600, 4, 4, 3), 0.5), 30.0), tmp_path / "flat.rpgc")
        (tmp_path / "labels.csv").write_text("video_id,hr_bpm\nflat,72.0\n")
        doc = compare_manifest(tmp_path, ALL_KINDS)
        rows = [{"video_id": "flat", "error": DEGENERATE}]
        for kind in ALL_KINDS:
            assert evaluate_manifest(tmp_path, kind)["per_video"] == rows
            assert doc["extractors"][kind.value]["per_video"] == rows

    def test_one_segment_rate_call_per_waveform_and_label(self, tmp_path, monkeypatch):
        # perfbench counts the segments of a run by wrapping this module global, so a
        # rate that reached the segments another way would go uncounted
        for i, bpm in enumerate([60.0, 72.0, 84.0]):
            write_manifest_clip(tmp_path / f"v{i}.rpgc", hr=bpm, seed=i)
        t = np.arange(600) / 30.0
        write_series_labels(tmp_path / "labels.csv", {f"v{i}": np.sin(2 * np.pi * f * t) for i, f in enumerate([1.0, 1.2, 1.4])})
        lengths = []
        segment_heart_rates = hr.segment_heart_rates
        monkeypatch.setattr(hr, "segment_heart_rates", lambda w, cfg: lengths.append(len(w)) or segment_heart_rates(w, cfg))
        doc = evaluate_manifest(tmp_path, ExtractorKind.DIFF_POOLED)
        assert doc["n_evaluated"] == 3
        # the differenced waveforms are one sample shorter than the labels
        assert sorted(lengths) == [599] * 3 + [600] * 3


@pytest.fixture(scope="module")
def sidecar_manifest(tmp_path_factory):
    """One simulated clip with its sidecar and label, and the compare report of it."""
    root = tmp_path_factory.mktemp("sidecar")
    # 480 frames, so that the one-frame-shorter diff waveform still fills a segment
    argv = ["simulate", "--hr", "72", "--frames", "480", "--size", "4x4", "--noise", "linear:0.1"]
    assert cli_main([*argv, "--out", str(root / "v0.rpgc")]) == 0
    return root, compare_manifest(root, ALL_KINDS)


SIDECAR_KEYS = [
    "amplitude", "diffuse", "fps", "frames", "harmonic_ratio", "height", "hr_bpm",
    "illumination", "noise", "pixel_jitter", "seed", "shape", "specular", "width",
]


def test_sidecar_names_every_key(sidecar_manifest):
    # the written keys are the declared ones, and each is the dest of its simulate flag, but
    # height and width, which --size holds; the other flags name the outputs and the payload type
    root, _ = sidecar_manifest
    assert sidecar_path(root / "v0.rpgc") == root / "v0.rpgc.sim.json"
    assert sorted(json.loads((root / "v0.rpgc.sim.json").read_text())) == SIDECAR_KEYS
    assert sorted(DECLARED_KEYS) == SIDECAR_KEYS
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in subparsers.choices["simulate"]._actions}
    assert dests - {"help", "size", "out", "labels", "dtype"} == set(DECLARED_KEYS) - {"height", "width"}


@pytest.mark.parametrize("key", DECLARED_KEYS)
def test_scene_from_sidecar_needs_every_declared_key(sidecar_manifest, key):
    root, _ = sidecar_manifest
    meta = json.loads(sidecar_path(root / "v0.rpgc").read_text())
    del meta[key]
    with pytest.raises(KeyError, match=key):
        scene_from_sidecar(meta)


def compare_with_sidecar_value(sidecar_manifest, tmp_path, key, value):
    """The compare report of the clip of `sidecar_manifest` with one sidecar field
    changed, after checking that its extractor blocks equal the clean run's."""
    root, clean = sidecar_manifest
    for name in ("v0.rpgc", "labels.csv"):
        (tmp_path / name).symlink_to(root / name)
    meta = json.loads((root / "v0.rpgc.sim.json").read_text())
    (tmp_path / "v0.rpgc.sim.json").write_text(json.dumps({**meta, key: value}))
    doc = compare_manifest(tmp_path, ALL_KINDS)
    assert doc["extractors"] == clean["extractors"]
    return doc


@pytest.mark.parametrize("value", [None, "x", True, [1], {}, -1, 1.5, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("key", SIDECAR_KEYS)
def test_bad_sidecar_value_spoils_only_its_ratio_row(sidecar_manifest, tmp_path, key, value):
    first = compare_with_sidecar_value(sidecar_manifest, tmp_path, key, value)
    second = compare_manifest(tmp_path, ALL_KINDS)
    # reruns give the same bytes: the report is strict JSON and draws nothing at random
    assert json.dumps(first, sort_keys=True, allow_nan=False) == json.dumps(second, sort_keys=True, allow_nan=False)
    (row,) = first["noise_ratios"]["per_video"]
    assert "error" in row or sorted(row) == ["diff_residual_ratio", "tn_residual_ratio", "video_id"]


NUMBER_KEYS = [
    "amplitude", "diffuse", "fps", "frames", "harmonic_ratio", "height", "hr_bpm",
    "illumination", "pixel_jitter", "specular", "width",
]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in NUMBER_KEYS for value in (True, "1.0")]
    + [(key, [True] * 3) for key in ("illumination", "specular", "diffuse")]
    + [("frames", 480.0), ("height", 4.0), ("width", 4.0)],
)
def test_sidecar_number_field_takes_only_numbers(sidecar_manifest, tmp_path, key, value):
    doc = compare_with_sidecar_value(sidecar_manifest, tmp_path, key, value)
    (row,) = doc["noise_ratios"]["per_video"]
    assert row["error"].startswith(f"{tmp_path / 'v0.rpgc.sim.json'}: {key} ")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("amplitude", float("nan"), "amplitude must be finite, got nan"),
        ("amplitude", float("inf"), "amplitude must be finite, got inf"),
        ("pixel_jitter", float("nan"), "pixel_jitter must be finite, got nan"),
        ("pixel_jitter", float("inf"), "pixel_jitter must be finite, got inf"),
        ("amplitude", 10**400, f"amplitude must be finite, got {10**400}"),
        ("pixel_jitter", 10**400, f"pixel_jitter must be finite, got {10**400}"),
        ("noise", "sin:0.5:nan", "bad noise term 'sin:0.5:nan': amplitude must be finite, got nan"),
        ("noise", "linear:inf", "bad noise term 'linear:inf': total must be finite, got inf"),
    ],
)
def test_non_finite_sidecar_number_names_its_field(sidecar_manifest, tmp_path, key, value, message):
    # json reads NaN, Infinity and integers beyond the float range; the row names the field
    # instead of the rendered clip
    doc = compare_with_sidecar_value(sidecar_manifest, tmp_path, key, value)
    (row,) = doc["noise_ratios"]["per_video"]
    assert row["error"] == f"{tmp_path / 'v0.rpgc.sim.json'}: {message}"


def test_a_sidecar_scene_whose_sums_overflow_flags_its_row(sidecar_manifest, tmp_path):
    # the scene renders finite samples whose squares overflow: the row names the overflow,
    # the command succeeds and its report is strict JSON
    compare_with_sidecar_value(sidecar_manifest, tmp_path, "illumination", 1e200)
    out = tmp_path / "report.json"
    argv = ["compare", "--manifest", str(tmp_path), "--extractors", *[kind.value for kind in ALL_KINDS]]
    assert cli_main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"non-strict JSON {token}"))
    (row,) = doc["noise_ratios"]["per_video"]
    overflow = "the noise ratio's sums of squares overflow float64: the scene's samples are too large"
    assert row["error"] == f"{tmp_path / 'v0.rpgc.sim.json'}: {overflow}"
    assert "mean_tn_ratio" not in doc["noise_ratios"]


class TestSamplingRate:
    # a 20 Hz band edge needs more than 40 frames per second
    CFG = PipelineConfig(band_high_hz=20.0)
    MESSAGE = "^sampling rate 30.0 Hz too low for a 20.0 Hz passband edge$"

    def test_band_no_clip_can_carry_fails_the_walk(self, tmp_path):
        write_manifest_clip(tmp_path / "v0.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "v1.rpgc", hr=84.0, seed=1)
        with pytest.raises(SamplingRateError, match=self.MESSAGE):
            evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED, self.CFG)
        with pytest.raises(SamplingRateError, match=self.MESSAGE):
            compare_manifest(tmp_path, ALL_KINDS, self.CFG)

    def test_mixed_frame_rates_keep_their_rows(self, tmp_path):
        write_manifest_clip(tmp_path / "slow.rpgc", hr=72.0)
        write_manifest_clip(tmp_path / "fast.rpgc", hr=72.0, frames=1200, fps=60.0)
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED, self.CFG)
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert by_id["slow"]["error"] == "sampling rate 30.0 Hz too low for a 20.0 Hz passband edge"
        assert by_id["fast"]["hr_pred"] == pytest.approx(72.0, abs=1.0)

    def test_other_failures_keep_their_rows(self, tmp_path):
        # no row is evaluated, but one failed for another reason
        write_manifest_clip(tmp_path / "v0.rpgc", hr=72.0)
        (tmp_path / "bad.rpgc").write_bytes(b"XXXX garbage")
        doc = evaluate_manifest(tmp_path, ExtractorKind.TN_POOLED, self.CFG)
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert "too low" in by_id["v0"]["error"]
        assert "shorter than the 32-byte header" in by_id["bad"]["error"]
        assert doc["n_evaluated"] == 0


class TestNoiseFeatureRatios:
    def test_zero_noise_gives_zero_tn_ratio(self):
        scene = SceneSpec(jitter_seed=0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 300)
        ratio_tn, ratio_diff = noise_feature_ratios(scene, pulse, NoiseSpec(), 4, 4)
        assert ratio_tn == 0.0
        assert ratio_diff == 0.0

    def test_affine_drift_regime(self):
        scene = SceneSpec(jitter_seed=0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 450)
        noise = NoiseSpec(delta_illumination=(LinearNoise(0.1),))
        ratio_tn, ratio_diff = noise_feature_ratios(scene, pulse, noise, 8, 8)
        assert ratio_tn <= 0.1 * ratio_diff

    def test_peak_memory_stays_near_five_clips(self):
        # the ideal and noisy clips, one pair of feature arrays and a squared residual
        scene = SceneSpec(jitter_seed=0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 300)
        noise = NoiseSpec(delta_illumination=(LinearNoise(0.1),))
        tracemalloc.start()
        try:
            noise_feature_ratios(scene, pulse, noise, 8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (300 * 8 * 8 * 3 * 8)


def rendered_ratios(scene, pulse, noise, height, width, epsilon=EPSILON):
    """The noise ratios from both whole clips and both whole feature arrays of each family."""
    ideal = render_ideal(scene, pulse, height, width)
    noisy = render_noisy(scene, pulse, noise, height, width)

    def rms(a):
        return float(np.sqrt(np.mean(np.square(a))))

    def ratio(features):
        clean = features(ideal).data
        return rms(features(noisy).data - clean) / rms(clean)

    return ratio(lambda clip: tn(clip, epsilon)), ratio(frame_diff)


def exact_ratios(scene, pulse, noise, height, width, epsilon=EPSILON):
    """The noise ratios of the renders' float inputs (pulse, noise profiles, optics and
    diffuse field) in 50-digit decimal arithmetic: every trace of both clips rendered,
    detrended against its own least-squares line and RMS-normalized, or differenced."""

    def exact(values):
        return np.vectorize(Decimal, otypes=[object])(np.asarray(values, dtype=np.float64))

    frames = len(pulse)
    with localcontext() as context:
        context.prec = 50
        p = exact(pulse.samples)
        gi = exact(noise_profile(noise.delta_illumination, frames, pulse.fps))
        gs = exact(noise_profile(noise.delta_specular, frames, pulse.fps))
        ill, spec = exact(scene.illumination)[:, None], exact(scene.specular)[:, None]
        vd = exact(scene.diffuse_field(height, width)).reshape(-1, 3)[..., None]  # (pixels, C, T)
        ideal = ill * (spec + vd * (1 + p))
        noisy = (ill + gi * ill) * (spec + gs + vd * (1 + p))
        t = exact(np.arange(frames)) - Decimal(frames - 1) / 2

        def tn_features(x):
            x = x - x.sum(axis=-1, keepdims=True) / frames
            x = x - (x * t).sum(axis=-1, keepdims=True) / (t * t).sum() * t
            mean_square = (x * x).sum(axis=-1, keepdims=True) / frames
            return x / np.vectorize(Decimal.sqrt, otypes=[object])(mean_square + Decimal(epsilon))

        def ratio(clean, dirty):
            return float((((dirty - clean) ** 2).sum() / (clean * clean).sum()).sqrt())

        return ratio(tn_features(ideal), tn_features(noisy)), ratio(np.diff(ideal), np.diff(noisy))


def checked_ratios(scene, pulse, noise, height, width):
    """noise_feature_ratios, checked against the exact value, within 1e-13 relative of one
    above 1e-9 and 1e-11 of a smaller one, and against rendering both clips, within the
    1e-10 relative (1e-13 absolute) that rendering itself is off by."""
    ratios = noise_feature_ratios(scene, pulse, noise, height, width)
    for got, exact in zip(ratios, exact_ratios(scene, pulse, noise, height, width)):
        assert abs(got - exact) <= (1e-13 * exact if exact > 1e-9 else 1e-11)
    assert ratios == pytest.approx(rendered_ratios(scene, pulse, noise, height, width), rel=1e-10, abs=1e-13)
    return ratios


NOISE_STRINGS = [
    "none", "step:1.5:0.1", "linear:0.1", "sin:0.5:0.02",
    "vs/step:1.5:0.05", "vs/linear:0.1", "vs/sin:0.5:0.02", "linear:0.1+vs/sin:0.5:0.02",
]
PER_CHANNEL_SCENES = [
    (SceneSpec(illumination=[1.0, 0.8, 0.6], specular=[0.1, 0.2, 0.3], diffuse=[0.4, 0.5, 0.7]), PulseSpec(72.0)),
    (SceneSpec(pixel_jitter=0.0), PulseSpec(96.0, shape="harmonic")),
]


class TestNoiseRatioSchedule:
    """The closed form against the exact value of the renders' arithmetic and against rendering both clips."""

    @pytest.mark.parametrize("text", NOISE_STRINGS)
    def test_every_noise_kind(self, text):
        scene = SceneSpec(jitter_seed=3)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 150)
        ratios = checked_ratios(scene, pulse, parse_noise_string(text), 4, 5)
        assert (ratios == (0.0, 0.0)) == (text == "none")

    @pytest.mark.parametrize("text", ["step:0:0.1", "step:0:-0.5+vs/step:0:0.2"])
    def test_a_gain_over_the_whole_clip_keeps_its_digits(self, text):
        # the noisy trace is the ideal one scaled, plus a constant: TN leaves only what
        # epsilon makes of the two scales, a ratio of 1e-4 to 1e-2 that is the difference of
        # two nearly equal features, and the difference ratio is the gain itself
        scene = SceneSpec(jitter_seed=3)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 150)
        ratio_tn, ratio_diff = checked_ratios(scene, pulse, parse_noise_string(text), 4, 5)
        assert 1e-5 < ratio_tn < 1e-2
        assert ratio_diff == pytest.approx(abs(parse_noise_string(text).delta_illumination[0].gain), rel=1e-13)

    @pytest.mark.parametrize("text", ["linear:0", "sin:1:0", "vs/step:0:0"])
    def test_zero_valued_terms_give_exactly_zero(self, text):
        scene = SceneSpec(jitter_seed=1)
        pulse = synth_pulse(PulseSpec(hr_bpm=84.0), 30.0, 120)
        noise = parse_noise_string(text)
        assert noise != NO_NOISE
        ratios = noise_feature_ratios(scene, pulse, noise, 3, 3)
        assert ratios == rendered_ratios(scene, pulse, noise, 3, 3) == (0.0, 0.0)
        assert json.dumps(ratios) == "[0.0, 0.0]"  # not -0.0

    @pytest.mark.parametrize("scene, pulse_spec", PER_CHANNEL_SCENES)
    @pytest.mark.parametrize("text", ["none", "linear:0.1+vs/sin:0.5:0.02"])
    def test_per_channel_scenes_and_harmonic_pulses(self, scene, pulse_spec, text):
        pulse = synth_pulse(pulse_spec, 30.0, 150)
        checked_ratios(scene, pulse, parse_noise_string(text), 4, 4)

    @pytest.mark.parametrize("frames", [3, 4, 90])
    @pytest.mark.parametrize("height, width", [(1, 1), (1, 7)])
    @pytest.mark.parametrize("text", ["none", "step:0.05:0.1+vs/linear:0.05"])
    def test_small_frames_and_short_clips(self, frames, height, width, text):
        scene = SceneSpec(jitter_seed=2)
        pulse = synth_pulse(PulseSpec(hr_bpm=150.0), 30.0, frames)
        checked_ratios(scene, pulse, parse_noise_string(text), height, width)

    @pytest.mark.parametrize("noise", [NO_NOISE, NoiseSpec(delta_illumination=(LinearNoise(0.1),))])
    def test_pulse_free_scene_has_no_ratio(self, noise):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 60)
        with pytest.raises(ValueError, match=r"^the ideal features have zero RMS: a pulse-free scene has no noise ratio$"):
            noise_feature_ratios(SceneSpec(), pulse, noise, 2, 2)

    def test_a_noisy_render_that_overflows_fails_before_tn_of_two_frames(self):
        # both the noisy render and TN would fail: the render is checked first, as when
        # both clips are rendered before either is transformed
        scene = SceneSpec(illumination=1e308)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^clip data must not contain NaN or Inf$"):
            noise_feature_ratios(scene, pulse, parse_noise_string("step:0:10"), 2, 2)
        with pytest.raises(ValueError, match=r"^temporal normalization needs at least 3 frames, got 2$"):
            noise_feature_ratios(scene, pulse, NO_NOISE, 2, 2)

    @pytest.mark.parametrize("noise", ["none", "step:0:-1", "linear:0.1+vs/sin:0.5:0.02"])
    def test_sums_that_overflow_name_the_overflow(self, noise):
        # every sample renders finite, but the squares of the samples do not
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 150)
        message = r"^the noise ratio's sums of squares overflow float64: the scene's samples are too large$"
        with pytest.raises(ValueError, match=message):
            noise_feature_ratios(SceneSpec(illumination=1e200), pulse, parse_noise_string(noise), 3, 4)

    @pytest.mark.parametrize("noise", [NoiseSpec(delta_illumination=(LinearNoise(0.1),)), NO_NOISE])
    def test_peak_memory_does_not_grow_with_the_clip(self, noise):
        # from 900 frames of 16 x 16 to 3600 frames of 32 x 32 the frames and the pixels
        # each grow 4-fold, and the samples 16-fold: the peak grows as the frames or the
        # pixels do (the series, the diffuse field), not as the samples
        scene = SceneSpec(jitter_seed=0)
        # a first call imports numpy.random, which numpy loads lazily, before the peak is traced
        noise_feature_ratios(scene, synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 30), noise, 2, 2)
        peaks = []
        for frames, size in [(900, 16), (3600, 32)]:
            pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, frames)
            tracemalloc.start()
            try:
                noise_feature_ratios(scene, pulse, noise, size, size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 4 * peaks[0]
        assert peaks[1] <= 0.05 * (3600 * 32 * 32 * 3 * 8)  # a twentieth of one float64 clip


class TestNoiseRatioTallScenes:
    """Scenes of 7 image rows, as TestNoiseRatioSchedule checks them."""

    @pytest.mark.parametrize("text", NOISE_STRINGS)
    def test_every_noise_kind(self, text):
        scene = SceneSpec(jitter_seed=3)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 150)
        checked_ratios(scene, pulse, parse_noise_string(text), 7, 2)

    @pytest.mark.parametrize("scene, pulse_spec", PER_CHANNEL_SCENES)
    @pytest.mark.parametrize("text", ["step:1.5:0.1", "linear:0.1+vs/sin:0.5:0.02"])
    def test_per_channel_scenes_and_harmonic_pulses(self, scene, pulse_spec, text):
        pulse = synth_pulse(pulse_spec, 30.0, 150)
        checked_ratios(scene, pulse, parse_noise_string(text), 7, 2)

    @pytest.mark.parametrize("text", ["none", "linear:0", "sin:1:0", "vs/step:0:0"])
    def test_noise_free_scenes_and_zero_valued_terms_give_exactly_zero(self, text):
        pulse = synth_pulse(PulseSpec(hr_bpm=84.0), 30.0, 120)
        assert noise_feature_ratios(SceneSpec(jitter_seed=1), pulse, parse_noise_string(text), 7, 3) == (0.0, 0.0)

    @pytest.mark.parametrize("noise", [NO_NOISE, NoiseSpec(delta_illumination=(LinearNoise(0.1),))])
    def test_pulse_free_scene_has_no_ratio(self, noise):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 60)
        with pytest.raises(ValueError, match=r"^the ideal features have zero RMS: a pulse-free scene has no noise ratio$"):
            noise_feature_ratios(SceneSpec(), pulse, noise, 7, 2)

    @pytest.mark.parametrize("text", ["none", "sin:1:0"])
    def test_an_overflow_in_the_last_row_fails_before_tn_of_two_frames(self, text):
        # TN fails on a clip of 2 frames, yet the renders are checked first, as when both
        # whole clips are rendered before either is transformed; only the last image row
        # overflows, and it holds the greatest diffuse value of some channel
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 2)
        optics = {"specular": 10.0, "pixel_jitter": 1.0, "jitter_seed": 18}
        lit = render_ideal(SceneSpec(**optics), pulse, 7, 5).data
        # the last image row alone holds samples above `top`
        top = np.sqrt(lit[:, :6].max() * lit[:, 6:].max())
        assert lit[:, :6].max() < top < lit[:, 6:].max()
        noise = parse_noise_string(text)
        with pytest.raises(ValueError, match=r"^temporal normalization needs at least 3 frames, got 2$"):
            noise_feature_ratios(SceneSpec(**optics), pulse, noise, 7, 5)
        scene = SceneSpec(illumination=np.finfo(np.float64).max / top, **optics)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^clip data must not contain NaN or Inf$"):
            noise_feature_ratios(scene, pulse, noise, 7, 5)
