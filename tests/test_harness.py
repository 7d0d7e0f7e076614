import numpy as np
import pytest

from pulse_tn import ExtractorKind, PulseSpec, SceneSpec, render_ideal, synth_pulse, write_clip
from pulse_tn.harness import evaluate_manifest, noise_feature_ratios, worker_count, write_report
from pulse_tn.simulate import LinearNoise, NoiseSpec


def write_manifest_clip(path, hr, frames=600, seed=0):
    scene = SceneSpec(jitter_seed=seed)
    pulse = synth_pulse(PulseSpec(hr_bpm=hr), 30.0, frames)
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
        assert "degenerate" in by_id["flat"]["label_error"]
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
