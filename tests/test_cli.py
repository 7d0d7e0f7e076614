import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulse_tn
from pulse_tn import (
    ExtractorKind,
    FrameClip,
    PipelineConfig,
    PulseSpec,
    SceneSpec,
    bandpass,
    diff_normalized,
    frame_diff,
    parse_noise_string,
    read_clip,
    render_noisy,
    run_extractor,
    synth_pulse,
    tn,
    video_hr,
    welch_psd,
    write_clip,
)
from pulse_tn import clipio
from pulse_tn import extract as extract_module
from pulse_tn.cli import _pipeline, build_parser, main
from pulse_tn.harness import scene_from_sidecar

README = Path(__file__).resolve().parents[1] / "README.md"

# Every pipeline flag at a non-default value, and the config it stands for.
OTHER_SETTINGS = [
    "--segment-s", "10", "--band-low", "0.7", "--band-high", "2.5", "--order", "6",
    "--window-len", "128", "--overlap", "0.25", "--nfft", "512", "--epsilon", "1e-10",
]
OTHER_CONFIG = PipelineConfig(
    segment_s=10.0,
    band_low_hz=0.7,
    band_high_hz=2.5,
    band_order=6,
    window_len=128,
    overlap=0.25,
    nfft=512,
    epsilon=1e-10,
)


# Each takes a clean sidecar's fields to a malformed sidecar's text and the error its row gets: a number
# beyond the float range, an fps beyond float32's, and nesting deeper than the JSON decoder follows.
MALFORMED_SIDECARS = {
    "oversized_number": lambda meta: (json.dumps({**meta, "illumination": [1, 10**400, 1]}), "illumination must be finite"),
    "oversized_fps": lambda meta: (json.dumps({**meta, "fps": 10**400}), f"fps must be finite and > 0, got {10**400}"),
    "fps_beyond_float32": lambda meta: (json.dumps({**meta, "fps": 1e300}), "fps 1e+300 does not match the clip's 30.0"),
    "over_deep": lambda meta: ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


def simulate(out, hr=72.0, frames=600, extra=()):
    argv = [
        "simulate",
        "--hr", str(hr),
        "--fps", "30",
        "--frames", str(frames),
        "--size", "8x8",
        "--seed", "7",
        "--out", str(out),
    ]
    argv += list(extra)
    assert main(argv) == 0


def build_manifest(root, hrs, frames=600):
    root.mkdir(exist_ok=True)
    for i, hr in enumerate(hrs):
        simulate(root / f"v{i:03d}.rpgc", hr=hr, frames=frames)
    return root


class TestSimulate:
    def test_writes_clip_sidecar_and_label(self, tmp_path):
        out = tmp_path / "v000.rpgc"
        simulate(out)
        assert out.exists()
        assert (tmp_path / "v000.rpgc.sim.json").exists()
        labels = (tmp_path / "labels.csv").read_text().splitlines()
        assert labels == ["video_id,hr_bpm", "v000,72.0"]
        clip = read_clip(out)
        assert clip.data.shape == (600, 8, 8, 3)
        assert clip.fps == 30.0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a" / "v.rpgc"
        b = tmp_path / "b" / "v.rpgc"
        simulate(a)
        simulate(b)
        assert a.read_bytes() == b.read_bytes()
        assert (a.parent / "labels.csv").read_bytes() == (b.parent / "labels.csv").read_bytes()
        assert (
            a.with_suffix(".rpgc.sim.json").read_bytes()
            == b.with_suffix(".rpgc.sim.json").read_bytes()
        )

    def test_linear_noise_drifts_green_mean(self, tmp_path):
        out = tmp_path / "drift.rpgc"
        simulate(out, extra=["--noise", "linear:0.1"])
        clip = read_clip(out)
        green = clip.data[:, :, :, 1].mean(axis=(1, 2))
        drift = (green[-30:].mean() - green[:30].mean()) / green[:30].mean()
        assert drift == pytest.approx(0.1, abs=0.02)

    def test_every_flag_round_trips_through_the_sidecar(self, tmp_path):
        out = tmp_path / "v.rpgc"
        noise = "linear:0.1+vs/sin:0.5:0.02"
        simulate(out, hr=66.0, frames=300, extra=[
            "--fps", "25", "--size", "6x5", "--noise", noise, "--amplitude", "0.01",
            "--jitter", "0.1", "--pulse-shape", "harmonic", "--harmonic-ratio", "0.5",
            "--illumination", "0.9", "--specular", "0.3", "--diffuse", "0.4", "--dtype", "u8",
        ])
        scene = SceneSpec(illumination=0.9, specular=0.3, diffuse=0.4, pixel_jitter=0.1, jitter_seed=7)
        pulse = PulseSpec(hr_bpm=66.0, amplitude=0.01, shape="harmonic", harmonic_ratio=0.5)
        by_hand = tmp_path / "by_hand.rpgc"
        write_clip(render_noisy(scene, synth_pulse(pulse, 25.0, 300), parse_noise_string(noise), 6, 5), by_hand, "u8")
        # the render arguments compare recomputes from the sidecar render the same clip
        meta = json.loads(out.with_suffix(".rpgc.sim.json").read_text())
        from_sidecar = tmp_path / "from_sidecar.rpgc"
        write_clip(render_noisy(*scene_from_sidecar(meta)), from_sidecar, "u8")
        assert out.read_bytes() == by_hand.read_bytes() == from_sidecar.read_bytes()

    def test_refused_label_leaves_no_clip(self, tmp_path, capsys):
        # a time-series labels.csv takes no hr_bpm row, so the label is refused
        labels = tmp_path / "labels.csv"
        labels.write_text("video_id,t_s,bvp\nx,0.0,1.0\n")
        out = tmp_path / "v.rpgc"
        with pytest.raises(SystemExit) as exc:
            simulate(out)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: {labels}: non-increasing t_s for x\n"
        assert sorted(tmp_path.iterdir()) == [labels]

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 224. TiB for an array with shape (2, 100000, 100000, 3)")

        # stands in for the render, so no huge array is asked for
        monkeypatch.setattr("pulse_tn.cli.render_noisy", exhausted)
        out = tmp_path / "v.rpgc"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--hr", "72", "--frames", "2", "--size", "100000x100000", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "pulse-tn: error: Unable to allocate 224. TiB for an array with shape (2, 100000, 100000, 3)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fps", ["0", "nan"])
    def test_bad_frame_rate_names_the_frame_rate(self, tmp_path, capsys, fps):
        out = tmp_path / "x.rpgc"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--hr", "72", "--frames", "300", "--fps", fps, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: fps must be finite and > 0, got {float(fps)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_label_file_with_a_field_over_the_csv_limit_leaves_no_clip(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"video_id,hr_bpm\nv0,60\n{'x' * 200_000},70\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--hr", "72", "--frames", "300", "--out", str(tmp_path / "x.rpgc")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: {labels}: line 3: field larger than field limit (131072)\n"
        assert sorted(tmp_path.iterdir()) == [labels]

    def test_negative_seed_gets_the_package_message(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--hr", "72", "--frames", "300", "--seed", "-1", "--out", str(tmp_path / "x.rpgc")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "pulse-tn: error: jitter_seed must be an integer >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--amplitude", "nan"], "amplitude must be finite, got nan"),
            (["--jitter", "inf"], "pixel_jitter must be finite, got inf"),
            (["--noise", "sin:0.5:nan"], "bad noise term 'sin:0.5:nan': amplitude must be finite, got nan"),
            (["--noise", "linear:inf"], "bad noise term 'linear:inf': total must be finite, got inf"),
        ],
    )
    def test_non_finite_number_names_its_field(self, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--hr", "72", "--frames", "300", *flags, "--out", str(tmp_path / "x.rpgc")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_noise_spec_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate", "--hr", "72", "--frames", "300",
                    "--noise", "wiggle:3", "--out", str(tmp_path / "x.rpgc"),
                ]
            )
        assert exc.value.code == 2
        assert "wiggle:3" in capsys.readouterr().err


class TestTransform:
    def test_tn_preserves_frames(self, tmp_path):
        src = tmp_path / "src.rpgc"
        simulate(src, frames=300)
        out = tmp_path / "tn.rpgc"
        assert main(["transform", "--in", str(src), "--out", str(out), "--method", "tn"]) == 0
        clip = read_clip(out)
        assert clip.data.shape == (300, 8, 8, 3)
        # normalized traces are zero-mean
        assert abs(clip.data.mean()) < 1e-6

    @pytest.mark.parametrize("method", ["diff", "diffnorm"])
    def test_diff_variants_emit_one_less_frame(self, tmp_path, method):
        src = tmp_path / "src.rpgc"
        simulate(src, frames=300)
        out = tmp_path / "d.rpgc"
        assert main(["transform", "--in", str(src), "--out", str(out), "--method", method]) == 0
        assert read_clip(out).data.shape == (299, 8, 8, 3)

    @pytest.mark.parametrize("method", ["tn", "diff", "diffnorm"])
    def test_bad_epsilon_fails_before_the_clip_is_read(self, tmp_path, capsys, method):
        argv = ["transform", "--in", str(tmp_path / "missing.rpgc"), "--out", str(tmp_path / "out.rpgc")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--method", method, "--epsilon", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "pulse-tn: error: epsilon must be finite and > 0, got 0.0\n"

    def test_output_beyond_float32_fails_before_the_file_is_opened(self, tmp_path, capsys):
        # valid f32 samples whose frame differences overflow float32
        src = tmp_path / "src.rpgc"
        data = np.where(np.arange(4)[:, None, None, None] % 2, 3e38, -3e38) * np.ones((4, 2, 2, 1))
        write_clip(FrameClip(data, 30.0), src)
        out = tmp_path / "d.rpgc"
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", str(src), "--out", str(out), "--method", "diff"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "pulse-tn: error: clip data must lie within the float32 range to be written as f32\n"
        )
        assert not out.exists()

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", "x", "--out", "y", "--method", "fft"])
        assert exc.value.code == 2


class TestClipDecode:
    """evaluate, compare and estimate decode only the green channel, the one
    every extractor reads; transform decodes every channel."""

    @pytest.fixture
    def green_only_calls(self, monkeypatch):
        calls = []
        full_read = clipio.read_clip

        def spy(path, green_only=False):
            calls.append(green_only)
            return full_read(path, green_only=green_only)

        monkeypatch.setattr(clipio, "read_clip", spy)
        return calls

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_manifest_commands_read_green_only(self, small_manifest, tmp_path, green_only_calls, command):
        assert main([command, "--manifest", str(small_manifest), "--out", str(tmp_path / "r.json")]) == 0
        assert green_only_calls == [True, True]

    def test_estimate_reads_green_only(self, small_manifest, green_only_calls, capsys):
        assert main(["estimate", "--in", str(small_manifest / "v000.rpgc")]) == 0
        assert green_only_calls == [True]

    @pytest.mark.parametrize("method, transform", [("tn", tn), ("diff", frame_diff), ("diffnorm", diff_normalized)])
    def test_transform_reads_every_channel(self, small_manifest, tmp_path, green_only_calls, method, transform):
        src, out, expected = small_manifest / "v000.rpgc", tmp_path / "out.rpgc", tmp_path / "expected.rpgc"
        assert main(["transform", "--in", str(src), "--out", str(out), "--method", method]) == 0
        assert green_only_calls == [False]
        write_clip(transform(read_clip(src)), expected)
        assert out.read_bytes() == expected.read_bytes()


class TestEstimate:
    def test_prints_recovered_rate(self, tmp_path, capsys):
        src = tmp_path / "src.rpgc"
        simulate(src)
        capsys.readouterr()
        assert main(["estimate", "--in", str(src), "--extractor", "tn_pooled"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(72.0, abs=1.0)

    def test_dumps_waveform_and_psd(self, tmp_path, capsys):
        src = tmp_path / "src.rpgc"
        simulate(src)
        capsys.readouterr()
        wcsv = tmp_path / "wave.csv"
        pcsv = tmp_path / "psd.csv"
        assert (
            main(
                [
                    "estimate", "--in", str(src),
                    "--dump-waveform", str(wcsv), "--dump-psd", str(pcsv),
                ]
            )
            == 0
        )
        wave_lines = wcsv.read_text().splitlines()
        assert wave_lines[0] == "t_s,value"
        assert len(wave_lines) == 601
        psd_lines = pcsv.read_text().splitlines()
        assert psd_lines[0] == "freq_hz,power"
        freqs = np.array([float(line.split(",")[0]) for line in psd_lines[1:]])
        power = np.array([float(line.split(",")[1]) for line in psd_lines[1:]])
        assert freqs[np.argmax(power)] == pytest.approx(1.2, abs=30.0 / 3300.0)

    def test_dump_psd_clamps_window_to_waveform(self, tmp_path, capsys):
        # 600 samples: the 1000-sample window shrinks to 600, and nfft 512 grows to it
        src = tmp_path / "src.rpgc"
        simulate(src)
        pcsv = tmp_path / "psd.csv"
        argv = ["estimate", "--in", str(src), "--window-len", "1000", "--nfft", "512"]
        assert main(argv + ["--dump-psd", str(pcsv)]) == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in pcsv.read_text().splitlines()[1:]])
        waveform = run_extractor(ExtractorKind.TN_POOLED, read_clip(src))
        expected = welch_psd(bandpass(waveform), PipelineConfig(window_len=600, overlap=0.5, nfft=600))
        assert np.array_equal(rows[:, 0], expected.freqs)
        assert np.array_equal(rows[:, 1], expected.power)

    def test_other_pipeline_settings(self, tmp_path, capsys):
        src = tmp_path / "src.rpgc"
        simulate(src)
        capsys.readouterr()
        assert main(["estimate", "--in", str(src), *OTHER_SETTINGS]) == 0
        waveform = run_extractor(ExtractorKind.TN_POOLED, read_clip(src), OTHER_CONFIG.epsilon)
        assert capsys.readouterr().out == f"{video_hr(waveform, OTHER_CONFIG):.3f}\n"


class TestEvaluate:
    def test_five_video_manifest(self, tmp_path, capsys):
        manifest = build_manifest(tmp_path / "m", [60.0, 66.0, 72.0, 78.0, 84.0])
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate", "--manifest", str(manifest),
                "--extractor", "tn_pooled", "--out", str(report_path),
            ]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["n_evaluated"] == 5
        assert doc["mae"] <= 1.0
        # aggregates recomputable from the rows
        errs = [row["hr_pred"] - row["hr_label"] for row in doc["per_video"]]
        assert doc["mae"] == pytest.approx(np.mean(np.abs(errs)), abs=1e-9)
        assert doc["rmse"] == pytest.approx(np.sqrt(np.mean(np.square(errs))), abs=1e-9)
        preds = [row["hr_pred"] for row in doc["per_video"]]
        labels = [row["hr_label"] for row in doc["per_video"]]
        assert doc["pearson"] == pytest.approx(np.corrcoef(preds, labels)[0, 1], abs=1e-9)

    def test_missing_label_flagged_and_excluded(self, tmp_path):
        manifest = build_manifest(tmp_path / "m", [60.0, 72.0])
        labels = manifest / "labels.csv"
        labels.write_text("video_id,hr_bpm\nv000,60.0\n")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["n_evaluated"] == 1
        flagged = [row for row in doc["per_video"] if row.get("label_missing")]
        assert [row["video_id"] for row in flagged] == ["v001"]

    def test_empty_manifest_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(empty), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_unreadable_clip_flags_its_row(self, tmp_path):
        manifest = build_manifest(tmp_path / "m", [60.0, 72.0])
        (manifest / "v002.rpgc").write_bytes(b"XXXX garbage")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        bad = [row for row in doc["per_video"] if "error" in row]
        assert [row["video_id"] for row in bad] == ["v002"]
        assert doc["n_evaluated"] == 2

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_deterministic_reports(self, tmp_path, monkeypatch, command):
        manifest = build_manifest(tmp_path / "m", [60.0, 72.0, 84.0], frames=450)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main([command, "--manifest", str(manifest), "--out", str(out_a)]) == 0
        monkeypatch.setenv("PULSE_TN_THREADS", "1")
        assert main([command, "--manifest", str(manifest), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noisy_compare_is_deterministic_across_pool_sizes(self, tmp_path, monkeypatch):
        # compare runs its clips one at a time; a clip's chunks and bands may still use both workers
        manifest = tmp_path / "m"
        manifest.mkdir()
        noises = ["none", "linear:0.1", "sin:0.3:0.05", "linear:0.1+vs/sin:0.5:0.02"]
        for i, noise in enumerate(noises):
            simulate(manifest / f"v{i:03d}.rpgc", hr=60.0 + 8 * i, frames=450, extra=["--noise", noise])
        reports = []
        for threads in ("2", "1"):
            monkeypatch.setenv("PULSE_TN_THREADS", threads)
            out = tmp_path / f"threads{threads}.json"
            assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        ratios = json.loads(reports[0])["noise_ratios"]["per_video"]
        assert [row["tn_residual_ratio"] > 0 for row in ratios] == [False, True, True, True]

    def test_other_pipeline_settings(self, tmp_path):
        manifest = build_manifest(tmp_path / "m", [60.0, 84.0])
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(report_path), *OTHER_SETTINGS]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["config"] == {
            "extractors": ["tn_pooled"],
            "segment_s": 10.0,
            "band_low_hz": 0.7,
            "band_high_hz": 2.5,
            "band_order": 6,
            "zero_phase": True,
            "window_len": 128,
            "overlap": 0.25,
            "nfft": 512,
            "epsilon": 1e-10,
        }
        for row in doc["per_video"]:
            clip = read_clip(manifest / f"{row['video_id']}.rpgc")
            waveform = run_extractor(ExtractorKind.TN_POOLED, clip, OTHER_CONFIG.epsilon)
            assert row["hr_pred"] == video_hr(waveform, OTHER_CONFIG)

    def test_bad_series_label_flags_its_row_only(self, tmp_path):
        manifest = build_manifest(tmp_path / "m", [60.0, 72.0])
        # v001's steps alternate 0.0566 s and 0.01 s, averaging to ~30 fps
        good = np.arange(600) / 30.0
        bad = np.cumsum(np.tile([0.0566, 0.01], 300))
        rows = ["video_id,t_s,bvp"]
        rows += [f"v000,{t},{np.sin(2 * np.pi * 1.0 * t)}" for t in good.tolist()]
        rows += [f"v001,{t},{np.sin(2 * np.pi * 1.2 * t)}" for t in bad.tolist()]
        (manifest / "labels.csv").write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        by_id = {row["video_id"]: row for row in doc["per_video"]}
        assert "irregular t_s spacing for v001" in by_id["v001"]["label_error"]
        assert "hr_label" not in by_id["v001"]
        assert by_id["v000"]["abs_err"] <= 1.0
        assert doc["n_evaluated"] == 1

    def test_malformed_labels_line_fails_the_command(self, tmp_path, capsys):
        manifest = build_manifest(tmp_path / "m", [60.0])
        (manifest / "labels.csv").write_text("video_id,hr_bpm\nv000,fast\n")
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)])
        assert exc.value.code == 2
        assert "labels.csv: line 2: could not convert" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "command, header, first",
        [
            ("evaluate", "video_id,hr_bpm", "v000,60"),
            # "1_0" makes numpy's reader refuse the file, so csv reads it again
            ("evaluate", "video_id,t_s,bvp", "v000,1_0,0.5"),
            ("compare", "video_id,t_s,bvp", "v000,1_0,0.5"),
        ],
    )
    def test_field_over_the_csv_limit_fails_the_command(self, small_manifest, tmp_path, capsys, command, header, first):
        manifest = tmp_path / "m"
        manifest.mkdir()
        (manifest / "v000.rpgc").symlink_to(small_manifest / "v000.rpgc")
        labels = manifest / "labels.csv"
        # 200,000 characters, where csv reads at most 131072 in one field
        labels.write_text(f"{header}\n{first}\n{'x' * 200_000},{first.split(',', 1)[1]}\n")
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(manifest), "--out", str(report_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: {labels}: line 3: field larger than field limit (131072)\n"
        assert not report_path.exists()


    @pytest.mark.parametrize("case", ["directory", "dangling_link"])
    def test_unreadable_labels_file_fails_the_command(self, tmp_path, capsys, case):
        manifest = build_manifest(tmp_path / "m", [60.0])
        labels = manifest / "labels.csv"
        labels.unlink()
        if case == "directory":
            labels.mkdir()
        else:
            labels.symlink_to(tmp_path / "gone.csv")
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pulse-tn: error: ") and err.count("\n") == 1
        assert str(labels) in err
        assert not report_path.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_labels_file_fails_the_command(self, tmp_path, capsys):
        manifest = build_manifest(tmp_path / "m", [60.0])
        labels = manifest / "labels.csv"
        labels.unlink()
        os.mkfifo(labels)
        # a writer holding a header of no known schema: an evaluate that opened
        # the FIFO would fail on it rather than hang
        guard = os.open(labels, os.O_RDWR | os.O_NONBLOCK)
        report_path = tmp_path / "report.json"
        try:
            os.write(guard, b"id\n")
            with pytest.raises(SystemExit) as exc:
                main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)])
        finally:
            os.close(guard)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pulse-tn: error: {labels}: not a regular file\n"
        assert not report_path.exists()


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    return build_manifest(tmp_path_factory.mktemp("bad_settings") / "m", [60.0, 72.0])


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epsilon", "0", "epsilon must be finite and > 0, got 0.0"),
        ("--overlap", "1.5", "overlap must lie in [0, 1), got 1.5"),
        ("--window-len", "1", "window_len must be >= 2, got 1"),
        ("--segment-s", "0", "segment duration must be finite and > 0 s, got 0.0"),
        ("--segment-s", "inf", "segment duration must be finite and > 0 s, got inf"),
        ("--nfft", "0", "nfft must be >= 1, got 0"),
        ("--nfft", "-5", "nfft must be >= 1, got -5"),
        ("--band-high", "inf", "band edges must be finite, got 0.5, inf"),
        ("--band-low", "nan", "band edges must be finite, got nan, 3.0"),
        ("--band-low", "3", "need 0 < low_hz < high_hz, got 3.0, 3.0"),
        ("--band-low", "-1", "need 0 < low_hz < high_hz, got -1.0, 3.0"),
        ("--order", "3", "order must be even and >= 2, got 3"),
        ("--order", "0", "order must be even and >= 2, got 0"),
        ("--band-high", "20", "sampling rate 30.0 Hz too low for a 20.0 Hz passband edge"),
        ("--band-low", "1e-8", "band_low_hz 1e-08 Hz too low to filter at a sampling rate of 30.0 Hz"),
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_bad_pipeline_setting_fails_the_command(small_manifest, tmp_path, capsys, command, flag, value, message):
    report_path = tmp_path / "report.json"
    argv = [command, "--manifest", str(small_manifest), "--out", str(report_path), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"pulse-tn: error: {message}\n"
    assert not report_path.exists()
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", str(small_manifest / "v000.rpgc"), flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err == err


def pipeline_of(*flags) -> PipelineConfig:
    """The pipeline config the CLI builds from `flags`."""
    return _pipeline(build_parser().parse_args(["estimate", "--in", "clip.rpgc", *flags]))


def test_band_checks_run_before_the_other_settings(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", "clip.rpgc", "--nfft", "0", "--epsilon", "0", "--order", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "pulse-tn: error: order must be even and >= 2, got 3\n"


DEFAULT_REPORT_CONFIG = {
    "extractors": ["tn_pooled"], "segment_s": 15.0, "band_low_hz": 0.5, "band_high_hz": 3.0,
    "band_order": 4, "zero_phase": True, "window_len": 256, "overlap": 0.5, "nfft": 3300, "epsilon": 1e-8,
}
OTHER_REPORT_CONFIG = {
    "extractors": ["tn_pooled"], "segment_s": 10.0, "band_low_hz": 0.7, "band_high_hz": 2.5,
    "band_order": 6, "zero_phase": True, "window_len": 128, "overlap": 0.25, "nfft": 512, "epsilon": 1e-10,
}


@pytest.mark.parametrize(
    "flags, expected", [((), DEFAULT_REPORT_CONFIG), (OTHER_SETTINGS, OTHER_REPORT_CONFIG)], ids=["default", "other"]
)
def test_report_config_values_and_types(flags, expected):
    doc = pipeline_of(*flags).to_json(["tn_pooled"])
    assert doc == expected
    # 6 == 6.0 in Python, so the types are compared on their own
    assert {key: type(value) for key, value in doc.items()} == {key: type(value) for key, value in expected.items()}


def test_config_fields_are_the_report_keys_and_the_flags(small_manifest, tmp_path):
    # one list of settings: the PipelineConfig fields, the report config keys and the flags
    names = [field.name for field in dataclasses.fields(PipelineConfig)]
    for command in ("evaluate", "compare"):
        report_path = tmp_path / f"{command}.json"
        assert main([command, "--manifest", str(small_manifest), "--out", str(report_path)]) == 0
        keys = set(json.loads(report_path.read_text())["config"]) - {"extractors", "zero_phase"}
        assert keys == set(names)
    assert len(names) == 8
    assert pipeline_of() == PipelineConfig()
    assert pipeline_of(*OTHER_SETTINGS) == OTHER_CONFIG


def test_segment_longer_than_any_clip_flags_each_row(small_manifest, tmp_path, capsys):
    # 1e307 s * 30 fps overflows to inf samples, which is still no full segment
    flags = ["--segment-s", "1e307"]
    message = "waveform of 20.00 s has no full 1e+307 s segment"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", str(small_manifest / "v000.rpgc"), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"pulse-tn: error: {message}\n"
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--manifest", str(small_manifest), "--out", str(report_path), *flags]) == 0
    rows = json.loads(report_path.read_text())["per_video"]
    assert rows == [{"video_id": "v000", "error": message}, {"video_id": "v001", "error": message}]


def test_grid_with_no_bin_in_band_reads_alike_everywhere(small_manifest, tmp_path, capsys):
    # an 8-point grid at 30 fps has bins at 0 and 3.75 Hz but none inside 0.5-3 Hz
    flags = ["--window-len", "8", "--nfft", "8"]
    message = "spectrum has no bins inside [0.5, 3.0] Hz"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", str(small_manifest / "v000.rpgc"), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"pulse-tn: error: {message}\n"
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--manifest", str(small_manifest), "--out", str(report_path), *flags]) == 0
    rows = json.loads(report_path.read_text())["per_video"]
    assert rows == [{"video_id": "v000", "error": message}, {"video_id": "v001", "error": message}]


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_dangling_clip_link_flags_its_row_only(tmp_path, capsys, command):
    manifest = build_manifest(tmp_path / "m", [60.0, 72.0])
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main([command, "--manifest", str(manifest), "--out", str(before)]) == 0
    (manifest / "v002.rpgc").symlink_to(tmp_path / "gone.rpgc")
    assert main([command, "--manifest", str(manifest), "--out", str(after)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc_before, doc_after = json.loads(before.read_text()), json.loads(after.read_text())
    blocks = [(doc_before, doc_after)] if command == "evaluate" else list(
        zip(doc_before["extractors"].values(), doc_after["extractors"].values())
    )
    for old, new in blocks:
        assert new["per_video"][:2] == old["per_video"]
        assert new["per_video"][2]["video_id"] == "v002"
        assert "No such file or directory" in new["per_video"][2]["error"]
        assert new["mae"] == old["mae"]
    if command == "compare":
        assert doc_after["noise_ratios"] == doc_before["noise_ratios"]


@pytest.mark.parametrize("command", ["estimate", "transform"])
def test_missing_input_is_one_line_error(tmp_path, capsys, command):
    argv = [command, "--in", str(tmp_path / "missing.rpgc")]
    if command == "transform":
        argv += ["--out", str(tmp_path / "out.rpgc"), "--method", "tn"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("pulse-tn: error: ") and "missing.rpgc" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("command", ["estimate", "transform", "evaluate", "compare"])
def test_bad_thread_cap_fails_every_command_alike(small_manifest, tmp_path, capsys, monkeypatch, command, value):
    # read_clip names the file in the errors of its checks; the cap is not the file's error
    monkeypatch.setenv("PULSE_TN_THREADS", value)
    out = tmp_path / "out"
    if command in ("estimate", "transform"):
        argv = [command, "--in", str(small_manifest / "v000.rpgc")]
    else:
        argv = [command, "--manifest", str(small_manifest)]
    if command != "estimate":
        argv += ["--out", str(out)] + (["--method", "tn"] if command == "transform" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"pulse-tn: error: PULSE_TN_THREADS must be an integer >= 1, got '{value}'\n"
    assert not out.exists()


def test_outputs_are_the_same_on_one_and_two_workers(tmp_path, capsys, monkeypatch):
    # an 8x8 clip of 600 frames in 8 bands of one row, read in 39 chunks of up to 1000 pixels
    src = tmp_path / "src.rpgc"
    simulate(src, extra=["--noise", "linear:0.1"])
    monkeypatch.setattr(extract_module, "_BAND_BYTES", 8 * 600 * 8)
    monkeypatch.setattr(clipio, "_CHUNK_BYTES", 1000 * 3 * 4)
    monkeypatch.setattr(clipio.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PULSE_TN_THREADS", threads)
        capsys.readouterr()
        for extractor in ("tn_pooled", "diff_pooled"):
            wave = tmp_path / f"{extractor}-{threads}.csv"
            assert main(["estimate", "--in", str(src), "--extractor", extractor, "--dump-waveform", str(wave)]) == 0
            outputs[threads, extractor] = capsys.readouterr().out, wave.read_bytes()
        out = tmp_path / f"tn-{threads}.rpgc"
        assert main(["transform", "--in", str(src), "--out", str(out), "--method", "tn"]) == 0
        outputs[threads, "transform"] = out.read_bytes()
    for key in ("tn_pooled", "diff_pooled", "transform"):
        assert outputs["1", key] == outputs["2", key]


def _options():
    """(command, option string) for every option of every subcommand but --help."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                yield from ((command, option) for option in action.option_strings)


def test_manifest_commands_take_no_failure_mode_flag():
    # an unreadable clip always flags its own row: there is no abort mode to select
    pipeline = {"--segment-s", "--band-low", "--band-high", "--order", "--window-len", "--overlap", "--nfft", "--epsilon"}
    for command, extractor in [("evaluate", "--extractor"), ("compare", "--extractors")]:
        options = {option for name, option in _options() if name == command}
        assert options == {"--manifest", extractor, "--out", *pipeline}


def test_every_option_is_documented():
    readme = README.read_text()
    missing = [
        f"{command} {option}" for command, option in _options()
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)
    ]
    assert not missing, f"options absent from README.md: {missing}"


class TestCompare:
    def test_side_by_side_with_noise_ratios(self, tmp_path):
        # 480 frames so the one-frame-shorter diff waveform still has a full segment
        manifest = tmp_path / "m"
        manifest.mkdir()
        simulate(manifest / "clean.rpgc", frames=480)
        simulate(manifest / "drift.rpgc", frames=480, extra=["--noise", "linear:0.1"])
        report_path = tmp_path / "cmp.json"
        code = main(
            [
                "compare", "--manifest", str(manifest),
                "--extractors", "tn_pooled", "diff_pooled", "green_raw",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc["extractors"]) == {"tn_pooled", "diff_pooled", "green_raw"}
        for block in doc["extractors"].values():
            assert block["mae"] is not None
        ratios = {row["video_id"]: row for row in doc["noise_ratios"]["per_video"]}
        assert ratios["clean"]["tn_residual_ratio"] == 0.0
        drift = ratios["drift"]
        assert drift["tn_residual_ratio"] <= 0.1 * drift["diff_residual_ratio"]

    def test_noise_ratio_rows_follow_video_id_order(self, tmp_path):
        # "a-b.rpgc" sorts before "a.rpgc" by file name, but "a" sorts before "a-b" by id
        manifest = tmp_path / "m"
        manifest.mkdir()
        simulate(manifest / "a.rpgc", frames=480)
        simulate(manifest / "a-b.rpgc", frames=480)
        report_path = tmp_path / "cmp.json"
        argv = ["compare", "--manifest", str(manifest), "--extractors", "green_raw", "--out", str(report_path)]
        assert main(argv) == 0
        doc = json.loads(report_path.read_text())
        assert [row["video_id"] for row in doc["extractors"]["green_raw"]["per_video"]] == ["a", "a-b"]
        assert [row["video_id"] for row in doc["noise_ratios"]["per_video"]] == ["a", "a-b"]

    def test_repeated_extractor_fails_the_command(self, small_manifest, tmp_path, capsys):
        report_path = tmp_path / "cmp.json"
        argv = ["compare", "--manifest", str(small_manifest), "--extractors", "tn_pooled", "green_raw", "green_raw"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(report_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "pulse-tn: error: extractor green_raw is listed more than once\n"
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "missing_field", "malformed_json", "zero_pulse", "directory", "dangling_link",
            "zero_fps", "huge_frame", "frames_off_by_one", "fps_mismatch", "unreadable_clip",
            "oversized_number", "oversized_fps", "fps_beyond_float32", "over_deep",
        ],
    )
    def test_bad_sidecar_spoils_only_its_ratio_row(self, tmp_path, case):
        manifest = tmp_path / "m"
        manifest.mkdir()
        simulate(manifest / "good.rpgc", frames=480, extra=["--noise", "linear:0.1"])
        simulate(manifest / "spoilt.rpgc", frames=480)
        report_path = tmp_path / "cmp.json"
        argv = ["compare", "--manifest", str(manifest), "--extractors", "green_raw", "--out", str(report_path)]
        assert main(argv) == 0
        intact = json.loads(report_path.read_text())
        sidecar = manifest / "spoilt.rpgc.sim.json"
        meta = json.loads(sidecar.read_text())
        if case == "zero_fps":
            meta["fps"] = 0
            sidecar.write_text(json.dumps(meta))
            message = "fps must be finite and > 0, got 0.0"
        elif case == "huge_frame":
            # rendering a scene this large would exhaust memory
            meta["height"] = meta["width"] = 100000
            sidecar.write_text(json.dumps(meta))
            message = "height 100000 does not match the clip's 8"
        elif case == "frames_off_by_one":
            meta["frames"] = 481
            sidecar.write_text(json.dumps(meta))
            message = "frames 481 does not match the clip's 480"
        elif case == "fps_mismatch":
            meta["fps"] = 15.0
            sidecar.write_text(json.dumps(meta))
            message = "fps 15.0 does not match the clip's 30.0"
        elif case in MALFORMED_SIDECARS:
            text, message = MALFORMED_SIDECARS[case](meta)
            sidecar.write_text(text)
        elif case == "unreadable_clip":
            (manifest / "spoilt.rpgc").write_bytes(b"RPGC")
            message = "its clip could not be read"
        elif case == "missing_field":
            del meta["seed"]
            sidecar.write_text(json.dumps(meta))
            message = "missing field 'seed'"
        elif case == "zero_pulse":
            meta["amplitude"] = 0.0
            sidecar.write_text(json.dumps(meta))
            message = "the ideal features have zero RMS: a pulse-free scene has no noise ratio"
        elif case == "directory":
            sidecar.unlink()
            sidecar.mkdir()
            message = "Is a directory"
        elif case == "dangling_link":
            sidecar.unlink()
            sidecar.symlink_to(manifest / "gone.sim.json")
            message = "No such file or directory"
        else:
            sidecar.write_text(json.dumps(meta).replace(":", "=", 1))
            message = "Expecting ':' delimiter"
        assert main(argv) == 0
        doc = json.loads(report_path.read_text())
        ratios = {row["video_id"]: row for row in doc["noise_ratios"]["per_video"]}
        assert ratios["spoilt"]["error"].startswith(f"{sidecar}: ")
        assert message in ratios["spoilt"]["error"]
        assert "tn_residual_ratio" not in ratios["spoilt"]
        assert doc["noise_ratios"]["mean_tn_ratio"] == ratios["good"]["tn_residual_ratio"]
        assert doc["noise_ratios"]["mean_diff_ratio"] == ratios["good"]["diff_residual_ratio"]
        assert doc["extractors"]["green_raw"]["mae"] is not None
        # the good clip's rows are those of the intact manifest
        assert ratios["good"] == intact["noise_ratios"]["per_video"][0]
        if case != "unreadable_clip":
            assert doc["extractors"] == intact["extractors"]

    def test_sidecar_fps_matches_the_float32_header(self, tmp_path):
        # the header holds 29.97 as float32, 29.969999313354492
        manifest = tmp_path / "m"
        manifest.mkdir()
        simulate(manifest / "ntsc.rpgc", frames=480, extra=["--fps", "29.97"])
        assert json.loads((manifest / "ntsc.rpgc.sim.json").read_text())["fps"] == 29.97
        report_path = tmp_path / "cmp.json"
        argv = ["compare", "--manifest", str(manifest), "--extractors", "green_raw", "--out", str(report_path)]
        assert main(argv) == 0
        (row,) = json.loads(report_path.read_text())["noise_ratios"]["per_video"]
        assert sorted(row) == ["diff_residual_ratio", "tn_residual_ratio", "video_id"]


def test_cold_start_imports_no_scipy():
    # scipy serves the tests as an oracle; importing it would be most of a cold start
    code = "import sys, pulse_tn, pulse_tn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(pulse_tn.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout == "[]\n"


def test_malformed_sidecars_leave_compare_exit_0_and_stderr_empty(tmp_path):
    # each sidecar flags its own ratio row; no traceback, and no warning even where warnings are errors
    manifest = tmp_path / "m"
    manifest.mkdir()
    simulate(manifest / "good.rpgc", frames=480)
    for case, malformed in MALFORMED_SIDECARS.items():
        simulate(manifest / f"{case}.rpgc", frames=480)
        sidecar = manifest / f"{case}.rpgc.sim.json"
        sidecar.write_text(malformed(json.loads(sidecar.read_text()))[0])
    report_path = tmp_path / "cmp.json"
    argv = ["compare", "--manifest", str(manifest), "--extractors", "green_raw", "--out", str(report_path)]
    src = str(Path(pulse_tn.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pulse_tn", *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    ratios = {row["video_id"]: row for row in json.loads(report_path.read_text())["noise_ratios"]["per_video"]}
    assert sorted(vid for vid, row in ratios.items() if "error" in row) == sorted(MALFORMED_SIDECARS)
    assert "tn_residual_ratio" in ratios["good"]


@pytest.mark.parametrize("module", ["pulse_tn", "pulse_tn.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "v.rpgc"
    argv = ["simulate", "--hr", "72", "--frames", "60", "--out", str(out)]
    src = str(Path(pulse_tn.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-m", module, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert read_clip(out).data.shape == (60, 8, 8, 3)
