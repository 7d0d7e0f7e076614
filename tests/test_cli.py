import json

import numpy as np
import pytest

from pulse_tn import (
    BandpassSpec,
    ExtractorKind,
    PipelineConfig,
    TnConfig,
    bandpass,
    read_clip,
    run_extractor,
    video_hr,
    welch_psd,
)
from pulse_tn.cli import main

# Every pipeline flag at a non-default value, and the config it stands for.
OTHER_SETTINGS = [
    "--segment-s", "10", "--band-low", "0.7", "--band-high", "2.5", "--order", "6",
    "--window-len", "128", "--overlap", "0.25", "--nfft", "512", "--epsilon", "1e-10",
]
OTHER_CONFIG = PipelineConfig(
    segment_s=10.0,
    band=BandpassSpec(0.7, 2.5, order=6),
    window_len=128,
    overlap=0.25,
    nfft=512,
    tn=TnConfig(epsilon=1e-10),
)


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

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", "x", "--out", "y", "--method", "fft"])
        assert exc.value.code == 2


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
        expected = welch_psd(bandpass(waveform), window_len=600, overlap=0.5, nfft=600)
        assert np.array_equal(rows[:, 0], expected.freqs)
        assert np.array_equal(rows[:, 1], expected.power)

    def test_other_pipeline_settings(self, tmp_path, capsys):
        src = tmp_path / "src.rpgc"
        simulate(src)
        capsys.readouterr()
        assert main(["estimate", "--in", str(src), *OTHER_SETTINGS]) == 0
        waveform = run_extractor(ExtractorKind.TN_POOLED, read_clip(src), OTHER_CONFIG.tn)
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

    def test_unreadable_clip_fails_unless_skipped(self, tmp_path):
        manifest = build_manifest(tmp_path / "m", [60.0, 72.0])
        (manifest / "v002.rpgc").write_bytes(b"XXXX garbage")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(report_path)]) == 1
        code = main(
            ["evaluate", "--manifest", str(manifest), "--out", str(report_path), "--skip-bad"]
        )
        assert code == 0
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
            waveform = run_extractor(ExtractorKind.TN_POOLED, clip, OTHER_CONFIG.tn)
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

    @pytest.mark.parametrize("case", ["missing_field", "malformed_json", "zero_pulse"])
    def test_bad_sidecar_spoils_only_its_ratio_row(self, tmp_path, case):
        manifest = tmp_path / "m"
        manifest.mkdir()
        simulate(manifest / "good.rpgc", frames=480, extra=["--noise", "linear:0.1"])
        simulate(manifest / "spoilt.rpgc", frames=480)
        sidecar = manifest / "spoilt.rpgc.sim.json"
        meta = json.loads(sidecar.read_text())
        if case == "missing_field":
            del meta["seed"]
            sidecar.write_text(json.dumps(meta))
            message = "missing field 'seed'"
        elif case == "zero_pulse":
            meta["amplitude"] = 0.0
            sidecar.write_text(json.dumps(meta))
            message = "the ideal features have zero RMS: a pulse-free scene has no noise ratio"
        else:
            sidecar.write_text(json.dumps(meta).replace(":", "=", 1))
            message = "Expecting ':' delimiter"
        report_path = tmp_path / "cmp.json"
        argv = ["compare", "--manifest", str(manifest), "--extractors", "green_raw", "--out", str(report_path)]
        assert main(argv) == 0
        doc = json.loads(report_path.read_text())
        ratios = {row["video_id"]: row for row in doc["noise_ratios"]["per_video"]}
        assert ratios["spoilt"]["error"].startswith(f"{sidecar}: ")
        assert message in ratios["spoilt"]["error"]
        assert "tn_residual_ratio" not in ratios["spoilt"]
        assert doc["noise_ratios"]["mean_tn_ratio"] == ratios["good"]["tn_residual_ratio"]
        assert doc["noise_ratios"]["mean_diff_ratio"] == ratios["good"]["diff_residual_ratio"]
        assert doc["extractors"]["green_raw"]["mae"] is not None
