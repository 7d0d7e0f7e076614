"""Acceptance gate: each criterion runs at its pinned tolerance and prints one
[PASS]/[FAIL] line (run with `pytest -s` to see them).

Criterion 6 has two clauses. The waveform-correlation clause holds. The
feature-space RMS-ratio clause is asserted exactly as specified and is a
known red: a 0.3 Hz sinusoidal drift lies outside the linear-detrend null
space, and the RMS normalization then renormalizes that surviving component
to unit scale, so the normalized-feature residual ratio saturates near
sqrt(2) whenever band-limited drift exceeds the pulse amplitude. With the
default pulse amplitude of 0.005 and 5% wobble, no clip length or seed
changes that; the ratio check is therefore meaningful only for affine drift
(covered by the pure-drift suppression tests, which pass with margin).
"""

import struct
import time

import numpy as np
import pytest

from pulse_tn import (
    ExtractorKind,
    FrameClip,
    LinearNoise,
    NO_NOISE,
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    SinusoidNoise,
    StepNoise,
    Waveform,
    analytic_noise_residual,
    bandpass,
    compute_metrics,
    detrend,
    extract_diff_pooled,
    extract_tn_pooled,
    fit_trend,
    frame_diff,
    hr_from_psd,
    read_clip,
    render_ideal,
    render_noisy,
    run_extractor,
    synth_pulse,
    tn,
    tn_trace,
    video_hr,
    welch_psd,
)
from pulse_tn.cli import main

WELCH_BIN_HZ = 30.0 / 3300.0
WELCH_BIN_BPM = 60.0 * WELCH_BIN_HZ


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})")


def rms(a) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


def test_criterion_1_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        y = rng.uniform(-1.0, 1.0, int(rng.integers(2, 65)))
        fit = fit_trend(y)
        t = np.arange(y.size, dtype=float)
        a = np.stack([t, np.ones_like(t)], axis=1)
        slope, intercept = np.linalg.solve(a.T @ a, a.T @ y)
        worst = max(worst, abs(fit.slope - slope), abs(fit.intercept - intercept))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "OLS oracle equivalence", ok, f"max err {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_tn_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    # scale-free limit: epsilon far below every detrended mean square in play
    limit_eps = 1e-16
    worst_affine = 0.0
    worst_idem = 0.0
    checked = 0
    while checked < 200:
        x = rng.uniform(-1.0, 1.0, int(rng.integers(16, 257)))
        if rms(detrend(x)) < 1e-3:
            continue
        checked += 1
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-0.01, 0.01)
        t = np.arange(x.size, dtype=float)
        worst_affine = max(
            worst_affine,
            float(np.max(np.abs(tn_trace(a * x + b + c * t, limit_eps) - tn_trace(x, limit_eps)))),
        )
        assert np.array_equal(tn_trace(-x), -tn_trace(x))
        once = tn_trace(x)
        worst_idem = max(worst_idem, float(np.max(np.abs(tn_trace(once) - once))))
    elapsed = time.perf_counter() - start
    ok = worst_affine < 1e-6 and worst_idem < 1e-4 and elapsed < 5.0
    report(
        2,
        "TN invariance suite",
        ok,
        f"affine {worst_affine:.2e}, idempotence {worst_idem:.2e}, {elapsed:.2f} s",
    )
    assert worst_affine < 1e-6
    assert worst_idem < 1e-4
    assert elapsed < 5.0


def test_criterion_3_analytic_residual_identity():
    start = time.perf_counter()
    scenes = [
        SceneSpec(jitter_seed=0),
        SceneSpec(illumination=(0.9, 1.0, 1.1), specular=(0.1, 0.2, 0.3), diffuse=(0.4, 0.5, 0.6), jitter_seed=1),
        SceneSpec(illumination=2.0, specular=0.05, diffuse=0.8, pixel_jitter=0.0),
    ]
    noises = [
        NO_NOISE,
        NoiseSpec(delta_illumination=(StepNoise(2.0, 0.05),)),
        NoiseSpec(delta_illumination=(LinearNoise(0.1),)),
        NoiseSpec(delta_illumination=(SinusoidNoise(0.3, 0.05),)),
        NoiseSpec(delta_specular=(StepNoise(1.0, 0.02),)),
        NoiseSpec(delta_specular=(LinearNoise(0.03),)),
        NoiseSpec(delta_specular=(SinusoidNoise(0.7, 0.01),)),
        NoiseSpec(delta_illumination=(LinearNoise(0.1), SinusoidNoise(0.3, 0.05))),
        NoiseSpec(
            delta_illumination=(SinusoidNoise(0.4, 0.02),),
            delta_specular=(LinearNoise(0.02),),
        ),
    ]
    pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 300)
    worst = 0.0
    combos = 0
    for scene in scenes:
        for noise in noises:
            noisy = render_noisy(scene, pulse, noise, 8, 8)
            ideal = render_ideal(scene, pulse, 8, 8)
            residual = analytic_noise_residual(scene, pulse, noise, 8, 8)
            worst = max(worst, float(np.max(np.abs(noisy.data - ideal.data - residual.data))))
            combos += 1
    elapsed = time.perf_counter() - start
    ok = combos == 27 and worst < 1e-12 and elapsed < 10.0
    report(3, "analytic residual identity", ok, f"{combos} combos, max err {worst:.2e}, {elapsed:.2f} s")
    assert combos == 27
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_4_welch_accuracy():
    start = time.perf_counter()
    t = np.arange(450) / 30.0
    w = Waveform(np.sin(2 * np.pi * 1.2 * t), 30.0)
    spectrum = welch_psd(w)
    peak_hz = spectrum.freqs[int(np.argmax(spectrum.power))]
    hr = hr_from_psd(spectrum)
    elapsed = time.perf_counter() - start
    ok = abs(peak_hz - 1.2) <= WELCH_BIN_HZ and abs(hr - 72.0) <= 0.55 and elapsed < 1.0
    report(4, "Welch accuracy", ok, f"peak {peak_hz:.5f} Hz, hr {hr:.3f} BPM, {elapsed:.2f} s")
    assert abs(peak_hz - 1.2) <= WELCH_BIN_HZ
    assert abs(hr - 72.0) <= 0.55
    assert elapsed < 1.0


def test_criterion_5_end_to_end_hr_recovery():
    start = time.perf_counter()
    scene = SceneSpec(pixel_jitter=0.05, jitter_seed=5)
    pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.005), 30.0, 600)
    clip = render_ideal(scene, pulse, 8, 8)
    rates = {kind.value: video_hr(run_extractor(kind, clip)) for kind in ExtractorKind}
    elapsed = time.perf_counter() - start
    within_one = all(abs(hr - 72.0) <= 1.0 and 30.0 <= hr <= 180.0 for hr in rates.values())
    values = list(rates.values())
    agree = all(abs(a - b) <= WELCH_BIN_BPM for a in values for b in values)
    ok = within_one and agree and elapsed < 5.0
    report(5, "end-to-end HR recovery", ok, f"{rates}, {elapsed:.2f} s")
    assert within_one
    assert agree
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def noisy_drift_runs():
    """Twenty seeded clips with 10% linear plus 5% sinusoidal (0.3 Hz) drift."""
    start = time.perf_counter()
    noise = NoiseSpec(delta_illumination=(LinearNoise(0.10), SinusoidNoise(0.3, 0.05)))
    runs = []
    for seed in range(20):
        scene = SceneSpec(jitter_seed=seed)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.005), 30.0, 450)
        ideal = render_ideal(scene, pulse, 8, 8)
        noisy = render_noisy(scene, pulse, noise, 8, 8)
        tn_ideal = tn(ideal).data
        tn_noisy = tn(noisy).data
        ratio_tn = rms(tn_noisy - tn_ideal) / rms(tn_ideal)
        fd_ideal = frame_diff(ideal).data
        fd_noisy = frame_diff(noisy).data
        ratio_diff = rms(fd_noisy - fd_ideal) / rms(fd_ideal)
        vp = bandpass(Waveform(pulse.samples, 30.0)).samples
        vp_m1 = bandpass(Waveform(pulse.samples[:-1], 30.0)).samples
        r_tn = float(np.corrcoef(bandpass(extract_tn_pooled(noisy)).samples, vp)[0, 1])
        r_diff = float(np.corrcoef(bandpass(extract_diff_pooled(noisy)).samples, vp_m1)[0, 1])
        runs.append({"ratio_tn": ratio_tn, "ratio_diff": ratio_diff, "r_tn": r_tn, "r_diff": r_diff})
    return runs, time.perf_counter() - start


def test_criterion_6_noise_suppression_ratio(noisy_drift_runs):
    runs, elapsed = noisy_drift_runs
    worst_margin = max(run["ratio_tn"] - 0.1 * run["ratio_diff"] for run in runs)
    mean_tn = float(np.mean([run["ratio_tn"] for run in runs]))
    mean_diff = float(np.mean([run["ratio_diff"] for run in runs]))
    ok = worst_margin <= 0.0 and elapsed < 30.0
    report(
        6,
        "noise suppression ratio (RMS clause)",
        ok,
        f"mean ratio_tn {mean_tn:.3f} vs 0.1*ratio_diff {0.1 * mean_diff:.3f}, {elapsed:.1f} s",
    )
    assert elapsed < 30.0
    # Known red, see the module docstring: band-limited drift survives
    # detrending and is renormalized to unit scale, so this clause cannot
    # reach the 10x margin at the default pulse amplitude.
    assert worst_margin <= 0.0, (
        f"feature-space RMS ratio clause unattained: mean ratio_tn={mean_tn:.3f}, "
        f"mean ratio_diff={mean_diff:.3f} (needed ratio_tn <= 0.1 * ratio_diff)"
    )


def test_criterion_6_waveform_correlation(noisy_drift_runs):
    runs, elapsed = noisy_drift_runs
    wins = sum(run["r_tn"] >= run["r_diff"] for run in runs)
    ok = wins >= 18 and elapsed < 30.0
    report(6, "waveform correlation (Pearson clause)", ok, f"{wins}/20 seeds, {elapsed:.1f} s")
    assert wins >= 18
    assert elapsed < 30.0


def test_criterion_7_metrics_correctness():
    start = time.perf_counter()
    r = compute_metrics([60.0, 70.0], [60.0, 70.0])
    exact = r.mae == 0.0 and r.rmse == 0.0 and abs(r.pearson - 1.0) < 1e-12
    r = compute_metrics([62.0, 68.0], [60.0, 70.0])
    two_point = abs(r.mae - 2.0) < 1e-12 and abs(r.rmse - 2.0) < 1e-12 and abs(r.pearson - 1.0) < 1e-12
    r = compute_metrics([60.0, 60.0], [60.0, 70.0])
    undefined = (not r.pearson_defined) and np.isnan(r.pearson)
    rng = np.random.default_rng(11)
    jensen = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        m = compute_metrics(rng.uniform(30, 180, n), rng.uniform(30, 180, n))
        if m.rmse < m.mae - 1e-12:
            jensen = False
            break
    elapsed = time.perf_counter() - start
    ok = exact and two_point and undefined and jensen and elapsed < 1.0
    report(7, "metrics correctness", ok, f"{elapsed:.2f} s")
    assert exact and two_point and undefined and jensen
    assert elapsed < 1.0


def test_criterion_8_determinism_and_format_robustness(tmp_path):
    start = time.perf_counter()
    argv = [
        "simulate", "--hr", "72", "--fps", "30", "--frames", "300",
        "--size", "8x8", "--seed", "3", "--noise", "linear:0.05",
    ]
    a = tmp_path / "a" / "clip.rpgc"
    b = tmp_path / "b" / "clip.rpgc"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    valid = a.read_bytes()
    rng = np.random.default_rng(1234)
    target = tmp_path / "fuzz.rpgc"
    rejected = 0
    for case in range(50):
        buf = bytearray(valid)
        kind = case % 5
        if kind == 0:
            buf[int(rng.integers(0, 4))] ^= 0xFF
        elif kind == 1:
            buf[4:8] = struct.pack("<I", int(rng.integers(2, 2**32)))
        elif kind == 2:
            offset = 8 + 4 * int(rng.integers(0, 4))
            (old,) = struct.unpack_from("<I", buf, offset)
            buf[offset : offset + 4] = struct.pack("<I", old ^ int(rng.integers(1, 2**31)))
        elif kind == 3:
            buf[24:28] = struct.pack("<I", int(rng.integers(2, 2**32)))
        else:
            buf = buf[: int(rng.integers(0, len(buf)))] if case % 2 else buf + bytes(7)
        target.write_bytes(bytes(buf))
        try:
            read_clip(target)
        except ValueError:
            rejected += 1
    elapsed = time.perf_counter() - start
    ok = identical and rejected == 50 and elapsed < 10.0
    report(
        8,
        "harness determinism and format robustness",
        ok,
        f"identical={identical}, {rejected}/50 rejected, {elapsed:.2f} s",
    )
    assert identical
    assert rejected == 50
    assert elapsed < 10.0
