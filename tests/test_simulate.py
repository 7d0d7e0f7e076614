import re

import numpy as np
import pytest

from pulse_tn import (
    NO_NOISE,
    LinearNoise,
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    SinusoidNoise,
    StepNoise,
    Waveform,
    analytic_noise_residual,
    noise_profile,
    parse_noise_string,
    render_ideal,
    render_noisy,
    synth_pulse,
)
from pulse_tn.simulate import _trace_model


class TestPulseSpec:
    @pytest.mark.parametrize("hr", [29.9, 180.1, 0.0, True, "72", b"72"])
    def test_rejects_out_of_range_hr(self, hr):
        with pytest.raises(ValueError):
            PulseSpec(hr_bpm=hr)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PulseSpec(hr_bpm=60, amplitude=-0.1)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match=f"^amplitude must be finite, got {amplitude}$"):
            PulseSpec(hr_bpm=60, amplitude=amplitude)

    def test_rejects_an_amplitude_beyond_the_float_range(self):
        with pytest.raises(ValueError, match=f"^amplitude must be finite, got {10**400}$"):
            PulseSpec(hr_bpm=60, amplitude=10**400)

    @pytest.mark.parametrize("field", ["amplitude", "harmonic_ratio"])
    @pytest.mark.parametrize("value", ["0.005", b"0.3"])
    def test_rejects_a_numeric_string(self, field, value):
        # float() would take it, but a comparison with a number raises a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
            PulseSpec(hr_bpm=60, **{field: value})

    @pytest.mark.parametrize("field", ["amplitude", "harmonic_ratio"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_rejects_a_boolean(self, field, value):
        # a boolean compares as 0 or 1, which are in range
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
            PulseSpec(hr_bpm=60, **{field: value})

    @pytest.mark.parametrize("field", ["amplitude", "harmonic_ratio"])
    def test_rejects_none(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got None$"):
            PulseSpec(hr_bpm=60, **{field: None})
        with pytest.raises(ValueError, match=r"^hr_bpm must lie in \[30, 180\], got None$"):
            PulseSpec(hr_bpm=None)


class TestSceneSpec:
    @pytest.mark.parametrize("jitter", [np.nan, np.inf])
    def test_rejects_a_non_finite_pixel_jitter(self, jitter):
        with pytest.raises(ValueError, match=f"^pixel_jitter must be finite, got {jitter}$"):
            SceneSpec(pixel_jitter=jitter)

    def test_rejects_a_pixel_jitter_beyond_the_float_range(self):
        with pytest.raises(ValueError, match=f"^pixel_jitter must be finite, got {10**400}$"):
            SceneSpec(pixel_jitter=10**400)

    @pytest.mark.parametrize("value", ["0.1", b"0.1"])
    def test_rejects_a_numeric_string_pixel_jitter(self, value):
        with pytest.raises(ValueError, match=f"^pixel_jitter must be a number, got {re.escape(repr(value))}$"):
            SceneSpec(pixel_jitter=value)

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_rejects_a_boolean_pixel_jitter(self, value):
        with pytest.raises(ValueError, match=f"^pixel_jitter must be a number, got {re.escape(repr(value))}$"):
            SceneSpec(pixel_jitter=value)

    @pytest.mark.parametrize("field", ["pixel_jitter", "illumination", "specular", "diffuse"])
    def test_rejects_none(self, field):
        # numpy would cast None to NaN
        with pytest.raises(ValueError, match=f"^{field} must be a number, got None$"):
            SceneSpec(**{field: None})

    @pytest.mark.parametrize("field", ["illumination", "specular", "diffuse"])
    @pytest.mark.parametrize(
        "value, item",
        [
            ("1", "1"),
            (b"1", b"1"),
            (True, True),
            (np.True_, np.True_),
            (["1"] * 3, "1"),
            ([True] * 3, True),
            ((1.0, np.True_, 1.0), np.True_),
            (np.array([True] * 3), np.array([True] * 3)),
            (np.array(["1"] * 3), np.array(["1"] * 3)),
        ],
        ids=["str", "bytes", "bool", "np_bool", "str_list", "bool_list", "np_bool_in_tuple", "bool_array", "str_array"],
    )
    def test_rejects_a_channel_value_that_is_a_boolean_or_a_string(self, field, value, item):
        # numpy would cast each to 1.0
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(item))}$"):
            SceneSpec(**{field: value})

    @pytest.mark.parametrize("seed", [None, -1, 1.5, 2.0, True, False, [1], "7", {}])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self, seed):
        # None would seed numpy from the OS: every render of the scene would differ
        with pytest.raises(ValueError) as exc:
            SceneSpec(jitter_seed=seed)
        assert str(exc.value) == f"jitter_seed must be an integer >= 0, got {seed!r}"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("illumination", (1.0, 2.0), r"^illumination must be a scalar or length-3 sequence, got shape \(2,\)$"),
            ("specular", [[0.1, 0.2, 0.3]], r"^specular must be a scalar or length-3 sequence, got shape \(1, 3\)$"),
            ("diffuse", (0.5, np.inf, 0.5), "^diffuse must be finite$"),
            ("illumination", np.nan, "^illumination must be finite$"),
            ("illumination", [1, 10**400, 1], "^illumination must be finite$"),
            ("diffuse", [[True, 0.5, 0.5]], r"^diffuse must be a scalar or length-3 sequence, got shape \(1, 3\)$"),
        ],
    )
    def test_rejects_a_bad_channel_value(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SceneSpec(**{field: value})

    @pytest.mark.parametrize("seed", [0, 7, 2**40, np.int64(3)])
    def test_accepts_integer_seeds(self, seed):
        assert SceneSpec(jitter_seed=seed).jitter_seed == seed


class TestSynthPulse:
    def test_sinusoid_definition(self):
        w = synth_pulse(PulseSpec(hr_bpm=60.0, amplitude=0.005), 30.0, 60)
        t = np.arange(60)
        assert np.allclose(w.samples, 0.005 * np.sin(2 * np.pi * t / 30.0), atol=1e-15)

    def test_zero_amplitude(self):
        w = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 100)
        assert np.array_equal(w.samples, np.zeros(100))

    def test_dominant_dft_bin(self):
        # closed-form DFT oracle: 600 samples at 30 fps puts 1.2 Hz on bin 24
        w = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 600)
        spectrum = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(600, 1 / 30.0)
        assert freqs[np.argmax(spectrum)] == pytest.approx(1.2)

    def test_harmonic_adds_double_frequency(self):
        w = synth_pulse(
            PulseSpec(hr_bpm=72.0, shape="harmonic", harmonic_ratio=0.3), 30.0, 600
        )
        spectrum = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(600, 1 / 30.0)
        fundamental = spectrum[np.argmin(np.abs(freqs - 1.2))]
        harmonic = spectrum[np.argmin(np.abs(freqs - 2.4))]
        assert harmonic == pytest.approx(0.3 * fundamental, rel=1e-6)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="^need at least 2 frames, got 1$"):
            synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 1)

    def test_rejects_a_frame_rate_of_none(self):
        with pytest.raises(ValueError, match="^fps must be finite and > 0, got None$"):
            synth_pulse(PulseSpec(hr_bpm=72.0), None, 30)
        with pytest.raises(ValueError, match="^fps must be finite and > 0, got None$"):
            Waveform(np.zeros(30), None)

    def test_noise_profile_rejects_an_unknown_term(self):
        with pytest.raises(TypeError, match="^unknown noise term 'step'$"):
            noise_profile(("step",), 10, 30.0)


def flat_pulse(value, frames=4, fps=30.0):
    return Waveform(np.full(frames, value), fps)


class TestRenderIdeal:
    def test_constant_with_zero_pulse(self):
        scene = SceneSpec(pixel_jitter=0.0)
        clip = render_ideal(scene, flat_pulse(0.0), 2, 2)
        assert np.allclose(clip.data, 0.7, atol=1e-15)

    def test_hand_evaluated_pulse_sample(self):
        scene = SceneSpec(pixel_jitter=0.0)
        pulse = Waveform(np.array([0.0, 0.01, 0.0, 0.0]), 30.0)
        clip = render_ideal(scene, pulse, 2, 2)
        assert np.allclose(clip.data[1], 0.705, atol=1e-15)
        assert np.allclose(clip.data[0], 0.7, atol=1e-15)

    def test_linear_in_illumination(self):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 30)
        one = render_ideal(SceneSpec(illumination=1.0, jitter_seed=5), pulse, 3, 3)
        two = render_ideal(SceneSpec(illumination=2.0, jitter_seed=5), pulse, 3, 3)
        assert np.allclose(two.data, 2.0 * one.data, atol=1e-14)

    def test_jitter_bounds_and_determinism(self):
        scene = SceneSpec(pixel_jitter=0.05, jitter_seed=3)
        a = scene.diffuse_field(8, 8)
        b = scene.diffuse_field(8, 8)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.5 * 0.95) and np.all(a <= 0.5 * 1.05)
        assert a.std() > 0


class TestRenderNoisy:
    def test_no_noise_matches_ideal(self):
        scene = SceneSpec(jitter_seed=2)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 60)
        ideal = render_ideal(scene, pulse, 4, 4)
        noisy = render_noisy(scene, pulse, NO_NOISE, 4, 4)
        assert np.array_equal(ideal.data, noisy.data)

    def test_illumination_step_is_a_gain(self):
        scene = SceneSpec(jitter_seed=2)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 120)
        noise = NoiseSpec(delta_illumination=(StepNoise(t0_s=2.0, gain=0.08),))
        ideal = render_ideal(scene, pulse, 4, 4)
        noisy = render_noisy(scene, pulse, noise, 4, 4)
        t0 = int(2.0 * 30)
        assert np.allclose(noisy.data[:t0], ideal.data[:t0], atol=1e-15)
        assert np.allclose(noisy.data[t0:], 1.08 * ideal.data[t0:], atol=1e-12)

    def test_constant_specular_offset(self):
        scene = SceneSpec(illumination=1.5, jitter_seed=2)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 60)
        noise = NoiseSpec(delta_specular=(StepNoise(t0_s=0.0, gain=0.03),))
        ideal = render_ideal(scene, pulse, 4, 4)
        noisy = render_noisy(scene, pulse, noise, 4, 4)
        assert np.allclose(noisy.data, ideal.data + 1.5 * 0.03, atol=1e-12)

    @pytest.mark.parametrize(
        "noise, scene, shape, frames, height, width",
        [
            ("none", {}, "sinusoid", 60, 4, 5),
            ("step:0.5:0.05", {"illumination": (1.0, 0.8, 1.2)}, "sinusoid", 60, 1, 1),
            ("linear:0.1", {"specular": (0.1, 0.2, 0.3), "diffuse": (0.4, 0.5, 0.6)}, "sinusoid", 60, 1, 7),
            ("sin:0.3:0.05+vs/linear:0.02", {}, "harmonic", 2, 3, 3),
            ("vs/step:0.0:0.03+vs/sin:0.5:0.02", {"pixel_jitter": 0.2}, "sinusoid", 2, 1, 1),
            (
                "linear:0.1+step:1.0:0.05+vs/sin:0.5:0.02",
                {"illumination": (0.9, 1.1, 1.3), "specular": (0.3, 0.2, 0.1), "diffuse": (0.5, 0.7, 0.6)},
                "harmonic", 90, 6, 9,
            ),
        ],
    )
    def test_bit_identical_to_one_broadcast_expression(self, noise, scene, shape, frames, height, width):
        scene = SceneSpec(jitter_seed=5, **scene)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, shape=shape), 30.0, frames)
        noise = parse_noise_string(noise)
        vd = scene.diffuse_field(height, width)
        vp = pulse.samples[:, None, None, None]
        gi = noise_profile(noise.delta_illumination, frames, 30.0)[:, None, None, None]
        gs = noise_profile(noise.delta_specular, frames, 30.0)[:, None, None, None]
        expected = (scene.illumination + gi * scene.illumination) * (scene.specular + gs + vd * (1.0 + vp))
        assert np.array_equal(render_noisy(scene, pulse, noise, height, width).data, expected)

    @pytest.mark.parametrize(
        "scene, text",
        [
            # the products overflow: pytest turns numpy's overflow warning into an error
            (SceneSpec(), "linear:-1e308+vs/linear:1e308"),
            (SceneSpec(illumination=1.5e308, specular=0.5, diffuse=0.9), "none"),
        ],
    )
    def test_a_render_that_overflows_raises_the_clip_check(self, scene, text):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 30)
        with pytest.raises(ValueError, match=r"^clip data must not contain NaN or Inf$"):
            render_noisy(scene, pulse, parse_noise_string(text), 2, 2)


NOISES = [
    NO_NOISE,
    NoiseSpec(delta_illumination=(StepNoise(1.0, 0.05),)),
    NoiseSpec(delta_illumination=(LinearNoise(0.1),)),
    NoiseSpec(delta_illumination=(SinusoidNoise(0.3, 0.05),)),
    NoiseSpec(delta_specular=(LinearNoise(0.02),)),
    NoiseSpec(
        delta_illumination=(LinearNoise(0.1), SinusoidNoise(0.5, 0.03)),
        delta_specular=(StepNoise(0.5, 0.01),),
    ),
]


PER_CHANNEL_SCENES = [
    SceneSpec(illumination=(1.0, 0.8, 0.6), specular=(0.1, 0.2, 0.3), diffuse=(0.4, 0.5, 0.7), jitter_seed=4),
    SceneSpec(illumination=(0.9, 1.1, 1.3), specular=(0.3, 0.2, 0.1), diffuse=(0.5, 0.7, 0.6), pixel_jitter=0.2),
]


class TestTraceModel:
    @pytest.mark.parametrize("scene", PER_CHANNEL_SCENES)
    @pytest.mark.parametrize("noise", NOISES)
    def test_series_times_coefficients_give_both_renders(self, scene, noise):
        pulse = synth_pulse(PulseSpec(hr_bpm=84.0, shape="harmonic"), 30.0, 90)
        vd = scene.diffuse_field(5, 4)
        series, ideal, residual = _trace_model(scene, pulse, noise, vd)
        assert series.shape == (4, 90) and ideal.shape == residual.shape == (4, 5, 4, 3)
        lit = scene.illumination * (scene.specular + vd) + np.einsum("it,i...->t...", series, ideal)
        np.testing.assert_allclose(lit, render_ideal(scene, pulse, 5, 4).data, rtol=1e-12, atol=0.0)
        noisy = lit + np.einsum("it,i...->t...", series, residual)
        np.testing.assert_allclose(noisy, render_noisy(scene, pulse, noise, 5, 4).data, rtol=1e-12, atol=0.0)


class TestAnalyticResidual:
    def test_zero_noise_gives_zero(self):
        scene = SceneSpec(jitter_seed=1)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 60)
        res = analytic_noise_residual(scene, pulse, NO_NOISE, 4, 4)
        assert np.array_equal(res.data, np.zeros_like(res.data))

    @pytest.mark.parametrize("noise", NOISES)
    def test_identity_with_rendered_difference(self, noise):
        scene = SceneSpec(illumination=(0.9, 1.0, 1.1), jitter_seed=4)
        pulse = synth_pulse(PulseSpec(hr_bpm=66.0), 30.0, 90)
        noisy = render_noisy(scene, pulse, noise, 6, 6)
        ideal = render_ideal(scene, pulse, 6, 6)
        res = analytic_noise_residual(scene, pulse, noise, 6, 6)
        assert np.max(np.abs((noisy.data - ideal.data) - res.data)) < 1e-12

    def test_small_noise_first_order_bound(self):
        # with zero jitter: residual - (I dvs + dI (vs + vd)) = dI (dvs + vd vp),
        # bounded by |dI| (|dvs| + vd * amplitude)
        amp = 0.005
        scene = SceneSpec(pixel_jitter=0.0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=amp), 30.0, 150)
        noise = NoiseSpec(
            delta_illumination=(SinusoidNoise(0.4, 0.02),),
            delta_specular=(SinusoidNoise(0.7, 0.01),),
        )
        res = analytic_noise_residual(scene, pulse, noise, 2, 2).data
        gi = noise_profile(noise.delta_illumination, 150, 30.0)
        gs = noise_profile(noise.delta_specular, 150, 30.0)
        d_ill = gi  # illumination is 1.0
        approx = (1.0 * gs + d_ill * (0.2 + 0.5))[:, None, None, None]
        bound = (np.abs(d_ill) * (np.abs(gs) + 0.5 * amp))[:, None, None, None]
        assert np.all(np.abs(res - approx) <= bound + 1e-15)

    def test_magnitude_ordering_in_default_regime(self):
        # noise and pulse contributions comparable, both far below illumination
        scene = SceneSpec(jitter_seed=0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 300)
        silent = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 300)
        noise = NoiseSpec(delta_illumination=(SinusoidNoise(0.3, 0.01),))
        residual = analytic_noise_residual(scene, pulse, noise, 8, 8).data
        pulse_term = render_ideal(scene, pulse, 8, 8).data - render_ideal(scene, silent, 8, 8).data
        ratio = np.abs(residual).max() / np.abs(pulse_term).max()
        assert 0.1 <= ratio <= 10.0
        assert np.abs(residual).max() < 0.1
        assert np.abs(pulse_term).max() < 0.1

    @pytest.mark.parametrize(
        "scene, text",
        [
            # the ideal render overflows, though the residual I * gs is 1.5e305
            (SceneSpec(illumination=1.5e308, specular=0.5, diffuse=0.9, pixel_jitter=0.0), "vs/step:0:1e-3"),
            # both renders are near 1, but the series gs (1 + gi) is 1e400
            (SceneSpec(illumination=1e-200), "step:0:1e200+vs/step:0:1e200"),
            # the noisy render's last frame overflows, since its factors are 1e308 and -1e308
            (SceneSpec(), "linear:-1e308+vs/linear:1e308"),
        ],
    )
    def test_raises_where_a_render_or_the_series_overflow(self, scene, text):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 30)
        with pytest.raises(ValueError, match=r"^clip data must not contain NaN or Inf$"):
            analytic_noise_residual(scene, pulse, parse_noise_string(text), 2, 2)

    @pytest.mark.parametrize("height, width", [(0, 3), (3, 0)])
    def test_an_empty_field_raises_the_clip_shape_error(self, height, width):
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 30)
        with pytest.raises(ValueError, match=rf"^clip needs H >= 1 and W >= 1, got {height} x {width}$"):
            analytic_noise_residual(SceneSpec(), pulse, NOISES[1], height, width)

    def test_bit_identical_rendering(self):
        scene = SceneSpec(jitter_seed=21)
        pulse = synth_pulse(PulseSpec(hr_bpm=84.0), 30.0, 60)
        noise = NOISES[5]
        a = render_noisy(scene, pulse, noise, 5, 5)
        b = render_noisy(scene, pulse, noise, 5, 5)
        assert np.array_equal(a.data, b.data)


class TestParseNoiseString:
    def test_none(self):
        assert parse_noise_string("none") == NO_NOISE == parse_noise_string("vs/none")

    def test_single_terms(self):
        assert parse_noise_string("linear:0.1") == NoiseSpec(
            delta_illumination=(LinearNoise(0.1),)
        )
        assert parse_noise_string("step:2:0.05") == NoiseSpec(
            delta_illumination=(StepNoise(2.0, 0.05),)
        )
        assert parse_noise_string("sin:0.3:0.05") == NoiseSpec(
            delta_illumination=(SinusoidNoise(0.3, 0.05),)
        )

    def test_composition_and_routing(self):
        spec = parse_noise_string("linear:0.1+sin:0.3:0.05+vs/step:1:0.02")
        assert spec.delta_illumination == (LinearNoise(0.1), SinusoidNoise(0.3, 0.05))
        assert spec.delta_specular == (StepNoise(1.0, 0.02),)

    @pytest.mark.parametrize("bad", ["bogus:1", "step:1", "sin:0.3", "linear:x", "", "linear:0.1+"])
    def test_bad_tokens_rejected_with_context(self, bad):
        with pytest.raises(ValueError):
            parse_noise_string(bad)

    def test_offending_token_named(self):
        with pytest.raises(ValueError, match="bogus:1"):
            parse_noise_string("linear:0.1+bogus:1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bogus:1", "bad noise term 'bogus:1' (expected none, step:t0:gain, linear:total or sin:hz:amp)"),
            ("step:1", "bad noise term 'step:1' (expected none, step:t0:gain, linear:total or sin:hz:amp)"),
            ("none:1", "bad noise term 'none:1' (expected none, step:t0:gain, linear:total or sin:hz:amp)"),
            ("vs/", "bad noise term 'vs/' (expected none, step:t0:gain, linear:total or sin:hz:amp)"),
            ("step:1:2:3", "bad noise term 'step:1:2:3' (expected none, step:t0:gain, linear:total or sin:hz:amp)"),
            ("linear:x", "bad noise term 'linear:x': could not convert string to float: 'x'"),
            ("linear:0.1+", "empty noise term in 'linear:0.1+'"),
            ("sin:0.5:nan", "bad noise term 'sin:0.5:nan': amplitude must be finite, got nan"),
            ("linear:inf", "bad noise term 'linear:inf': total must be finite, got inf"),
            ("vs/step:-inf:1", "bad noise term 'vs/step:-inf:1': t0_s must be finite, got -inf"),
            ("sin:NaN:0.1", "bad noise term 'sin:NaN:0.1': freq_hz must be finite, got nan"),
        ],
    )
    def test_exact_messages(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_noise_string(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [None, True, -1, 1.5, [1], {}])
    def test_rejects_a_value_that_is_not_a_string(self, value):
        with pytest.raises(ValueError) as exc:
            parse_noise_string(value)
        assert str(exc.value) == f"noise must be a string, got {value!r}"
