"""Synthetic clip generator based on a dichromatic reflectance decomposition.

A clip is rendered as illumination times the sum of a specular surface
reflectance and a diffuse subsurface reflectance, where the diffuse part is
modulated by the blood-volume pulse. Controlled time-varying perturbations of
the illumination and of the specular component produce noisy variants with a
known, analytically exact noise residual.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import FrameClip, Waveform, _is_finite, _require_fps

PULSE_SHAPES = ("sinusoid", "harmonic")


def _as_channels(value, name: str) -> np.ndarray:
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be finite") from None
    if arr.size == 1:
        arr = np.full(3, arr[0])
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a scalar or length-3 sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _require_finite_number(value, name: str) -> None:
    if isinstance(value, (str, bytes)):  # float() takes a numeric string, but it is no number
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PulseSpec:
    """Blood-volume pulse model: a sinusoid with an optional second harmonic.

    `amplitude` is the coefficient of the fundamental; the harmonic shape adds
    a component at twice the rate with amplitude `harmonic_ratio * amplitude`,
    a crude stand-in for a dicrotic notch.
    """

    hr_bpm: float
    amplitude: float = 0.005
    shape: str = "sinusoid"
    harmonic_ratio: float = 0.3

    def __post_init__(self):
        # a string does not compare with a number (and a boolean is out of range)
        if isinstance(self.hr_bpm, (str, bytes)) or not 30.0 <= self.hr_bpm <= 180.0:
            raise ValueError(f"hr_bpm must lie in [30, 180], got {self.hr_bpm}")
        _require_finite_number(self.amplitude, "amplitude")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"shape must be one of {PULSE_SHAPES}, got {self.shape!r}")
        _require_finite_number(self.harmonic_ratio, "harmonic_ratio")
        if not 0.0 <= self.harmonic_ratio <= 1.0:
            raise ValueError(f"harmonic_ratio must lie in [0, 1], got {self.harmonic_ratio}")


@dataclass(frozen=True)
class SceneSpec:
    """Static optics of a rendered three-channel (RGB) scene.

    `illumination`, `specular` and `diffuse` are per-channel (scalars
    broadcast to all three). `pixel_jitter` is the relative spread of the
    per-pixel multiplicative variation applied to the diffuse component,
    drawn uniformly from [-pixel_jitter, +pixel_jitter] with `jitter_seed`;
    it keeps spatial pooling non-degenerate.
    """

    illumination: object = 1.0
    specular: object = 0.2
    diffuse: object = 0.5
    pixel_jitter: float = 0.05
    jitter_seed: int = 0

    def __post_init__(self):
        ill = _as_channels(self.illumination, "illumination")
        spec = _as_channels(self.specular, "specular")
        diff = _as_channels(self.diffuse, "diffuse")
        if np.any(ill <= 0):
            raise ValueError("illumination must be > 0 per channel")
        if np.any(spec < 0) or np.any(diff < 0):
            raise ValueError("specular and diffuse must be >= 0 per channel")
        _require_finite_number(self.pixel_jitter, "pixel_jitter")
        if self.pixel_jitter < 0:
            raise ValueError(f"pixel_jitter must be >= 0, got {self.pixel_jitter}")
        # numpy would take None as "seed from the OS", so every render would differ
        seed = self.jitter_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"jitter_seed must be an integer >= 0, got {seed!r}")
        object.__setattr__(self, "illumination", ill)
        object.__setattr__(self, "specular", spec)
        object.__setattr__(self, "diffuse", diff)

    def diffuse_field(self, height: int, width: int) -> np.ndarray:
        """Per-pixel diffuse reflectance (H x W x C), jittered deterministically."""
        rng = np.random.default_rng(self.jitter_seed)
        u = rng.uniform(-1.0, 1.0, size=(height, width, 3))
        return self.diffuse * (1.0 + self.pixel_jitter * u)


@dataclass(frozen=True)
class StepNoise:
    """Constant offset switched on at `t0_s` seconds."""

    t0_s: float
    gain: float


@dataclass(frozen=True)
class LinearNoise:
    """Ramp from 0 to `total` across the whole clip."""

    total: float


@dataclass(frozen=True)
class SinusoidNoise:
    """Sinusoidal wobble of amplitude `amplitude` at `freq_hz`."""

    freq_hz: float
    amplitude: float


NoiseTerm = StepNoise | LinearNoise | SinusoidNoise
# The noise grammar's term kinds; a term takes one number per field, in field order.
_NOISE_TERMS = {"step": StepNoise, "linear": LinearNoise, "sin": SinusoidNoise}


@dataclass(frozen=True)
class NoiseSpec:
    """Time-varying perturbations applied while rendering a noisy clip.

    `delta_illumination` terms are dimensionless gains relative to the
    illumination (the illumination of channel c becomes I_c * (1 + g(t))).
    `delta_specular` terms are absolute offsets in reflectance units added to
    the specular component. Both are spatially and per-channel uniform.
    Empty term tuples mean no noise.
    """

    delta_illumination: tuple[NoiseTerm, ...] = ()
    delta_specular: tuple[NoiseTerm, ...] = ()


NO_NOISE = NoiseSpec()


def noise_profile(terms: tuple[NoiseTerm, ...], frames: int, fps: float) -> np.ndarray:
    """Evaluate the summed noise terms on the clip's frame grid."""
    t_idx = np.arange(frames, dtype=np.float64)
    t_s = t_idx / fps
    out = np.zeros(frames)
    for term in terms:
        if isinstance(term, StepNoise):
            out += np.where(t_s >= term.t0_s, term.gain, 0.0)
        elif isinstance(term, LinearNoise):
            out += term.total * t_idx / (frames - 1)
        elif isinstance(term, SinusoidNoise):
            out += term.amplitude * np.sin(2.0 * np.pi * term.freq_hz * t_s)
        else:
            raise TypeError(f"unknown noise term {term!r}")
    return out


def synth_pulse(spec: PulseSpec, fps: float, frames: int) -> Waveform:
    """Sample the pulse model at `fps` for `frames` samples."""
    fps = _require_fps(fps)
    if frames < 2:
        raise ValueError(f"need at least 2 frames, got {frames}")
    t_s = np.arange(frames, dtype=np.float64) / fps
    f = spec.hr_bpm / 60.0
    v = spec.amplitude * np.sin(2.0 * np.pi * f * t_s)
    if spec.shape == "harmonic":
        v = v + spec.harmonic_ratio * spec.amplitude * np.sin(4.0 * np.pi * f * t_s)
    return Waveform(v, fps)


def _deltas(scene: SceneSpec, noise: NoiseSpec, frames: int, fps: float):
    """ΔI and Δv_s as (T, 1, 1, C) tensors ready for broadcasting."""
    gi = noise_profile(noise.delta_illumination, frames, fps)
    gs = noise_profile(noise.delta_specular, frames, fps)
    d_ill = gi[:, None, None, None] * scene.illumination
    d_spec = np.broadcast_to(gs[:, None, None, None], (frames, 1, 1, 3))
    return d_ill, d_spec


def render_ideal(scene: SceneSpec, pulse: Waveform, height: int, width: int) -> FrameClip:
    """Noise-free clip: illumination * (specular + diffuse * (1 + pulse))."""
    return render_noisy(scene, pulse, NO_NOISE, height, width)


def render_noisy(
    scene: SceneSpec, pulse: Waveform, noise: NoiseSpec, height: int, width: int
) -> FrameClip:
    """Clip with perturbed illumination and specular reflectance.

    data[t] = (I + ΔI(t)) * (v_s + Δv_s(t) + v_d_ij * (1 + pulse(t)))
    """
    return FrameClip(_render_rows(scene, pulse, noise, scene.diffuse_field(height, width)), pulse.fps)


def _render_rows(scene: SceneSpec, pulse: Waveform, noise: NoiseSpec, vd_rows: np.ndarray) -> np.ndarray:
    """render_noisy's samples (T x rows x W x C, unchecked) of the image rows whose
    diffuse field is `vd_rows`. Each sample depends only on its own pixel, so the
    rows of a band equal those rows of the whole clip bit for bit."""
    vp = pulse.samples[:, None, None, None]
    d_ill, d_spec = _deltas(scene, noise, len(pulse), pulse.fps)
    # The per-frame factors are (T, 1, 1, 3); widened to (T, 1, W, 3) they let
    # numpy run its inner loop over whole image rows instead of 3 samples.
    # Addition and multiplication commute, so the in-place forms are bit-identical.
    shape = (len(pulse), 1, vd_rows.shape[1], 3)
    data = vd_rows * (1.0 + vp)
    data += np.ascontiguousarray(np.broadcast_to(scene.specular + d_spec, shape))
    data *= np.ascontiguousarray(np.broadcast_to(scene.illumination + d_ill, shape))
    return data


def _trace_model(scene: SceneSpec, pulse: Waveform, noise: NoiseSpec, vd: np.ndarray):
    """The renders as a linear model: the series [p, gi, gi p, gs (1 + gi)] as (4, T)
    rows, and the (4, ...) ideal and residual coefficients of each trace of the
    diffuse field `vd` (..., C). Channel c of diffuse value v renders, in render_ideal,
    as I_c (s_c + v) plus I_c [v, 0, 0, 0] times the series; render_noisy adds
    I_c [0, v + s_c, v, 1] times them, since (I_c + ΔI)(s_c + Δv_s + v (1 + p))
    - I_c (s_c + v (1 + p)) = I_c [(v + s_c) gi + v gi p + gs (1 + gi)]."""
    gi = noise_profile(noise.delta_illumination, len(pulse), pulse.fps)
    gs = noise_profile(noise.delta_specular, len(pulse), pulse.fps)
    p = pulse.samples
    zero = np.zeros_like(vd)
    ideal = np.stack([scene.illumination * vd, zero, zero, zero])
    residual = scene.illumination * np.stack([zero, vd + scene.specular, vd, np.ones_like(vd)])
    return np.stack([p, gi, gi * p, gs * (1.0 + gi)]), ideal, residual


def analytic_noise_residual(
    scene: SceneSpec, pulse: Waveform, noise: NoiseSpec, height: int, width: int
) -> FrameClip:
    """Closed-form difference between the noisy and the ideal clip.

    residual[t] = I * Δv_s(t) + ΔI(t) * (v_s + Δv_s(t) + v_d_ij * (1 + pulse(t)))

    This is exact algebra (same jitter realization as the renderers), so it
    matches render_noisy - render_ideal to floating-point round-off.
    """
    vd = scene.diffuse_field(height, width)
    vp = pulse.samples[:, None, None, None]
    d_ill, d_spec = _deltas(scene, noise, len(pulse), pulse.fps)
    data = scene.illumination * d_spec + d_ill * (
        scene.specular + d_spec + vd * (1.0 + vp)
    )
    return FrameClip(data, pulse.fps)


def parse_noise_string(text: str) -> NoiseSpec:
    """Parse the CLI noise mini-grammar into a NoiseSpec.

    Grammar: terms joined by "+", each one of
        none | step:<t0_s>:<gain> | linear:<total> | sin:<freq_hz>:<amplitude>
    A "vs/" prefix routes the term to the specular perturbation instead of
    the illumination one, e.g. "linear:0.1+vs/sin:0.5:0.02".
    """
    if not isinstance(text, str):
        raise ValueError(f"noise must be a string, got {text!r}")
    d_ill: list[NoiseTerm] = []
    d_spec: list[NoiseTerm] = []
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty noise term in {text!r}")
        target, body = (d_spec, token[3:]) if token.startswith("vs/") else (d_ill, token)
        kind, *args = body.split(":")
        if kind == "none" and not args:
            continue
        term = _NOISE_TERMS.get(kind)
        if term is None or len(args) != len(fields(term)):
            raise ValueError(f"bad noise term {token!r} (expected none, step:t0:gain, linear:total or sin:hz:amp)")
        try:
            values = [float(arg) for arg in args]
        except ValueError as exc:
            raise ValueError(f"bad noise term {token!r}: {exc}") from None
        for field, value in zip(fields(term), values):
            if not np.isfinite(value):
                raise ValueError(f"bad noise term {token!r}: {field.name} must be finite, got {value}")
        target.append(term(*values))
    return NoiseSpec(delta_illumination=tuple(d_ill), delta_specular=tuple(d_spec))
