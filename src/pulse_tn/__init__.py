"""Temporal-normalization features for camera pulse signals, with a synthetic
reflectance-model clip generator, a differential-feature baseline, and the
spectral heart-rate estimation pipeline used to compare them."""

from .core import FrameClip, Waveform, pool_spatial, segment_waveform
from .simulate import (
    NO_NOISE,
    LinearNoise,
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    SinusoidNoise,
    StepNoise,
    analytic_noise_residual,
    noise_profile,
    parse_noise_string,
    render_ideal,
    render_noisy,
    synth_pulse,
)
from .tn import (
    DEFAULT_BACKEND,
    EPSILON,
    detrend,
    fit_trend,
    rms_normalize,
    tn,
    tn_trace,
    tn_traces,
)
from .diff import diff_normalized, frame_diff
from .hr import (
    DegenerateSignalError,
    PipelineConfig,
    PowerSpectrum,
    SamplingRateError,
    bandpass,
    compute_metrics,
    hr_from_psd,
    segment_heart_rates,
    video_hr,
    welch_psd,
)
from .extract import (
    ExtractorKind,
    extract_diff_pooled,
    extract_green,
    extract_tn_pooled,
    run_extractor,
)
from .clipio import (
    BadMagicError,
    BadVersionError,
    ClipFormatError,
    TruncatedClipError,
    UnsupportedDtypeError,
    read_clip,
    read_labels,
    upsert_label,
    write_clip,
)

__version__ = "0.1.0"
