"""Tripwire: the heart-rate stage takes its settings as one `PipelineConfig`.

Every setting of the back end is a `PipelineConfig` field, checked once,
when the config is built. A public function of `pulse_tn.hr` that took one
of them as its own parameter would be a second way to set it, which the
pipeline never calls and which needs checks of its own; `welch_psd` once
took `window_len`, `overlap` and `nfft` so, and raised on a waveform
shorter than the window that the pipeline shrinks instead.
"""

import dataclasses
import inspect

import pulse_tn
from pulse_tn import PipelineConfig, hr

# the config's fields, and the names the band edges, order and segment length once took
SETTING_NAMES = {field.name for field in dataclasses.fields(PipelineConfig)} | {
    "low_hz",
    "high_hz",
    "order",
    "seconds",
}


def loose_settings(fn) -> list[str]:
    """The parameters of fn named after a pipeline setting."""
    return [name for name in inspect.signature(fn).parameters if name in SETTING_NAMES]


def public_functions() -> list:
    defined = [
        fn
        for name, fn in vars(hr).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == hr.__name__
    ]
    return defined + [pulse_tn.segment_waveform]


def test_every_public_function_is_checked():
    names = {fn.__name__ for fn in public_functions()}
    assert {"bandpass", "welch_psd", "hr_from_psd", "segment_waveform", "segment_heart_rates", "video_hr"} <= names


def test_hr_stage_takes_no_loose_setting():
    offenders = {fn.__name__: loose_settings(fn) for fn in public_functions() if loose_settings(fn)}
    assert not offenders, f"take the settings as cfg: PipelineConfig, not as {offenders}"


def test_one_value_and_the_config():
    for fn in (hr.bandpass, hr.welch_psd, hr.hr_from_psd, pulse_tn.segment_waveform):
        params = list(inspect.signature(fn).parameters.values())
        assert len(params) == 2 and params[1].name == "cfg", fn.__name__
        assert params[1].default == PipelineConfig(), fn.__name__


def test_a_loose_setting_is_caught():
    def welch(w, window_len=256, cfg=PipelineConfig()):
        pass

    def band_peak(spectrum, low_hz=0.5, high_hz=3.0):
        pass

    assert loose_settings(welch) == ["window_len"]
    assert loose_settings(band_peak) == ["low_hz", "high_hz"]
