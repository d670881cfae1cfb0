"""qndlab.pipeline.analyze against the call chain it stands for."""

from dataclasses import replace

import numpy as np
import pytest

import qndlab as q

# Seed 2 puts spike bursts into segments 0, 1 and 7 (sum-channel peak/rms
# 102.8/43.4, 105.8/29.0 and 97.9/19.0 SQL units at either electronic
# level; the clean segments stay below 14/5).  The defaults (60/25) reject
# all three; the custom limits (110/35) keep 1 and 7 and reject 0, and
# either custom limit alone keeps a different set, so each limit is seen
# to come from the config.
SPIKED = q.SynthConfig(segment_length=2**14, n_segments=12, seed=2, spike_rate=80.0)

CUSTOM = """
[estimate]
peak_limit = 110.0
rms_limit = 35.0
window = hann
band_lo_hz = 130e3
band_hi_hz = 200e3
analysis_freq_hz = 168e3
"""

CASES = {
    "defaults": ("", dict(peak_limit=60.0, rms_limit=25.0, window="rectangular",
                          band=(100e3, 220e3), level=10.0 ** (-1.5),
                          analysis_freq=170e3)),
    "custom": (CUSTOM, dict(peak_limit=110.0, rms_limit=35.0, window="hann",
                            band=(130e3, 200e3), level=0.01, analysis_freq=168e3)),
}


@pytest.fixture(scope="module")
def datasets(system):
    """SPIKED at each case's electronic level, which analyze reads from the data."""
    return {
        case: q.synthesize(system, replace(SPIKED, electronic_noise_level=s["level"]))
        for case, (_, s) in CASES.items()
    }


def _reference(ds, peak_limit, rms_limit, window, band, level, analysis_freq):
    """The chain written out: select, transform, calibrate, normalise."""
    seg = q.transform(
        q.segment_and_select(ds, peak_limit=peak_limit, rms_limit=rms_limit),
        window=window, band=band,
    )
    f = seg.frequencies
    elec = q.SpectrumEstimate(f, np.full_like(f, level), np.full_like(f, 0.1 * level),
                              seg.n_kept)
    diff = q.subtract_electronic_noise(q.power_spectrum(seg, "difference"), elec)
    sql, cal = q.shot_calibration(diff, analysis_freq=analysis_freq)
    s_sum = q.subtract_electronic_noise(q.power_spectrum(seg, "sum"), elec)
    res = q.subtract_electronic_noise(q.residual_single(seg), elec)
    return seg, elec, sql, cal, s_sum.normalized_by(sql), res.normalized_by(sql)


def _assert_same_estimate(got, want):
    np.testing.assert_array_equal(got.frequencies, want.frequencies)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.stderr, want.stderr)
    assert got.n_averages == want.n_averages


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_equals_explicit_chain(datasets, case):
    text, settings = CASES[case]
    a = q.analyze(datasets[case], q.load_config(text=text))
    seg, elec, sql, cal, s_sum, res = _reference(datasets[case], **settings)
    np.testing.assert_array_equal(a.seg.kept_mask, seg.kept_mask)
    assert a.seg.window == seg.window
    assert sorted(a.seg.dfts) == sorted(seg.dfts)
    for name in seg.dfts:
        np.testing.assert_array_equal(a.seg.dfts[name], seg.dfts[name])
    _assert_same_estimate(a.electronic, elec)
    assert a.sql == sql
    assert a.calibration == cal
    _assert_same_estimate(a.spectrum_sum, s_sum)
    _assert_same_estimate(a.normalized(q.residual_single(a.seg)), res)


def test_every_setting_reaches_the_analysis(datasets):
    base = q.analyze(datasets["defaults"], q.load_config(text=""))
    custom = q.analyze(datasets["custom"], q.load_config(text=CUSTOM))
    assert base.seg.n_kept == 9 and custom.seg.n_kept == 11
    for peak, rms in ((110.0, 25.0), (60.0, 35.0)):
        one_limit = q.segment_and_select(
            datasets["custom"], peak_limit=peak, rms_limit=rms
        )
        assert not np.array_equal(one_limit.kept_mask, custom.seg.kept_mask)
    assert custom.seg.window == "hann"
    f = custom.seg.frequencies
    assert f[0] >= 130e3 and f[-1] <= 200e3 and f[0] - base.seg.frequencies[0] > 29e3
    np.testing.assert_array_equal(custom.electronic.values, 0.01)
    assert custom.calibration["analysis_freq_hz"] == 168e3
