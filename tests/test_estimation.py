"""Statistics engine: selection, transforms, leave-one-out residual
estimators, coherence, calibration, subtraction, banding, diagnostics."""

import csv
import dataclasses
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

import qndlab as q
from qndlab import estimation, synth
from qndlab.errors import ConfigError, FormatError, StatisticsError
from conftest import pool_workers, white_dataset


def _white_segments(sigma=1.0, n_segments=16, length=2**12, seed=0):
    return q.transform(q.segment_and_select(
        white_dataset(sigma, n_segments, length, seed), peak_limit=1e9, rms_limit=1e9
    ))


def _toy_segments(n_segments, length, seed, noise=0.3, channels=None):
    """sum = meter + independent noise; channels can override any series."""
    rng = np.random.default_rng(seed)
    n = n_segments * length
    meter = rng.standard_normal(n)
    extra = noise * rng.standard_normal(n)
    series = {"sum": meter + extra, "difference": rng.standard_normal(n),
              "meter": meter}
    if channels:
        series.update(channels)
    cfg = q.SynthConfig(sample_rate=5e6, segment_length=length,
                        n_segments=n_segments, seed=seed)
    ds = q.DataSet(sum=series["sum"], difference=series["difference"],
                   meter=series["meter"], config=cfg)
    return q.transform(q.segment_and_select(ds, peak_limit=1e9, rms_limit=1e9))


class TestSelection:
    def test_clean_data_fully_kept(self, small_dataset):
        seg = q.segment_and_select(small_dataset)
        assert seg.kept_fraction == 1.0

    def test_injected_spike_rejects_exactly_one(self, small_dataset):
        length = small_dataset.config.segment_length
        spiked = small_dataset.sum.copy()
        spiked[3 * length + 100] = 500.0
        ds = dataclasses.replace(small_dataset, sum=spiked)
        seg = q.segment_and_select(ds)
        assert seg.n_kept == small_dataset.config.n_segments - 1
        assert not seg.kept_mask[3]
        assert seg.kept_mask.sum() == len(seg.kept_mask) - 1

    def test_all_kept_gives_read_only_views(self, small_dataset):
        # the selection never copies, whether or not a segment is rejected
        length = small_dataset.config.segment_length
        spiked = small_dataset.sum.copy()
        spiked[3 * length + 100] = 500.0
        n_seg = small_dataset.config.n_segments
        for ds, n_kept in (
            (small_dataset, n_seg),
            (dataclasses.replace(small_dataset, sum=spiked), n_seg - 1),
        ):
            seg = q.segment_and_select(ds)
            assert seg.n_kept == n_kept
            assert seg.source is ds
            for name in synth.CHANNELS:
                for i in range(n_seg):
                    x = seg.source.segment(name, i)
                    assert x.shape == (length,)
                    assert np.shares_memory(x, ds.channel(name))
                    assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0.0
                assert ds.channel(name).flags.writeable
            copies = dataclasses.replace(seg, source=dataclasses.replace(
                ds, **{k: ds.channel(k).copy() for k in synth.CHANNELS}
            ))
            for window in estimation.WINDOWS:
                a = q.transform(seg, window, band=(120e3, 220e3))
                b = q.transform(copies, window, band=(120e3, 220e3))
                assert a.dfts.keys() == b.dfts.keys()
                for ch in a.dfts:
                    assert a.dfts[ch].shape[0] == n_kept
                    assert np.array_equal(a.dfts[ch], b.dfts[ch])
                    pa, pb = q.power_spectrum(a, ch), q.power_spectrum(b, ch)
                    assert np.array_equal(pa.values, pb.values)
                    assert np.array_equal(pa.stderr, pb.stderr)

    def test_too_few_segments(self, small_dataset):
        with pytest.raises(StatisticsError, match="segments pass selection"):
            q.segment_and_select(small_dataset, peak_limit=1e-6, rms_limit=1e-6)

    def test_bad_limits(self, small_dataset):
        with pytest.raises(ConfigError):
            q.segment_and_select(small_dataset, peak_limit=0.0)

    def test_non_finite_names_lowest_segment_channel(self):
        # a NaN in the meter channel of segment 2 and one in the sum channel
        # of segment 9: the error names the channel of the lower segment
        ds = white_dataset()
        length = ds.config.segment_length
        ds.meter[2 * length + 5] = np.nan
        ds.sum[9 * length + 5] = np.nan
        with pytest.raises(FormatError, match="meter channel"):
            q.segment_and_select(ds, peak_limit=1e9, rms_limit=1e9)


class TestTransform:
    def test_sinusoid_single_bin(self):
        length, fs = 2**12, 5e6
        t = np.arange(length) / fs
        k = 100
        x = np.sin(2.0 * np.pi * (k * fs / length) * t)
        cfg = q.SynthConfig(sample_rate=fs, segment_length=length, n_segments=4)
        ds = q.DataSet(sum=np.tile(x, 4), difference=np.tile(x, 4),
                       meter=np.tile(x, 4), config=cfg)
        seg = q.transform(q.segment_and_select(ds, peak_limit=10, rms_limit=10))
        mag = np.abs(seg.dfts["sum"][0])
        assert np.argmax(mag) == k
        mag[k] = 0.0
        assert mag.max() < 1e-8 * np.abs(seg.dfts["sum"][0][k])

    def test_parseval(self):
        seg = _white_segments(n_segments=4, length=2**10)
        x = seg.source.segment("sum", np.flatnonzero(seg.kept_mask)[0])
        f = seg.dfts["sum"][0]
        # rfft energy: double the interior bins of the one-sided grid
        energy = (np.abs(f[0]) ** 2 + np.abs(f[-1]) ** 2
                  + 2.0 * np.sum(np.abs(f[1:-1]) ** 2)) / len(x)
        assert energy == pytest.approx(np.sum(x**2), rel=1e-9)

    def test_meter_squared_flat_for_white_input(self):
        seg = _white_segments(n_segments=64, length=2**10, seed=2)
        est = q.power_spectrum(seg, "meter_squared")
        sel = est.frequencies > 0
        third = sel.sum() // 3
        lo = est.values[sel][:third].mean()
        hi = est.values[sel][-third:].mean()
        assert lo / hi == pytest.approx(1.0, abs=0.08)

    def test_hann_window_preserves_level(self):
        seg_r = _white_segments(n_segments=64, length=2**10, seed=3)
        raw = q.segment_and_select(
            white_dataset(1.0, 64, 2**10, 3), peak_limit=1e9, rms_limit=1e9
        )
        seg_h = q.transform(raw, window="hann")
        level_r = q.power_spectrum(seg_r, "sum").values[5:-5].mean()
        level_h = q.power_spectrum(seg_h, "sum").values[5:-5].mean()
        assert level_h / level_r == pytest.approx(1.0, abs=0.05)

    def test_band_slicing(self):
        raw = q.segment_and_select(
            white_dataset(1.0, 4, 2**10, 4), peak_limit=1e9, rms_limit=1e9
        )
        seg = q.transform(raw, band=(1e5, 2e5))
        assert seg.frequencies.min() >= 1e5
        assert seg.frequencies.max() <= 2e5
        with pytest.raises(StatisticsError, match="outside the grid"):
            q.transform(raw, band=(1e9, 2e9))


class TestStreaming:
    """The per-segment transform against one batched rfft of the kept rows."""

    @staticmethod
    def _rejecting(dataset):
        length = dataset.config.segment_length
        spiked = dataset.sum.copy()
        spiked[3 * length + 100] = 500.0
        spiked[20 * length + 7] = -500.0
        return dataclasses.replace(dataset, sum=spiked)

    def test_matches_batched_rfft(self, small_dataset):
        raw = q.segment_and_select(self._rejecting(small_dataset))
        assert raw.n_kept == len(raw.kept_mask) - 2
        length = raw.segment_length
        kept = {
            name: raw.source.channel(name).reshape(-1, length)[raw.kept_mask]
            for name in synth.CHANNELS
        }
        sq = kept["meter"] ** 2
        kept["meter_squared"] = sq - sq.mean(axis=1, keepdims=True)
        freqs = np.fft.rfftfreq(length, 1.0 / raw.source.config.sample_rate)
        hann = np.hanning(length)
        hann = hann / np.sqrt(np.mean(hann**2))
        for window, w in (("rectangular", 1.0), ("hann", hann)):
            for band in (None, (120e3, 220e3)):
                sel = (
                    slice(None) if band is None
                    else (freqs >= band[0]) & (freqs <= band[1])
                )
                seg = q.transform(raw, window, band=band)
                assert np.array_equal(seg.frequencies, freqs[sel])
                assert seg.dfts.keys() == kept.keys()
                ref = dataclasses.replace(seg, dfts={
                    name: np.fft.rfft(x * w, axis=1)[:, sel] for name, x in kept.items()
                })
                for name in kept:
                    assert np.array_equal(seg.dfts[name], ref.dfts[name]), (window, band, name)
                # the estimators' sums over segments see the same memory order
                for estimate in (
                    lambda s: q.power_spectrum(s, "sum"),
                    q.residual_two_channel,
                    q.msc_estimate,
                ):
                    a, b = estimate(seg), estimate(ref)
                    assert np.array_equal(a.values, b.values), (window, band)
                    assert np.array_equal(a.stderr, b.stderr), (window, band)
                # one worker, then more workers than cores with frequent switches
                for n_workers in (1, 3):
                    with pool_workers(n_workers):
                        again = q.transform(raw, window, band=band)
                    for name in kept:
                        assert np.array_equal(again.dfts[name], seg.dfts[name])

    def test_memory_bounded_by_band(self, system, monkeypatch):
        cfg = q.SynthConfig(segment_length=2**16, n_segments=16, seed=5, spike_rate=20.0)
        ds = q.synthesize(system, cfg)
        n_workers = 2
        monkeypatch.setattr(synth, "_cpu_count", lambda: n_workers)
        row_bytes = cfg.segment_length * 8
        for window in estimation.WINDOWS:
            tracemalloc.start()
            try:
                seg = q.transform(q.segment_and_select(ds), window, band=(100e3, 220e3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert seg.n_kept == 12
            band_bytes = sum(d.nbytes for d in seg.dfts.values())
            # the band DFTs plus a few segment-sized buffers per worker;
            # a full-grid transform of the kept rows alone is 12 rows per channel
            assert peak <= band_bytes + 4 * n_workers * row_bytes, (window, peak)


class TestPowerSpectrum:
    def test_identical_segments_zero_stderr(self):
        length = 2**10
        x = np.random.default_rng(0).standard_normal(length)
        cfg = q.SynthConfig(sample_rate=5e6, segment_length=length, n_segments=4)
        ds = q.DataSet(sum=np.tile(x, 4), difference=np.tile(x, 4),
                       meter=np.tile(x, 4), config=cfg)
        seg = q.transform(q.segment_and_select(ds, peak_limit=1e9, rms_limit=1e9))
        est = q.power_spectrum(seg, "sum")
        np.testing.assert_allclose(est.stderr, 0.0, atol=1e-12)

    def test_one_segment_has_zero_stderr(self):
        # a one-row average has no spread to estimate: zeros, no warning
        ds = white_dataset(1.0, 4, 2**10, 0)
        mask = np.array([False, False, True, False])
        seg = q.transform(q.SegmentSet(source=ds, kept_mask=mask))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = q.power_spectrum(seg, "sum")
        assert est.n_averages == 1
        assert np.array_equal(est.stderr, np.zeros_like(est.values))
        x = ds.segment("sum", 2)
        np.testing.assert_allclose(est.values, np.abs(np.fft.rfft(x)) ** 2 / len(x))

    def test_white_noise_level(self):
        sigma = 1.7
        seg = _white_segments(sigma=sigma, n_segments=64, length=2**10, seed=5)
        est = q.power_spectrum(seg, "sum")
        sel = est.frequencies > 0
        pull = (est.values[sel] - sigma**2) / est.stderr[sel]
        assert np.mean(np.abs(pull) <= 3.0) >= 0.95


class TestResidualSingle:
    def test_duplicate_channel_zero_residual(self):
        seg = _toy_segments(8, 2**10, 0, channels=None)
        res = q.residual_single(seg, "meter", "meter")
        assert np.max(res.values) < 1e-20

    def test_independent_channel_conservative_bias(self):
        # y carries no information: E[residual] = S_XX (N - 1) / (N - 2)
        vals, svals = [], []
        for seed in range(40):
            seg = _white_segments(n_segments=16, length=2**9, seed=100 + seed)
            res = q.residual_single(seg, "sum", "meter")
            vals.append(res.values[1:].mean())
            svals.append(q.power_spectrum(seg, "sum").values[1:].mean())
        ratio = np.mean(vals) / np.mean(svals)
        assert ratio == pytest.approx(15.0 / 14.0, abs=0.04)

    def test_additive_noise_floor(self):
        noise = 0.3
        seg = _toy_segments(128, 2**10, 1, noise=noise)
        res = q.residual_single(seg, "sum", "meter")
        assert res.values[1:].mean() == pytest.approx(noise**2, rel=0.06)

    def test_too_few_segments(self):
        seg = _toy_segments(4, 2**8, 2)
        seg3 = dataclasses.replace(
            seg,
            dfts={k: v[:3] for k, v in seg.dfts.items()},
        )
        with pytest.raises(StatisticsError, match="need >= 4 segments"):
            q.residual_single(seg3, "sum", "meter")

    @pytest.mark.parametrize("n_segments", [11, 12])
    def test_every_kept_segment_averaged(self, n_segments):
        seg = _toy_segments(n_segments, 2**9, 6)
        assert seg.n_kept == n_segments
        assert q.power_spectrum(seg, "sum").n_averages == n_segments
        for res in (q.residual_single(seg), q.residual_two_channel(seg)):
            assert res.n_averages == seg.n_kept

    @pytest.mark.parametrize("predictors", [("meter",), ("meter", "difference")],
                             ids=["k1", "k2"])
    def test_leave_one_out_matches_refit(self, predictors):
        # PRESS: e / (1 - h) is the residual of a fit without the segment
        seg = _toy_segments(11, 2**7, 6)
        x = seg.dfts["sum"]
        ys = np.stack([seg.dfts[c] for c in predictors], axis=-1)
        n = len(x)
        refit = np.empty(x.shape)
        for i in range(n):
            rest = np.arange(n) != i
            for b in range(x.shape[1]):
                alpha = np.linalg.lstsq(ys[rest, b], x[rest, b], rcond=None)[0]
                refit[i, b] = abs(x[i, b] - ys[i, b] @ alpha) ** 2
        residual = q.residual_single if len(predictors) == 1 else q.residual_two_channel
        res = residual(seg, "sum", *predictors)
        np.testing.assert_allclose(res.values, refit.mean(axis=0) / seg.segment_length,
                                   rtol=1e-12)

    def test_exchange_symmetry(self):
        seg = _toy_segments(16, 2**9, 3)
        res = q.residual_single(seg, "sum", "meter")
        # swap the odd and even half-sets by interleaving pairs: the order
        # of the segments moves only the diagnostic's halves
        order = np.arange(16).reshape(-1, 2)[:, ::-1].ravel()
        swapped = dataclasses.replace(
            seg, dfts={k: v[order] for k, v in seg.dfts.items()}
        )
        res_sw = q.residual_single(swapped, "sum", "meter")
        np.testing.assert_allclose(res.values, res_sw.values, rtol=1e-12)

    def test_scale_equivariance(self):
        seg = _toy_segments(16, 2**9, 4)
        res = q.residual_single(seg, "sum", "meter")
        scaled = dataclasses.replace(
            seg,
            dfts={k: (137.0 * v if k == "meter" else v)
                  for k, v in seg.dfts.items()},
        )
        res_s = q.residual_single(scaled, "sum", "meter")
        np.testing.assert_allclose(res_s.values, res.values, rtol=1e-12)

    def test_convergence_to_optimum(self):
        # E[residual] -> S_opt = S_XX - |S_XY|^2/S_YY as N grows
        noise = 0.5
        means = {}
        for n in (8, 32, 128):
            vals = []
            for seed in range(12):
                seg = _toy_segments(n, 2**9, 1000 * n + seed, noise=noise)
                vals.append(q.residual_single(seg, "sum", "meter").values[1:].mean())
            means[n] = np.mean(vals) / noise**2
        assert means[8] >= means[32] >= means[128] > 1.0 - 0.02
        assert means[128] == pytest.approx(1.0, abs=0.05)


class TestResidualTwoChannel:
    def test_duplicate_predictors_singular(self):
        seg = _toy_segments(8, 2**9, 5)
        with pytest.raises(StatisticsError, match="linearly dependent"):
            q.residual_two_channel(seg, "sum", "meter", "meter")

    def test_uncorrelated_second_channel_harmless(self):
        seg = _toy_segments(64, 2**10, 6, noise=0.4)
        r1 = q.residual_single(seg, "sum", "meter")
        r2 = q.residual_two_channel(seg, "sum", "meter", "difference")
        m1, m2 = r1.values[1:].mean(), r2.values[1:].mean()
        assert m2 == pytest.approx(m1, rel=0.05)

    def test_quadratic_content_removed(self):
        # x carries a component of meter^2 that the single-channel
        # estimator cannot predict
        rng = np.random.default_rng(7)
        n_seg, length = 32, 2**10
        n = n_seg * length
        meter = rng.standard_normal(n)
        sq = meter**2 - 1.0
        x = meter + 0.5 * sq + 0.2 * rng.standard_normal(n)
        seg = _toy_segments(n_seg, length, 7,
                            channels={"sum": x, "meter": meter})
        r1 = q.residual_single(seg, "sum", "meter")
        r2 = q.residual_two_channel(seg, "sum", "meter", "meter_squared")
        assert r2.values[1:].mean() < 0.6 * r1.values[1:].mean()


class TestMsc:
    def test_duplicate_channel_unity(self):
        seg = _toy_segments(8, 2**9, 8)
        msc = q.msc_estimate(seg, "meter", "meter")
        np.testing.assert_allclose(msc.values, 1.0, rtol=1e-12)

    def test_independent_bias_floor(self):
        seg = _white_segments(n_segments=32, length=2**11, seed=9)
        msc = q.msc_estimate(seg, "sum", "meter")
        assert np.all((msc.values >= 0.0) & (msc.values <= 1.0))
        assert np.mean(msc.values[1:]) == pytest.approx(1.0 / 32.0, rel=0.3)


class TestEstimatorErrors:
    @pytest.mark.parametrize(
        "residual", [q.residual_single, q.residual_two_channel],
        ids=["single", "two-channel"],
    )
    def test_zero_power_predictor(self, residual):
        # a zero meter channel, and so a zero meter squared, predicts nothing
        ds = white_dataset()
        ds = dataclasses.replace(ds, meter=np.zeros_like(ds.meter))
        seg = q.transform(q.segment_and_select(ds, peak_limit=1e9, rms_limit=1e9))
        with pytest.raises(StatisticsError, match="zero power"):
            residual(seg)

    @pytest.mark.parametrize("estimator", [
        lambda seg: q.power_spectrum(seg, "sum"),
        q.residual_single,
        q.residual_two_channel,
        q.msc_estimate,
    ], ids=["power_spectrum", "residual_single", "residual_two_channel", "msc_estimate"])
    def test_untransformed_set(self, estimator):
        seg = q.segment_and_select(white_dataset(), peak_limit=1e9, rms_limit=1e9)
        with pytest.raises(ConfigError, match="call transform"):
            estimator(seg)


class TestShotCalibration:
    def _flat_estimate(self, level=2.0, slope=0.0):
        f = np.arange(150e3, 185e3, 100.0)
        values = level + slope * (f - 170e3)
        return q.SpectrumEstimate(f, values, 0.01 * np.ones_like(f), 16)

    def test_flat_band_mean(self):
        sql, report = q.shot_calibration(self._flat_estimate(level=2.5))
        assert sql == pytest.approx(2.5, rel=1e-9)
        assert report["n_bins"] > 0

    def test_linear_tilt_exact_midpoint(self):
        sql, _ = q.shot_calibration(self._flat_estimate(level=2.0, slope=1e-5))
        assert sql == pytest.approx(2.0, rel=1e-9)

    def test_excluded_region_ignored(self):
        est = self._flat_estimate(level=2.0)
        # corrupt the excluded oscillator region only
        bad = (est.frequencies > 163e3) & (est.frequencies < 176e3)
        est.values[bad] += 100.0
        sql, _ = q.shot_calibration(est)
        assert sql == pytest.approx(2.0, rel=1e-9)

    def test_insufficient_band(self):
        f = np.arange(1e3, 2e3, 10.0)
        est = q.SpectrumEstimate(f, np.ones_like(f), np.ones_like(f), 4)
        with pytest.raises(StatisticsError, match="not on the grid"):
            q.shot_calibration(est)

    def test_linearity_sweep_exact(self):
        levels = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        slope, intercept, report = q.shot_linearity_sweep(levels, 3.0 * levels + 0.5)
        assert slope == pytest.approx(3.0, rel=1e-12)
        assert intercept == pytest.approx(0.5, rel=1e-9)
        assert report["max_abs_relative_residual"] < 1e-12
        with pytest.raises(ConfigError):
            q.shot_linearity_sweep([1.0, 2.0], [1.0, 2.0])


class TestElectronicSubtraction:
    def _est(self, values, stderr=0.01):
        f = np.arange(10)* 100.0
        v = np.asarray(values, dtype=float) * np.ones(10)
        return q.SpectrumEstimate(f, v, stderr * np.ones(10), 8)

    def test_zero_identity(self):
        a = self._est(1.0)
        out = q.subtract_electronic_noise(a, self._est(0.0, stderr=0.0))
        np.testing.assert_allclose(out.values, a.values)
        np.testing.assert_allclose(out.stderr, a.stderr)
        assert out.floored_bins == 0

    def test_level_arithmetic(self):
        out = q.subtract_electronic_noise(self._est(1.0), self._est(10**-1.5))
        np.testing.assert_allclose(out.values, 1.0 - 10**-1.5, rtol=1e-12)
        assert out.values[0] == pytest.approx(0.9684, abs=1e-4)

    def test_quadrature_errors_and_floor(self):
        out = q.subtract_electronic_noise(
            self._est(0.5, stderr=0.03), self._est(0.7, stderr=0.04)
        )
        np.testing.assert_allclose(out.values, 0.0)
        assert out.floored_bins == 10
        np.testing.assert_allclose(out.stderr, np.hypot(0.03, 0.04), rtol=1e-12)

    def test_reproducibility_systematic_band(self):
        # a 10% uncertainty on a -15 dB electronic level is a 0.3%
        # systematic on the normalized spectrum
        level = 10**-1.5
        lo = q.subtract_electronic_noise(self._est(1.0), self._est(0.9 * level))
        hi = q.subtract_electronic_noise(self._est(1.0), self._est(1.1 * level))
        shift = (lo.values[0] - hi.values[0]) / 2.0
        assert shift == pytest.approx(0.1 * level, rel=1e-9)
        assert shift < 0.0035

    def test_grid_mismatch(self):
        a = self._est(1.0)
        b = q.SpectrumEstimate(a.frequencies + 1.0, a.values, a.stderr, 8)
        with pytest.raises(StatisticsError, match="different frequency grids"):
            q.subtract_electronic_noise(a, b)


class TestBandAverage:
    def test_single_bin_identity(self):
        f = np.arange(0.0, 1e4, 100.0)
        rng = np.random.default_rng(10)
        est = q.SpectrumEstimate(f, rng.uniform(1, 2, len(f)),
                                 0.1 * np.ones(len(f)), 16)
        out = q.band_average(est, 100.0)
        np.testing.assert_allclose(out.values, est.values)
        np.testing.assert_allclose(out.stderr, est.stderr)

    def test_one_bin_raises_statistics_error(self, recwarn):
        # one bin has no spacing to measure a width by
        est = q.SpectrumEstimate(np.array([1000.0]), np.ones(1), np.ones(1), 4)
        with pytest.raises(StatisticsError, match="at least two bins"):
            q.band_average(est, 150.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_white_error_shrinks(self):
        f = np.arange(0.0, 1e5, 10.0)
        est = q.SpectrumEstimate(f, np.ones(len(f)), 0.1 * np.ones(len(f)), 16)
        out = q.band_average(est, 150.0)
        n_bins = int(round(150.0 / 10.0))
        assert out.stderr[len(f) // 2] == pytest.approx(
            0.1 / np.sqrt(n_bins), rel=1e-9
        )

    def test_confidence_belt(self):
        f = np.arange(0.0, 1e4, 100.0)
        est = q.SpectrumEstimate(f, np.ones(len(f)), 0.2 * np.ones(len(f)), 16)
        out = q.band_average(est, 100.0, confidence=0.9)
        z = 1.6448536269514722
        np.testing.assert_allclose(out.belt_hi - out.values, z * out.stderr,
                                   rtol=1e-9)
        np.testing.assert_allclose(out.values - out.belt_lo, z * out.stderr,
                                   rtol=1e-9)
        # the belt uses the standard library's normal quantile to the last
        # bit, which lies within a few ulp of scipy's
        for confidence in (0.68, 0.9, 0.95, 0.99):
            out = q.band_average(est, 100.0, confidence=confidence)
            z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
            assert np.array_equal(out.belt_hi, out.values + z * out.stderr)
            assert np.array_equal(out.belt_lo, out.values - z * out.stderr)
            np.testing.assert_allclose(
                out.belt_z, special.ndtri(0.5 + confidence / 2.0), rtol=2e-15
            )

    @pytest.mark.parametrize(
        "confidence", [0.0, -0.5, 1.0, 1.5, 0.9999999999999999, 1e-17]
    )
    def test_confidence_outside_unit_interval(self, confidence):
        # 0 would give a belt of zero width and -0.5 an inverted one; for the
        # largest double below 1, 0.5 + confidence / 2 rounds to 1, and for
        # 1e-17 to 0.5, a belt of zero width again
        f = np.arange(0.0, 1e4, 100.0)
        est = q.SpectrumEstimate(f, np.ones(len(f)), 0.2 * np.ones(len(f)), 16)
        with pytest.raises(ConfigError, match="confidence"):
            q.band_average(est, 100.0, confidence=confidence)

    def test_belt_survives_a_copy(self, tmp_path):
        # the belt is computed from values, stderr and its declared z, so a
        # rescaled copy carries a belt that matches its own values
        f = np.arange(0.0, 1e4, 100.0)
        rng = np.random.default_rng(3)
        est = q.SpectrumEstimate(f, rng.uniform(1, 2, len(f)),
                                 0.2 * np.ones(len(f)), 16)
        banded = q.band_average(est, 300.0, confidence=0.9)
        copy = banded.normalized_by(2.0)
        assert copy.belt_z == banded.belt_z
        assert np.array_equal(copy.belt_lo, copy.values - copy.belt_z * copy.stderr)
        assert np.array_equal(copy.belt_hi, copy.values + copy.belt_z * copy.stderr)
        path = tmp_path / "copy.csv"
        q.write_spectrum_csv(copy, path)
        rows = _read_csv_rows(path)
        assert rows[0] == ["frequency_hz", "value", "stderr", "belt_lo", "belt_hi"]
        assert [float(r[3]) for r in rows[1:]] == list(copy.belt_lo)
        assert est.belt_lo is None and est.belt_hi is None

    def test_band_narrower_than_grid(self):
        f = np.arange(0.0, 1e4, 100.0)
        est = q.SpectrumEstimate(f, np.ones(len(f)), np.ones(len(f)), 4)
        with pytest.raises(ConfigError):
            q.band_average(est, 10.0)

    def test_band_wider_than_spectrum(self):
        f = np.arange(0.0, 1e3, 100.0)
        est = q.SpectrumEstimate(f, np.ones(len(f)), np.ones(len(f)), 4)
        assert len(q.band_average(est, 1000.0).values) == 10
        with pytest.raises(ConfigError, match="11 bins, more than the 10"):
            q.band_average(est, 1100.0)


class TestSplitConsistency:
    def test_identical_halves_zero(self):
        f = np.arange(8.0)
        v = np.ones(8)
        res = q.ResidualEstimate(f, v, 0.1 * np.ones(8), 8,
                                 half_values=(v, v),
                                 half_stderr=(0.1 * np.ones(8), 0.1 * np.ones(8)))
        diag = q.split_consistency(res)
        np.testing.assert_allclose(diag.values, 0.0)
        assert diag.mean == 0.0

    def test_well_behaved_statistics(self):
        seg = _toy_segments(64, 2**10, 11, noise=0.4)
        diag = q.split_consistency(q.residual_single(seg, "sum", "meter"))
        assert abs(diag.mean) <= 3.0 * diag.mean_stderr
        assert 0.7 <= diag.sd <= 1.3

    def test_gain_step_flags_inconsistency(self):
        rng = np.random.default_rng(12)
        n_seg, length = 32, 2**10
        n = n_seg * length
        x = rng.standard_normal(n)
        gain = np.ones(n_seg)
        gain[::2] = 1.5  # odd half-set hotter than the even one
        x = (x.reshape(n_seg, length) * gain[:, None]).ravel()
        seg = _toy_segments(n_seg, length, 12,
                            channels={"sum": x, "meter": rng.standard_normal(n)})
        diag = q.split_consistency(q.residual_single(seg, "sum", "meter"))
        assert abs(diag.mean) > 3.0 * diag.mean_stderr


class TestDeterminism:
    def test_pipeline_bit_identical(self, small_dataset):
        def run():
            seg = q.transform(q.segment_and_select(small_dataset))
            return q.residual_single(seg, "sum", "meter").values
        assert np.array_equal(run(), run())


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCsvExport:
    def test_round_trip_columns(self, tmp_path):
        f = np.arange(5.0)
        est = q.SpectrumEstimate(f, np.linspace(1, 2, 5), 0.1 * np.ones(5), 4)
        path = tmp_path / "est.csv"
        q.write_spectrum_csv(est, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,value,stderr"
        assert len(lines) == 6
        banded = q.band_average(est, 1.0)
        q.write_spectrum_csv(banded, path)
        assert path.read_text().splitlines()[0].endswith("belt_lo,belt_hi")

    def test_one_dialect_reads_back_exactly(self, tmp_path):
        # rfft frequencies have more digits than 6 decimals keep, and the
        # file is written as the other CSVs are: LF line ends, repr floats
        f = np.fft.rfftfreq(2**16, 1 / 5e6)[1000:1200]
        rng = np.random.default_rng(4)
        est = q.SpectrumEstimate(f, rng.uniform(0.5, 2, len(f)),
                                 rng.uniform(0.01, 0.1, len(f)), 32)
        banded = q.band_average(est, 300.0, confidence=0.9)
        path = tmp_path / "banded.csv"
        q.write_spectrum_csv(banded, path)
        assert b"\r" not in path.read_bytes()
        rows = _read_csv_rows(path)
        assert rows[0] == ["frequency_hz", "value", "stderr", "belt_lo", "belt_hi"]
        columns = [banded.frequencies, banded.values, banded.stderr,
                   banded.belt_lo, banded.belt_hi]
        assert [[float(v) for v in r] for r in rows[1:]] == [
            list(row) for row in zip(*columns)
        ]
