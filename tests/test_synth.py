"""Synthetic record generation: statistics, impairments, and the file format."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import qndlab as q
from qndlab import synth, theory
from qndlab.errors import ConfigError, FormatError
from conftest import pool_workers


class TestSynthConfig:
    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            q.SynthConfig(segment_length=2**12 + 1)

    def test_large_prime_factor_rejected(self):
        with pytest.raises(ConfigError):
            q.SynthConfig(segment_length=2 * 11 * 1024)

    def test_negative_levels_rejected(self):
        with pytest.raises(ConfigError):
            q.SynthConfig(electronic_noise_level=-0.1)
        with pytest.raises(ConfigError):
            q.SynthConfig(spike_rate=-1.0)

    def test_band_validation(self, system):
        q.SynthConfig(sample_rate=5e6).validate_band(system)
        with pytest.raises(ConfigError):
            q.SynthConfig(sample_rate=3e5, segment_length=2**12).validate_band(system)


class TestSynthesize:
    def test_determinism(self, system):
        cfg = q.SynthConfig(segment_length=2**12, n_segments=6, seed=42)
        a = q.synthesize(system, cfg)
        b = q.synthesize(system, cfg)
        assert np.array_equal(a.sum, b.sum)
        assert np.array_equal(a.difference, b.difference)
        assert np.array_equal(a.meter, b.meter)
        assert a.config_hash == b.config_hash

    def test_channels_finite_equal_length(self, small_dataset):
        n = small_dataset.config.segment_length * small_dataset.config.n_segments
        for name in ("sum", "difference", "meter"):
            x = small_dataset.channel(name)
            assert len(x) == n
            assert np.all(np.isfinite(x))

    def test_vacuum_shot_level(self, system):
        # G = 0 and every classical noise off: the sum channel is pure shot
        cfg = q.SynthConfig(
            segment_length=2**12, n_segments=32, seed=7, electronic_noise_level=0.0
        )
        ds = q.synthesize(system.vacuum_only(), cfg)
        seg = q.transform(q.segment_and_select(ds))
        est = q.power_spectrum(seg, "sum")
        sel = est.frequencies > 1e3  # skip the pinned DC bin
        pull = (est.values[sel] - 1.0) / est.stderr[sel]
        assert np.mean(np.abs(pull) <= 3.0) >= 0.95
        assert abs(np.mean(est.values[sel]) - 1.0) < 0.02

    def test_sum_channel_matches_theory(self, system, small_segments):
        est = q.power_spectrum(small_segments, "sum")
        sel = (est.frequencies > 120e3) & (est.frequencies < 220e3)
        w = 2.0 * np.pi * est.frequencies[sel]
        model = theory.SpectrumModel(system, w)
        s_theory = model.quadrature_spectrum("signal", model.phi_s)
        pull = (est.values[sel] - s_theory) / est.stderr[sel]
        assert np.mean(np.abs(pull) <= 3.0) >= 0.95

    def test_difference_channel_independent(self, small_segments):
        msc = q.msc_estimate(small_segments, "sum", "difference")
        n = small_segments.n_kept
        sel = msc.frequencies > 1e3
        # independent channels: MSC mean sits at the 1/N bias floor
        assert np.mean(msc.values[sel]) == pytest.approx(1.0 / n, rel=0.35)

    def test_nonlinearity_creates_square_correlation(self, system):
        cfg = q.SynthConfig(
            segment_length=2**14,
            n_segments=32,
            seed=13,
            electronic_noise_level=0.0,
            nonlinearity_lambda=2e-4,
        )
        seg = q.transform(q.segment_and_select(q.synthesize(system, cfg)))
        msc = q.msc_estimate(seg, "sum", "meter_squared")
        n = seg.n_kept
        assert msc.values[msc.frequencies > 1e3].max() > 8.0 / n

    def test_spikes_trip_selection(self, system):
        cfg = q.SynthConfig(
            segment_length=2**14, n_segments=60, seed=3, spike_rate=32.0
        )
        ds = q.synthesize(system, cfg)
        seg = q.segment_and_select(ds)
        assert 0.75 <= seg.kept_fraction <= 0.98  # target ~90% kept

    def test_continuous_mode_statistics(self, system):
        cfg = q.SynthConfig(
            segment_length=2**13, n_segments=24, seed=5,
            electronic_noise_level=0.0, continuous=True,
        )
        ds = q.synthesize(system, cfg)
        assert len(ds.sum) == cfg.segment_length * cfg.n_segments
        seg = q.transform(q.segment_and_select(ds))
        est = q.power_spectrum(seg, "sum")
        sel = (est.frequencies > 120e3) & (est.frequencies < 220e3)
        w = 2.0 * np.pi * est.frequencies[sel]
        model = theory.SpectrumModel(system, w)
        s_theory = model.quadrature_spectrum("signal", model.phi_s)
        ratio = np.mean(est.values[sel]) / np.mean(s_theory)
        assert ratio == pytest.approx(1.0, abs=0.10)


def _serial_synthesis(system, cfg):
    """The serial chain, piece after piece, that synthesize must reproduce."""
    tables, psd = synth._port_tables(system, cfg)
    length = cfg.segment_length
    half = length // 2
    n_total = cfg.n_segments * length
    n_pieces = 2 * cfg.n_segments + 1 if cfg.continuous else cfg.n_segments
    chans = {name: np.zeros(n_total) for name in ("sum", "difference", "meter")}
    leak = 10.0 ** (cfg.common_mode_leak_db / 20.0)
    sigma_e = np.sqrt(cfg.electronic_noise_level)
    window = np.sin(np.pi * (np.arange(length) + 0.5) / length)
    seqs = np.random.SeedSequence(cfg.seed).spawn(n_pieces)
    for i, seq in enumerate(seqs):
        rng = np.random.default_rng(seq)
        x_sum, x_diff, y_m, z_m = synth._segment(system, cfg, tables, psd, rng)
        if cfg.nonlinearity_lambda != 0.0:
            sq = z_m**2
            x_sum += cfg.nonlinearity_lambda * (sq - sq.mean())
        if cfg.spike_rate > 0.0:
            synth._add_spikes(x_sum, cfg, rng)
        x_diff += leak * x_sum
        x_sum = x_sum + sigma_e * rng.standard_normal(length)
        x_diff = x_diff + sigma_e * rng.standard_normal(length)
        y_m = y_m + sigma_e * rng.standard_normal(length)
        pieces = {"sum": x_sum, "difference": x_diff, "meter": y_m}
        if cfg.continuous:
            lo = i * half - half
            for name in chans:
                seg = window * pieces[name]
                a = max(lo, 0)
                b = min(lo + length, n_total)
                chans[name][a:b] += seg[a - lo : b - lo]
        else:
            for name in chans:
                chans[name][i * length : (i + 1) * length] = pieces[name]
    return chans


class TestParallelSynthesis:
    def test_draw_is_the_complex_sum(self):
        # the frozen seeds were drawn as a + 1j*b, real part first
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        z = synth._draw(a, 1001)
        assert np.array_equal(z, b.standard_normal(1001) + 1j * b.standard_normal(1001))

    @pytest.mark.parametrize(
        "cfg",
        [
            # 5 pieces: not a multiple of the worker count
            q.SynthConfig(segment_length=2**12, n_segments=5, seed=17),
            # overlapping pieces, spikes and the nonlinearity
            q.SynthConfig(
                segment_length=2**12, n_segments=6, seed=19, continuous=True,
                spike_rate=1000.0, nonlinearity_lambda=2e-5,
            ),
            # 3 pieces: two in the even pass, one in the odd pass
            q.SynthConfig(
                segment_length=2**12, n_segments=1, seed=23, continuous=True
            ),
            # 1 piece that writes no sample
            q.SynthConfig(
                segment_length=2**12, n_segments=0, seed=29, continuous=True
            ),
        ],
        ids=["plain-5", "continuous-spikes-nonlinear", "continuous-1", "continuous-0"],
    )
    def test_bit_identical_to_serial_chain(self, system, cfg):
        ref = _serial_synthesis(system, cfg)
        # this process's CPUs, then one worker, then more workers than
        # cores with frequent thread switches
        got = [synth.synthesize(system, cfg)]
        for n_workers in (1, 3):
            with pool_workers(n_workers):
                got.append(synth.synthesize(system, cfg))
        for ds in got:
            for name, x in ref.items():
                assert np.array_equal(ds.channel(name), x), name

    @pytest.mark.parametrize("continuous", [False, True])
    def test_worker_exception_propagates(self, system, continuous, monkeypatch):
        piece = synth._piece

        def failing(system, cfg, tables, psd, seq):
            # piece 3 runs in the odd pass of a continuous stream
            if seq.spawn_key == (3,):
                raise RuntimeError("piece 3 failed")
            return piece(system, cfg, tables, psd, seq)

        monkeypatch.setattr(synth, "_piece", failing)
        cfg = q.SynthConfig(
            segment_length=2**12, n_segments=5, seed=17, continuous=continuous
        )
        with pool_workers(3), pytest.raises(RuntimeError, match="piece 3 failed"):
            synth.synthesize(system, cfg)


    @pytest.mark.parametrize(
        "vacuum_only, cfg, digest",
        [
            (
                False,
                q.SynthConfig(segment_length=2**12, n_segments=5, seed=17),
                "479ded0ba2a296e7a041dcbada72aa8886c937fcf112596b7ed5c3617ce8ea75",
            ),
            (
                False,
                q.SynthConfig(
                    segment_length=2**12, n_segments=6, seed=19, continuous=True,
                    spike_rate=1000.0, nonlinearity_lambda=2e-5,
                ),
                "3b6ed397217bef89c2ca675624b29fab3c981d7a48f509cdd9eebd7e01df32cc",
            ),
            (
                True,
                q.SynthConfig(
                    segment_length=2**12, n_segments=4, seed=3,
                    nonlinearity_lambda=1e-5,
                ),
                "dd8367498364450e8ca1b045f282ab9d13ca3790b2e85486c3f81e95b9c4d637",
            ),
        ],
        ids=["plain-5", "continuous-spikes-nonlinear", "vacuum-only-nonlinear"],
    )
    def test_stream_is_frozen(self, system, vacuum_only, cfg, digest, tmp_path):
        # the frozen seeds of the acceptance tests draw this exact stream
        path = tmp_path / "frozen.qnd"
        q.write_dataset(
            q.synthesize(system.vacuum_only() if vacuum_only else system, cfg), path
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_memory_bounded_per_worker(self, system):
        cfg = q.SynthConfig(
            segment_length=2**16, n_segments=16, seed=5, spike_rate=20.0,
            nonlinearity_lambda=2e-5,
        )
        # untraced: the first call's one-off costs (imports, FFT set-up)
        # are not synthesis memory
        ref = synth.synthesize(system, cfg)
        row_bytes = cfg.segment_length * 8
        channel_bytes = 3 * cfg.n_segments * row_bytes
        for n_workers in (1, 2, 3):
            with pool_workers(n_workers):
                tracemalloc.start()
                try:
                    ds = synth.synthesize(system, cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            for name in ("sum", "difference", "meter"):
                assert np.array_equal(ds.channel(name), ref.channel(name)), name
            # each worker holds one piece in flight and writes it itself:
            # about 15 rows for the first worker and 10 for each further one
            assert peak - channel_bytes <= 16 * n_workers * row_bytes, (
                n_workers, (peak - channel_bytes) / row_bytes,
            )


class TestDatasetIO:
    def test_round_trip_bit_exact(self, small_dataset, tmp_path):
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)
        back = q.read_dataset(path)
        assert np.array_equal(back.sum, small_dataset.sum)
        assert np.array_equal(back.difference, small_dataset.difference)
        assert np.array_equal(back.meter, small_dataset.meter)
        assert back.config_hash == small_dataset.config_hash
        for name in ("sum", "difference", "meter"):
            assert back.channel(name).flags.writeable

    def test_truncated_file_names_byte_counts(self, small_dataset, tmp_path):
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1000])
        with pytest.raises(FormatError, match=r"expected \d+ bytes"):
            q.read_dataset(path)

    def test_padded_file_names_byte_counts(self, small_dataset, tmp_path):
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(FormatError, match=r"expected \d+ bytes, got \d+"):
            q.read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qnd"
        path.write_bytes(b"NOPE" + b"\x01" + b"\n")
        with pytest.raises(FormatError, match="magic"):
            q.read_dataset(path)

    def test_header_only_empty_dataset(self, system, tmp_path):
        cfg = q.SynthConfig(segment_length=2**12, n_segments=0, seed=1)
        ds = q.synthesize(system, cfg)
        assert len(ds.sum) == 0
        path = tmp_path / "empty.qnd"
        q.write_dataset(ds, path)
        back = q.read_dataset(path)
        assert len(back.sum) == 0
        assert back.config.n_segments == 0

    def test_byte_identical_files_per_seed(self, system, tmp_path):
        cfg = q.SynthConfig(segment_length=2**12, n_segments=4, seed=9)
        p1, p2 = tmp_path / "a.qnd", tmp_path / "b.qnd"
        q.write_dataset(q.synthesize(system, cfg), p1)
        q.write_dataset(q.synthesize(system, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
