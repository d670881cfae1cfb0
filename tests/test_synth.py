"""Synthetic record generation: statistics, impairments, and the file format."""

import contextlib
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import qndlab as q
from qndlab import cli, om_core, synth, theory
from qndlab.config import load_config
from qndlab.errors import ConfigError, FormatError
from conftest import pool_workers, rewrite_qnd


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [
        "sample_rate", "electronic_noise_level", "nonlinearity_lambda",
        "spike_rate", "spike_amplitude", "common_mode_leak_db",
    ])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            q.SynthConfig(**{name: value})

    @pytest.mark.parametrize("field, value, match", [
        ("seed", -1, "seed must be non-negative"),
        ("n_segments", 99999999999999999999, "too many for a dataset file"),
        ("common_mode_leak_db", 1e30, "overflows"),
        ("spike_rate", 1e30, "bursts per"),
        # about 1e11 bursts per piece, drawn one by one: it never ended
        ("spike_rate", 1e12, "bursts per"),
    ])
    def test_out_of_range_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            q.SynthConfig(**{field: value})

    def test_spike_rate_bound_is_per_piece(self):
        # the bound is on the bursts a piece expects, so it scales with
        # the piece duration
        cfg = q.SynthConfig(segment_length=2**12)
        rate = synth._MAX_BURSTS * cfg.sample_rate / cfg.segment_length
        q.SynthConfig(segment_length=2**12, spike_rate=rate)
        with pytest.raises(ConfigError, match="bursts per"):
            q.SynthConfig(segment_length=2**13, spike_rate=rate)

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
        x_sum, x_diff, y_m, z_m = synth._segment(cfg, tables, psd, rng)
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


# The frozen streams: (vacuum_only, [system] keys that differ from the
# reference, cfg, SHA-256 of the .qnd file).
FROZEN = [
    (
        False,
        {},
        q.SynthConfig(segment_length=2**12, n_segments=5, seed=17),
        "14c1cc996f561566c6e546757cf5c3df751df386458696f9caad1a197cd0d1ce",
    ),
    (
        False,
        {},
        q.SynthConfig(
            segment_length=2**12, n_segments=6, seed=19, continuous=True,
            spike_rate=1000.0, nonlinearity_lambda=2e-5,
        ),
        "6a861901cb6aa632d3ee0261f14bb4f1ac5821d037c986079e9e9f8c5d440212",
    ),
    (
        True,
        {},
        q.SynthConfig(
            segment_length=2**12, n_segments=4, seed=3,
            nonlinearity_lambda=1e-5,
        ),
        "c4e086cc9a97557a66d334b7a5a48b73731a99625009debe93199254dfd23b63",
    ),
    (
        # the xi PSD varies with frequency, so it is a row of the tables
        False,
        {"thermal_force_scaling": "frequency"},
        q.SynthConfig(segment_length=2**12, n_segments=3, seed=31),
        "ade4658766b33ff1eaba4abde5bc40f31f7dc266cc0bc68ed1aca494686ad119",
    ),
]
FROZEN_IDS = [
    "plain-5", "continuous-spikes-nonlinear", "vacuum-only-nonlinear",
    "frequency-thermal-force",
]


class TestParallelSynthesis:
    def test_draw_is_the_complex_sum(self):
        # the frozen seeds were drawn as a + 1j*b, real part first
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        z = synth._draw(a, 1001)
        assert np.array_equal(z, b.standard_normal(1001) + 1j * b.standard_normal(1001))
        out = np.empty(1001, dtype=complex)
        assert synth._draw(a, 1001, out=out) is out
        assert np.array_equal(out, b.standard_normal(1001) + 1j * b.standard_normal(1001))

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
    def test_bit_identical_to_serial_chain(self, system, cfg, tmp_path):
        ref = _serial_synthesis(system, cfg)
        # this process's CPUs, then one, two and more workers than cores
        # with frequent thread switches; in memory and streamed to a file
        got, files = [], []
        for n_workers in (None, 1, 2, 3):
            path = tmp_path / f"{n_workers}.qnd"
            with pool_workers(n_workers) if n_workers else contextlib.nullcontext():
                got.append(synth.synthesize(system, cfg))
                synth.synthesize_file(system, cfg, path)
            files.append(path.read_bytes())
            got.append(q.read_dataset(path))
        for ds in got:
            for name, x in ref.items():
                assert np.array_equal(ds.channel(name), x), name
        memory = tmp_path / "memory.qnd"
        q.write_dataset(got[0], memory)
        assert all(f == memory.read_bytes() for f in files)

    def test_continuous_sample_is_zero_plus_two_pieces(self, system, monkeypatch,
                                                       tmp_path):
        # 0.0 + (-0.0) + (-0.0) is +0.0: the first pass must store 0 + a,
        # not a, in the file as in memory
        def negative_zeros(cfg, tables, psd, seq):
            return tuple(np.full(cfg.segment_length, -0.0) for _ in range(3))

        monkeypatch.setattr(synth, "_piece", negative_zeros)
        cfg = q.SynthConfig(segment_length=2**12, n_segments=3, continuous=True)
        synth.synthesize_file(system, cfg, tmp_path / "zeros.qnd")
        for ds in (synth.synthesize(system, cfg), q.read_dataset(tmp_path / "zeros.qnd")):
            for name in synth.CHANNELS:
                assert not np.signbit(ds.channel(name)).any(), name

    @pytest.mark.parametrize("continuous", [False, True])
    def test_worker_exception_propagates(self, system, continuous, monkeypatch,
                                         tmp_path):
        piece = synth._piece

        def failing(cfg, tables, psd, seq, out=None):
            # piece 3 runs in the odd pass of a continuous stream
            if seq.spawn_key == (3,):
                raise RuntimeError("piece 3 failed")
            return piece(cfg, tables, psd, seq, out)

        monkeypatch.setattr(synth, "_piece", failing)
        cfg = q.SynthConfig(
            segment_length=2**12, n_segments=5, seed=17, continuous=continuous
        )
        with pool_workers(3), pytest.raises(RuntimeError, match="piece 3 failed"):
            synth.synthesize(system, cfg)
        # the streamed file is renamed into place only after its last piece
        with pool_workers(3), pytest.raises(RuntimeError, match="piece 3 failed"):
            synth.synthesize_file(system, cfg, tmp_path / "dataset.qnd")
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "vacuum_only, system_keys, cfg, digest, streamed",
        [(*case, streamed) for streamed in (False, True) for case in FROZEN],
        ids=[*FROZEN_IDS, *(f"{name}-cli" for name in FROZEN_IDS)],
    )
    def test_stream_is_frozen(self, system, vacuum_only, system_keys, cfg, digest,
                              streamed, tmp_path):
        # the frozen seeds of the acceptance tests draw this exact stream
        path = tmp_path / "dataset.qnd"
        system = dataclasses.replace(system, **system_keys)
        if streamed:
            # qndlab synth with a config that spells out every field of cfg
            key = {"sample_rate": "sample_rate_hz"}
            run = tmp_path / "run.cfg"
            run.write_text("[synth]\n" + "".join(
                f"{key.get(f.name, f.name)} = {getattr(cfg, f.name)!r}\n"
                for f in dataclasses.fields(cfg) if f.name != "seed"
            ) + "[system]\n" + "".join(f"{k} = {v}\n" for k, v in system_keys.items()))
            loaded = load_config(path=run)
            assert loaded.system() == system
            assert loaded.synth_config(seed=cfg.seed) == cfg
            argv = ["synth", "--config", str(run), "--out", str(tmp_path),
                    "--seed", str(cfg.seed)]
            assert cli.main(argv + ["--vacuum-only"] * vacuum_only) == 0
        else:
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
            # at most six half spectra and a draw's real half, 6.5 rows
            assert peak - channel_bytes <= (1 + 6.5 * n_workers) * row_bytes, (
                n_workers, (peak - channel_bytes) / row_bytes,
            )


class TestPortTables:
    # 4097 and 5121 bins: two full chunks and a partial one, of 1 and
    # 1025 bins
    @pytest.mark.parametrize("length", [2**13, 5 * 2**11])
    def test_chunks_equal_the_whole_grid(self, system, length):
        cfg = q.SynthConfig(segment_length=length)
        assert (length // 2 + 1) % synth._CHUNK_BINS != 0
        omega = 2.0 * np.pi * np.fft.rfftfreq(length, 1.0 / cfg.sample_rate)
        omega[0] = omega[1] * 1e-6

        def same(stored, value):
            # a scalar of the model is stored as a scalar, a row as a row
            grid = omega.shape
            return np.ndim(stored) == np.ndim(value) and np.array_equal(
                np.broadcast_to(stored, grid), np.broadcast_to(value, grid)
            )

        # under "frequency" scaling the xi PSD is a row, not a scalar
        for scaling in ("flat", "frequency"):
            sys_s = dataclasses.replace(system, thermal_force_scaling=scaling)
            tables, psd = synth._port_tables(sys_s, cfg)
            model = theory.SpectrumModel(sys_s, omega)
            for port, phi in (("signal", model.phi_s), ("meter", model.phi_m)):
                assert tuple(tables[port]) == model.channels[port], port
                for ch in model.channels[port]:
                    u_pos, u_neg = model.coefficients(port, ch, phi)
                    if ch in om_core.VACUUM_CHANNELS:
                        assert same(tables[port][ch][0], u_pos), (port, ch)
                        assert same(tables[port][ch][1], np.conj(u_neg)), (port, ch)
                    else:
                        (row,) = tables[port][ch]
                        assert same(row, u_pos), (port, ch)
            assert sorted(psd) == sorted(om_core.CLASSICAL_CHANNELS)
            for ch, row in psd.items():
                assert same(row, model.psd[ch]), (scaling, ch)

    def test_mapping_holds_only_the_channels_each_port_sees(self, system):
        # each port sees four vacua (two entries each) and three classical
        # inputs: 2 x 11 complex entries, of which each port's own detection
        # vacuum's two are the same at every bin; of the 3 classical PSDs,
        # eps is, and so is xi under flat scaling.  Only the rest are rows.
        length = 2**12
        m = length // 2 + 1
        for scaling, psd_rows in (("flat", 1), ("frequency", 2)):
            sys_s = dataclasses.replace(system, thermal_force_scaling=scaling)
            cfg = q.SynthConfig(segment_length=length)
            tables, psd = synth._port_tables(sys_s, cfg)
            base = tables["signal"]["a1"][0]
            while isinstance(base, np.ndarray):
                base = base.base
            assert len(base) == (18 * 16 + psd_rows * 8) * m, scaling
            scalars = {
                (port, ch) for port, t in tables.items() for ch, entries in t.items()
                for x in entries if np.ndim(x) == 0
            }
            assert scalars == {("meter", "a3"), ("signal", "a4")}, scaling
            assert sum(len(rows) for t in tables.values() for rows in t.values()) == 22
            assert sum(np.ndim(x) for x in psd.values()) == psd_rows, scaling
            assert np.ndim(psd["zeta"]) == 1 and np.ndim(psd["eps"]) == 0

    def test_traced_peak_does_not_grow_with_the_segment(self, system):
        # the rows live in an untraced anonymous mapping; what malloc holds
        # is one chunk's model, whatever the segment length (a whole-grid
        # model traced 124 MB at 2**18)
        synth._port_tables(system, q.SynthConfig(segment_length=2**12))
        peaks = {}
        for length in (2**14, 2**18):
            tracemalloc.start()
            try:
                synth._port_tables(system, q.SynthConfig(segment_length=length))
                peaks[length] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk_row = synth._CHUNK_BINS * np.dtype(complex).itemsize
        assert peaks[2**18] <= peaks[2**14] + chunk_row, peaks
        assert peaks[2**18] <= 128 * chunk_row, peaks


class TestDatasetIO:
    def test_round_trip_bit_exact(self, system, tmp_path):
        # every field off its default, floats that need all 17 digits
        cfg = q.SynthConfig(
            sample_rate=4e6 + 0.1, segment_length=2**12, n_segments=3, seed=5,
            electronic_noise_level=10.0 ** (-1.7), nonlinearity_lambda=2e-5,
            spike_rate=300.0, spike_amplitude=50.0, common_mode_leak_db=-30.0,
            continuous=True,
        )
        default = q.SynthConfig()
        assert all(
            getattr(cfg, f.name) != getattr(default, f.name)
            for f in dataclasses.fields(cfg)
        )
        ds = q.synthesize(system, cfg)
        path = tmp_path / "ds.qnd"
        q.write_dataset(ds, path)
        back = q.read_dataset(path)
        assert back.config == cfg
        assert np.array_equal(back.sum, ds.sum)
        assert np.array_equal(back.difference, ds.difference)
        assert np.array_equal(back.meter, ds.meter)
        assert back.config_hash == ds.config_hash
        for name in ("sum", "difference", "meter"):
            assert back.channel(name).flags.writeable

    def test_segment_index_out_of_range(self, small_dataset, tmp_path):
        n_seg = small_dataset.config.n_segments
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)
        with q.QndFile(path) as qnd:
            for ds in (small_dataset, qnd):
                for i in (-1, n_seg):
                    with pytest.raises(IndexError):
                        ds.segment("sum", i)

    def test_unknown_channel(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.channel("bogus")

    def test_header_lists_every_field(self, small_dataset, tmp_path):
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)
        raw = path.read_bytes()
        header = raw[5 : raw.index(b"\n\n")].decode()
        keys = [line.split("=", 1)[0] for line in header.splitlines()]
        assert keys == [f.name for f in dataclasses.fields(q.SynthConfig)] + [
            "config_hash"
        ]

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("segment_length=16384", "segment_length=abcde", "does not parse as int"),
            ("sample_rate=5000000.0", "sample_rate=-5000000.0", "sample_rate"),
            ("spike_rate=0.0", "spike_rate=nan", "spike_rate must be finite"),
            ("continuous=False", "continuous=false", "does not parse as bool"),
            ("seed=11\n", "", r"missing \['seed'\]"),
            ("seed=11\n", "seed=11\nwindow=hann\n", r"unknown \['window'\]"),
            ("seed=11\n", "seed=11\nseed=12\n", "duplicate"),
        ],
        ids=["unparsable", "rejected", "non-finite", "bool", "missing", "unknown",
             "duplicate"],
    )
    def test_bad_header_value(self, small_dataset, tmp_path, old, new, match):
        path = tmp_path / "ds.qnd"
        q.write_dataset(small_dataset, path)

        def edit(header):
            assert old in header
            return header.replace(old, new)

        rewrite_qnd(path, path, 2, edit)
        with pytest.raises(FormatError, match=match):
            q.read_dataset(path)

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
