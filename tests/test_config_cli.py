"""Run configuration parsing and the command-line entry point."""

import csv
import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import qndlab as q
from qndlab import cli, synth
from qndlab.config import default_config_text, load_config
from qndlab.errors import ConfigError, QndError
from conftest import rewrite_qnd

TWO_PI = 2.0 * np.pi

SMALL_CFG = """
[synth]
segment_length = 16384
n_segments = 16

[estimate]
band_lo_hz = 120e3
band_hi_hz = 220e3
band_average_hz = 600.0

[fit]
free_params = detuning,phi_s
n_multistarts = 3
band_lo_hz = 150e3
band_hi_hz = 190e3
"""


def _no_payload_read(*args):
    raise AssertionError("a payload sample was read")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return header, data


class TestRunConfig:
    def test_defaults_are_reference_values(self):
        cfg = load_config(text="")
        system = cfg.system()
        assert system.cavity.kappa == pytest.approx(TWO_PI * 2.85e6, rel=1e-12)
        assert system.cavity.kappa1 == pytest.approx(TWO_PI * 2.58e6, rel=1e-12)
        assert system.mech.mass == 2.5e-7
        assert system.mech.temperature == 5.6
        assert system.mech.omega_m == pytest.approx(TWO_PI * 169334.0)
        assert system.drive.power == 38e-3
        assert system.det.eta_signal == 0.69
        assert system.det.eta_modematch == 0.90
        assert system.cavity.detuning == pytest.approx(-0.016 * system.cavity.kappa)
        assert system.signal_phase == -24e-3

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(text="[system]\nfrobnicate = 1\n")

    def test_unknown_section_rejected_by_name(self):
        with pytest.raises(ConfigError, match="wibble"):
            load_config(text="[wibble]\nx = 1\n")

    def test_default_text_round_trip(self):
        cfg = load_config(text=default_config_text())
        base = load_config(text="")
        assert cfg.system() == base.system()
        assert cfg.synth_config() == base.synth_config()

    def test_override(self):
        cfg = load_config(text="[synth]\nn_segments = 7\n")
        assert cfg.synth_config().n_segments == 7

    def test_analysis_freq_inside_the_estimate_band(self):
        # the band edges are inside; the CLI's rejections are in BAD_INPUTS
        for text in ("100e3", "220e3"):
            cfg = load_config(text=f"[estimate]\nanalysis_freq_hz = {text}\n")
            assert cfg.analysis_freq_hz() == float(text)
        cfg = load_config(text="[estimate]\nanalysis_freq_hz = 220001\n")
        with pytest.raises(ConfigError, match="outside the estimate band"):
            cfg.analysis_freq_hz()

    def test_fit_band_inside_the_estimate_band(self):
        # the estimate band's edges are allowed; the CLI's rejection is in
        # REJECTED_BEFORE_PAYLOAD
        cfg = load_config(text="[fit]\nband_lo_hz = 100e3\nband_hi_hz = 220e3\n")
        assert cfg.fit_band() == (100e3, 220e3)
        cfg = load_config(text="[fit]\nband_lo_hz = 99999\n")
        with pytest.raises(ConfigError, match="reaches past the estimate band"):
            cfg.fit_band()

    def test_frequency_thermal_force_scaling(self):
        flat = load_config(text="").system()
        system = load_config(
            text="[system]\nthermal_force_scaling = frequency\n"
        ).system()
        assert system.thermal_force_scaling == "frequency"
        w = TWO_PI * np.array([-200e3, 0.0, 84667.0, 169334.0, 338668.0])
        np.testing.assert_allclose(
            system.xi_psd(w),
            flat.xi_psd(w) * np.abs(w) / system.mech.omega_m,
            rtol=1e-15,
            atol=0.0,
        )


class TestReferenceDefaults:
    def test_equals_the_config_defaults(self):
        system = q.reference_defaults()
        assert system == load_config(text="").system()
        assert system.config_hash() == "fa036c15f702"

    def test_overrides_by_system_key(self):
        system = q.reference_defaults(
            detuning_kappa=np.float64(-0.019), signal_phase_rad=-41.5e-3
        )
        text = "[system]\ndetuning_kappa = -0.019\nsignal_phase_rad = -41.5e-3\n"
        assert system == load_config(text=text).system()
        assert system.cavity.detuning == -0.019 * system.cavity.kappa
        assert system.signal_phase == -41.5e-3

    def test_override_round_trips_exactly(self):
        power = 0.1 + 0.2  # 0.30000000000000004, not 0.3
        assert q.reference_defaults(power_w=power).drive.power == power

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="detuning_in_kappa"):
            q.reference_defaults(detuning_in_kappa=-0.019)


def _default(section, key):
    return load_config(text="").get_float(section, key)


class TestDuplicatedDefaults:
    """Defaults that cannot read ``DEFAULTS`` still equal its values."""

    def test_synth_config(self):
        assert q.SynthConfig() == load_config(text="").synth_config()

    def test_estimation_defaults(self):
        def default(fun, name):
            return inspect.signature(fun).parameters[name].default

        assert default(q.segment_and_select, "peak_limit") == _default(
            "estimate", "peak_limit"
        )
        assert default(q.segment_and_select, "rms_limit") == _default(
            "estimate", "rms_limit"
        )
        assert default(q.transform, "window") == load_config(text="").get(
            "estimate", "window"
        )
        assert default(q.shot_calibration, "analysis_freq") == _default(
            "estimate", "analysis_freq_hz"
        )
        assert default(q.band_average, "confidence") == _default(
            "estimate", "confidence"
        )

    def test_fit_problem_defaults(self):
        fields = {f.name: f.default for f in dataclasses.fields(q.FitProblem)}
        assert fields["band"] == (
            _default("fit", "band_lo_hz"),
            _default("fit", "band_hi_hz"),
        )
        assert fields["n_multistarts"] == load_config(text="").get_int(
            "fit", "n_multistarts"
        )

    @pytest.mark.parametrize(
        "cls, name, key",
        [
            (q.DriveParams, "excess_noise_ref_power", "excess_noise_ref_power_w"),
        ],
    )
    def test_params_field_defaults(self, cls, name, key):
        fields = {f.name: f.default for f in dataclasses.fields(cls)}
        assert fields[name] == _default("system", key)


class TestCliCommands:
    def test_print_defaults(self, capsys):
        assert cli.main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        load_config(text=out)  # must itself be a valid configuration

    def test_theory_vacuum_only(self, tmp_path):
        rc = cli.main(["theory", "--out", str(tmp_path), "--vacuum-only"])
        assert rc == 0
        header, data = _read_csv(tmp_path / "full_model.csv")
        s_xs = data[:, header.index("s_xs")]
        s_ym = data[:, header.index("s_ym")]
        np.testing.assert_allclose(s_xs, 1.0, rtol=1e-9)
        np.testing.assert_allclose(s_ym, 1.0, rtol=1e-9)

    def test_theory_emits_config_hash(self, tmp_path):
        assert cli.main(["theory", "--out", str(tmp_path)]) == 0
        first = (tmp_path / "full_model.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")

    def test_budget_additivity(self, tmp_path):
        rc = cli.main(["budget", "--out", str(tmp_path)])
        assert rc == 0
        header, data = _read_csv(tmp_path / "budget_signal.csv")
        total = data[:, header.index("total")]
        parts = data[:, 1:header.index("total")]
        np.testing.assert_allclose(parts.sum(axis=1), total, rtol=1e-9)

    def test_synth_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        for sub in ("a", "b"):
            rc = cli.main(["synth", "--config", str(cfg),
                           "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "a" / "dataset.qnd").read_bytes()
        b = (tmp_path / "b" / "dataset.qnd").read_bytes()
        assert a == b

    def test_estimate_pipeline(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        rc = cli.main(["estimate", str(tmp_path / "dataset.qnd"),
                       "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        for name in ("spectrum_sum.csv", "residual.csv", "residual_banded.csv",
                      "msc.csv", "split_consistency.csv", "report.txt"):
            assert (tmp_path / name).exists()
        report = (tmp_path / "report.txt").read_text()
        assert "kept" in report
        assert "SQL" in report

    def test_fit_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        rc = cli.main(["fit", str(tmp_path / "dataset.qnd"),
                       "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "fit_report.txt").read_text()
        assert "detuning" in report
        assert (tmp_path / "fit_curves.csv").exists()

    def test_failed_synth_leaves_no_file(self, tmp_path, monkeypatch):
        piece = synth._piece

        def failing(cfg, tables, psd, seq):
            if seq.spawn_key == (9,):
                raise RuntimeError("piece 9 failed")
            return piece(cfg, tables, psd, seq)

        monkeypatch.setattr(synth, "_piece", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        with pytest.raises(RuntimeError, match="piece 9 failed"):
            cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_failed_write_dataset_leaves_no_file(self, small_dataset, tmp_path,
                                                 monkeypatch):
        channel = q.DataSet.channel

        def failing(ds, name):
            # the last channel: header, sum and difference are already written
            if name == "meter":
                raise RuntimeError("meter channel failed")
            return channel(ds, name)

        monkeypatch.setattr(q.DataSet, "channel", failing)
        path = tmp_path / "x.qnd"
        with pytest.raises(RuntimeError, match="meter channel failed"):
            q.write_dataset(small_dataset, path)
        assert not path.exists()
        assert not (tmp_path / f"x.qnd.{os.getpid()}.tmp").exists()
        assert list(tmp_path.iterdir()) == []


# The documented exit code of every error class, by name; a class missing
# here fails its case.
EXIT_CODES = {
    "OSError": 3,
    "ConfigError": 2,
    "FormatError": 3,
    "StatisticsError": 4,
    "ModelError": 5,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _estimate_key(key, value):
    """SMALL_CFG with one more ``[estimate]`` key."""
    return SMALL_CFG.replace("[estimate]\n", f"[estimate]\n{key} = {value}\n")


# Inputs that ended in a traceback (exit 1), never ended, were silently
# ignored, ran to a meaningless result or exited with another family's code,
# each now rejected with exit 2
# before any output is written: (command, run config, extra argv, error text).
_SYNTH = "[synth]\nsegment_length = 4096\n"
BAD_INPUTS = [
    ("synth", _SYNTH + "spike_rate = 1e30\n", [], "bursts per"),
    ("synth", _SYNTH + "spike_rate = 1e12\n", [], "bursts per"),
    ("synth", _SYNTH + "common_mode_leak_db = 1e30\n", [], "overflows"),
    ("synth", _SYNTH + "n_segments = 99999999999999999999\n", [], "too many"),
    ("synth", _SYNTH + "[run]\nseed = -1\n", [], "[run] seed"),
    ("synth", _SYNTH, ["--seed", "-1"], "--seed"),
    ("fit", SMALL_CFG + "[run]\nseed = -1\n", [], "[run] seed"),
    ("fit", SMALL_CFG, ["--seed", "-1"], "--seed"),
    *(
        (command, SMALL_CFG + f"[system]\n{key} = 0\n", [], key.removesuffix("_w"))
        for key in ("quality_factor", "wavelength_m", "excess_noise_ref_power_w")
        for command in ("synth", "theory", "estimate")
    ),
    *(
        ("estimate", SMALL_CFG.replace("= 600.0", f"= {width}"), [], "more than the")
        for width in ("1e20", "1e30")
    ),
    ("estimate", SMALL_CFG.replace("= 120e3\nband_hi_hz = 220e3",
                                   "= 220e3\nband_hi_hz = 100e3"), [], "low edge"),
    *(
        ("fit", SMALL_CFG.replace("n_multistarts = 3", f"n_multistarts = {n}"), [],
         "n_multistarts")
        for n in ("0", "-3", "99999999999999999999")
    ),
    # the SQL is read off the calibration line at this frequency: outside
    # the estimate band it is an extrapolation
    *(
        (command, _estimate_key("analysis_freq_hz", freq), [], "analysis_freq_hz")
        for freq in ("1e30", "-1", "0")
        for command in ("estimate", "fit")
    ),
    *(
        ("estimate", _estimate_key("confidence", level), [], "confidence")
        for level in ("0", "-0.5", "1")
    ),
]
BAD_INPUT_IDS = [
    "spike-rate-1e30", "spike-rate-1e12", "leak-1e30", "n-segments-1e20",
    "run-seed-synth", "seed-flag-synth", "run-seed-fit", "seed-flag-fit",
    *(
        f"{key}-0-{command}"
        for key in ("quality_factor", "wavelength_m", "excess_noise_ref_power_w")
        for command in ("synth", "theory", "estimate")
    ),
    "band-key-1e20", "band-key-1e30", "inverted-band",
    "multistarts-0", "multistarts-neg3", "multistarts-1e20",
    *(
        f"analysis-freq-{freq}-{command}"
        for freq in ("1e30", "neg1", "0")
        for command in ("estimate", "fit")
    ),
    "confidence-0", "confidence-neg0.5", "confidence-1",
]



def _fit_key(key, value):
    """SMALL_CFG with one ``[fit]`` key set, replacing its line if it has one."""
    head, fit = SMALL_CFG.split("[fit]\n")
    lines = [line for line in fit.splitlines() if not line.startswith(f"{key} =")]
    return head + "[fit]\n" + "\n".join([f"{key} = {value}", *lines]) + "\n"


# Settings that only the config and the dataset header decide, each now
# rejected before any payload sample is read:
# (command, run config, exit code, error text).
REJECTED_BEFORE_PAYLOAD = [
    *(
        (command, _estimate_key("window", "blackman"), 2, "window must be one of")
        for command in ("estimate", "fit")
    ),
    # 165-175 kHz holds no bin of the shot-noise calibration bands
    *(
        (command, SMALL_CFG.replace("= 120e3\nband_hi_hz = 220e3",
                                    "= 165e3\nband_hi_hz = 175e3"), 4,
         "calibration bands")
        for command in ("estimate", "fit")
    ),
    *(
        ("estimate", SMALL_CFG.replace("= 600.0", f"= {width}"), 2,
         "narrower than the grid spacing")
        for width in ("0", "-5", "10")
    ),
    ("fit", _fit_key("band_lo_hz", "190e3").replace(
        "band_hi_hz = 190e3", "band_hi_hz = 150e3"), 2, "excludes every target"),
    ("fit", _fit_key("band_lo_hz", "300e3"), 2, "excludes every target"),
    # the fit reads no bin past the 120-220 kHz estimate band
    ("fit", _fit_key("band_hi_hz", "1e30"), 2, "reaches past the estimate band"),
    # 100-159 kHz holds no bin of the window the report's minimum is taken in
    ("estimate", SMALL_CFG.replace("= 120e3\nband_hi_hz = 220e3",
                                   "= 100e3\nband_hi_hz = 159e3\n"
                                   "analysis_freq_hz = 155e3"), 4,
     "where the report looks for the residual minimum"),
    ("fit", _fit_key("detuning_lo_kappa", "0.01"), 2, "finite and ordered"),
    ("fit", _fit_key("phi_s_lo_rad", "1"), 2, "finite and ordered"),
    ("fit", _fit_key("free_params", "detuning,bogus"), 2, "bogus"),
    ("fit", _fit_key("n_multistarts", "0"), 2, "n_multistarts"),
    # the largest double below 1: 0.5 + confidence / 2 rounds to 1
    ("estimate", _estimate_key("confidence", "0.9999999999999999"), 2,
     "confidence"),
]
REJECTED_BEFORE_PAYLOAD_IDS = [
    "window-estimate", "window-fit", "no-calibration-bins-estimate",
    "no-calibration-bins-fit", "band-width-0", "band-width-neg5",
    "band-width-10", "fit-band-inverted", "fit-band-lo-300e3",
    "fit-band-past-estimate-band", "no-minimum-window-bin", "detuning-lo",
    "phi-s-lo", "free-params-bogus", "multistarts-0", "confidence-rounds-to-1",
]


class TestCliErrorFamilies:
    @pytest.mark.parametrize(
        "exc_type", [*_subclasses(QndError), OSError], ids=lambda c: c.__name__
    )
    def test_exit_code_of_every_error(self, tmp_path, monkeypatch, exc_type):
        def command(cfg, args):
            raise exc_type("raised inside the command")

        monkeypatch.setitem(cli._COMMANDS, "theory", command)
        rc = cli.main(["theory", "--out", str(tmp_path)])
        assert rc == EXIT_CODES[exc_type.__name__]

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def command(cfg, args):
            raise ZeroDivisionError("not a package error")

        monkeypatch.setitem(cli._COMMANDS, "theory", command)
        with pytest.raises(ZeroDivisionError):
            cli.main(["theory", "--out", str(tmp_path)])

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[system]\nnope = 1\n")
        assert cli.main(["theory", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, text, match", [
        ("synth", "[synth]\nn_segments = abc\n", "not an integer"),
        ("synth", "[synth]\ncontinuous = maybe\n", "not a boolean"),
        ("theory", "[zeta]\npeaks = 1:2\n", "expected center:width:amplitude"),
        ("theory", "[zeta]\npeaks = 170e3:0:120\n",
         "zeta peak widths must be positive"),
        ("theory", "n_segments = 4\n", "cannot parse config"),
    ], ids=["integer", "boolean", "peaks", "peak-width-0", "no-section"])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, command, text, match):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert match in capsys.readouterr().err

    def test_no_command_prints_help_exit_2(self, capsys):
        assert cli.main([]) == 2
        assert "usage: qndlab" in capsys.readouterr().out

    def test_missing_dataset_exit_3(self, tmp_path):
        rc = cli.main(["estimate", str(tmp_path / "absent.qnd"),
                       "--out", str(tmp_path)])
        assert rc == 3

    def test_corrupt_dataset_exit_3(self, tmp_path):
        bad = tmp_path / "bad.qnd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 3

    def test_non_finite_payload_exit_3(self, small_qnd, tmp_path, capsys):
        bad = tmp_path / "nan.qnd"
        nan = np.array([np.nan], dtype="<f8").tobytes()
        bad.write_bytes(small_qnd.read_bytes()[:-8] + nan)  # the last meter sample
        run = tmp_path / "run.cfg"
        run.write_text(SMALL_CFG)  # a run config that made it, checked first
        assert cli.main(["estimate", str(bad), "--config", str(run),
                         "--out", str(tmp_path)]) == 3
        assert "non-finite samples in meter channel" in capsys.readouterr().err

    def test_non_finite_in_rejected_segment_exit_3(self, small_qnd, tmp_path, capsys):
        # a NaN in the difference channel of a segment that selection rejects
        # for its sum-channel spike is still found
        raw = bytearray(small_qnd.read_bytes())
        payload = raw.index(b"\n\n") + 2
        length, n_total = 16384, 16 * 16384

        def put(index, value):
            at = payload + 8 * index
            raw[at : at + 8] = np.array([value], dtype="<f8").tobytes()

        bad = tmp_path / "bad.qnd"
        put(5 * length + 100, 500.0)  # sum channel, segment 5
        bad.write_bytes(raw)
        with q.QndFile(bad) as ds:
            kept = q.segment_and_select(ds).kept_mask
        assert not kept[5] and kept.sum() == 15
        put(n_total + 5 * length + 7, np.nan)  # difference channel, segment 5
        bad.write_bytes(raw)
        run = tmp_path / "run.cfg"
        run.write_text(SMALL_CFG)
        out = tmp_path / "out"
        assert cli.main(["estimate", str(bad), "--config", str(run),
                         "--out", str(out)]) == 3
        assert "non-finite samples in difference channel" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("peak_limit", "abc"),
        ("band_average_hz", "nan"),
        ("peak_limit", "nan"),
    ], ids=["peak-abc", "band-key-nan", "peak-nan"])
    def test_bad_number_exit_2(self, small_qnd, tmp_path, capsys, key, value):
        # set the key in SMALL_CFG's [estimate] section
        line = "band_average_hz = 600.0\n"
        text = SMALL_CFG.replace(
            line, f"{key} = {value}\n" + line * (key != "band_average_hz")
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["estimate", str(small_qnd), "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert f"[estimate] {key}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_all_segments_spiked_exit_4(self, tmp_path, system):
        cfg = q.SynthConfig(segment_length=2**13, n_segments=8, seed=1)
        ds = q.synthesize(system, cfg)
        ds = q.DataSet(sum=ds.sum + 1e4, difference=ds.difference,
                       meter=ds.meter, config=cfg,
                       config_hash=ds.config_hash)
        path = tmp_path / "spiked.qnd"
        q.write_dataset(ds, path)
        small = tmp_path / "run.cfg"
        # 1300 Hz spans two of the grid's 610 Hz bins
        small.write_text("[synth]\nsegment_length = 8192\nn_segments = 8\n"
                         "[estimate]\nband_average_hz = 1300\n")
        rc = cli.main(["estimate", str(path), "--config", str(small),
                       "--out", str(tmp_path)])
        assert rc == 4

    @pytest.mark.parametrize("command", ["estimate", "fit"])
    def test_no_shot_noise_exit_4(self, small_qnd, tmp_path, capsys, command):
        # a difference channel without shot noise calibrates no positive SQL
        ds = q.read_dataset(small_qnd)
        path = tmp_path / "silent.qnd"
        q.write_dataset(
            dataclasses.replace(ds, difference=np.zeros_like(ds.difference)), path
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert cli.main([command, str(path), "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 4
        assert "no positive SQL reference" in capsys.readouterr().err

    def test_zero_power_predictor_exit_4(self, small_qnd, tmp_path, capsys):
        # a zero meter channel, and so a zero meter squared, predicts nothing
        ds = q.read_dataset(small_qnd)
        path = tmp_path / "no_meter.qnd"
        q.write_dataset(dataclasses.replace(ds, meter=np.zeros_like(ds.meter)), path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["estimate", str(path), "--config", str(cfg),
                           "--channels", "meter,meter_squared",
                           "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "zero power" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_floored_fit_target_exit_4(self, tmp_path, capsys):
        # electronic noise far above the signal: its subtraction floors
        # sum-spectrum bins in the fit band to zero
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[synth]\nsegment_length = 16384\nn_segments = 4\n"
            "electronic_noise_level = 10\n"
            "[estimate]\npeak_limit = 1e9\nrms_limit = 1e9\n"
        )
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path),
                         "--seed", "1"]) == 0
        rc = cli.main(["fit", str(tmp_path / "dataset.qnd"), "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 4
        assert "positive target values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "dataset.qnd", "--seed", "1"],
        ["fit", "dataset.qnd", "--vacuum-only"],
        ["theory", "--seed", "1"],
        ["budget", "--seed", "1"],
        ["estimate", "dataset.qnd", "--band-hz", "150"],
    ], ids=["estimate-seed", "fit-vacuum-only", "theory-seed", "budget-seed",
            "estimate-band-hz"])
    def test_flag_the_command_ignores_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_workers_flag_unknown(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "--out", str(tmp_path), "--workers", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("section, key, value", [
        ("estimate", "channels", "meter,meter_squared"),
        ("run", "out_dir", "."),
        ("run", "workers", "1"),
        ("system", "phi0_rad", "0.3"),
        ("system", "p_cavity_arm_w", "36.5e-3"),
        ("system", "p_reference_arm_w", "1e-5"),
    ])
    def test_removed_config_key_exit_2(self, tmp_path, section, key, value):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert cli.main(["theory", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    def test_bad_channels_rejected_before_reading(self, tmp_path):
        rc = cli.main(["estimate", str(tmp_path / "absent.qnd"),
                       "--channels", "bogus", "--out", str(tmp_path)])
        assert rc == 2

    def test_zero_band_width_exit_2(self, small_qnd, tmp_path, monkeypatch):
        monkeypatch.setattr(synth.QndFile, "segment", _no_payload_read)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("= 600.0", "= 0"))
        rc = cli.main(["estimate", str(small_qnd), "--config", str(cfg),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        assert not (tmp_path / "est" / "report.txt").exists()

    @pytest.mark.parametrize("command, text, argv, match", BAD_INPUTS,
                             ids=BAD_INPUT_IDS)
    def test_bad_input_exit_2(self, small_qnd, tmp_path, capsys, command, text,
                              argv, match):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        dataset = [str(small_qnd)] if command in ("estimate", "fit") else []
        assert cli.main([command, *dataset, "--config", str(cfg),
                         "--out", str(out), *argv]) == 2
        assert match in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, text, match", [
        ("estimate", SMALL_CFG.replace("= 600.0", "= 1e20"), "more than the"),
        ("estimate", SMALL_CFG.replace("= 120e3\nband_hi_hz = 220e3",
                                       "= 220e3\nband_hi_hz = 100e3"), "low edge"),
        ("estimate", _estimate_key("analysis_freq_hz", "1e30"), "analysis_freq_hz"),
        ("fit", _estimate_key("analysis_freq_hz", "-1"), "analysis_freq_hz"),
        ("estimate", _estimate_key("confidence", "1"), "confidence"),
    ], ids=["band-key", "inverted-band", "analysis-freq-estimate",
            "analysis-freq-fit", "confidence"])
    def test_band_rejected_before_reading(self, small_qnd, tmp_path, capsys,
                                          monkeypatch, command, text, match):
        # the header's grid and the config settle these, so no payload
        # sample is read
        monkeypatch.setattr(synth.QndFile, "segment", _no_payload_read)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main([command, str(small_qnd), "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, code, match", REJECTED_BEFORE_PAYLOAD,
                             ids=REJECTED_BEFORE_PAYLOAD_IDS)
    def test_rejected_before_any_payload_sample(self, small_qnd, tmp_path, capsys,
                                                monkeypatch, command, text, code,
                                                match):
        # each setting is checked by the code that uses it, called on the
        # header's grid before the payload
        monkeypatch.setattr(synth.QndFile, "segment", _no_payload_read)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main([command, str(small_qnd), "--config", str(cfg),
                         "--out", str(out)]) == code
        assert match in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sigterm_leaves_no_file(self, tmp_path):
        # SIGTERM during the draws exits 143 after the writer's clean-up;
        # the dataset would take several seconds to draw
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[synth]\nsegment_length = 65536\nn_segments = 400\n")
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "qndlab.cli", "synth", "--config", str(cfg),
             "--out", str(out)],
            env=_fresh_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not list(out.glob("dataset.qnd.*.tmp")):
                assert proc.poll() is None, "synth ended before it was signalled"
                assert time.monotonic() < deadline, "no temporary file appeared"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 143
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert list(out.iterdir()) == []


# Run configs that differ from SMALL_CFG in one [synth] value or in the
# system, keyed by what the error message names.
MISMATCHED = {
    "electronic_noise_level": SMALL_CFG.replace(
        "[synth]\n", "[synth]\nelectronic_noise_level = 0.3\n", 1
    ),
    "system hash": SMALL_CFG + "\n[system]\ndetuning_kappa = -0.019\n",
}


@pytest.fixture(scope="module")
def small_qnd(tmp_path_factory):
    """A SMALL_CFG dataset at seed 3 (the config's own seed is 0)."""
    out = tmp_path_factory.mktemp("small")
    cfg = out / "run.cfg"
    cfg.write_text(SMALL_CFG)
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out),
                     "--seed", "3"]) == 0
    return out / "dataset.qnd"


def _v1_header(header):
    """The version-1 header: five of the keys, the sample rate renamed."""
    lines = dict(line.split("=", 1) for line in header.splitlines())
    keys = ("sample_rate", "segment_length", "n_segments", "seed", "config_hash")
    return "".join(
        f"{'sample_rate_hz' if k == 'sample_rate' else k}={lines[k]}\n" for k in keys
    )


class TestDatasetMatchesConfig:
    def _run(self, command, dataset, text, out):
        cfg = out / "run.cfg"
        cfg.write_text(text)
        return cli.main([command, str(dataset), "--config", str(cfg),
                         "--out", str(out)])

    @pytest.mark.parametrize("command", ["estimate", "fit"])
    @pytest.mark.parametrize("name", sorted(MISMATCHED))
    def test_mismatch_exit_2(self, small_qnd, tmp_path, capsys, monkeypatch,
                             command, name):
        # the header settles the match, so no payload sample is read
        monkeypatch.setattr(synth.QndFile, "segment", _no_payload_read)
        assert self._run(command, small_qnd, MISMATCHED[name], tmp_path) == 2
        assert name in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_seed_is_not_compared(self, small_qnd, tmp_path):
        assert self._run("estimate", small_qnd, SMALL_CFG, tmp_path) == 0

    def test_vacuum_only_dataset(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert cli.main(["synth", "--vacuum-only", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        assert self._run("estimate", tmp_path / "dataset.qnd", SMALL_CFG,
                         tmp_path) == 0
        fit_out = tmp_path / "fit"
        fit_out.mkdir()
        # the header settles the rejection, so no payload sample is read
        monkeypatch.setattr(synth.QndFile, "segment", _no_payload_read)
        assert self._run("fit", tmp_path / "dataset.qnd", SMALL_CFG, fit_out) == 2
        assert "vacuum-only" in capsys.readouterr().err
        assert sorted(p.name for p in fit_out.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("version, edit", [
        (1, _v1_header),
        (2, lambda h: h.replace("segment_length=16384", "segment_length=abcde")),
        (2, lambda h: h.replace("sample_rate=5000000.0", "sample_rate=-5000000.0")),
    ], ids=["version-1", "unparsable", "rejected"])
    def test_bad_header_exit_3(self, small_qnd, tmp_path, version, edit):
        path = tmp_path / "bad.qnd"
        rewrite_qnd(small_qnd, path, version, edit)
        assert path.read_bytes() != small_qnd.read_bytes()
        assert self._run("estimate", path, SMALL_CFG, tmp_path) == 3

    @pytest.mark.parametrize("cut, match", [
        (lambda raw: raw[: raw.index(b"seed=") + 3],
         "unexpected end of file inside header"),
        (lambda raw: raw.replace(b"seed=", b"junk\nseed=", 1),
         "malformed header line"),
    ], ids=["cut-in-header", "no-equals"])
    def test_broken_header_exit_3(self, small_qnd, tmp_path, capsys, cut, match):
        path = tmp_path / "bad.qnd"
        path.write_bytes(cut(small_qnd.read_bytes()))
        assert self._run("estimate", path, SMALL_CFG, tmp_path) == 3
        assert match in capsys.readouterr().err


# Runs `python -m qndlab.cli` (runpy is what -m uses) for synth and then
# the given command on its dataset in one fresh interpreter; prints exit
# codes and scipy modules.
_ENTRY_PROBE = """
import json, runpy, sys

def run(argv):
    sys.argv = ["qndlab"] + argv
    try:
        runpy.run_module("qndlab.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

out, cfg, command = sys.argv[1], sys.argv[2], sys.argv[3]
codes = [
    run(["synth", "--config", cfg, "--out", out]),
    run([command, out + "/dataset.qnd", "--config", cfg, "--out", out]),
]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _fresh_env():
    """This environment, with this package's tree first on ``PYTHONPATH``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(q.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


def _fresh_python(*args):
    """Run a fresh interpreter that imports qndlab from this package's tree."""
    proc = subprocess.run(
        [sys.executable, *args], env=_fresh_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    def test_import_loads_no_scipy(self):
        loaded = _fresh_python(
            "-c",
            "import json, sys, qndlab, qndlab.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        )
        assert loaded == []

    def test_import_loads_no_thread_pool(self):
        # synthesize imports concurrent.futures when it first runs
        loaded = _fresh_python(
            "-c",
            "import json, sys, qndlab, qndlab.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'concurrent')))",
        )
        assert loaded == []

    def test_lock_phase_loads_no_scipy(self):
        loaded = _fresh_python(
            "-c",
            "import json, sys, qndlab as q\n"
            "s = q.reference_defaults()\n"
            "st = q.steady_state(s.mech, s.cavity, s.effective_drive())\n"
            "q.lock_phase_for_signal_phase(st, s.cavity, s.det, -24e-3)\n"
            "print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        )
        assert loaded == []

    def test_synth_and_estimate_skip_stats_and_optimize(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[synth]\nsegment_length = 8192\nn_segments = 8\n"
            "[estimate]\nband_average_hz = 1300.0\n"
        )
        got = _fresh_python("-c", _ENTRY_PROBE, str(tmp_path), str(cfg), "estimate")
        assert got["codes"] == [0, 0]
        assert (tmp_path / "dataset.qnd").exists()
        assert (tmp_path / "residual_banded.csv").exists()
        # neither command fits, so neither loads any scipy module
        assert got["scipy"] == []

    def test_fit_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[synth]\nsegment_length = 8192\nn_segments = 8\n"
            "[fit]\nn_multistarts = 3\n"
        )
        got = _fresh_python("-c", _ENTRY_PROBE, str(tmp_path), str(cfg), "fit")
        assert got["codes"] == [0, 0]
        assert "evaluations = " in (tmp_path / "fit_report.txt").read_text()
        assert (tmp_path / "fit_curves.csv").exists()
        assert got["scipy"] == []


# Runs one qndlab command in a fresh interpreter and prints its exit code
# and the interpreter's peak RSS (ru_maxrss, in KiB on Linux).
_RSS_PROBE = """
import json, resource, sys
from qndlab import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class TestStreamedMemory:
    def test_estimate_peak_does_not_grow_with_the_dataset(self, tmp_path):
        # doubling 16 x 2**16 to 32 x 2**16 adds 25 MB of payload, which
        # estimate streams; what it holds grows by the band DFTs of the 16
        # more kept segments (4 channels x 1573 bins x 16 B each, 1.6 MB)
        # and the estimators' per-segment temporaries, a few MB at most
        peaks = {}
        for n in (16, 32):
            out = tmp_path / str(n)
            out.mkdir()
            cfg = out / "run.cfg"
            cfg.write_text(f"[synth]\nsegment_length = 65536\nn_segments = {n}\n")
            assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
            got = _fresh_python("-c", _RSS_PROBE, "estimate", str(out / "dataset.qnd"),
                                "--config", str(cfg), "--out", str(out))
            assert got["code"] == 0
            peaks[n] = got["maxrss_kb"]
        assert peaks[32] - peaks[16] <= 8 * 1024, peaks
