"""Sectioned key = value run configuration.

The file format is flat INI: bracketed sections, one key per line.
Every key has a default equal to the reference experiment's value, so an
empty file is a valid full configuration.  Unknown sections or keys are
rejected by name rather than ignored.  ``DEFAULTS`` is the one definition
of the reference micro-mirror experiment; ``reference_defaults`` builds
its ``SystemParams``.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fitting import FIT_BOUND_KEYS
from .params import (
    CavityParams,
    DetectionParams,
    DriveParams,
    MechanicalParams,
    SystemParams,
    ZetaModel,
    c_light,
)
from .synth import SynthConfig

TWO_PI = 2.0 * np.pi

DEFAULTS = {
    "system": {
        "mech_freq_hz": "169334.0",
        "quality_factor": "1.1e6",
        "mass_kg": "2.5e-7",
        "temperature_k": "5.6",
        "kappa1_hz": "2.58e6",
        "kappa2_hz": "0.27e6",
        "cavity_length_m": "1.455e-3",
        "wavelength_m": "1.064e-6",
        "power_w": "38e-3",
        "detuning_kappa": "-0.016",
        "signal_phase_rad": "-24e-3",
        "eta_meter": "0.03",
        "eta_signal": "0.69",
        "eta_modematch": "0.90",
        "thermal_force_scaling": "flat",
        "excess_noise_ref_power_w": "24e-3",
    },
    "zeta": {
        # peaks as center_hz:width_hz:amplitude triples: the 208 kHz
        # unbalanced mode and the 22 kHz wheel-mode remnant; the background
        # (1/omega^2 tails of low-frequency modes) is the noise model's one
        # free knob, set so the two-channel residual stays sub-SQL over
        # about 1.6 kHz above the optical-spring peak
        "peaks": "208e3:2e3:120, 22e3:1e3:300",
        "background": "6.0e11",
    },
    "synth": {
        "sample_rate_hz": "5e6",
        "segment_length": str(2**19),
        "n_segments": "64",
        "electronic_noise_level": repr(10.0 ** (-1.5)),
        "nonlinearity_lambda": "0.0",
        "spike_rate": "0.0",
        "spike_amplitude": "100.0",
        "common_mode_leak_db": "-40.0",
        "continuous": "false",
    },
    "estimate": {
        "peak_limit": "60.0",
        "rms_limit": "25.0",
        "window": "rectangular",
        "band_lo_hz": "100e3",
        "band_hi_hz": "220e3",
        "band_average_hz": "150.0",
        "confidence": "0.9",
        "analysis_freq_hz": "170e3",
    },
    "fit": {
        "free_params": "detuning,phi_s,zeta_background",
        "detuning_lo_kappa": "-0.03",
        "detuning_hi_kappa": "-0.005",
        "phi_s_lo_rad": "-0.06",
        "phi_s_hi_rad": "-0.005",
        "zeta_background_lo": "1e10",
        "zeta_background_hi": "1e13",
        "n_multistarts": "20",
        "band_lo_hz": "145e3",
        "band_hi_hz": "195e3",
    },
    "run": {
        "seed": "0",
    },
}


def _finite_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {text!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: raw string table plus typed accessors."""

    table: dict

    def get(self, section: str, key: str) -> str:
        return self.table[section][key]

    def get_float(self, section: str, key: str) -> float:
        """The value as a finite float; anything else raises ``ConfigError``."""
        return _finite_float(self.get(section, key), f"[{section}] {key}")

    def get_int(self, section: str, key: str) -> int:
        text = self.get(section, key)
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {text!r}") from None

    def get_positive(self, section: str, key: str) -> float:
        """The value as a finite float above zero, for a key the model divides by."""
        value = self.get_float(section, key)
        if value <= 0:
            raise ConfigError(f"[{section}] {key}: must be positive, got {value!r}")
        return value

    def seed(self, override: int | None = None) -> int:
        """The run seed: ``override`` (a ``--seed`` flag), else ``[run] seed``."""
        seed = self.get_int("run", "seed") if override is None else override
        if seed < 0:
            where = "[run] seed" if override is None else "--seed"
            raise ConfigError(f"{where}: must be non-negative, got {seed}")
        return seed

    def get_bool(self, section: str, key: str) -> bool:
        v = self.get(section, key).strip().lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {v!r}")

    # -- builders -----------------------------------------------------------

    def system(self) -> SystemParams:
        g = self.get_float
        f_m = g("system", "mech_freq_hz")
        mech = MechanicalParams(
            omega_m=TWO_PI * f_m,
            gamma_m=TWO_PI * f_m / self.get_positive("system", "quality_factor"),
            mass=g("system", "mass_kg"),
            temperature=g("system", "temperature_k"),
        )
        kappa1 = TWO_PI * g("system", "kappa1_hz")
        kappa2 = TWO_PI * g("system", "kappa2_hz")
        cavity = CavityParams(
            kappa1=kappa1,
            kappa2=kappa2,
            length=g("system", "cavity_length_m"),
            omega_laser=TWO_PI * c_light / self.get_positive("system", "wavelength_m"),
            detuning=g("system", "detuning_kappa") * (kappa1 + kappa2),
        )
        drive = DriveParams(
            power=g("system", "power_w"),
            excess_noise_ref_power=g("system", "excess_noise_ref_power_w"),
        )
        det = DetectionParams(
            eta_meter=g("system", "eta_meter"),
            eta_signal=g("system", "eta_signal"),
            eta_modematch=g("system", "eta_modematch"),
        )
        return SystemParams(
            mech=mech,
            cavity=cavity,
            drive=drive,
            det=det,
            zeta=self.zeta_model(),
            thermal_force_scaling=self.get("system", "thermal_force_scaling"),
            signal_phase=g("system", "signal_phase_rad"),
        )

    def zeta_model(self) -> ZetaModel:
        peaks = []
        text = self.get("zeta", "peaks").strip()
        if text:
            for item in text.split(","):
                parts = item.strip().split(":")
                if len(parts) != 3:
                    raise ConfigError(
                        f"[zeta] peaks: expected center:width:amplitude, got {item!r}"
                    )
                c, w, a = (_finite_float(p, "[zeta] peaks") for p in parts)
                peaks.append((TWO_PI * c, TWO_PI * w, a))
        return ZetaModel(
            peaks=tuple(peaks), background=self.get_float("zeta", "background")
        )

    def synth_config(self, seed: int | None = None) -> SynthConfig:
        return SynthConfig(
            sample_rate=self.get_float("synth", "sample_rate_hz"),
            segment_length=self.get_int("synth", "segment_length"),
            n_segments=self.get_int("synth", "n_segments"),
            seed=self.seed(seed),
            electronic_noise_level=self.get_float("synth", "electronic_noise_level"),
            nonlinearity_lambda=self.get_float("synth", "nonlinearity_lambda"),
            spike_rate=self.get_float("synth", "spike_rate"),
            spike_amplitude=self.get_float("synth", "spike_amplitude"),
            common_mode_leak_db=self.get_float("synth", "common_mode_leak_db"),
            continuous=self.get_bool("synth", "continuous"),
        )

    def estimate_band(self) -> tuple[float, float]:
        """The ``[estimate]`` band (f_lo, f_hi) in Hz that ``transform`` keeps."""
        return (
            self.get_float("estimate", "band_lo_hz"),
            self.get_float("estimate", "band_hi_hz"),
        )

    def analysis_freq_hz(self) -> float:
        """The ``[estimate]`` analysis frequency in Hz, inside ``estimate_band``.

        The SQL reference is the shot-noise calibration line read at this
        frequency; outside the band it would be an extrapolation.
        """
        lo, hi = self.estimate_band()
        freq = self.get_float("estimate", "analysis_freq_hz")
        if not lo <= freq <= hi:
            raise ConfigError(
                f"[estimate] analysis_freq_hz: {freq:g} Hz lies outside the "
                f"estimate band {lo:g}-{hi:g} Hz"
            )
        return freq

    def fit_band(self) -> tuple[float, float]:
        """The ``[fit]`` band (f_lo, f_hi) in Hz, edges inside ``estimate_band``.

        The fit reads the estimate's spectrum, which ends at that band.
        """
        est_lo, est_hi = self.estimate_band()
        lo = self.get_float("fit", "band_lo_hz")
        hi = self.get_float("fit", "band_hi_hz")
        if lo < est_lo or hi > est_hi:
            raise ConfigError(
                f"[fit] band ({lo:g}, {hi:g}) Hz reaches past the estimate band "
                f"({est_lo:g}, {est_hi:g}) Hz"
            )
        return lo, hi

    def fit_bounds(self, kappa: float) -> dict:
        """The ``[fit]`` (lo, hi) bounds of each ``free_params`` name.

        An unknown name gets empty bounds: ``FitProblem`` rejects it.
        """
        names = [
            n.strip() for n in self.get("fit", "free_params").split(",") if n.strip()
        ]
        bounds = {}
        for name in names:
            scale = kappa if name == "detuning" else 1.0
            bounds[name] = tuple(
                self.get_float("fit", k) * scale
                for k in FIT_BOUND_KEYS.get(name, ())
            )
        return bounds


def load_config(path=None, text: str | None = None) -> RunConfig:
    """Parse a config file against the defaults, rejecting unknown keys."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case as written
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None:
            with open(path) as fh:
                parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    table = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            table[section][key] = value
    return RunConfig(table=table)


def reference_defaults(**system) -> SystemParams:
    """System parameters of the reference experiment (``DEFAULTS``).

    Numeric overrides use the ``[system]`` key names, e.g.
    ``reference_defaults(detuning_kappa=-0.019)``, and are written as
    ``repr(float(value))`` so that every value round-trips exactly; an
    unknown name raises ``ConfigError``.
    """
    lines = [f"{key} = {float(value)!r}\n" for key, value in system.items()]
    return load_config(text="[system]\n" + "".join(lines)).system()


def default_config_text() -> str:
    """The full default configuration, suitable for --print-defaults."""
    out = io.StringIO()
    for section, values in DEFAULTS.items():
        out.write(f"[{section}]\n")
        for key, value in values.items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
