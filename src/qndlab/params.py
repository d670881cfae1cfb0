"""Physical parameter containers for the optomechanical model.

All quantities are stored in SI units with angular frequencies (rad/s).
Configuration layers accept Hz and convert once on load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi

# exact SI (2019) values, equal to scipy.constants.c, hbar and k
c_light = 299_792_458.0
hbar = 6.62607015e-34 / TWO_PI
k_boltzmann = 1.380649e-23


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose occupancy 1/(exp(hbar*omega/kT) - 1); zero at T = 0."""
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_boltzmann * temperature)
    return 1.0 / np.expm1(x)


@dataclass(frozen=True)
class MechanicalParams:
    """Mechanical oscillator: resonance, damping, mass, bath temperature."""

    omega_m: float
    gamma_m: float
    mass: float
    temperature: float

    def __post_init__(self):
        if self.omega_m <= 0 or self.gamma_m <= 0 or self.mass <= 0:
            raise ConfigError("omega_m, gamma_m and mass must be positive")
        if self.temperature < 0:
            raise ConfigError("temperature must be non-negative")

    @property
    def n_thermal(self) -> float:
        """Thermal occupancy of the mode at its resonance frequency."""
        return thermal_occupancy(self.omega_m, self.temperature)


@dataclass(frozen=True)
class CavityParams:
    """Optical cavity: decay rates, geometry and laser frequency.

    ``detuning`` is the effective detuning (including the static
    radiation-pressure shift); ``detuning0`` the bare one.  Exactly one of
    the two is required by the steady-state solver.
    """

    kappa1: float
    kappa2: float
    length: float
    omega_laser: float
    detuning: float | None = None
    detuning0: float | None = None

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 < 0:
            raise ConfigError("kappa1 must be > 0 and kappa2 >= 0")
        if self.length <= 0 or self.omega_laser <= 0:
            raise ConfigError("length and omega_laser must be positive")

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2


@dataclass(frozen=True)
class ZetaModel:
    """Cavity phase-noise spectrum: Lorentzian peaks plus 1/omega^2 tails.

    ``peaks`` is a sequence of (center, half-width, peak amplitude) triples
    in rad/s and rad^2/s^2 * s; ``background`` is the amplitude of the
    1/omega^2 term.  All amplitudes refer to the double-sided spectral
    density in angular-frequency convention.
    """

    peaks: tuple[tuple[float, float, float], ...] = ()
    background: float = 0.0

    def __post_init__(self):
        if self.background < 0 or any(a < 0 for _, _, a in self.peaks):
            raise ConfigError("zeta model amplitudes must be non-negative")
        if any(w <= 0 for _, w, _ in self.peaks):
            raise ConfigError("zeta peak widths must be positive")

    @staticmethod
    def _tail_denominator(omega):
        floor = 1.0  # rad/s; keeps the 1/omega^2 tail finite at DC
        return np.maximum(np.abs(np.asarray(omega, dtype=float)), floor) ** 2

    def background_shape(self, omega):
        """S_zeta per unit ``background``: 1/max(|omega|, 1 rad/s)^2."""
        return 1.0 / self._tail_denominator(omega)

    def psd(self, omega):
        """Evaluate S_zeta(omega); even in omega, finite at omega = 0."""
        w = np.abs(np.asarray(omega, dtype=float))
        out = np.zeros_like(w)
        for center, width, amp in self.peaks:
            out += amp * width**2 / ((w - center) ** 2 + width**2)
        if self.background:
            # background / denominator, not background * background_shape:
            # the division keeps the spectra bit-identical
            out += self.background / self._tail_denominator(w)
        return out


@dataclass(frozen=True)
class DriveParams:
    """Input laser drive and its classical amplitude-noise model.

    ``power`` is the power incident on the cavity before mode matching.
    Only the fraction eta_modematch of it couples into the cavity mode;
    ``SystemParams.effective_drive()`` returns the drive with that
    mode-matched power, which is what the steady state is solved for.
    """

    power: float
    s_epsilon: float | None = None
    # equal to config.DEFAULTS (a test checks); config_hash pins the field order
    excess_noise_ref_power: float = 24e-3

    def __post_init__(self):
        if self.power < 0:
            raise ConfigError("power must be non-negative")
        if self.excess_noise_ref_power <= 0:
            raise ConfigError("excess_noise_ref_power must be positive")

    def e0(self, cavity: CavityParams) -> float:
        """Drive amplitude sqrt(2*kappa1*P/hbar*omega0), taken real.

        P is taken to be the mode-matched power that couples into the
        cavity mode: call this on ``SystemParams.effective_drive()``, not
        on the incident ``SystemParams.drive``.
        """
        return np.sqrt(2.0 * cavity.kappa1 * self.power / (hbar * cavity.omega_laser))

    def epsilon_psd(self) -> float:
        """Spectral density of the excess amplitude noise (SQL units)."""
        if self.s_epsilon is not None:
            return self.s_epsilon
        return 0.25 * self.power / self.excess_noise_ref_power


@dataclass(frozen=True)
class DetectionParams:
    """Detection chain: efficiencies, interferometer powers and lock phase."""

    eta_meter: float
    eta_signal: float
    eta_modematch: float
    # lock-phase inputs, which no config key sets (the config's signal
    # phase overrides the lock); config_hash pins the field order
    phi0: float = 0.0
    p_cavity_arm: float = 36.5e-3
    p_reference_arm: float = 6e-6

    def __post_init__(self):
        for name in ("eta_meter", "eta_signal", "eta_modematch"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.p_cavity_arm < 0 or self.p_reference_arm < 0:
            raise ConfigError("interferometer arm powers must be non-negative")
        if self.p_cavity_arm + self.p_reference_arm <= 0:
            raise ConfigError("total interferometer power must be positive")


@dataclass(frozen=True)
class CouplingState:
    """Self-consistent steady state of the driven optomechanical cavity."""

    g0: float
    g: complex
    alpha_s: complex
    q_s: float
    detuning: float


@dataclass(frozen=True)
class SystemParams:
    """Full system description consumed by the spectrum and synthesis layers.

    ``thermal_force_scaling`` selects the Brownian-force spectrum: "flat"
    gives S_xi = 2*gamma_m*(n_T + 1/2); "frequency" multiplies by
    |omega|/omega_m (structural damping variant).
    """

    mech: MechanicalParams
    cavity: CavityParams
    drive: DriveParams
    det: DetectionParams
    zeta: ZetaModel = field(default_factory=ZetaModel)
    thermal_force_scaling: str = "flat"
    signal_phase: float | None = None

    def __post_init__(self):
        if self.thermal_force_scaling not in ("flat", "frequency"):
            raise ConfigError("thermal_force_scaling must be 'flat' or 'frequency'")

    def effective_drive(self) -> DriveParams:
        """Drive seen by the cavity mode: power reduced by mode matching.

        Returns the drive with power eta_modematch * P, P being the
        incident ``drive.power``; this is the power ``DriveParams.e0``
        expects.  The non-matched remainder bypasses the cavity (see
        ``om_core.apply_losses_and_modematch``).
        """
        return replace(self.drive, power=self.drive.power * self.det.eta_modematch)

    def xi_psd(self, omega):
        """Brownian force spectral density in zero-point-normalized units.

        An array over ``omega`` under "frequency" scaling; under "flat" it
        is the same at every frequency, and returned as that one scalar.
        """
        base = 2.0 * self.mech.gamma_m * (self.mech.n_thermal + 0.5)
        if self.thermal_force_scaling == "frequency":
            return base * np.abs(np.asarray(omega, dtype=float)) / self.mech.omega_m
        return base

    def vacuum_only(self) -> "SystemParams":
        """Variant with drive, classical noises and coupling switched off."""
        return replace(
            self,
            drive=replace(self.drive, power=0.0, s_epsilon=0.0),
            zeta=ZetaModel(),
            mech=replace(self.mech, temperature=0.0),
        )

    def config_hash(self) -> str:
        text = repr(self).encode()
        return hashlib.sha256(text).hexdigest()[:12]
