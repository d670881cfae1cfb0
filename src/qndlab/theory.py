"""Analytic spectra: simplified single-mode model and full cavity model.

All spectra are symmetrized, double-sided, and normalized so that a pure
vacuum field has unit quadrature spectral density at every frequency and
phase (SQL = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, StatisticsError
from .om_core import (
    CHANNELS,
    SOURCE_GROUPS,
    VACUUM_CHANNELS,
    mech_susceptibility,
    optical_susceptibility,
    output_port_coefficients,
    quadrature_phases,
    steady_state,
)
from .params import MechanicalParams, SystemParams

# ---------------------------------------------------------------------------
# Simplified model (single oscillator, resonant lossless cavity)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleModelParams:
    """Parameters of the simplified QND model.

    Rates are constants at the mechanical resonance; ``kappa=None`` takes
    the bad-cavity limit chi_opt = 1.  ``r_param`` is the readout-noise
    parameter R of a quantum-limited readout.
    """

    omega_m: float
    gamma_m: float
    gamma_ba: float
    gamma_th: float
    r_param: float
    kappa: float | None = None

    def __post_init__(self):
        if self.r_param < 0:
            raise ConfigError("r_param must be non-negative")

    def _mech(self) -> MechanicalParams:
        return MechanicalParams(
            omega_m=self.omega_m, gamma_m=self.gamma_m, mass=1.0, temperature=0.0
        )

    def chi(self, omega):
        return mech_susceptibility(self._mech(), omega)

    def chi_opt(self, omega):
        if self.kappa is None:
            return np.ones_like(np.asarray(omega, dtype=float), dtype=complex)
        return optical_susceptibility(self.kappa, omega)

    def cooperativity(self, omega):
        """C(omega) = Gamma_BA * |chi_opt|^2 / Gamma_th."""
        return self.gamma_ba * np.abs(self.chi_opt(omega)) ** 2 / self.gamma_th


def displacement_spectrum(params: SimpleModelParams, omega):
    """S_qq = 4*Gamma_th*|chi|^2 + |4*chi*chi_opt|^2 * Gamma_BA."""
    chi = params.chi(omega)
    chi_opt = params.chi_opt(omega)
    thermal = 4.0 * params.gamma_th * np.abs(chi) ** 2
    backaction = np.abs(4.0 * chi * chi_opt) ** 2 * params.gamma_ba
    return thermal + backaction


def readout_noise_spectrum(params: SimpleModelParams, omega):
    """Quantum-limited readout-noise spectrum S_qr = 2 Im chi."""
    return 2.0 * params.chi(omega).imag


def simple_residual_spectrum(params: SimpleModelParams, omega):
    """Residual uncertainty S_dX = (1 + C/(1+R))^-1 in SQL units."""
    c = params.cooperativity(omega)
    return 1.0 / (1.0 + c / (1.0 + params.r_param))


def min_quadrature_spectrum(params: SimpleModelParams, omega):
    """Maximally squeezed output quadrature S_min = (1+sin^2(arg chi)*C)/(1+C)."""
    c = params.cooperativity(omega)
    s2 = np.sin(np.angle(params.chi(omega))) ** 2
    return (1.0 + s2 * c) / (1.0 + c)


def fixed_phase_output_spectrum(params: SimpleModelParams, phi, omega):
    """Spectrum of the output quadrature at fixed detection phase phi.

    Built from the input-output relations of the simplified model with
    vacuum inputs and thermal drive; phi = 0 returns 1 exactly.
    """
    chi = params.chi(omega)
    chi_opt = params.chi_opt(omega)
    # Coefficient of the amplitude input in the rotated quadrature; the
    # common exp(2i*phi_opt) prefactor drops from the moduli.
    back_action = 4.0 * params.gamma_ba * np.abs(chi_opt) ** 2
    amp = np.cos(phi) + back_action * chi * np.sin(phi)
    thermal = (
        params.gamma_ba
        * np.abs(chi_opt) ** 2
        * np.sin(phi) ** 2
        * 4.0
        * params.gamma_th
        * np.abs(chi) ** 2
    )
    # Symmetrize over +/- omega: chi(-w) = conj(chi(w)).
    amp_neg = np.cos(phi) + back_action * np.conj(chi) * np.sin(phi)
    vac = 0.5 * (np.abs(amp) ** 2 + np.abs(amp_neg) ** 2) + np.sin(phi) ** 2
    return vac + thermal


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

ALL_SOURCES = tuple(SOURCE_GROUPS)


def _channels(sources) -> tuple:
    """The channels of ``sources``, in ``CHANNELS`` order."""
    return tuple(ch for ch in CHANNELS if any(ch in SOURCE_GROUPS[s] for s in sources))


class SpectrumModel:
    """Assembles quadrature spectra and cross-spectra of the detected ports.

    Every spectrum is read from one channel table.  A port quadrature at
    phase phi responds to channel c with

        u(+-omega) = exp(-i phi) a(+-omega) + exp(i phi) conj(b(-+omega)),

    where (a, b) multiply (c, c^dag).  A real classical input is its own
    conjugate, so its b is its a; then u(-omega) = conj(u(omega)) and the
    vacuum form 0.5*(|u(omega)|^2 + |u(-omega)|^2) is its |u(omega)|^2.
    Each channel's contribution is weighted by ``psd[c]``, its symmetrized
    input spectrum: 1 for a vacuum.  ``channels[port]`` lists the channels
    that reach the port, and every sum runs over those.  An entry that is
    the same at every frequency (a port's own detection vacuum, the eps
    PSD, a flat xi PSD) is held as a scalar, and ``coefficients`` returns
    such a channel's as scalars; every spectrum broadcasts it over the grid.
    """

    def __init__(self, system: SystemParams, omega):
        self.system = system
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.state = steady_state(
            system.mech, system.cavity, system.effective_drive()
        )
        pos = output_port_coefficients(system, self.omega, self.state)
        neg = output_port_coefficients(system, -self.omega, self.state)
        # per port and each channel that reaches it, in CHANNELS order:
        # (a(omega), b(omega), a(-omega), b(-omega))
        self._table = {
            port: {ch: pos[port][ch] + neg[port][ch] for ch in pos[port]} for port in pos
        }
        self.channels = {port: tuple(table) for port, table in self._table.items()}
        self.psd = dict.fromkeys(VACUUM_CHANNELS, 1.0)
        self.psd["eps"] = system.drive.epsilon_psd()
        self.psd["zeta"] = system.zeta.psd(self.omega)
        self.psd["xi"] = system.xi_psd(self.omega)
        _, self.phi_m, self.phi_s_lock = quadrature_phases(
            self.state, system.cavity, system.det
        )

    @property
    def phi_s(self) -> float:
        if self.system.signal_phase is not None:
            return self.system.signal_phase
        return self.phi_s_lock

    def coefficients(self, port, channel, phi):
        """Quadrature coefficients u(omega) and u(-omega) of one channel.

        Scalars for a channel whose coefficients are the same at every
        frequency, arrays over the grid otherwise.
        """
        a_pos, b_pos, a_neg, b_neg = self._table[port][channel]
        e_m, e_p = np.exp(-1j * phi), np.exp(1j * phi)
        return a_pos * e_m + np.conj(b_neg) * e_p, a_neg * e_m + np.conj(b_pos) * e_p

    def _spectra(self, phis, sources=ALL_SOURCES) -> dict:
        """Port spectra at the phases ``phis``, {port: phi}, from one channel walk.

        {(p, p): port p's quadrature spectrum}, then, given both ports,
        {("signal", "meter"): their cross-spectrum}; sums add in ``CHANNELS`` order.
        """
        out = {(port, port): np.zeros_like(self.omega) for port in phis}
        if len(phis) == 2:
            out["signal", "meter"] = np.zeros_like(self.omega, dtype=complex)
        for ch in _channels(sources):
            # a scalar coefficient is broadcast first, so every channel's
            # moduli are taken on the grid alike
            u = {
                port: [np.full(self.omega.shape, c) if np.ndim(c) == 0 else c
                       for c in self.coefficients(port, ch, phi)]
                for port, phi in phis.items() if ch in self._table[port]
            }
            psd = self.psd[ch]
            for port, (u_pos, u_neg) in u.items():
                out[port, port] += 0.5 * (np.abs(u_pos) ** 2 + np.abs(u_neg) ** 2) * psd
            if len(u) == 2:
                (x_pos, x_neg), (y_pos, y_neg) = u["signal"], u["meter"]
                out["signal", "meter"] += (
                    0.5 * (x_pos * np.conj(y_pos) + np.conj(x_neg) * y_neg) * psd
                )
        return out

    def quadrature_spectrum(self, port, phi, sources=ALL_SOURCES):
        """Port quadrature spectrum in SQL units.

        ``sources`` restricts the classical + vacuum channels counted; the
        port's own detection vacuum is part of the "detection" group.
        """
        return self._spectra({port: phi}, sources)[port, port]

    def phase_harmonics(self, port):
        """The port quadrature spectrum's dependence on phase and background.

        Returns real A0, B0 and complex A2, B2 on the model grid with

            quadrature_spectrum(port, phi) = A0 + Re(A2 exp(-2i phi))
                + background * (B0 + Re(B2 exp(-2i phi)))

        for every phi, ``background`` being ``system.zeta.background``:
        B is the zeta channel per unit background (its shape from
        ``ZetaModel.background_shape``), and A holds every other
        contribution, the zeta peaks included.
        """
        zeta = self.system.zeta
        a0 = np.zeros_like(self.omega)
        a2 = np.zeros_like(self.omega, dtype=complex)
        for ch, (a_pos, b_pos, a_neg, b_neg) in self._table[port].items():
            h0 = 0.5 * (
                np.abs(a_pos) ** 2 + np.abs(b_neg) ** 2
                + np.abs(a_neg) ** 2 + np.abs(b_pos) ** 2
            )
            h2 = a_pos * b_neg + a_neg * b_pos
            psd = self.psd[ch]
            if ch == "zeta":
                psd = replace(zeta, background=0.0).psd(self.omega)
                shape = zeta.background_shape(self.omega)
                b0, b2 = h0 * shape, h2 * shape
            a0 += h0 * psd
            a2 += h2 * psd
        return a0, a2, b0, b2

    def cross_spectrum(self, phi_s=None, phi_m=None, sources=ALL_SOURCES):
        """Symmetrized cross-spectrum S_XsYm(omega) between the two ports."""
        phis = {"signal": self.phi_s if phi_s is None else phi_s,
                "meter": self.phi_m if phi_m is None else phi_m}
        return self._spectra(phis, sources)["signal", "meter"]

    def residual_spectra(self):
        """The model residual at the detection phases ``phi_s`` and ``phi_m``.

        Returns (S_xs, S_ym, S_xy, MSC, residual): the signal and meter
        quadrature spectra, their cross-spectrum, its magnitude-squared
        coherence and the optimal-prediction residual S_xs * (1 - MSC),
        the sub-SQL yardstick.
        """
        spectra = self._spectra({"signal": self.phi_s, "meter": self.phi_m})
        s_xs, s_ym, s_xy = spectra.values()  # in _spectra's order
        msc = coherence(s_xs, s_ym, s_xy)
        return s_xs, s_ym, s_xy, msc, residual_spectrum_theory(s_xs, msc)


def coherence(s_xx, s_yy, s_xy):
    """Magnitude-squared coherence |S_xy|^2/(S_xx*S_yy)."""
    s_xx = np.asarray(s_xx, dtype=float)
    s_yy = np.asarray(s_yy, dtype=float)
    if np.any(s_xx <= 0) or np.any(s_yy <= 0):
        raise StatisticsError("auto-spectra must be positive")
    return np.abs(np.asarray(s_xy)) ** 2 / (s_xx * s_yy)


def residual_spectrum_theory(s_xx, msc):
    """Optimal-prediction residual S_dX = S_xx * (1 - MSC)."""
    msc = np.asarray(msc, dtype=float)
    if np.any(msc < -1e-12) or np.any(msc > 1.0 + 1e-9):
        raise ConfigError("coherence must lie in [0, 1]")
    return np.asarray(s_xx, dtype=float) * np.clip(1.0 - msc, 0.0, None)


@dataclass(frozen=True)
class NoiseBudget:
    """Per-source decomposition of a port spectrum on the caller's grid.

    The ``contributions``, one per source group, sum to ``total``.
    """

    total: np.ndarray
    contributions: dict


def noise_budget(system: SystemParams, port, omega) -> NoiseBudget:
    """Per-source noise budget of a port spectrum on ``omega``, at its detection phase."""
    model = SpectrumModel(system, omega)
    phi = model.phi_s if port == "signal" else model.phi_m
    contributions = {
        source: model.quadrature_spectrum(port, phi, (source,))
        for source in SOURCE_GROUPS
    }
    total = sum(contributions.values())
    return NoiseBudget(total, contributions)


# half-span of ``default_omega_grid``: the resonance region of interest
_HALF_SPAN = 2.0 * np.pi * 25e3


def default_omega_grid(system: SystemParams, n_points: int = 4096):
    """Angular-frequency grid of half-span 2*pi*25 kHz on the mechanical resonance."""
    center = system.mech.omega_m
    return np.linspace(center - _HALF_SPAN, center + _HALF_SPAN, n_points)
