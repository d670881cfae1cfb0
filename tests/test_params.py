"""Parameter containers: validation, derived quantities, hashing."""

import dataclasses

import numpy as np
import pytest
from scipy import constants

import qndlab as q
from qndlab import params
from qndlab.config import load_config
from qndlab.errors import ConfigError


class TestValidation:
    def test_negative_mechanics_rejected(self):
        with pytest.raises(ConfigError):
            q.MechanicalParams(omega_m=-1.0, gamma_m=1.0, mass=1.0, temperature=0.0)
        with pytest.raises(ConfigError):
            q.MechanicalParams(omega_m=1.0, gamma_m=1.0, mass=-1.0, temperature=0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError):
            q.DriveParams(power=-1.0)

    def test_zero_excess_noise_reference_rejected(self):
        with pytest.raises(ConfigError, match="excess_noise_ref_power"):
            q.DriveParams(power=1.0, excess_noise_ref_power=0.0)

    @pytest.mark.parametrize("key", ["quality_factor", "wavelength_m"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_divisor_keys_must_be_positive(self, key, value):
        # the config divides by these before a dataclass sees the quotient
        cfg = load_config(text=f"[system]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"\\[system\\] {key}: must be positive"):
            cfg.system()

    def test_efficiency_bounds(self):
        with pytest.raises(ConfigError):
            q.DetectionParams(eta_meter=1.5, eta_signal=0.5, eta_modematch=0.5)

    def test_zeta_amplitudes_nonnegative(self):
        with pytest.raises(ConfigError):
            q.ZetaModel(peaks=((1e5, 1e3, -1.0),))

    @pytest.mark.parametrize("arm", ["p_cavity_arm", "p_reference_arm"])
    def test_arm_powers_nonnegative(self, arm):
        with pytest.raises(ConfigError, match="arm powers must be non-negative"):
            q.DetectionParams(eta_meter=0.5, eta_signal=0.5, eta_modematch=0.5,
                              **{arm: -1e-6})


class TestDerivedQuantities:
    def test_kappa_sum(self, system):
        c = system.cavity
        assert c.kappa == pytest.approx(c.kappa1 + c.kappa2, rel=1e-12)

    def test_drive_amplitude_invariant(self, system):
        e0 = system.drive.e0(system.cavity)
        hbar = 1.0545718176461565e-34
        assert e0**2 == pytest.approx(
            2.0 * system.cavity.kappa1 * system.drive.power
            / (hbar * system.cavity.omega_laser),
            rel=1e-12,
        )

    def test_si_constants_match_scipy(self):
        assert params.c_light == constants.c
        assert params.hbar == constants.hbar
        assert params.k_boltzmann == constants.k

    def test_effective_drive_mode_matching(self, system):
        assert system.effective_drive().power == pytest.approx(
            system.det.eta_modematch * system.drive.power, rel=1e-12
        )

    def test_excess_noise_scales_with_power(self):
        d = q.DriveParams(power=24e-3)
        assert d.epsilon_psd() == pytest.approx(0.25, rel=1e-12)
        assert q.DriveParams(power=12e-3).epsilon_psd() == pytest.approx(0.125)

    def test_zeta_psd_shape(self):
        zm = q.ZetaModel(peaks=((2.0 * np.pi * 208e3, 2.0 * np.pi * 2e3, 120.0),),
                         background=6.0e11)
        w = 2.0 * np.pi * np.array([100e3, 208e3, 300e3])
        psd = zm.psd(w)
        assert np.all(psd > 0)
        assert psd[1] == max(psd)  # peaked at the Lorentzian center
        # background falls as 1/omega^2
        bg = q.ZetaModel(background=6.0e11)
        ratio = bg.psd(w[0]) / bg.psd(w[2])
        assert ratio == pytest.approx((300.0 / 100.0) ** 2, rel=1e-9)

    def test_vacuum_only_switches_everything_off(self, system):
        v = system.vacuum_only()
        assert v.drive.power == 0.0
        assert v.mech.temperature == 0.0
        # only the zero-point force remains, and G = 0 keeps it out of
        # every output anyway
        assert v.xi_psd(2.0 * np.pi * 168e3) == pytest.approx(v.mech.gamma_m)
        assert v.zeta.psd(2.0 * np.pi * 168e3) == 0.0


class TestConfigHash:
    def test_stable_and_sensitive(self, system):
        assert system.config_hash() == system.config_hash()
        other = q.reference_defaults(power_w=37e-3)
        assert system.config_hash() != other.config_hash()
