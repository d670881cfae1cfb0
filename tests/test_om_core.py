"""Core model oracles: susceptibilities, steady state, transfer coefficients,
detection phases, and the loss/mode-matching transform."""

import dataclasses

import numpy as np
import pytest

import qndlab as q
from qndlab import theory
from qndlab.errors import DomainError

HBAR = 1.0545718176461565e-34
TWO_PI = 2.0 * np.pi


def _state(system):
    return q.steady_state(system.mech, system.cavity, system.effective_drive())


class TestMechSusceptibility:
    mech = q.MechanicalParams(omega_m=1.0, gamma_m=0.005, mass=1.0, temperature=0.0)

    def test_static_limit(self):
        assert q.mech_susceptibility(self.mech, 0.0) == pytest.approx(1.0)

    def test_resonance_purely_imaginary(self):
        chi = q.mech_susceptibility(self.mech, 1.0)
        assert chi == pytest.approx(1j / 0.005, rel=1e-12)
        assert abs(chi) == pytest.approx(1.0 / 0.005, rel=1e-12)

    def test_off_resonance_oracle(self):
        # independent complex arithmetic at omega = 2 omega_m
        expected = 1.0 / (1.0 - 4.0 - 1j * 2.0 * 0.005)
        assert q.mech_susceptibility(self.mech, 2.0) == pytest.approx(expected)


class TestOpticalSusceptibility:
    def test_resonant_limit(self):
        assert q.optical_susceptibility(3.0, 0.0) == pytest.approx(1.0)

    def test_half_power_point(self):
        chi = q.optical_susceptibility(3.0, 3.0)
        assert chi == pytest.approx((1.0 + 1j) / 2.0, rel=1e-12)
        assert abs(chi) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert np.angle(chi) == pytest.approx(np.pi / 4.0, rel=1e-12)


class TestSteadyState:
    def test_resonant_lossless_amplitude(self):
        mech = q.MechanicalParams(1e6, 1.0, 1e-9, 0.0)
        cavity = q.CavityParams(
            kappa1=1e6, kappa2=0.0, length=1e-3, omega_laser=1.77e15, detuning=0.0
        )
        drive = q.DriveParams(power=1e-3)
        st = q.steady_state(mech, cavity, drive)
        assert st.alpha_s.imag == pytest.approx(0.0, abs=1e-9 * abs(st.alpha_s))
        assert st.alpha_s.real == pytest.approx(drive.e0(cavity) / cavity.kappa)

    def test_invariants(self, system):
        st = _state(system)
        assert st.q_s == pytest.approx(
            (st.g0 / system.mech.omega_m) * abs(st.alpha_s) ** 2, rel=1e-12
        )

    def test_reference_photon_number(self, system):
        st = _state(system)
        assert abs(st.alpha_s) ** 2 == pytest.approx(1.8e10, rel=0.10)

    def test_reference_couplings(self, system):
        # the effective coupling is quoted at zero detuning
        resonant = dataclasses.replace(
            system, cavity=dataclasses.replace(system.cavity, detuning=0.0)
        )
        st = _state(resonant)
        assert st.g0 / TWO_PI == pytest.approx(-3.85, rel=0.05)
        assert st.g.real / TWO_PI == pytest.approx(-740e3, rel=0.05)

    def test_self_consistent_bare_detuning(self, system):
        st = _state(system)
        # feeding back the implied bare detuning must reproduce the state
        cavity0 = dataclasses.replace(
            system.cavity, detuning=None, detuning0=st.detuning - st.g0 * st.q_s
        )
        st2 = q.steady_state(system.mech, cavity0, system.effective_drive())
        # the detuning is a small difference of the large spring shift,
        # so the round trip keeps fewer digits than the iteration rtol
        assert st2.detuning == pytest.approx(st.detuning, rel=1e-6)
        assert abs(st2.alpha_s) == pytest.approx(abs(st.alpha_s), rel=1e-9)

    def test_thermal_occupancy_formula(self):
        omega, t_k = TWO_PI * 169334.0, 5.6
        n = q.thermal_occupancy(omega, t_k)
        assert n == pytest.approx(
            1.0 / np.expm1(HBAR * omega / (1.380649e-23 * t_k)), rel=1e-12
        )


class TestEffectiveSusceptibility:
    def test_decoupled_limit(self, system):
        st = _state(system)
        st0 = dataclasses.replace(st, g=0.0)
        w = np.linspace(0.5, 1.5, 101) * system.mech.omega_m
        chi_eff = q.effective_susceptibility(st0, system.cavity, system.mech, w)
        chi = q.mech_susceptibility(system.mech, w)
        np.testing.assert_allclose(chi_eff, chi, rtol=1e-12)

    def test_zero_detuning_limit(self, system):
        st = dataclasses.replace(_state(system), detuning=0.0)
        w = np.linspace(0.5, 1.5, 101) * system.mech.omega_m
        chi_eff = q.effective_susceptibility(st, system.cavity, system.mech, w)
        chi = q.mech_susceptibility(system.mech, w)
        np.testing.assert_allclose(chi_eff, chi, rtol=1e-12)

    def test_weak_coupling_convergence(self, system):
        st = _state(system)
        w = np.linspace(0.9, 1.1, 201) * system.mech.omega_m
        chi = q.mech_susceptibility(system.mech, w)
        prev = None
        # perturbative regime: each half-decade in |G| is a decade in |G|^2
        for scale in np.logspace(-3, -4.5, 4):
            st_g = dataclasses.replace(st, g=st.g * scale)
            chi_eff = q.effective_susceptibility(st_g, system.cavity, system.mech, w)
            dev = np.max(np.abs(chi_eff / chi - 1.0))
            if prev is not None:
                assert dev < prev * 0.1 * 1.5
            prev = dev
        assert prev < 1e-4

    def test_optical_spring_at_larger_detuning(self):
        # shifted-resonance values at the -0.019 kappa working point
        system = q.reference_defaults(detuning_kappa=-0.019)
        st = _state(system)
        f = np.arange(166e3, 169e3, 0.5)
        mag = np.abs(
            q.effective_susceptibility(st, system.cavity, system.mech, TWO_PI * f)
        ) ** 2
        peak = f[np.argmax(mag)]
        assert peak == pytest.approx(167.5e3, abs=200.0)
        half = mag.max() / 2.0
        above = f[mag >= half]
        assert above[-1] - above[0] == pytest.approx(430.0, rel=0.30)

    @pytest.mark.parametrize("detuning_in_kappa", [-0.016, -0.019])
    def test_optical_spring_closed_form(self, detuning_in_kappa):
        # weak-coupling optical spring, Aspelmeyer, Kippenberg & Marquardt,
        # RMP 86, 1391 (2014), Sec. VI, built from the parameters alone so
        # that the drive and coupling chain is checked too.  kappa is the
        # amplitude rate (RMP's kappa/2); only eta_modematch * P enters the
        # cavity mode; RMP's g = g0 sqrt(n) with g0 = (omega_c/L) x_zpf and
        # x_zpf = sqrt(hbar/(2 m omega_m))
        system = q.reference_defaults(detuning_kappa=detuning_in_kappa)
        cav, mech = system.cavity, system.mech
        kappa, delta = cav.kappa, cav.detuning
        w_m, gamma_m = mech.omega_m, mech.gamma_m
        power = system.det.eta_modematch * system.drive.power
        n_cav = (2.0 * cav.kappa1 * power / (HBAR * cav.omega_laser)
                 / (kappa**2 + delta**2))
        g0 = cav.omega_laser / cav.length * np.sqrt(HBAR / (2.0 * mech.mass * w_m))
        g2 = g0**2 * n_cav
        lor_minus = 1.0 / (kappa**2 + (delta - w_m) ** 2)
        lor_plus = 1.0 / (kappa**2 + (delta + w_m) ** 2)
        shift = g2 * ((delta - w_m) * lor_minus + (delta + w_m) * lor_plus)
        gamma_opt = 2.0 * g2 * kappa * (lor_plus - lor_minus)

        f = np.linspace(166e3, 170e3, 40001)
        mag = np.abs(
            q.effective_susceptibility(_state(system), cav, mech, TWO_PI * f)
        ) ** 2
        above = f[mag >= mag.max() / 2.0]
        # the exact resonance sqrt(w_m^2 + 2 w_m shift) sits below w_m + shift
        # by the second-order term shift^2 / (2 w_m); allow twice that
        second_order = shift**2 / (2.0 * w_m)
        assert TWO_PI * f[np.argmax(mag)] == pytest.approx(
            w_m + shift, abs=2.0 * second_order
        )
        # the width's first-order corrections in shift/w_m cancel: for
        # kappa >> w_m, Gamma_opt(omega) grows as omega and the bracket
        # divides it by omega/w_m.  What is left, O((shift/w_m)^2) ~ 1e-4
        # and the 0.1 Hz grid, is far inside 1 %, which still tells the two
        # working points apart (their widths differ by 19 %)
        assert TWO_PI * (above[-1] - above[0]) == pytest.approx(
            gamma_m + gamma_opt, rel=0.01
        )


class TestTransferCoefficients:
    def test_decoupled_cavity(self, system):
        st = dataclasses.replace(_state(system), g=0.0)
        w = np.linspace(-2.0, 2.0, 41) * system.mech.omega_m
        nu = q.transfer_coefficients(st, system.cavity, system.mech, w)
        np.testing.assert_allclose(nu["nu2"], 0.0, atol=1e-30)
        np.testing.assert_allclose(nu["nu4"], 0.0, atol=1e-30)
        np.testing.assert_allclose(nu["nu7"], 0.0, atol=1e-30)
        c = system.cavity
        expect = (c.kappa - 2.0 * c.kappa2 + 1j * (st.detuning + w)) / (
            c.kappa - 1j * (st.detuning + w)
        )
        np.testing.assert_allclose(nu["nu1"], expect, rtol=1e-12)

    def test_lossless_resonant_phase(self):
        mech = q.MechanicalParams(1e6, 1.0, 1e-9, 0.0)
        cavity = q.CavityParams(
            kappa1=1e6, kappa2=0.0, length=1e-3, omega_laser=1.77e15, detuning=0.0
        )
        st = q.CouplingState(g0=-1.0, g=0.0, alpha_s=1.0, q_s=0.0, detuning=0.0)
        w = np.linspace(-3e6, 3e6, 31)
        nu = q.transfer_coefficients(st, cavity, mech, w)
        expect = (cavity.kappa + 1j * w) / (cavity.kappa - 1j * w)
        np.testing.assert_allclose(nu["nu1"], expect, rtol=1e-12)
        np.testing.assert_allclose(np.abs(nu["nu1"]), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            np.angle(nu["nu1"]),
            2.0 * np.angle(q.optical_susceptibility(cavity.kappa, w)),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_lossless_vacuum_unitarity(self, system):
        # kappa2 = 0: nu1, nu2 alone preserve the vacuum quadrature level
        cavity = dataclasses.replace(system.cavity, kappa2=0.0)
        lossless = dataclasses.replace(
            system.vacuum_only(),
            cavity=cavity,
            det=dataclasses.replace(system.det, eta_meter=1.0, eta_signal=1.0,
                                    eta_modematch=1.0),
        )
        w = np.linspace(0.5, 1.5, 1000) * system.mech.omega_m
        model = theory.SpectrumModel(lossless, w)
        for phi in (0.0, 0.7, np.pi / 2):
            s = model.quadrature_spectrum("signal", phi)
            np.testing.assert_allclose(s, 1.0, rtol=1e-9)

    def test_coupling_sign_unobservable(self, system):
        # nu7 flips sign with G, but spectra only see squared moduli and
        # same-channel cross products, which are invariant
        st = _state(system)
        flipped = dataclasses.replace(st, g0=-st.g0, g=-st.g)
        w = np.linspace(0.9, 1.1, 64) * system.mech.omega_m
        pa = q.output_port_coefficients(system, w, st)
        pb = q.output_port_coefficients(system, w, flipped)
        for port in ("meter", "signal"):
            for ch in pa[port].a:
                np.testing.assert_allclose(
                    np.abs(pa[port].a[ch]) ** 2, np.abs(pb[port].a[ch]) ** 2,
                    rtol=1e-12, atol=1e-300,
                )
            for ch in pa[port].b:
                np.testing.assert_allclose(
                    np.abs(pa[port].b[ch]) ** 2, np.abs(pb[port].b[ch]) ** 2,
                    rtol=1e-12, atol=1e-300,
                )
        for ch in pa["meter"].a:
            np.testing.assert_allclose(
                pa["meter"].a[ch] * np.conj(pa["signal"].a[ch]),
                pb["meter"].a[ch] * np.conj(pb["signal"].a[ch]),
                rtol=1e-12, atol=1e-300,
            )

    def test_pure_function(self, system):
        st = _state(system)
        w = np.linspace(0.9, 1.1, 16) * system.mech.omega_m
        a = q.transfer_coefficients(st, system.cavity, system.mech, w)
        b = q.transfer_coefficients(st, system.cavity, system.mech, w)
        for key in a:
            assert np.array_equal(a[key], b[key])


class TestMeanReflectedField:
    def test_full_reflection(self):
        cavity = q.CavityParams(
            kappa1=1e6, kappa2=0.0, length=1e-3, omega_laser=1.77e15, detuning=0.0
        )
        drive = q.DriveParams(power=1e-3)
        st = q.CouplingState(g0=0.0, g=0.0, alpha_s=1.0, q_s=0.0, detuning=0.0)
        e_r = q.mean_reflected_field(st, cavity, drive)
        assert e_r == pytest.approx(np.sqrt(drive.power / (HBAR * cavity.omega_laser)))

    def test_critical_coupling(self):
        cavity = q.CavityParams(
            kappa1=0.5e6, kappa2=0.5e6, length=1e-3, omega_laser=1.77e15, detuning=0.0
        )
        drive = q.DriveParams(power=1e-3)
        st = q.CouplingState(g0=0.0, g=0.0, alpha_s=1.0, q_s=0.0, detuning=0.0)
        assert abs(q.mean_reflected_field(st, cavity, drive)) < 1e-12

    def test_reference_depth_oracle(self, system):
        st = _state(system)
        c = system.cavity
        e_r = q.mean_reflected_field(st, c, system.drive)
        expect = np.sqrt(system.drive.power / (HBAR * c.omega_laser)) * (
            (c.kappa - 2.0 * c.kappa2 + 1j * st.detuning) / (c.kappa - 1j * st.detuning)
        )
        assert e_r == pytest.approx(expect, rel=1e-12)


class TestQuadraturePhases:
    def test_resonant_zero_lock(self, system):
        st = dataclasses.replace(_state(system), detuning=0.0)
        det = dataclasses.replace(system.det, phi0=0.0)
        phi_r, phi_m, phi_s = q.quadrature_phases(st, system.cavity, det)
        assert phi_r == pytest.approx(0.0, abs=1e-15)
        assert phi_m == pytest.approx(np.pi / 2.0, abs=1e-15)
        assert phi_s == pytest.approx(0.0, abs=1e-15)

    def test_meter_phase_offset_exact(self, system):
        st = _state(system)
        phi_r, phi_m, _ = q.quadrature_phases(st, system.cavity, system.det)
        assert phi_m == phi_r + np.pi / 2.0

    def test_reference_arm_removed(self, system):
        st = _state(system)
        det = dataclasses.replace(system.det, p_reference_arm=1e-30, phi0=0.3)
        phi_r, _, phi_s = q.quadrature_phases(st, system.cavity, det)
        assert phi_s == pytest.approx(phi_r, abs=1e-10)

    def test_tuning_range_and_target(self, system):
        st = _state(system)
        span = q.signal_phase_tuning_range(system.det)
        assert 5e-3 < span < 20e-3  # roughly +-10 mrad
        phi_r, _, _ = q.quadrature_phases(st, system.cavity, system.det)
        assert abs(-24e-3 - phi_r) <= span  # the working point is reachable
        phi0 = q.lock_phase_for_signal_phase(st, system.cavity, system.det, -24e-3)
        det = dataclasses.replace(system.det, phi0=phi0)
        _, _, phi_s = q.quadrature_phases(st, system.cavity, det)
        assert phi_s == pytest.approx(-24e-3, abs=1e-9)

    def test_tuning_range_reaches_arctan(self, system):
        # lock phases in (-pi/2, pi/2) reach arctan(1/sqrt(R)), 12.821 mrad
        # at R = 6083, past the 12.659 mrad of arcsin(1/(sqrt(R) + 1))
        st = _state(system)
        det = system.det
        root_ratio = np.sqrt(det.p_cavity_arm / det.p_reference_arm)
        span = q.signal_phase_tuning_range(det)
        assert span == pytest.approx(np.arctan(1.0 / root_ratio), rel=1e-15)
        assert span == pytest.approx(12.821e-3, abs=1e-6)
        phi_r, _, _ = q.quadrature_phases(st, system.cavity, det)
        target = phi_r + 1.01 * np.arcsin(1.0 / (root_ratio + 1.0))
        phi0 = q.lock_phase_for_signal_phase(st, system.cavity, det, target)
        assert -np.pi / 2 < phi0 < np.pi / 2
        trial = dataclasses.replace(det, phi0=phi0)
        assert q.quadrature_phases(st, system.cavity, trial)[2] == pytest.approx(
            target, abs=1e-15
        )
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError):
                q.lock_phase_for_signal_phase(
                    st, system.cavity, det, phi_r + sign * 1.001 * span
                )
        dark_cavity_arm = dataclasses.replace(det, p_cavity_arm=0.0)
        assert q.signal_phase_tuning_range(dark_cavity_arm) == np.pi / 2

    @pytest.mark.parametrize("p_cavity_arm", [0.0, 0.3, 1.0, 4.0])
    def test_lock_phase_matches_root_search(self, system, p_cavity_arm):
        from scipy.optimize import brentq

        st = _state(system)
        det = dataclasses.replace(system.det, p_cavity_arm=p_cavity_arm)
        phi_r, _, _ = q.quadrature_phases(st, system.cavity, det)
        span = q.signal_phase_tuning_range(det)
        for target in phi_r + span * np.linspace(-0.999, 0.999, 9):
            def miss(phi0):
                trial = dataclasses.replace(det, phi0=phi0)
                return q.quadrature_phases(st, system.cavity, trial)[2] - target

            ref = brentq(miss, -np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, xtol=1e-14)
            phi0 = q.lock_phase_for_signal_phase(st, system.cavity, det, target)
            assert phi0 == pytest.approx(ref, abs=1e-12)
            assert miss(phi0) == pytest.approx(0.0, abs=1e-14)

    def test_dark_reference_arm_lock_phase(self, system):
        # every lock phase gives phi_r, so the answer is the neutral one
        st = _state(system)
        det = dataclasses.replace(system.det, p_reference_arm=0.0)
        phi_r, _, _ = q.quadrature_phases(st, system.cavity, det)
        assert q.lock_phase_for_signal_phase(st, system.cavity, det, phi_r) == 0.0
        with pytest.raises(DomainError):
            q.lock_phase_for_signal_phase(st, system.cavity, det, phi_r + 1e-6)

    def test_unreachable_target_raises(self, system):
        st = _state(system)
        with pytest.raises(DomainError):
            q.lock_phase_for_signal_phase(st, system.cavity, system.det, 1.0)


class TestLossesAndModeMatching:
    def test_ideal_efficiencies_reduce_to_bare(self, system):
        st = _state(system)
        w = np.linspace(0.9, 1.1, 16) * system.mech.omega_m
        nu = q.transfer_coefficients(st, system.cavity, system.mech, w)
        det = dataclasses.replace(
            system.det, eta_meter=1.0, eta_signal=1.0, eta_modematch=1.0
        )
        ports = q.apply_losses_and_modematch(nu, det)
        for port in ("meter", "signal"):
            p = ports[port]
            np.testing.assert_allclose(p.a["a1"], nu["nu1"], rtol=1e-12)
            np.testing.assert_allclose(p.b["a1"], nu["nu2"], rtol=1e-12)
            np.testing.assert_allclose(p.a["a2"], nu["nu3"], rtol=1e-12)
            np.testing.assert_allclose(p.b["a2"], nu["nu4"], rtol=1e-12)
            np.testing.assert_allclose(p.a["zeta"], nu["nu5"], rtol=1e-12)
            np.testing.assert_allclose(p.a["eps"], nu["nu6"], rtol=1e-12)
            np.testing.assert_allclose(p.a["xi"], nu["nu7"], rtol=1e-12)
            np.testing.assert_allclose(p.a["a5"], 0.0, atol=1e-12)

    def test_dark_signal_port(self, system):
        st = _state(system)
        w = np.linspace(0.9, 1.1, 8) * system.mech.omega_m
        nu = q.transfer_coefficients(st, system.cavity, system.mech, w)
        det = dataclasses.replace(system.det, eta_signal=0.0)
        p = q.apply_losses_and_modematch(nu, det)["signal"]
        np.testing.assert_allclose(p.a["a4"], 1.0, rtol=1e-12)
        for ch, arr in p.a.items():
            if ch != "a4":
                np.testing.assert_allclose(arr, 0.0, atol=1e-12)
        for arr in p.b.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_passivity_with_reference_losses(self, system):
        # eta_s = 0.69, eta_mm = 0.90: vacuum in, vacuum out
        w = np.linspace(0.5, 1.5, 400) * system.mech.omega_m
        model = theory.SpectrumModel(system.vacuum_only(), w)
        for port, phi in (("signal", 0.0), ("signal", 1.1), ("meter", 0.4)):
            s = model.quadrature_spectrum(port, phi)
            np.testing.assert_allclose(s, 1.0, rtol=1e-9)
