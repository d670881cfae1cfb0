"""Analytic spectra: simplified single-oscillator model, full two-port model,
coherence, residual uncertainty, and per-source noise budgets."""

import dataclasses

import numpy as np
import pytest

import qndlab as q
from qndlab import theory
from qndlab.errors import ConfigError, StatisticsError
from qndlab.om_core import SOURCE_GROUPS

TWO_PI = 2.0 * np.pi

FIG_PARAMS = dict(omega_m=1.0, gamma_m=0.005, gamma_ba=1.0, gamma_th=0.5, r_param=0.0)


def _meter_phase(system, model):
    return q.quadrature_phases(model.state, system.cavity, system.det)[1]


class TestSimpleModel:
    def test_cooperativity_consistency(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS, kappa=3.0)
        w = np.linspace(0.5, 1.5, 11)
        c = sp.cooperativity(w)
        expect = sp.gamma_ba * np.abs(sp.chi_opt(w)) ** 2 / sp.gamma_th
        np.testing.assert_allclose(c, expect, rtol=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigError):
            theory.SimpleModelParams(1.0, 0.005, 1.0, 0.5, r_param=-1.0)

    def test_displacement_no_backaction(self):
        sp = theory.SimpleModelParams(1.0, 0.005, 0.0, 0.5, 0.0)
        w = np.linspace(0.5, 1.5, 101)
        s = theory.displacement_spectrum(sp, w)
        np.testing.assert_allclose(s, 4.0 * 0.5 * np.abs(sp.chi(w)) ** 2, rtol=1e-12)
        # resonance value 4*Gamma_th/gamma_m^2
        assert theory.displacement_spectrum(sp, 1.0) == pytest.approx(
            4.0 * 0.5 / 0.005**2, rel=1e-12
        )

    def test_displacement_reference_point(self):
        # hand evaluation of S_qth + |4 chi chi_opt|^2 Gamma_BA at omega_m
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        chi = 1.0 / (0.0 - 1j * 0.005)  # chi(omega_m) by hand, chi_opt = 1
        expect = 4.0 * 0.5 * abs(chi) ** 2 + abs(4.0 * chi) ** 2 * 1.0
        assert theory.displacement_spectrum(sp, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_readout_models_coincide_on_resonance(self):
        # on resonance 2 Im chi = 2 |chi| = 2/gamma_m
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        assert theory.readout_noise_spectrum(sp, 1.0) == pytest.approx(
            2.0 / 0.005, rel=1e-9
        )

    def test_quantum_limit_static(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        assert theory.readout_noise_spectrum(sp, 1e-6) == pytest.approx(0.0, abs=1e-5)

    def test_residual_no_cooperativity(self):
        sp = theory.SimpleModelParams(1.0, 0.005, 0.0, 0.5, 0.0)
        w = np.linspace(0.5, 1.5, 51)
        np.testing.assert_allclose(theory.simple_residual_spectrum(sp, w), 1.0)

    def test_residual_reference_point(self):
        # C = Gamma_BA/Gamma_th = 2, R = gamma_m/omega_m = 0.005
        sp = theory.SimpleModelParams(1.0, 0.005, 1.0, 0.5, r_param=0.005)
        got = theory.simple_residual_spectrum(sp, 1.0)
        assert got == pytest.approx(1.0 / (1.0 + 2.0 / 1.005), abs=1e-6)
        assert got == pytest.approx(0.33444, abs=1e-5)

    def test_residual_useless_readout(self):
        sp = theory.SimpleModelParams(1.0, 0.005, 1.0, 0.5, r_param=1e12)
        assert theory.simple_residual_spectrum(sp, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_min_quadrature_on_resonance(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        assert theory.min_quadrature_spectrum(sp, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_min_quadrature_real_susceptibility(self):
        sp = theory.SimpleModelParams(1.0, 0.005, 1.0, 0.5, 0.0)  # C = 2
        assert theory.min_quadrature_spectrum(sp, 1e-6) == pytest.approx(
            1.0 / 3.0, rel=1e-4
        )

    def test_min_quadrature_shape(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        w = np.linspace(0.8, 1.2, 2001)
        s = theory.min_quadrature_spectrum(sp, w)
        assert s.min() < 0.5  # squeezes beside resonance
        assert s[np.argmin(np.abs(w - 1.0))] == pytest.approx(1.0, rel=1e-6)

    def test_fixed_phase_zero(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        w = np.linspace(0.8, 1.2, 101)
        np.testing.assert_allclose(
            theory.fixed_phase_output_spectrum(sp, 0.0, w), 1.0, rtol=1e-12
        )

    def test_fixed_phase_quadrature(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        w = np.linspace(0.8, 1.2, 2001)
        s = theory.fixed_phase_output_spectrum(sp, np.pi / 2.0, w)
        assert np.all(s >= 1.0 - 1e-12)
        assert abs(w[np.argmax(s)] - 1.0) < 0.01  # peaked at resonance

    def test_fixed_phase_small_angle_one_sided_dip(self):
        sp = theory.SimpleModelParams(**FIG_PARAMS)
        w = np.linspace(0.8, 1.2, 4001)
        s = theory.fixed_phase_output_spectrum(sp, 0.002, w)
        below = s < 1.0
        assert below.any()
        low, high = below[w < 1.0], below[w > 1.0]
        assert low.any() != high.any()  # dips on exactly one side


class TestFullModel:
    def test_vacuum_only_unit_spectra(self, system):
        w = theory.default_omega_grid(system, n_points=512)
        model = theory.SpectrumModel(system.vacuum_only(), w)
        for port in ("signal", "meter"):
            for phi in (0.0, 0.5, 1.3):
                np.testing.assert_allclose(
                    model.quadrature_spectrum(port, phi), 1.0, rtol=1e-9
                )

    def test_decoupled_resonant_ports(self, system):
        # classical noises off, eta = 1, G = 0, zero detuning: unit
        # auto-spectra and vanishing cross-spectrum (phases 0 and pi/2)
        cavity = dataclasses.replace(system.cavity, detuning=0.0)
        det = dataclasses.replace(
            system.det, eta_meter=1.0, eta_signal=1.0, eta_modematch=1.0, phi0=0.0
        )
        sys_v = dataclasses.replace(
            system.vacuum_only(), cavity=cavity, det=det, signal_phase=None
        )
        w = np.linspace(0.5, 1.5, 301) * system.mech.omega_m
        model = theory.SpectrumModel(sys_v, w)
        assert abs(model.state.g) < 1e-6  # power off implies G = 0
        s_xs = model.quadrature_spectrum("signal", 0.0)
        s_ym = model.quadrature_spectrum("meter", np.pi / 2.0)
        s_xy = model.cross_spectrum(phi_s=0.0, phi_m=np.pi / 2.0)
        np.testing.assert_allclose(s_xs, 1.0, rtol=1e-9)
        np.testing.assert_allclose(s_ym, 1.0, rtol=1e-9)
        # the correlated (ponderomotive) part is driven by G only
        assert np.max(np.abs(s_xy)) < 2e-2

    def test_reference_fano_above_sql(self, system):
        w = theory.default_omega_grid(system)
        f = w / TWO_PI
        model = theory.SpectrumModel(system, w)
        s_xs = model.quadrature_spectrum("signal", model.phi_s)
        assert np.all(s_xs >= 1.0)  # never below shot noise at this phase
        peak = f[np.argmax(s_xs)]
        assert peak == pytest.approx(167.8e3, abs=500.0)
        # Fano asymmetry: compare shoulders one kilohertz either side
        left = s_xs[np.argmin(np.abs(f - (peak - 1e3)))]
        right = s_xs[np.argmin(np.abs(f - (peak + 1e3)))]
        assert not np.isclose(left, right, rtol=0.2)

    def test_squeezing_at_larger_detuning(self):
        system = q.reference_defaults(detuning_kappa=-0.019, signal_phase_rad=-41.5e-3)
        w = theory.default_omega_grid(system)
        model = theory.SpectrumModel(system, w)
        s_xs = model.quadrature_spectrum("signal", model.phi_s)
        below = s_xs < 1.0
        assert below.any()
        f = w[below] / TWO_PI
        assert f.max() - f.min() < 2e3  # a finite band near resonance
        assert s_xs.min() < 0.98

    def test_coherence_trivial_cases(self):
        s = np.ones(8)
        np.testing.assert_allclose(theory.coherence(s, s, np.zeros(8)), 0.0)
        x = np.linspace(1.0, 2.0, 8)
        np.testing.assert_allclose(
            theory.coherence(x, 4.0 * x, 2.0 * x.astype(complex)), 1.0, rtol=1e-12
        )
        with pytest.raises(StatisticsError, match="auto-spectra must be positive"):
            theory.coherence(np.zeros(8), s, np.zeros(8))

    def test_residual_trivial_cases(self):
        s = np.linspace(1.0, 3.0, 8)
        np.testing.assert_allclose(
            theory.residual_spectrum_theory(s, np.zeros(8)), s
        )
        np.testing.assert_allclose(
            theory.residual_spectrum_theory(s, np.ones(8)), 0.0
        )
        with pytest.raises(ConfigError):
            theory.residual_spectrum_theory(s, 2.0 * np.ones(8))

    def test_reference_msc_and_residual_band(self, system):
        w = theory.default_omega_grid(system)
        f = w / TWO_PI
        model = theory.SpectrumModel(system, w)
        s_xs = model.quadrature_spectrum("signal", model.phi_s)
        s_ym = model.quadrature_spectrum("meter", _meter_phase(system, model))
        msc = theory.coherence(s_xs, s_ym, model.cross_spectrum())
        assert np.all((msc >= 0.0) & (msc <= 1.0))
        assert msc[np.argmax(s_xs)] > 0.95  # near unity around the peak
        res = theory.residual_spectrum_theory(s_xs, msc)
        assert np.all(res >= 0.0)
        assert np.all(res <= s_xs + 1e-12)
        # sub-SQL region: main lobe on the high-frequency side of the peak
        peak = f[np.argmax(s_xs)]
        below = f[(res < 1.0) & (f > peak)]
        assert below.size > 0
        width = below.max() - below.min()
        assert 0.5e3 < width < 3e3  # of order 1.5 kHz

    def test_residual_spectra_is_the_hand_recipe(self, system):
        w = theory.default_omega_grid(system, n_points=512)
        squeeze = q.reference_defaults(detuning_kappa=-0.019, signal_phase_rad=-41.5e-3)
        for sys_ in (system, system.vacuum_only(), squeeze):
            model = theory.SpectrumModel(sys_, w)
            s_xs = model.quadrature_spectrum("signal", model.phi_s)
            s_ym = model.quadrature_spectrum("meter", _meter_phase(sys_, model))
            s_xy = model.cross_spectrum()
            msc = theory.coherence(s_xs, s_ym, s_xy)
            expect = (s_xs, s_ym, s_xy, msc, theory.residual_spectrum_theory(s_xs, msc))
            got = model.residual_spectra()
            assert len(got) == len(expect)
            for g, e in zip(got, expect):
                assert np.array_equal(g, e)

    def test_cross_spectrum_hermitian_symmetry(self, system):
        w = np.linspace(0.9, 1.1, 64) * system.mech.omega_m
        model_pos = theory.SpectrumModel(system, w)
        model_neg = theory.SpectrumModel(system, -w)
        np.testing.assert_allclose(
            model_neg.cross_spectrum(),
            np.conj(model_pos.cross_spectrum()),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("port", ["signal", "meter"])
    @pytest.mark.parametrize("channel", ["eps", "zeta", "xi"])
    def test_classical_coefficients_are_conjugate(self, system, port, channel):
        # a real input is its own conjugate, so u(-omega) = conj(u(omega))
        model = theory.SpectrumModel(system, TWO_PI * np.linspace(100e3, 220e3, 257))
        for phi in (model.phi_s, model.phi_m, 0.7):
            u_pos, u_neg = model.coefficients(port, channel, phi)
            assert np.array_equal(u_neg, np.conj(u_pos))

    def test_cross_spectrum_additive_over_sources(self, system):
        model = theory.SpectrumModel(system, TWO_PI * np.linspace(100e3, 220e3, 257))
        for phi_s, phi_m in ((None, None), (0.1, 1.2)):
            parts = sum(
                model.cross_spectrum(phi_s, phi_m, sources=(source,))
                for source in theory.ALL_SOURCES
            )
            total = model.cross_spectrum(phi_s, phi_m)
            np.testing.assert_allclose(parts, total, rtol=1e-12)

    @pytest.mark.parametrize("port", ["signal", "meter"])
    def test_phase_harmonics_match_quadrature_spectrum(self, system, port):
        w = TWO_PI * np.linspace(100e3, 195e3, 300)
        for detuning in (-0.012, -0.016, -0.025):
            for background in (6e11, 2e12):
                sys_t = dataclasses.replace(
                    system,
                    cavity=dataclasses.replace(
                        system.cavity, detuning=detuning * system.cavity.kappa
                    ),
                    zeta=dataclasses.replace(system.zeta, background=background),
                )
                model = theory.SpectrumModel(sys_t, w)
                a0, a2, b0, b2 = model.phase_harmonics(port)
                for phi in (-0.03, 0.4, 1.2):
                    rot = np.exp(-2j * phi)
                    got = a0 + (a2 * rot).real + background * (b0 + (b2 * rot).real)
                    np.testing.assert_allclose(
                        got, model.quadrature_spectrum(port, phi), rtol=1e-10
                    )

    def test_zeta_background_shape(self, system):
        w = TWO_PI * np.array([0.0, 1e-3, 20e3, 169e3, 208e3])
        zeta = system.zeta
        peaks = dataclasses.replace(zeta, background=0.0)
        np.testing.assert_allclose(
            zeta.psd(w),
            peaks.psd(w) + zeta.background * zeta.background_shape(w),
            rtol=1e-15,
        )
        # the 1/omega^2 tail is capped below 1 rad/s
        assert zeta.background_shape(0.0) == 1.0

    def test_simplified_full_consistency(self, system):
        """Full-model residual vs the simplified closed form.

        Configuration mapping: kappa2 = 0, zero detuning, unit
        efficiencies, classical laser noises off; then
        Gamma_BA = |G|^2/(2 kappa), Gamma_th = gamma_m (n_T + 1/2), and
        the constant quantum-limit readout parameter R is replaced by the
        meter channel's actual imprecision, R(omega) = (meter shot) /
        (thermal content transduced into the meter).
        """
        cavity = dataclasses.replace(
            system.cavity, kappa1=system.cavity.kappa, kappa2=0.0, detuning=0.0
        )
        det = dataclasses.replace(
            system.det, eta_meter=1.0, eta_signal=1.0, eta_modematch=1.0, phi0=0.0
        )
        sys_c = dataclasses.replace(
            system,
            cavity=cavity,
            det=det,
            zeta=q.ZetaModel(),
            signal_phase=None,
            drive=dataclasses.replace(system.drive, s_epsilon=0.0),
        )
        w = np.linspace(0.5, 1.5, 301) * system.mech.omega_m
        model = theory.SpectrumModel(sys_c, w)
        s_xs = model.quadrature_spectrum("signal", 0.0)
        s_ym = model.quadrature_spectrum("meter", np.pi / 2.0)
        msc = theory.coherence(s_xs, s_ym, model.cross_spectrum())
        res_full = theory.residual_spectrum_theory(s_xs, msc)

        n_t = q.thermal_occupancy(sys_c.mech.omega_m, sys_c.mech.temperature)
        gamma_ba = abs(model.state.g) ** 2 / (2.0 * cavity.kappa)
        gamma_th = sys_c.mech.gamma_m * (n_t + 0.5)
        sp = theory.SimpleModelParams(
            sys_c.mech.omega_m, sys_c.mech.gamma_m, gamma_ba, gamma_th, 0.0,
            kappa=cavity.kappa,
        )
        # the thermal group is the xi channel alone
        r_actual = 1.0 / model.quadrature_spectrum("meter", np.pi / 2.0, ("thermal",))
        res_simple = 1.0 / (1.0 + sp.cooperativity(w) / (1.0 + r_actual))
        np.testing.assert_allclose(res_simple, res_full, rtol=0.05)


class TestNoiseBudget:
    def test_additivity(self, system):
        w = theory.default_omega_grid(system, n_points=4096)
        for sys_ in (system, system.vacuum_only()):
            model = theory.SpectrumModel(sys_, w)
            for port, phi in (("signal", model.phi_s), ("meter", model.phi_m)):
                budget = theory.noise_budget(sys_, port, w)
                for source, channels in SOURCE_GROUPS.items():
                    # each group is the sum of the contributions of its
                    # channels that reach the port, added in order, bit for
                    # bit; a channel's is 0.5 (|u+|^2 + |u-|^2) psd, with a
                    # scalar coefficient broadcast over the grid first
                    part = np.zeros_like(model.omega)
                    for ch in channels:
                        if ch in model.channels[port]:
                            u_pos, u_neg = (
                                np.full(model.omega.shape, u)
                                for u in model.coefficients(port, ch, phi)
                            )
                            part += (
                                0.5 * (np.abs(u_pos) ** 2 + np.abs(u_neg) ** 2)
                                * model.psd[ch]
                            )
                    assert np.array_equal(budget.contributions[source], part), (
                        port, source,
                    )
                total = sum(budget.contributions.values())
                assert np.array_equal(total, budget.total), port

    def test_inactive_sources_are_zero(self, system):
        w = theory.default_omega_grid(system, n_points=128)
        budget = theory.noise_budget(system.vacuum_only(), "signal", w)
        np.testing.assert_allclose(budget.contributions["thermal"], 0.0, atol=1e-12)
        np.testing.assert_allclose(
            budget.contributions["cavity_phase"], 0.0, atol=1e-12
        )

    def test_zeta_cancellation_near_bare_frequency(self):
        system = q.reference_defaults(detuning_kappa=-0.019, signal_phase_rad=-41.5e-3)
        f = np.arange(168.3e3, 170.3e3, 20.0)
        budget = theory.noise_budget(system, "signal", TWO_PI * f)
        zeta = budget.contributions["cavity_phase"]
        i = np.argmin(zeta)
        assert 0 < i < len(f) - 1  # an interior local minimum
        assert abs(f[i] - system.mech.omega_m / TWO_PI) < 500.0
