"""Parameter recovery: self-consistency, noise robustness, degeneracy guard."""

import dataclasses
import re

import numpy as np
import pytest

import qndlab as q
from qndlab import fitting, theory
from qndlab.errors import ConfigError, ModelError, StatisticsError

TWO_PI = 2.0 * np.pi
PAIR = r"must be a \(lo, hi\) pair"


def _signal_spectrum(system, f):
    model = theory.SpectrumModel(system, TWO_PI * np.asarray(f, dtype=float))
    return model.quadrature_spectrum("signal", model.phi_s)


class TestProblemValidation:
    def _args(self, system):
        f = np.linspace(150e3, 190e3, 50)
        s = _signal_spectrum(system, f)
        return f, s, 0.02 * s

    def test_no_free_params(self, system):
        f, s, e = self._args(system)
        with pytest.raises(ConfigError):
            fitting.FitProblem(system, f, s, e, {})

    def test_unknown_free_param(self, system):
        f, s, e = self._args(system)
        with pytest.raises(ConfigError):
            fitting.FitProblem(system, f, s, e, {"mass": (0.0, 1.0)})

    @pytest.mark.parametrize(
        "free_params, message",
        [
            # the name is checked before its bounds
            ({"bogus": ()}, "free_params: unknown parameter 'bogus', expected one of "
             "detuning, phi_s, zeta_background"),
            ({"phi_s": (0.0,)}, PAIR),
            ({"phi_s": (-0.1, 0.0, 0.1)}, PAIR),
            ({"phi_s": 0.1}, PAIR),
            ({"phi_s": ("lo", "hi")}, PAIR),
        ],
        ids=["unknown-empty", "one-value", "three-values", "scalar", "not-numbers"],
    )
    def test_malformed_bounds_are_config_errors(self, system, free_params, message):
        f, s, e = self._args(system)
        with pytest.raises(ConfigError, match=message):
            fitting.FitProblem(system, f, s, e, free_params)

    def test_unordered_bounds(self, system):
        f, s, e = self._args(system)
        with pytest.raises(ConfigError):
            fitting.FitProblem(system, f, s, e, {"phi_s": (0.1, -0.1)})

    def test_all_zero_stderr(self, system):
        f, s, e = self._args(system)
        with pytest.raises(StatisticsError, match="all stderr are zero"):
            fitting.FitProblem(system, f, s, np.zeros_like(e), {"phi_s": (-0.1, 0.1)})

    @pytest.mark.parametrize(
        "name, bounds",
        [("zeta_background", ("1e10", "1e13")), ("phi_s", ("-0.06", "-0.005"))],
    )
    def test_bounds_are_stored_as_checked_floats(self, system, name, bounds):
        # number strings pass the float checks; the fit then reads floats
        f, s, e = self._args(system)
        prob = fitting.FitProblem(system, f, s, e, {name: bounds}, n_multistarts=1)
        lo, hi = prob.free_params[name]
        assert (lo, hi) == tuple(float(v) for v in bounds)
        assert type(lo) is float and type(hi) is float
        r = fitting.fit(prob)
        assert lo <= r.params[name] <= hi

    def test_band_excludes_everything(self, system):
        f, s, e = self._args(system)
        with pytest.raises(ConfigError, match="excludes every target point"):
            fitting.FitProblem(
                system, f, s, e, {"phi_s": (-0.1, 0.1)}, band=(1e6, 2e6)
            )


class TestRecovery:
    def test_noiseless_self_consistency(self, system):
        kappa = system.cavity.kappa
        f = np.linspace(145e3, 195e3, 400)
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s,
            {"detuning": (-0.03 * kappa, -0.005 * kappa), "phi_s": (-0.05, 0.0)},
            n_multistarts=6, seed=1,
        )
        r = fitting.fit(prob)
        assert abs(r.params["detuning"] - system.cavity.detuning) < 1e-4 * kappa
        assert abs(r.params["phi_s"] - (-24e-3)) < 0.1e-3
        assert not r.degenerate

    def test_three_parameter_recovery(self, system):
        kappa = system.cavity.kappa
        bg = system.zeta.background
        f = np.linspace(145e3, 195e3, 400)
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s,
            {
                "detuning": (-0.03 * kappa, -0.005 * kappa),
                "phi_s": (-0.05, 0.0),
                "zeta_background": (0.2 * bg, 5.0 * bg),
            },
            n_multistarts=8, seed=2,
        )
        r = fitting.fit(prob)
        assert abs(r.params["detuning"] - system.cavity.detuning) < 1e-3 * kappa
        assert abs(r.params["phi_s"] - (-24e-3)) < 0.3e-3
        assert r.params["zeta_background"] == pytest.approx(bg, rel=0.05)

    def test_noisy_recovery(self, system):
        kappa = system.cavity.kappa
        f = np.linspace(145e3, 195e3, 250)
        s = _signal_spectrum(system, f)
        rng = np.random.default_rng(3)
        for rep in range(4):
            err = s / np.sqrt(64.0)
            noisy = s * (1.0 + rng.standard_normal(len(f)) / np.sqrt(64.0))
            prob = fitting.FitProblem(
                system, f, np.abs(noisy), err,
                {"detuning": (-0.03 * kappa, -0.005 * kappa),
                 "phi_s": (-0.05, 0.0)},
                n_multistarts=5, seed=rep,
            )
            r = fitting.fit(prob)
            assert abs(r.params["detuning"] - system.cavity.detuning) < 3e-3 * kappa
            assert abs(r.params["phi_s"] - (-24e-3)) < 3e-3


class TestOptimizerProperties:
    def _problem(self, system, seed=0):
        kappa = system.cavity.kappa
        f = np.linspace(150e3, 190e3, 120)
        s = _signal_spectrum(system, f)
        return fitting.FitProblem(
            system, f, s, 0.02 * s,
            {"detuning": (-0.03 * kappa, -0.005 * kappa)},
            n_multistarts=5, seed=seed,
        )

    def test_monotone_improvement(self, system):
        r = fitting.fit(self._problem(system))
        assert r.loss <= min(r.start_losses)

    def test_reproducibility(self, system):
        a = fitting.fit(self._problem(system, seed=7))
        b = fitting.fit(self._problem(system, seed=7))
        assert a.params == b.params
        assert a.loss == b.loss

    def test_degeneracy_flag(self, system):
        # a single bin pins only one value of the phase-sinusoidal
        # spectrum, which two phases per period reproduce exactly
        f = np.array([168.0e3])
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s, {"phi_s": (-1.5, 1.5)},
            band=(160e3, 175e3), n_multistarts=12, seed=4,
        )
        r = fitting.fit(prob)
        assert r.degenerate

    @pytest.mark.parametrize(
        "offset_sigma, flagged",
        [(0.5, True), (np.sqrt(5.0), False)],
        ids=["dchi2-0.25", "dchi2-5"],
    )
    def test_degeneracy_needs_chi2_within_one(self, system, offset_sigma, flagged):
        # the spectrum repeats with period pi in phi_s; an upper bound
        # offset_sigma below the repeat of the best phase leaves a second
        # optimum on that bound, offset_sigma^2 above the best chi^2.  With
        # noisy data chi^2_min is ~3500, so a relative loss rule (within 1 %)
        # would call both near-equal
        f = np.linspace(150e3, 190e3, 120)
        s = _signal_spectrum(system, f)
        target = s * np.exp(0.1 * np.random.default_rng(3).standard_normal(len(f)))
        stderr = 0.02 * target
        chi2_scale = np.sum((target / stderr) ** 2)
        wide = fitting.fit(fitting.FitProblem(
            system, f, target, stderr, {"phi_s": (-1.0, 1.0)}, n_multistarts=5,
        ))
        phi, sigma = wide.params["phi_s"], wide.uncertainty["phi_s"]
        hi = phi + np.pi - offset_sigma * sigma
        chi2_min = wide.loss * chi2_scale
        chi2_edge = chi2_scale * _loss_at(
            fitting.with_params(system, {"phi_s": hi}), f, target, stderr
        )
        assert chi2_edge - chi2_min == pytest.approx(offset_sigma**2, rel=0.1)
        assert chi2_edge - chi2_min < 0.01 * chi2_min
        r = fitting.fit(fitting.FitProblem(
            system, f, target, stderr, {"phi_s": (phi - 1.0, hi)},
            n_multistarts=12,
        ))
        assert r.params["phi_s"] == pytest.approx(phi, abs=sigma)
        assert r.degenerate is flagged

    def test_report_text(self, system):
        r = fitting.fit(self._problem(system))
        text = fitting.fit_report_text(r)
        assert "detuning" in text
        assert "loss" in text
        assert "degenerate" in text


BOUNDS = {
    "detuning": (-0.03, -0.005),  # in kappa
    "phi_s": (-0.05, 0.0),
    "zeta_background": (0.2, 5.0),  # in units of the reference background
}


def _bounds(system, names):
    kappa, bg = system.cavity.kappa, system.zeta.background
    scale = {"detuning": kappa, "phi_s": 1.0, "zeta_background": bg}
    return {n: tuple(v * scale[n] for v in BOUNDS[n]) for n in names}


def _loss_at(system, f, target, stderr):
    w = (target / stderr) ** 2
    w /= w.sum()
    return float(np.sum(w * (np.log(_signal_spectrum(system, f)) - np.log(target)) ** 2))


class TestProfileFit:
    @pytest.mark.parametrize(
        "free, lock",
        [
            (("detuning",), False),
            (("phi_s",), False),
            (("zeta_background",), False),
            (("detuning", "phi_s"), False),
            (("detuning", "zeta_background"), False),
            (("phi_s", "zeta_background"), False),
            # no signal phase: the held phi_s follows each model's lock phase
            (("detuning", "zeta_background"), True),
        ],
        ids=[f"free{i}" for i in range(6)] + ["lock-phase"],
    )
    def test_noiseless_recovery_of_every_subset(self, system, free, lock):
        if lock:
            system = dataclasses.replace(system, signal_phase=None)
        kappa, bg = system.cavity.kappa, system.zeta.background
        moved = {"detuning": -0.02 * kappa, "phi_s": -0.031, "zeta_background": 1.7 * bg}
        truth = fitting.with_params(system, {n: moved[n] for n in free})
        f = np.linspace(145e3, 195e3, 300)
        s = _signal_spectrum(truth, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, free), n_multistarts=4, seed=5
        )
        r = fitting.fit(prob)
        assert sorted(r.params) == sorted(free)
        for name in free:
            assert r.params[name] == pytest.approx(moved[name], rel=1e-6)
            assert np.isfinite(r.uncertainty[name]) and r.uncertainty[name] > 0
        assert r.loss < 1e-16
        assert not r.degenerate

    @pytest.mark.parametrize(
        "free", [("detuning",), ("phi_s",), ("zeta_background",)]
    )
    def test_solve_returns_the_held_values(self, system, free):
        # a parameter that is not free has equal bounds at its held value,
        # which the solve returns bit for bit from any start
        system = dataclasses.replace(system, signal_phase=None)
        f = np.linspace(145e3, 195e3, 100)
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(system, f, s, 0.02 * s, _bounds(system, free))
        weights = np.full(f.size, 1.0 / f.size)
        profile = fitting._Profile(prob, TWO_PI * f, weights, np.log(s))
        bg = system.zeta.background
        for detuning in (-0.01 * system.cavity.kappa, -0.025 * system.cavity.kappa):
            spec = profile.spectrum(detuning)
            phi, b, loss, _, start_loss = profile.solve(spec, -0.04, 3.0 * bg)
            assert np.isfinite(loss) and loss <= start_loss
            if "phi_s" not in free:
                assert phi == spec.phi_s
            if "zeta_background" not in free:
                assert b == bg

    def test_loss_at_or_below_the_truth(self, system):
        names = ("detuning", "phi_s", "zeta_background")
        f = np.linspace(100e3, 190e3, 300)
        rng = np.random.default_rng(8)
        for rep in range(4):
            truth = fitting.with_params(system, {
                "detuning": rng.uniform(-0.022, -0.012) * system.cavity.kappa,
                "phi_s": rng.uniform(-0.035, -0.015),
                "zeta_background": rng.uniform(0.6, 1.6) * system.zeta.background,
            })
            clean = _signal_spectrum(truth, f)
            err = clean / np.sqrt(400.0)
            noisy = np.abs(clean * (1.0 + rng.standard_normal(f.size) / np.sqrt(400.0)))
            prob = fitting.FitProblem(
                system, f, noisy, err, _bounds(system, names),
                band=(100e3, 190e3), n_multistarts=4, seed=rep,
            )
            r = fitting.fit(prob)
            assert r.loss <= _loss_at(truth, f, noisy, err)
            assert r.loss <= min(r.start_losses)

    def test_fisher_sigma_is_calibrated(self, system):
        # test_noisy_recovery's problem, repeated: the pulls (fit - truth)
        # / sigma should scatter with unit standard deviation
        kappa = system.cavity.kappa
        f = np.linspace(145e3, 195e3, 250)
        s = _signal_spectrum(system, f)
        rng = np.random.default_rng(2718)
        pulls = {"detuning": [], "phi_s": []}
        truth = {"detuning": system.cavity.detuning, "phi_s": system.signal_phase}
        corr = []
        for rep in range(30):
            err = s / np.sqrt(64.0)
            noisy = s * (1.0 + rng.standard_normal(len(f)) / np.sqrt(64.0))
            prob = fitting.FitProblem(
                system, f, np.abs(noisy), err,
                {"detuning": (-0.03 * kappa, -0.005 * kappa), "phi_s": (-0.05, 0.0)},
                n_multistarts=5, seed=rep,
            )
            r = fitting.fit(prob)
            for name in pulls:
                pulls[name].append((r.params[name] - truth[name]) / r.uncertainty[name])
            corr.append(r.correlation[("detuning", "phi_s")])
            sigma = r.uncertainty
        for name, values in pulls.items():
            assert 0.7 <= np.std(values, ddof=1) <= 1.4, (name, values)
        # the reported correlation matches the scatter of the fits
        fitted = np.array([pulls["detuning"], pulls["phi_s"]]) * np.array(
            [[sigma["detuning"]], [sigma["phi_s"]]]
        )
        assert np.corrcoef(fitted)[0, 1] == pytest.approx(np.mean(corr), abs=0.2)

    def test_search_brackets_again_past_an_inconsistent_edge(self):
        # the profile loss depends on the path of warm starts, so one
        # evaluation can read high from a worse inner minimum; here the
        # first probe past 1.2 does, and the true minimum lies beyond it
        seen = []

        def fun(x):
            spurious = x > 1.2 and not any(v > 1.2 for _, v in seen)
            seen.append((10.0 if spurious else (x - 2.0) ** 2, x))
            return seen[-1][0]

        assert fitting._minimize_from(fun, 0.0, 4.0, -5.0, 5.0, 0.3, 200)
        assert min(seen)[1] == pytest.approx(2.0, abs=1e-6)

    def test_unresolved_direction_has_infinite_sigma(self, system):
        # one bin cannot pin both phase and background
        f = np.array([168.0e3])
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, ("phi_s", "zeta_background")),
            band=(160e3, 175e3), n_multistarts=3, seed=1,
        )
        r = fitting.fit(prob)
        assert r.uncertainty == {"phi_s": np.inf, "zeta_background": np.inf}
        assert np.isnan(r.correlation[("phi_s", "zeta_background")])

    def test_model_builds_are_counted(self, system):
        f = np.linspace(150e3, 190e3, 120)
        s = _signal_spectrum(system, f)
        fixed = fitting.fit(fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, ("phi_s", "zeta_background")),
            n_multistarts=5, seed=0,
        ))
        # one model serves every start when the detuning is fixed
        assert fixed.n_evals == 1
        free = fitting.fit(fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, ("detuning",)),
            n_multistarts=5, seed=0,
        ))
        assert free.n_evals > 5

    def test_build_budget_is_per_start(self, system, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_EVALS", 3)
        f = np.linspace(150e3, 190e3, 120)
        s = _signal_spectrum(system, f)
        prob = fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, ("detuning",)),
            n_multistarts=3, seed=0,
        )
        with pytest.raises(ModelError, match="no multistart converged"):
            fitting.fit(prob)

    def test_report_lines(self, system):
        f = np.linspace(145e3, 195e3, 200)
        s = _signal_spectrum(system, f)
        names = ("detuning", "phi_s", "zeta_background")
        r = fitting.fit(fitting.FitProblem(
            system, f, s, 0.02 * s, _bounds(system, names), n_multistarts=3, seed=0,
        ))
        text = fitting.fit_report_text(r)
        params = re.findall(r"^(\w+) = (\S+) \+- (\S+)$", text, re.MULTILINE)
        assert [p[0] for p in params] == list(names)
        assert re.search(r"^evaluations = (\d+)$", text, re.MULTILINE)[1] == str(r.n_evals)
        pairs = re.findall(r"^correlation (\w+)/(\w+) = (\S+)$", text, re.MULTILINE)
        assert [(a, b) for a, b, _ in pairs] == sorted(r.correlation)
        for a, b, value in pairs:
            assert -1.0 <= float(value) <= 1.0

    def test_with_params(self, system):
        out = fitting.with_params(
            system, {"detuning": -1.0, "phi_s": 0.5, "zeta_background": 2.0}
        )
        assert out.cavity.detuning == -1.0
        assert out.signal_phase == 0.5
        assert out.zeta.background == 2.0
        assert out.zeta.peaks == system.zeta.peaks
        with pytest.raises(ConfigError):
            fitting.with_params(system, {"mass": 1.0})

    def test_negative_background_bound_rejected(self, system):
        f = np.linspace(150e3, 190e3, 50)
        s = _signal_spectrum(system, f)
        with pytest.raises(ConfigError):
            fitting.FitProblem(system, f, s, 0.02 * s, {"zeta_background": (-1.0, 1.0)})
