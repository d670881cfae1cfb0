"""Recover working-point parameters from a noisy spectrum.

Generates a signal-quadrature spectrum at a perturbed detuning and signal
phase, adds realistic estimation noise, and fits (detuning, phi_s) back
out: a multistart Brent search over detuning with the signal phase solved
at each detuning, and Fisher uncertainties.
"""

from dataclasses import replace

import numpy as np

import qndlab as q
from qndlab import fitting, theory

rng = np.random.default_rng(5)
system = q.reference_defaults()
kappa = system.cavity.kappa

true_detuning = -0.018 * kappa
true_phi_s = -30e-3
perturbed = replace(system, cavity=replace(system.cavity, detuning=true_detuning),
                    signal_phase=true_phi_s)

freq = np.linspace(150e3, 190e3, 300)
model = theory.SpectrumModel(perturbed, 2 * np.pi * freq)
clean = model.quadrature_spectrum("signal", model.phi_s)
stderr = clean / np.sqrt(64)
noisy = clean * (1 + rng.standard_normal(clean.size) / np.sqrt(64))

problem = fitting.FitProblem(
    system, freq, noisy, stderr,
    {"detuning": (-0.03 * kappa, -0.005 * kappa), "phi_s": (-0.06, 0.0)},
    band=(150e3, 190e3), n_multistarts=6, seed=1,
)
result = fitting.fit(problem)

print(fitting.fit_report_text(result))
print(f"true detuning: {true_detuning / kappa:+.4f} kappa, "
      f"recovered: {result.params['detuning'] / kappa:+.4f} kappa")
print(f"true phi_s: {true_phi_s * 1e3:+.1f} mrad, "
      f"recovered: {result.params['phi_s'] * 1e3:+.1f} mrad")
