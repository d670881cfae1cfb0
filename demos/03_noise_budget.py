"""Decompose the signal-quadrature spectrum into its noise sources.

Prints the per-source contribution at the spectral peak and shows the
cancellation of the intracavity classical phase noise at the bare
mechanical frequency, which the detuned working point exploits.
"""

from dataclasses import replace

import numpy as np

import qndlab as q
from qndlab import theory

system = q.reference_defaults()
freq = np.linspace(160e3, 180e3, 2001)
budget = theory.noise_budget(system, "signal", 2 * np.pi * freq)

i_peak = np.argmax(budget.total)
print(f"budget at the {freq[i_peak]:.0f} Hz peak (SQL units):")
for name, curve in sorted(budget.contributions.items(), key=lambda kv: -kv[1][i_peak]):
    print(f"  {name:>16s}: {curve[i_peak]:10.2f}")

# the cancellation of intracavity phase noise sits at the bare mechanical
# frequency; show it at the squeezing working point where it matters
squeezing = replace(system, cavity=replace(system.cavity,
                                           detuning=-0.019 * system.cavity.kappa),
                    signal_phase=-41.5e-3)
budget = theory.noise_budget(squeezing, "signal", 2 * np.pi * freq)
zeta = budget.contributions["cavity_phase"]
i_min = np.argmin(zeta)
f_m = system.mech.omega_m / (2 * np.pi)
print(f"\ncavity phase noise has a local minimum at {freq[i_min]:.0f} Hz; "
      f"bare mechanical frequency is {f_m:.0f} Hz")
print(f"suppression vs peak: {zeta.max() / max(zeta[i_min], 1e-300):.1f}x")
