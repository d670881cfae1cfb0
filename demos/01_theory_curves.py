"""Walk through the model spectra at the default working point.

Computes the signal-quadrature spectrum, the meter spectrum, their
magnitude-squared coherence, and the theoretical prediction residual on a
frequency grid around the mechanical resonance, then prints the landmarks
(peak position, sub-SQL band) that the rest of the package revolves
around.
"""

import numpy as np

import qndlab as q
from qndlab import theory

system = q.reference_defaults()
freq = np.linspace(150e3, 190e3, 4001)
model = theory.SpectrumModel(system, 2 * np.pi * freq)

s_xs, s_ym, _, msc, residual = model.residual_spectra()

i_peak = np.argmax(s_xs)
print(f"signal spectrum peak: {freq[i_peak]:.0f} Hz, value {s_xs[i_peak]:.1f} (SQL units)")
print(f"max coherence: {msc.max():.4f}")

i_min = np.argmin(residual)
print(f"residual minimum: {residual[i_min]:.4f} at {freq[i_min]:.0f} Hz")

sub = residual < 1.0
edges = np.flatnonzero(np.diff(sub.astype(int)))
print("sub-SQL bands (Hz):")
for a, b in zip(edges[::2], edges[1::2]):
    print(f"  {freq[a]:.0f} .. {freq[b]:.0f}  (width {freq[b] - freq[a]:.0f})")

q.write_spectrum_csv(q.SpectrumEstimate(freq, residual, np.zeros_like(freq), 1),
                     "theory_residual.csv")
print("wrote theory_residual.csv")
