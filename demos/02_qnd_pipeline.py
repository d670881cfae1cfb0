"""End-to-end pipeline on a modest synthetic dataset.

Synthesizes time-domain data at the default working point, runs segment
selection, the split-sample prediction residual, shot-noise calibration,
electronic-noise subtraction, and 150 Hz band averaging, then reports how
far below the shot-noise level (SQL = 1) the residual dips.

The dataset here is intentionally small so the demo runs in seconds; the
acceptance tests run the full-size version.
"""

import numpy as np

import qndlab as q

system = q.reference_defaults()
cfg = q.SynthConfig(segment_length=2**17, n_segments=48, seed=7)
dataset = q.synthesize(system, cfg)
print(f"synthesized {cfg.n_segments} segments of {cfg.segment_length} samples")

# the CLI's analysis chain at its defaults, with the band starting at 120 kHz
analysis = q.analyze(dataset, q.load_config(text="[estimate]\nband_lo_hz = 120e3\n"))
print(f"kept {analysis.seg.n_kept} segments after spike/rms selection")
print(f"calibrated SQL: {analysis.sql:.4f} "
      f"(slope {analysis.calibration['slope_per_hz']:.2e}/Hz)")

residual = q.residual_single(analysis.seg, "sum", "meter")
banded = q.band_average(analysis.normalized(residual), 150.0)
i = np.argmin(banded.values)
print(f"banded residual minimum: {banded.values[i]:.3f} +- {banded.stderr[i]:.3f} "
      f"at {banded.frequencies[i]:.0f} Hz")

diag = q.split_consistency(residual)
print(f"split-half diagnostic: mean {diag.mean:+.3f} +- {diag.mean_stderr:.3f}, "
      f"sd {diag.sd:.2f}")
