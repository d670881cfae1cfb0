"""The analysis chain shared by `qndlab estimate`, `qndlab fit` and the tests.

``analyze`` runs selection, the band-limited transform, the in-run
shot-noise (SQL) calibration and the electronic-noise-subtracted sum
spectrum, with the ``[estimate]`` settings of a ``RunConfig`` and the
electronic-noise level the dataset was synthesized with.  The caller picks
the residual (single- or two-channel) and the banding width, and puts
them in SQL units with ``Analysis.normalized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimation
from .config import RunConfig
from .estimation import SegmentSet, SpectrumEstimate
from .synth import DataSet, QndFile


@dataclass
class Analysis:
    """Transformed segments, their references and the sum spectrum in SQL units."""

    seg: SegmentSet
    electronic: SpectrumEstimate
    sql: float
    calibration: dict
    spectrum_sum: SpectrumEstimate = field(init=False)

    def __post_init__(self):
        self.spectrum_sum = self.normalized(estimation.power_spectrum(self.seg, "sum"))

    def normalized(self, est: SpectrumEstimate) -> SpectrumEstimate:
        """Subtract the electronic reference, then rescale so the SQL reads 1."""
        return estimation.subtract_electronic_noise(
            est, self.electronic
        ).normalized_by(self.sql)


def analyze(ds: DataSet | QndFile, cfg: RunConfig) -> Analysis:
    """Select and transform ``ds``, then calibrate it against the in-run SQL.

    ``ds`` is an in-memory ``DataSet`` or an open ``QndFile``; either is
    read one segment at a time, and only the band DFTs are kept.
    """
    seg = estimation.segment_and_select(
        ds,
        peak_limit=cfg.get_float("estimate", "peak_limit"),
        rms_limit=cfg.get_float("estimate", "rms_limit"),
    )
    seg = estimation.transform(
        seg, window=cfg.get("estimate", "window"), band=cfg.estimate_band()
    )
    level = ds.config.electronic_noise_level
    electronic = SpectrumEstimate(
        frequencies=seg.frequencies,
        values=np.full_like(seg.frequencies, level),
        # the stated reproducibility of the electronic-noise reference
        stderr=np.full_like(seg.frequencies, 0.1 * level),
        n_averages=seg.n_kept,
    )
    p_diff = estimation.subtract_electronic_noise(
        estimation.power_spectrum(seg, "difference"), electronic
    )
    sql, calibration = estimation.shot_calibration(
        p_diff, analysis_freq=cfg.analysis_freq_hz()
    )
    return Analysis(seg, electronic, sql, calibration)
