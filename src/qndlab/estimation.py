"""Segment statistics: selection, transforms, unbiased residual estimation.

The residual estimators fit the prediction weights alpha(omega) once per
bin on all N kept segments and score each segment by its leave-one-out
residual e / (1 - h), from the in-sample residual e and the segment's
leverage h (the PRESS identity; Allen, Technometrics 16, 125 (1974)).  That
equals refitting without the segment, so the estimate is conservative,
with expectation at or above the true optimal residual.  For
complex-Gaussian DFTs it is S_opt * (N - 1) / (N - 1 - k) for k
predictors, by the complex Wishart mean (Goodman, Ann. Math. Stat. 34, 152
(1963)): ``expected_residual_factor``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .errors import ConfigError, FormatError, StatisticsError
from .synth import CHANNELS, DataSet, QndFile, SynthConfig

WINDOWS = ("rectangular", "hann")


@dataclass
class SegmentSet:
    """Selected segments of a dataset and, once transformed, their band DFTs.

    ``source`` is the dataset the segments are read from: an in-memory
    ``DataSet`` or an open ``QndFile``, each of which gives channel c of
    segment i as ``source.segment(c, i)``.  ``kept_mask`` marks the
    segments that passed selection.  No sample is held here.  ``transform``
    populates ``dfts`` (complex (n_kept, M) arrays of the kept
    segments, including the derived "meter_squared" channel) and
    ``frequencies``.
    """

    source: DataSet | QndFile
    kept_mask: np.ndarray
    window: str = "rectangular"
    dfts: dict | None = None
    frequencies: np.ndarray | None = None

    @property
    def n_kept(self) -> int:
        return int(self.kept_mask.sum())

    @property
    def kept_fraction(self) -> float:
        return self.n_kept / max(len(self.kept_mask), 1)

    @property
    def segment_length(self) -> int:
        return self.source.config.segment_length


@dataclass
class SpectrumEstimate:
    frequencies: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_averages: int
    # bins that electronic-noise subtraction floored at zero
    floored_bins: int = 0
    # set by band_average: the belt's normal quantile
    belt_z: float | None = None

    @property
    def belt_lo(self) -> np.ndarray | None:
        """Lower edge of the confidence belt, None without one."""
        return None if self.belt_z is None else self.values - self.belt_z * self.stderr

    @property
    def belt_hi(self) -> np.ndarray | None:
        """Upper edge of the confidence belt, None without one."""
        return None if self.belt_z is None else self.values + self.belt_z * self.stderr

    def normalized_by(self, sql_reference: float) -> "SpectrumEstimate":
        """Return a copy rescaled so the given SQL level reads 1."""
        if sql_reference <= 0:
            raise ConfigError("sql_reference must be positive")
        return replace(
            self,
            values=self.values / sql_reference,
            stderr=self.stderr / sql_reference,
        )


@dataclass
class ResidualEstimate(SpectrumEstimate):
    """Spectrum estimate of the prediction residual.

    ``half_values`` and ``half_stderr`` average the leave-one-out residuals
    of the odd and of the even segments apart, for the split-consistency
    diagnostic.  Finite-sample values are not bounded by the auto-spectrum
    pointwise; only the expectation is.
    """

    half_values: tuple = ()
    half_stderr: tuple = ()


def segment_and_select(
    ds: DataSet | QndFile, peak_limit: float = 60.0, rms_limit: float = 25.0
) -> SegmentSet:
    """Mark the noisy segments of a dataset, reading each segment once.

    A segment is rejected when the sum channel's peak or rms exceeds the
    limits (SQL units).  The defaults are arbitrary, sized to catch the
    synthesizer's spike transients.  They do not pass clean synthetic data
    in full at every size: 32 x 2**16 datasets keep all 32 segments (seeds
    1-3), but the default 64 x 2**19 dataset at seed 171 keeps 55 of 64,
    since a longer segment's peak crosses the limit more often.

    One pass on the thread pool reads all three channels of every segment,
    one segment at a time: it takes the sum channel's statistics and checks
    every sample, rejected segments included, for finiteness.  A non-finite
    sample raises ``FormatError`` (exit 3) naming the channel of the
    lowest-numbered segment that holds one.  The returned set holds ``ds``
    and ``kept_mask``, no samples.
    """
    if peak_limit <= 0 or rms_limit <= 0:
        raise ConfigError("selection limits must be positive")
    n_seg = ds.config.n_segments
    peaks = np.empty(n_seg)
    rms = np.empty(n_seg)

    def stats(i):
        for name in CHANNELS:
            x = ds.segment(name, i)
            if not np.all(np.isfinite(x)):
                raise FormatError(f"payload: non-finite samples in {name} channel")
            if name == "sum":
                peaks[i] = max(x.max(), -x.min())  # max |x| without an |x| copy
                rms[i] = x.std()

    synth._on_pool(stats, n_seg)  # re-raises the lowest index's error
    kept = (peaks <= peak_limit) & (rms <= rms_limit)
    if kept.sum() < 4:
        raise StatisticsError(
            f"only {int(kept.sum())} of {n_seg} segments pass selection"
        )
    return SegmentSet(source=ds, kept_mask=kept)


def transform(
    seg: SegmentSet, window: str = "rectangular", band: tuple | None = None
) -> SegmentSet:
    """Populate per-segment DFTs of the kept segments, including meter squared.

    The square of the meter has its per-segment mean removed before the
    transform, so the large deterministic DC term cannot leak.  ``band``
    (f_lo, f_hi), f_lo < f_hi, keeps only that slice of the grid to bound
    memory.

    Each kept segment is read from ``seg.source``, windowed and transformed
    on its own, on a thread pool, and only its band is kept: the memory
    beyond the band DFTs is a few segment-sized buffers per worker.  The
    values equal those of one batched ``rfft`` over the kept rows, bit for
    bit.
    """
    length = seg.segment_length
    w = taper(window, length)
    freqs, lo, hi = band_grid(seg.source.config, band)
    rows = np.flatnonzero(seg.kept_mask)
    # the memory order of a batched rfft, column-major once masked to a
    # band, so the estimators' sums over segments add in the same order
    dfts = {
        name: np.empty(
            (len(rows), hi - lo), dtype=complex, order="C" if band is None else "F"
        )
        for name in (*CHANNELS, "meter_squared")
    }

    def band_dft(x, buf, full, out):
        if w is not None:
            x = np.multiply(x, w, out=buf)
        np.fft.rfft(x, out=full)
        out[:] = full[lo:hi]

    # kept per thread: per-call buffers slowed a 64 x 2**19 estimate by 22 %
    scratch = threading.local()  # one buf/full pair per worker thread

    def run(k):
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(length)
            scratch.full = np.empty(len(freqs), dtype=complex)
        buf, full = scratch.buf, scratch.full
        for name in CHANNELS:
            x = seg.source.segment(name, rows[k])
            band_dft(x, buf, full, dfts[name][k])
            if name == "meter":
                sq = np.multiply(x, x, out=buf)
                sq -= sq.mean()
                band_dft(sq, buf, full, dfts["meter_squared"][k])

    synth._on_pool(run, len(rows))
    return SegmentSet(
        source=seg.source,
        kept_mask=seg.kept_mask,
        window=window,
        dfts=dfts,
        frequencies=freqs[lo:hi].copy(),
    )


def taper(window: str, length: int) -> np.ndarray | None:
    """The ``window`` taper of ``length`` samples at unit mean square, or None.

    None is the rectangular window; a window not in ``WINDOWS`` raises.
    """
    if window not in WINDOWS:
        raise ConfigError(f"window must be one of {WINDOWS}, got {window!r}")
    if window == "rectangular":
        return None
    w = np.hanning(length)
    return w / np.sqrt(np.mean(w**2))  # keep SQL = 1 after tapering


def band_grid(config: SynthConfig, band: tuple | None):
    """The rfft grid of a ``config`` dataset, and its slice ``lo:hi`` inside ``band``.

    Raises for an inverted ``band`` or one off the grid, before any sample
    is read.
    """
    freqs = np.fft.rfftfreq(config.segment_length, 1.0 / config.sample_rate)
    if band is None:
        return freqs, 0, len(freqs)
    if band[0] >= band[1]:
        raise ConfigError(f"band {band}: the low edge must lie below the high edge")
    inside = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if not len(inside):
        raise StatisticsError(f"band {band} outside the grid")
    # the grid ascends, so the band is one contiguous slice
    return freqs, inside[0], inside[-1] + 1


def _dfts(seg: SegmentSet, *channels: str) -> list:
    """The band DFTs of ``channels``; raises before ``transform``."""
    if seg.dfts is None:
        raise ConfigError("call transform() before spectral estimation")
    return [seg.dfts[c] for c in channels]


def _average(per_segment):
    """Mean over the rows and its stderr, sd / sqrt(rows), zeros for one row."""
    n, mean = per_segment.shape[0], per_segment.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, per_segment.std(axis=0, ddof=1) / np.sqrt(n)


def power_spectrum(seg: SegmentSet, channel: str) -> SpectrumEstimate:
    """Mean of per-segment periodograms with its standard error."""
    (f,) = _dfts(seg, channel)
    values, stderr = _average(np.abs(f) ** 2 / seg.segment_length)
    return SpectrumEstimate(seg.frequencies, values, stderr, f.shape[0])


# two predictors are (nearly) linearly dependent where their 2x2
# determinant falls below _DET_FLOOR of s11*s22
_DET_FLOOR = 1e-10


def _weights(x, preds):
    """Per-bin least-squares weights of x on one or two predictor DFTs.

    Returns (weights, leverage): each segment's h = y^H G^-1 y per bin, G the
    predictors' Gram matrix over the segments.
    """
    sq = [np.abs(y) ** 2 for y in preds]
    power = [np.sum(p, axis=0) for p in sq]
    if any(np.any(s == 0) for s in power):
        raise StatisticsError("predictor channel has zero power")
    if len(preds) == 1:
        return (np.sum(x * np.conj(preds[0]), axis=0) / power[0],), sq[0] / power[0]
    (y1, y2), (s11, s22) = preds, power
    s12 = np.sum(y1 * np.conj(y2), axis=0)
    det = s11 * s22 - np.abs(s12) ** 2
    if np.any(det < _DET_FLOOR * (s11 * s22)):
        raise StatisticsError("predictor channels are (nearly) linearly dependent")
    b1 = np.sum(x * np.conj(y1), axis=0)
    b2 = np.sum(x * np.conj(y2), axis=0)
    h = (sq[0] * s22 + sq[1] * s11 - 2.0 * np.real(s12 * np.conj(y1) * y2)) / det
    return ((b1 * s22 - b2 * np.conj(s12)) / det, (b2 * s11 - b1 * s12) / det), h


def _loo_residual(seg, x_channel, *predictors):
    """Leave-one-out residual of x_channel after prediction from the predictors."""
    x, *preds = _dfts(seg, x_channel, *predictors)
    n = x.shape[0]
    if n < 4:
        raise StatisticsError(f"need >= 4 segments for the residual estimator, have {n}")
    alphas, h = _weights(x, preds)
    e = x - sum(a * y for a, y in zip(alphas, preds))
    s = np.abs(e / (1.0 - h)) ** 2 / seg.segment_length
    half_values, half_stderr = zip(_average(s[::2]), _average(s[1::2]))
    return ResidualEstimate(
        seg.frequencies, *_average(s), n,
        half_values=half_values, half_stderr=half_stderr,
    )


def expected_residual_factor(n: int, k: int) -> float:
    """E[residual] / S_opt of the leave-one-out fit of k predictors on n segments."""
    return (n - 1) / (n - 1 - k)


def residual_single(
    seg: SegmentSet, x_channel: str = "sum", y_channel: str = "meter"
) -> ResidualEstimate:
    """Leave-one-out residual of x after optimal linear prediction from y."""
    return _loo_residual(seg, x_channel, y_channel)


def residual_two_channel(
    seg: SegmentSet,
    x_channel: str = "sum",
    y1_channel: str = "meter",
    y2_channel: str = "meter_squared",
) -> ResidualEstimate:
    """Leave-one-out residual with two predictors, a 2x2 system per bin."""
    return _loo_residual(seg, x_channel, y1_channel, y2_channel)


def msc_estimate(
    seg: SegmentSet, x_channel: str = "sum", y_channel: str = "meter"
) -> SpectrumEstimate:
    """Magnitude-squared coherence per bin, in [0, 1] by construction."""
    x, y = _dfts(seg, x_channel, y_channel)
    n = x.shape[0]
    if n < 2:
        raise StatisticsError("MSC needs at least 2 segments")
    sxx = np.sum(np.abs(x) ** 2, axis=0)
    syy = np.sum(np.abs(y) ** 2, axis=0)
    if np.any(sxx == 0) or np.any(syy == 0):
        raise StatisticsError("zero-power bins in MSC denominator")
    msc = np.abs(np.sum(np.conj(x) * y, axis=0)) ** 2 / (sxx * syy)
    # large-N normal approximation to the MSC sampling error
    stderr = np.sqrt(2.0 / n) * np.sqrt(msc) * (1.0 - msc)
    return SpectrumEstimate(seg.frequencies, msc, stderr, n)


SHOT_BANDS = ((154e3, 163e3), (176e3, 180e3))


def calibration_bins(frequencies: np.ndarray):
    """Mask of the ``frequencies`` inside ``SHOT_BANDS``, at least two."""
    sel = np.zeros(len(frequencies), dtype=bool)
    for lo, hi in SHOT_BANDS:
        sel |= (frequencies >= lo) & (frequencies <= hi)
    if sel.sum() < 2:
        raise StatisticsError(f"calibration bands {SHOT_BANDS} not on the grid")
    return sel


def shot_calibration(est: SpectrumEstimate, analysis_freq: float = 170e3):
    """In-run SQL reference from the difference channel.

    Fits a straight line to the spectral density over the ``SHOT_BANDS``
    sideband intervals (excluding the oscillator region between them) and
    evaluates it at the analysis frequency.  Returns (sql_reference,
    report dict); a line that is not positive there raises, since it cannot
    serve as the SQL.
    """
    f = est.frequencies
    sel = calibration_bins(f)
    coeffs = np.polyfit(f[sel], est.values[sel], 1)
    sql = float(np.polyval(coeffs, analysis_freq))
    if not sql > 0:
        raise StatisticsError(
            f"the shot-noise calibration line over SHOT_BANDS {SHOT_BANDS} Hz reads "
            f"{sql!r} at {analysis_freq:g} Hz: no positive SQL reference"
        )
    scatter = float(np.std(est.values[sel] - np.polyval(coeffs, f[sel])))
    report = {
        "slope_per_hz": float(coeffs[0]),
        "intercept": float(coeffs[1]),
        "n_bins": int(sel.sum()),
        "rms_scatter": scatter,
        "stderr": scatter / np.sqrt(sel.sum()),
        "analysis_freq_hz": analysis_freq,
    }
    return sql, report


def shot_linearity_sweep(levels, sql_values):
    """Linear fit of calibrated SQL vs detected level.

    Returns (slope, intercept, report) with the relative fit residuals;
    a structureless residual validates shot-noise scaling.
    """
    levels = np.asarray(levels, dtype=float)
    sql_values = np.asarray(sql_values, dtype=float)
    if len(levels) < 3:
        raise ConfigError("need at least 3 power points for the sweep")
    coeffs = np.polyfit(levels, sql_values, 1)
    fitted = np.polyval(coeffs, levels)
    report = {
        "relative_residuals": (sql_values - fitted) / fitted,
        "max_abs_relative_residual": float(np.max(np.abs(sql_values - fitted) / fitted)),
    }
    return float(coeffs[0]), float(coeffs[1]), report


def subtract_electronic_noise(
    est: SpectrumEstimate, electronic: SpectrumEstimate
) -> SpectrumEstimate:
    """Pointwise subtraction with errors combined in quadrature.

    Negative differences are floored at zero; ``floored_bins`` counts them.
    """
    if len(est.frequencies) != len(electronic.frequencies) or not np.allclose(
        est.frequencies, electronic.frequencies
    ):
        raise StatisticsError("estimates are on different frequency grids")
    values = est.values - electronic.values
    return replace(
        est,
        values=np.clip(values, 0.0, None),
        stderr=np.hypot(est.stderr, electronic.stderr),
        floored_bins=int(np.sum(values < 0)),
    )


def banding(
    band_width_hz: float, frequencies: np.ndarray, confidence: float
) -> tuple[int, float]:
    """(bins, belt quantile) of a band average on ``frequencies``.

    Every rule of ``band_average``: a finite width spanning at least one bin
    and at most all, at least two bins, and a ``confidence`` whose two-sided
    quantile argument 0.5 + confidence / 2 lies strictly between 0.5 and 1.
    """
    from statistics import NormalDist  # only here, so the CLI starts on numpy

    p = 0.5 + confidence / 2.0
    # p rounds to 1, an infinite quantile, for the doubles just below 1, and
    # to 0.5, a belt of zero width, for those below about 1.1e-16
    if not 0.5 < p < 1.0:
        raise ConfigError(
            "confidence must lie strictly between 0 and 1, with 0.5 + confidence/2 "
            f"strictly between 0.5 and 1, got {confidence!r}"
        )
    if not math.isfinite(band_width_hz):
        raise ConfigError(f"band width must be finite, got {band_width_hz!r} Hz")
    if len(frequencies) < 2:
        raise StatisticsError(
            f"banding needs at least two bins, got {len(frequencies)}"
        )
    df = float(np.mean(np.diff(frequencies)))
    if band_width_hz < df:
        raise ConfigError(f"band narrower than the grid spacing of {df:g} Hz")
    n_bins = int(round(band_width_hz / df))
    if n_bins > len(frequencies):
        raise ConfigError(
            f"band of {band_width_hz:g} Hz spans {n_bins} bins, more than the "
            f"{len(frequencies)} of the spectrum"
        )
    return n_bins, NormalDist().inv_cdf(p)


def band_average(
    est: SpectrumEstimate, band_width_hz: float, confidence: float = 0.9
) -> SpectrumEstimate:
    """Flat moving average with a normal-approximation confidence belt.

    The result carries the belt's normal quantile ``belt_z``, so its belt and
    any copy's is ``values -+ belt_z * stderr``.  ``banding`` holds the
    rules on ``band_width_hz`` and ``confidence``.  With an even bin count
    n the value at bin k averages bins k - n/2 ... k + n/2 - 1, so it is
    labelled half a bin above the centre of its band.
    """
    n_bins, z = banding(band_width_hz, est.frequencies, confidence)
    kernel = np.ones(n_bins) / n_bins
    # edge bins average fewer neighbours; divide by the kernel overlap so
    # they stay unbiased instead of being pulled toward zero
    overlap = np.convolve(np.ones(len(est.values)), kernel, mode="same")
    values = np.convolve(est.values, kernel, mode="same") / overlap
    # independent-bin averaging shrinks the error by sqrt(bins)
    stderr = np.sqrt(np.convolve(est.stderr**2, kernel**2, mode="same")) / overlap
    return replace(est, values=values, stderr=stderr, belt_z=z)


@dataclass(frozen=True)
class SplitDiagnostic:
    """Normalized odd/even difference series with its summary moments."""

    frequencies: np.ndarray
    values: np.ndarray
    mean: float
    sd: float
    mean_stderr: float


def split_consistency(res: ResidualEstimate) -> SplitDiagnostic:
    """Per-bin (odd - even) residual difference in units of its error."""
    if not res.half_values:
        raise ConfigError("residual estimate lacks half-set values")
    v_odd, v_even = res.half_values
    e_odd, e_even = res.half_stderr
    # 2 x the stderr of the averaged estimate, i.e. sqrt(e_odd^2 + e_even^2)
    denom = np.hypot(e_odd, e_even)
    values = (v_odd - v_even) / denom
    n = len(values)
    return SplitDiagnostic(
        frequencies=res.frequencies,
        values=values,
        mean=float(values.mean()),
        sd=float(values.std(ddof=1)),
        mean_stderr=float(values.std(ddof=1) / np.sqrt(n)),
    )


def write_csv(path, header, columns, config_hash=None) -> None:
    """The one CSV writer: LF line ends and ``repr`` floats, which read back exactly."""
    with open(path, "w", newline="\n") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_spectrum_csv(est: SpectrumEstimate, path) -> None:
    """CSV export: frequency_hz, value, stderr[, belt_lo, belt_hi]."""
    head = ["frequency_hz", "value", "stderr"]
    columns = [est.frequencies, est.values, est.stderr]
    if est.belt_z is not None:
        head += ["belt_lo", "belt_hi"]
        columns += [est.belt_lo, est.belt_hi]
    write_csv(path, head, columns)
