"""Segment statistics: selection, transforms, unbiased residual estimation.

The residual estimators use an odd/even split of the segment list: the
prediction weights alpha(omega) are computed on one half and the residual
spectrum is evaluated on the other, then the roles are swapped and the
two results averaged.  This makes the estimate conservative, with
expectation at or above the true optimal residual.  The halves are equal:
with an odd number of kept segments the last one is left out of the
residual (``n_averages`` is the even count used), while power spectra of
the same segment set average all of them.
"""

from __future__ import annotations

import csv
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

    @property
    def sample_rate(self) -> float:
        return self.source.config.sample_rate


@dataclass
class SpectrumEstimate:
    frequencies: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_averages: int
    # bins that electronic-noise subtraction floored at zero
    floored_bins: int = 0
    # set by band_average: the band width and the belt's normal quantile
    band_width_hz: float | None = None
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

    Keeps the two half-set estimates for the split-consistency
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
    every sample, rejected segments included, for finiteness.  A
    non-finite sample raises ``FormatError`` naming the first such channel.
    The returned set holds ``ds`` and ``kept_mask``, no samples.
    """
    if peak_limit <= 0 or rms_limit <= 0:
        raise ConfigError("selection limits must be positive")
    n_seg = ds.config.n_segments
    peaks = np.empty(n_seg)
    rms = np.empty(n_seg)
    finite = np.empty((len(CHANNELS), n_seg), dtype=bool)

    def stats(i):
        for c, name in enumerate(CHANNELS):
            x = ds.segment(name, i)
            finite[c, i] = np.all(np.isfinite(x))
            if name == "sum" and finite[c, i]:  # else selection raises below
                peaks[i] = max(x.max(), -x.min())  # max |x| without an |x| copy
                rms[i] = x.std()

    synth._on_pool(stats, n_seg)
    for name, ok in zip(CHANNELS, finite):
        if not ok.all():
            raise FormatError(f"payload: non-finite samples in {name} channel")
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

    scratch = threading.local()  # one buf/full pair per worker thread

    def run(k):
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(length)
            scratch.full = np.empty(len(freqs), dtype=complex)
        buf, full = scratch.buf, scratch.full
        for name in CHANNELS:
            x = seg.source.segment(name, rows[k])
            band_dft(x, buf, full, dfts[name][k])
        # x is still the meter segment, the last of the file's CHANNELS
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


def _need_dfts(seg: SegmentSet):
    if seg.dfts is None:
        raise ConfigError("call transform() before spectral estimation")


def power_spectrum(seg: SegmentSet, channel: str) -> SpectrumEstimate:
    """Mean of per-segment periodograms with its standard error."""
    _need_dfts(seg)
    f = seg.dfts[channel]
    n = f.shape[0]
    length = seg.segment_length
    periodograms = np.abs(f) ** 2 / length
    values = periodograms.mean(axis=0)
    stderr = (
        periodograms.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(values)
    )
    return SpectrumEstimate(seg.frequencies, values, stderr, n)


def _halves(n: int):
    # "odd" = segments 1, 3, ... in 1-based order
    idx = np.arange(n - (n % 2))
    return idx[::2], idx[1::2]


def _alpha_single(x, y):
    den = np.sum(np.abs(y) ** 2, axis=0)
    if np.any(den == 0):
        raise StatisticsError("predictor channel has zero power")
    return np.sum(x * np.conj(y), axis=0) / den


def _residual_eval(x, preds, alphas, length):
    r = x.copy()
    for y, a in zip(preds, alphas):
        r -= a[None, :] * y
    return np.abs(r) ** 2 / length


def _assemble_residual(seg, x, preds, alpha_solver):
    _need_dfts(seg)
    n = x.shape[0]
    if n < 4:
        raise StatisticsError(f"need >= 4 segments for the split estimator, have {n}")
    odd, even = _halves(n)
    length = seg.segment_length
    alpha_odd = alpha_solver([p[odd] for p in preds], x[odd])
    alpha_even = alpha_solver([p[even] for p in preds], x[even])
    # evaluate each alpha on the opposite half
    s_even = _residual_eval(x[even], [p[even] for p in preds], alpha_odd, length)
    s_odd = _residual_eval(x[odd], [p[odd] for p in preds], alpha_even, length)
    per_segment = np.concatenate([s_odd, s_even], axis=0)
    values = per_segment.mean(axis=0)
    m = per_segment.shape[0]
    stderr = per_segment.std(axis=0, ddof=1) / np.sqrt(m)
    halves_vals = (s_odd.mean(axis=0), s_even.mean(axis=0))
    halves_err = (
        s_odd.std(axis=0, ddof=1) / np.sqrt(len(odd)),
        s_even.std(axis=0, ddof=1) / np.sqrt(len(even)),
    )
    return ResidualEstimate(
        frequencies=seg.frequencies,
        values=values,
        stderr=stderr,
        n_averages=m,
        half_values=halves_vals,
        half_stderr=halves_err,
    )


def residual_single(
    seg: SegmentSet, x_channel: str = "sum", y_channel: str = "meter"
) -> ResidualEstimate:
    """Split-sample residual of x after optimal linear prediction from y.

    With an odd number of kept segments the last one is left out, so
    ``n_averages`` is ``n_kept - n_kept % 2``.
    """
    _need_dfts(seg)

    def solver(preds, x):
        return (_alpha_single(x, preds[0]),)

    return _assemble_residual(seg, seg.dfts[x_channel], [seg.dfts[y_channel]], solver)


# the two predictors of ``residual_two_channel`` are (nearly) linearly
# dependent where their 2x2 determinant falls below _DET_FLOOR of s11*s22
_DET_FLOOR = 1e-10


def residual_two_channel(
    seg: SegmentSet,
    x_channel: str = "sum",
    y1_channel: str = "meter",
    y2_channel: str = "meter_squared",
) -> ResidualEstimate:
    """Split-sample residual with two predictor channels.

    Solves the 2x2 cross-spectral system per frequency bin on each half.
    With an odd number of kept segments the last one is left out, so
    ``n_averages`` is ``n_kept - n_kept % 2``.
    """
    _need_dfts(seg)

    def solver(preds, x):
        y1, y2 = preds
        s11 = np.sum(np.abs(y1) ** 2, axis=0)
        s22 = np.sum(np.abs(y2) ** 2, axis=0)
        s12 = np.sum(y1 * np.conj(y2), axis=0)
        det = s11 * s22 - np.abs(s12) ** 2
        scale = s11 * s22
        if np.any(det < _DET_FLOOR * scale):
            raise StatisticsError(
                "predictor channels are (nearly) linearly dependent"
            )
        b1 = np.sum(x * np.conj(y1), axis=0)
        b2 = np.sum(x * np.conj(y2), axis=0)
        a1 = (b1 * s22 - b2 * np.conj(s12)) / det
        a2 = (b2 * s11 - b1 * s12) / det
        return (a1, a2)

    return _assemble_residual(
        seg,
        seg.dfts[x_channel],
        [seg.dfts[y1_channel], seg.dfts[y2_channel]],
        solver,
    )


def msc_estimate(
    seg: SegmentSet, x_channel: str = "sum", y_channel: str = "meter"
) -> SpectrumEstimate:
    """Magnitude-squared coherence per bin, in [0, 1] by construction."""
    _need_dfts(seg)
    x = seg.dfts[x_channel]
    y = seg.dfts[y_channel]
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
    report dict).
    """
    f = est.frequencies
    sel = calibration_bins(f)
    coeffs = np.polyfit(f[sel], est.values[sel], 1)
    sql = float(np.polyval(coeffs, analysis_freq))
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


# Cephes ndtri (S. L. Moshier), the algorithm of scipy.special.ndtri, with
# the same operations in the same order so the result is bit-identical.
# In pure Python it spares band_average, and with it `qndlab estimate`,
# the import of scipy.special: about 290 modules and a second OpenBLAS
# with its own worker thread, loaded in the middle of a run.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# |p - 0.5| <= 3/8
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# tails with sqrt(-2 log p) in [2, 8)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tails with sqrt(-2 log p) >= 8
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coef: tuple, monic: bool = False) -> float:
    """Polynomial in x, highest power first; ``monic`` adds a leading 1."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile for 0 < p < 1, equal to ``ndtri(p)``."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"normal quantile needs 0 < p < 1, got {p!r}")
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p_coef, q_coef = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _horner(z, p_coef) / _horner(z, q_coef, True)
    return x if upper else -x


def banding(
    band_width_hz: float, frequencies: np.ndarray, confidence: float
) -> tuple[int, float, float]:
    """(bins, spacing, belt quantile) of a band average on ``frequencies``.

    Every rule of ``band_average``: a finite width spanning at least one bin
    and at most all, at least two bins, and a ``confidence`` in (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigError(
            f"confidence must lie strictly between 0 and 1, got {confidence!r}"
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
    return n_bins, df, _normal_quantile(0.5 + confidence / 2.0)


def band_average(
    est: SpectrumEstimate, band_width_hz: float, confidence: float = 0.9
) -> SpectrumEstimate:
    """Flat moving average with a normal-approximation confidence belt.

    The result carries the belt's normal quantile ``belt_z``, so its belt and
    any copy's is ``values -+ belt_z * stderr``.  ``banding`` holds the
    rules on ``band_width_hz`` and ``confidence``.
    """
    n_bins, df, z = banding(band_width_hz, est.frequencies, confidence)
    kernel = np.ones(n_bins) / n_bins
    # edge bins average fewer neighbours; divide by the kernel overlap so
    # they stay unbiased instead of being pulled toward zero
    overlap = np.convolve(np.ones(len(est.values)), kernel, mode="same")
    values = np.convolve(est.values, kernel, mode="same") / overlap
    # independent-bin averaging shrinks the error by sqrt(bins)
    stderr = np.sqrt(np.convolve(est.stderr**2, kernel**2, mode="same")) / overlap
    return replace(
        est, values=values, stderr=stderr, band_width_hz=n_bins * df, belt_z=z
    )


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


def write_spectrum_csv(est: SpectrumEstimate, path) -> None:
    """CSV export: frequency_hz, value, stderr[, belt_lo, belt_hi]."""
    head, columns = ["frequency_hz", "value", "stderr"], [est.values, est.stderr]
    if est.belt_z is not None:
        head += ["belt_lo", "belt_hi"]
        columns += [est.belt_lo, est.belt_hi]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        for f, *row in zip(est.frequencies, *columns):
            writer.writerow([f"{f:.6f}", *(repr(float(v)) for v in row)])
