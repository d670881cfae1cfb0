"""Synthetic three-channel detector records with model-matched statistics.

Each segment is an independent stationary realization built on the DFT
grid: every input channel of the cavity model gets complex Gaussian
amplitudes shaped by its spectrum, the output-port coefficients map them
to the detected quadratures, and an inverse FFT produces the real time
series.  Samples are in SQL units: a pure vacuum quadrature has unit
spectral density on the estimator's grid.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .om_core import CLASSICAL_CHANNELS, VACUUM_CHANNELS
from .params import SystemParams
from .theory import SpectrumModel

_MAGIC = b"QNDL"
_VERSION = 1
_HEADER_KEYS = ("sample_rate_hz", "segment_length", "n_segments", "seed", "config_hash")
_CHANNEL_ORDER = ("sum", "difference", "meter")


@dataclass(frozen=True)
class SynthConfig:
    """Synthesis settings.

    ``electronic_noise_level`` is the flat PSD of the additive detection
    electronics in SQL units (default -15 dB).  ``nonlinearity_lambda``
    scales the quadratic surrogate: lambda*(z(t)^2 - <z^2>) added to the
    sum channel, with z the cavity-phase-noise part of the meter.
    ``spike_rate`` injects decaying kHz-band bursts into the sum channel.
    ``common_mode_leak_db`` couples the sum channel into the difference
    channel (power ratio, dB); the leaked oscillator peak is the remnant
    a balanced receiver with finite rejection shows.  ``continuous``
    cross-fades half-overlapped windowed pieces instead of emitting
    independent periodic segments.
    """

    sample_rate: float = 5e6
    segment_length: int = 2**19
    n_segments: int = 64
    seed: int = 0
    electronic_noise_level: float = 10.0 ** (-1.5)
    nonlinearity_lambda: float = 0.0
    spike_rate: float = 0.0
    spike_amplitude: float = 100.0
    common_mode_leak_db: float = -40.0
    continuous: bool = False

    def __post_init__(self):
        if self.segment_length < 2 or self.segment_length % 2:
            raise ConfigError("segment_length must be an even count >= 2")
        # keep the transform fast: only small prime factors
        n = self.segment_length
        for p in (2, 3, 5, 7):
            while n % p == 0:
                n //= p
        if n != 1:
            raise ConfigError("segment_length must factor into primes <= 7")
        if self.n_segments < 0:
            raise ConfigError("n_segments must be non-negative")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if self.electronic_noise_level < 0 or self.spike_rate < 0:
            raise ConfigError("noise levels and rates must be non-negative")

    def validate_band(self, system: SystemParams) -> None:
        """Reject sample rates that fold the band of interest."""
        f_need = system.mech.omega_m / (2.0 * np.pi) + 50e3
        if self.sample_rate <= 2.0 * f_need:
            raise ConfigError(
                f"sample_rate {self.sample_rate:g} Hz cannot resolve the "
                f"band up to {f_need:g} Hz"
            )


@dataclass
class DataSet:
    """Three synchronized real channels.

    Channels are stored concatenated (n_segments * segment_length samples
    each); the segment boundaries are implied by ``config``.
    """

    sum: np.ndarray
    difference: np.ndarray
    meter: np.ndarray
    config: SynthConfig
    config_hash: str = ""

    def __post_init__(self):
        n = len(self.sum)
        if len(self.difference) != n or len(self.meter) != n:
            raise ConfigError("channels must have equal length")
        for name in _CHANNEL_ORDER:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"non-finite samples in {name} channel")

    def channel(self, name: str) -> np.ndarray:
        if name not in _CHANNEL_ORDER:
            raise KeyError(name)
        return getattr(self, name)


def _port_tables(system: SystemParams, cfg: SynthConfig):
    """Quadrature coefficients of both ports on the rfft grid."""
    m = cfg.segment_length // 2 + 1
    omega = 2.0 * np.pi * np.fft.rfftfreq(cfg.segment_length, 1.0 / cfg.sample_rate)
    omega[0] = omega[1] * 1e-6  # avoid the exact-DC corner of the model
    # u(+omega) and u(-omega) per vacuum channel, u(+omega) alone per
    # classical channel (_segment reads no other row).  All rows sit in one
    # anonymous mapping rather than a malloc block, so freeing it returns
    # the memory at once: from malloc, a block under glibc's 32 MiB cap on
    # the dynamic mmap threshold (27 MB at 2**17 samples) can land on the
    # heap, and the hole it left raised a 32 x 2**17 run's peak RSS by
    # 46 MB.  Separate tables would leave such holes between them, which
    # synthesis threads, allocating from their own arenas, cannot reuse.
    rows = 2 * len(VACUUM_CHANNELS) + len(CLASSICAL_CHANNELS)
    nbytes = 2 * rows * m * np.dtype(complex).itemsize
    block = np.frombuffer(mmap.mmap(-1, nbytes), dtype=complex).reshape(2, rows, m)
    model = SpectrumModel(system, omega)
    tables = {}
    for k, (port, phi) in enumerate((("signal", model.phi_s), ("meter", model.phi_m))):
        tables[port] = {}
        free = iter(block[k])
        for ch in VACUUM_CHANNELS:
            u_pos, u_neg = next(free), next(free)
            u_pos[:], u_neg[:] = model.coefficients(port, ch, phi)
            tables[port][ch] = (u_pos, u_neg)
        for ch in CLASSICAL_CHANNELS:
            u_pos = next(free)
            u_pos[:] = model.coefficients(port, ch, phi)[0]
            tables[port][ch] = (u_pos,)
    return tables, {ch: model.psd[ch] for ch in CLASSICAL_CHANNELS}


def _draw(rng, m):
    # same bits and draw order as a + 1j*b, without the complex temporaries
    z = np.empty(m, dtype=complex)
    z.real = rng.standard_normal(m)
    z.imag = rng.standard_normal(m)
    return z


def _segment(system, cfg, tables, psd, rng):
    """One segment of (sum, difference, meter, zeta-part-of-meter).

    The zeta part feeds only the quadratic nonlinearity; it is None when
    ``cfg.nonlinearity_lambda`` is 0.
    """
    length = cfg.segment_length
    m = length // 2 + 1
    root = np.sqrt(length / 2.0)
    f_s = np.zeros(m, dtype=complex)
    f_m = np.zeros(m, dtype=complex)
    f_zm = np.zeros(m, dtype=complex)
    # fixed channel order keeps the draw sequence deterministic
    for ch in VACUUM_CHANNELS:
        g1 = _draw(rng, m)
        g2 = _draw(rng, m)
        for f_out, port in ((f_s, "signal"), (f_m, "meter")):
            u_pos, u_neg = tables[port][ch]
            f_out += root * np.sqrt(0.5) * (u_pos * g1 + np.conj(u_neg) * g2)
    for ch in CLASSICAL_CHANNELS:
        z = root * np.sqrt(psd[ch]) * _draw(rng, m)
        f_s += tables["signal"][ch][0] * z
        contrib = tables["meter"][ch][0] * z
        f_m += contrib
        if ch == "zeta":
            f_zm = contrib
    # difference port: independent vacuum at the detected power
    f_d = root * _draw(rng, m)
    for f in (f_s, f_m, f_zm, f_d):
        f[0] = 0.0
        f[-1] = f[-1].real
    x_sum = np.fft.irfft(f_s, n=length)
    y_m = np.fft.irfft(f_m, n=length)
    z_m = np.fft.irfft(f_zm, n=length) if cfg.nonlinearity_lambda != 0.0 else None
    x_diff = np.fft.irfft(f_d, n=length)
    return x_sum, x_diff, y_m, z_m


def _add_spikes(x, cfg, rng):
    """Decaying kHz-band bursts at Poisson arrival times."""
    length = len(x)
    duration = length / cfg.sample_rate
    n_events = rng.poisson(cfg.spike_rate * duration)
    tau = 5e-3
    for _ in range(n_events):
        start = rng.integers(0, length)
        f_burst = rng.uniform(1e3, 3e3)
        n_tail = min(length - start, int(6 * tau * cfg.sample_rate))
        t = np.arange(n_tail) / cfg.sample_rate
        x[start : start + n_tail] += (
            cfg.spike_amplitude * np.exp(-t / tau) * np.sin(2.0 * np.pi * f_burst * t)
        )
    return n_events


def _piece(system, cfg, tables, psd, seq):
    """One piece's (sum, difference, meter), drawn from its own substream."""
    rng = np.random.default_rng(seq)
    length = cfg.segment_length
    x_sum, x_diff, y_m, z_m = _segment(system, cfg, tables, psd, rng)
    if cfg.nonlinearity_lambda != 0.0:
        sq = z_m**2
        x_sum += cfg.nonlinearity_lambda * (sq - sq.mean())
    if cfg.spike_rate > 0.0:
        _add_spikes(x_sum, cfg, rng)
    x_diff += 10.0 ** (cfg.common_mode_leak_db / 20.0) * x_sum
    sigma_e = np.sqrt(cfg.electronic_noise_level)
    x_sum = x_sum + sigma_e * rng.standard_normal(length)
    x_diff = x_diff + sigma_e * rng.standard_normal(length)
    y_m = y_m + sigma_e * rng.standard_normal(length)
    return x_sum, x_diff, y_m


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_pool(task, n: int) -> None:
    """Run ``task(i)`` for every ``i`` in ``range(n)`` on a thread pool.

    The pool has one worker per CPU of the process, and a free worker
    takes the next index.  Each task writes only its own rows, so the
    result does not depend on the number of workers.
    """
    if n == 0:
        return
    from concurrent import futures

    with futures.ThreadPoolExecutor(min(_cpu_count(), n)) as pool:
        # list() re-raises a worker's exception here
        list(pool.map(task, range(n)))


def synthesize(system: SystemParams, cfg: SynthConfig) -> DataSet:
    """Generate a dataset whose second-order statistics match the model.

    Deterministic given (system, cfg): each piece draws from its own
    substream spawned from the seed, and the worker that draws a piece
    writes it into its rows of the channels, so the output does not depend
    on the number of CPUs.
    """
    cfg.validate_band(system)
    tables, psd = _port_tables(system, cfg)
    length = cfg.segment_length
    half = length // 2
    n_total = cfg.n_segments * length
    n_pieces = 2 * cfg.n_segments + 1 if cfg.continuous else cfg.n_segments
    chans = {name: np.zeros(n_total) for name in _CHANNEL_ORDER}
    # sin half-windows at 50% overlap sum to unit power across joints
    window = np.sin(np.pi * (np.arange(length) + 0.5) / length)
    seqs = np.random.SeedSequence(cfg.seed).spawn(n_pieces)

    def place(i):
        lo = i * half - half if cfg.continuous else i * length
        a = max(lo, 0)
        b = min(lo + length, n_total)
        for name, x in zip(_CHANNEL_ORDER, _piece(system, cfg, tables, psd, seqs[i])):
            if cfg.continuous:
                chans[name][a:b] += (window * x)[a - lo : b - lo]
            else:
                chans[name][a:b] = x

    if cfg.continuous:
        # piece i spans half-blocks i-1 and i, so the even pieces and then
        # the odd ones write disjoint samples; each sample is 0 + a + b,
        # the same in either order
        _on_pool(lambda k: place(2 * k), cfg.n_segments + 1)
        _on_pool(lambda k: place(2 * k + 1), cfg.n_segments)
    else:
        _on_pool(place, n_pieces)
    return DataSet(
        sum=chans["sum"],
        difference=chans["difference"],
        meter=chans["meter"],
        config=cfg,
        config_hash=system.config_hash(),
    )


def write_dataset(ds: DataSet, path) -> None:
    """Write the binary dataset file (see the package data-format notes)."""
    header = {
        "sample_rate_hz": repr(ds.config.sample_rate),
        "segment_length": str(ds.config.segment_length),
        "n_segments": str(ds.config.n_segments),
        "seed": str(ds.config.seed),
        "config_hash": ds.config_hash,
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        for key in _HEADER_KEYS:
            fh.write(f"{key}={header[key]}\n".encode("utf-8"))
        fh.write(b"\n")
        for name in _CHANNEL_ORDER:
            # the array's own buffer, without the copy tobytes() would make
            fh.write(memoryview(np.ascontiguousarray(ds.channel(name), dtype="<f8")))


def read_dataset(path) -> DataSet:
    """Read a dataset file; round-trips ``write_dataset`` bit-exactly."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version = fh.read(1)
        if len(version) != 1 or version[0] != _VERSION:
            raise FormatError(f"unsupported version {version!r}")
        header = {}
        while True:
            line = _read_line(fh)
            if line == "":
                break
            if "=" not in line:
                raise FormatError(f"malformed header line {line!r}")
            key, value = line.split("=", 1)
            header[key] = value
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise FormatError(f"missing header keys {missing}")
        n_total = int(header["segment_length"]) * int(header["n_segments"])
        expected = 3 * n_total * 8
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise FormatError(
                f"truncated or padded payload: expected {expected} bytes, "
                f"got {payload}"
            )
        # one read into one array; the channels are views of it
        data = np.fromfile(fh, dtype="<f8", count=3 * n_total)
    cfg = SynthConfig(
        sample_rate=float(header["sample_rate_hz"]),
        segment_length=int(header["segment_length"]),
        n_segments=int(header["n_segments"]),
        seed=int(header["seed"]),
    )
    return DataSet(
        sum=data[:n_total],
        difference=data[n_total : 2 * n_total],
        meter=data[2 * n_total :],
        config=cfg,
        config_hash=header["config_hash"],
    )


def _read_line(fh) -> str:
    out = bytearray()
    while True:
        b = fh.read(1)
        if b == b"":
            raise FormatError("unexpected end of file inside header")
        if b == b"\n":
            return out.decode("utf-8")
        out += b
