"""Synthetic three-channel detector records with model-matched statistics.

Each segment is an independent stationary realization built on the DFT
grid: every input channel of the cavity model gets complex Gaussian
amplitudes shaped by its spectrum, the output-port coefficients map them
to the detected quadratures, and an inverse FFT produces the real time
series.  Samples are in SQL units: a pure vacuum quadrature has unit
spectral density on the estimator's grid.

The pieces are drawn on a thread pool and handed to one of two sinks:
``synthesize`` writes them into in-memory channels and returns a
``DataSet``; ``synthesize_file`` writes each piece at its offset in a
``.qnd`` file, so the channels are never held in memory.  ``QndFile``
serves the segments of such a file by positioned reads.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import threading
from dataclasses import dataclass, fields

import numpy as np
# imported here, before the CLI sets its SIGTERM handler: numpy would import
# it on first use, mid-draw, and that import swallows an exception the
# handler raises inside it, so the run would go on and exit 0
import numpy.random  # noqa: F401

from .errors import ConfigError, FormatError
from .om_core import CLASSICAL_CHANNELS, VACUUM_CHANNELS
from .params import SystemParams
from .theory import SpectrumModel

_MAGIC = b"QNDL"
_VERSION = 2
# the channels in file order
CHANNELS = ("sum", "difference", "meter")
# bins of the rfft grid per SpectrumModel evaluation in _port_tables
_CHUNK_BINS = 2048
# the most spike bursts a piece may expect: _add_spikes draws them one by one
_MAX_BURSTS = 1000


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
    independent periodic segments.  Every float setting must be finite, the
    seed non-negative, and a piece may expect at most ``_MAX_BURSTS``
    spike bursts.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # every payload byte offset must fit a signed 64-bit file offset
        if 3 * max(self.n_segments, 1) * self.segment_length * 8 >= 2**63:
            raise ConfigError(
                f"{self.n_segments} segments of {self.segment_length} samples "
                "are too many for a dataset file"
            )
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if self.electronic_noise_level < 0 or self.spike_rate < 0:
            raise ConfigError("noise levels and rates must be non-negative")
        try:
            10.0 ** (self.common_mode_leak_db / 20.0)  # the gain _piece applies
        except OverflowError:
            raise ConfigError(
                f"common_mode_leak_db = {self.common_mode_leak_db!r} overflows "
                "its amplitude gain 10**(dB/20)"
            ) from None
        bursts = self.spike_rate * (self.segment_length / self.sample_rate)
        if bursts > _MAX_BURSTS:
            raise ConfigError(
                f"spike_rate = {self.spike_rate!r} expects {bursts:.3g} bursts per "
                f"{self.segment_length}-sample piece, more than {_MAX_BURSTS}"
            )

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
    """Three synchronized real channels, held in memory.

    Channels are stored concatenated (n_segments * segment_length samples
    each); the segment boundaries are implied by ``config``.  Selection and
    the transform read it, as they read an open ``QndFile``, through
    ``segment``.
    """

    sum: np.ndarray
    difference: np.ndarray
    meter: np.ndarray
    config: SynthConfig
    config_hash: str = ""

    def __post_init__(self):
        n = self.config.n_segments * self.config.segment_length
        for name in CHANNELS:
            x = getattr(self, name)
            if len(x) != n:
                raise ConfigError(
                    f"{name} channel holds {len(x)} samples, "
                    f"not n_segments x segment_length = {n}"
                )
            if not np.all(np.isfinite(x)):
                raise ConfigError(f"non-finite samples in {name} channel")

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise KeyError(name)
        return getattr(self, name)

    def segment(self, name: str, i: int) -> np.ndarray:
        """Channel ``name`` of segment ``i``, as a read-only view."""
        _check_segment(self.config, i)
        length = self.config.segment_length
        x = self.channel(name)[i * length : (i + 1) * length]
        # the view is frozen so an in-place write fails loudly
        x.flags.writeable = False
        return x


def _check_segment(cfg: SynthConfig, i: int) -> None:
    if not 0 <= i < cfg.n_segments:
        raise IndexError(f"segment {i} of a {cfg.n_segments}-segment dataset")


def _port_tables(system: SystemParams, cfg: SynthConfig):
    """Both ports' quadrature coefficients and the classical PSDs on the rfft grid.

    Returns ``(tables, psd)``.  ``tables[port][ch]``, for each channel that
    reaches the port, holds what ``_segment`` reads: ``(u(omega),
    conj(u(-omega)))`` for a vacuum, ``(u(omega),)`` for a classical
    channel.  ``psd[ch]`` is a classical channel's input spectrum.  Each
    entry is a row over the grid, or the scalar ``SpectrumModel`` holds
    for an entry that is the same at every frequency.

    ``SpectrumModel`` is evaluated on ``_CHUNK_BINS`` bins of the grid at a
    time, and each chunk is written into its slice of the rows.  Every model
    quantity is elementwise in omega, so the rows equal one evaluation over
    the whole grid bit for bit, and conjugation is exact; the model's own
    temporaries stay a few chunks in size at any segment length.
    """
    cfg.validate_band(system)
    m = cfg.segment_length // 2 + 1
    # np.fft.rfftfreq's bins, k * df, one chunk at a time
    df = 1.0 / (cfg.segment_length * (1.0 / cfg.sample_rate))
    for lo in range(0, m, _CHUNK_BINS):
        hi = min(lo + _CHUNK_BINS, m)
        omega = 2.0 * np.pi * (np.arange(lo, hi) * df)
        if lo == 0:
            omega[0] = omega[1] * 1e-6  # avoid the exact-DC corner of the model
        model = SpectrumModel(system, omega)
        # (port, channel) -> the table entry, ("psd", channel) -> (psd,)
        chunk = {}
        for port, phi in (("signal", model.phi_s), ("meter", model.phi_m)):
            for ch in model.channels[port]:
                u_pos, u_neg = model.coefficients(port, ch, phi)
                vacuum = ch in VACUUM_CHANNELS
                chunk[port, ch] = (u_pos, np.conj(u_neg)) if vacuum else (u_pos,)
        for ch in CLASSICAL_CHANNELS:
            chunk["psd", ch] = (model.psd[ch],)
        if lo == 0:  # the first chunk lays out the rows
            rows = _rows(chunk, m)
        for key, entry in chunk.items():
            for row, x in zip(rows[key], entry):
                if np.ndim(x):
                    row[lo:hi] = x
        del model, chunk  # held into the next chunk, they slowed its build 15 %
    tables = {}
    for (port, ch), entry in rows.items():
        tables.setdefault(port, {})[ch] = entry
    psd = {ch: x for ch, (x,) in tables.pop("psd").items()}
    return tables, psd


def _rows(chunk, m: int):
    """Unfilled rows of ``m`` bins for ``chunk``'s entries, keyed as ``chunk``.

    Each array entry gets a row of its dtype; a scalar entry is the same at
    every bin and is kept as it is.
    """
    # All rows sit in one anonymous mapping rather than malloc blocks, so
    # freeing it returns the memory at once: from malloc, a block under
    # glibc's 32 MiB cap on the dynamic mmap threshold (27 MB at 2**17
    # samples) can land on the heap, and the hole it left raised a
    # 32 x 2**17 run's peak RSS by 46 MB.  Separate tables would leave such
    # holes between them, which synthesis threads, allocating from their
    # own arenas, cannot reuse.
    size = m * sum(x.itemsize for entry in chunk.values() for x in entry if np.ndim(x))
    raw = np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)
    end = 0

    def lay(x):
        nonlocal end
        if not np.ndim(x):
            return x
        end += m * x.itemsize
        return raw[end - m * x.itemsize : end].view(x.dtype)

    return {key: tuple(map(lay, entry)) for key, entry in chunk.items()}


def _draw(rng, m, out=None):
    """Complex normals, into ``out`` if given.

    Same bits and draw order as a + 1j*b, without the complex temporaries.
    """
    z = np.empty(m, dtype=complex) if out is None else out
    z.real = rng.standard_normal(m)
    z.imag = rng.standard_normal(m)
    return z


def _segment(cfg, tables, psd, rng, out=None):
    """One segment of (sum, difference, meter, zeta-part-of-meter).

    The zeta part feeds only the quadratic nonlinearity; it is None when
    ``cfg.nonlinearity_lambda`` is 0.  ``out``, if given, holds the sum,
    difference and meter rows the first three are transformed into.  A
    table or PSD entry is a row or a scalar, and is multiplied as it is.
    The spectra are built in place, in two scratch rows and two reused
    draw rows, and each is freed after its inverse FFT.  Every product and
    sum is the one the plain expression in the comments computes, with the
    same operands in the same order, so the samples are bit for bit those
    of that expression.
    """
    length = cfg.segment_length
    m = length // 2 + 1
    root = np.sqrt(length / 2.0)
    scale = root * np.sqrt(0.5)
    f_s = np.zeros(m, dtype=complex)
    f_m = np.zeros(m, dtype=complex)
    f_zm = None
    g1, g2 = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    t1, t2 = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    # fixed channel order keeps the draw sequence deterministic; a vacuum
    # is drawn even where one port alone sees it
    for ch in VACUUM_CHANNELS:
        _draw(rng, m, out=g1)
        _draw(rng, m, out=g2)
        for f_out, port in ((f_s, "signal"), (f_m, "meter")):
            if ch not in tables[port]:
                continue
            # f_out += scale * (u_pos * g1 + conj(u_neg) * g2)
            u_pos, u_neg_conj = tables[port][ch]
            np.multiply(u_pos, g1, out=t1)
            np.multiply(u_neg_conj, g2, out=t2)
            t1 += t2
            np.multiply(scale, t1, out=t1)
            f_out += t1
    del g2, t2
    for ch in CLASSICAL_CHANNELS:
        # z = root * sqrt(psd) * draw; f_s += u_s * z; f_m += u_m * z
        z = _draw(rng, m, out=g1)
        np.multiply(root * np.sqrt(psd[ch]), z, out=z)
        f_s += np.multiply(tables["signal"][ch][0], z, out=t1)
        if ch == "zeta" and cfg.nonlinearity_lambda != 0.0:
            f_zm = tables["meter"][ch][0] * z
            f_m += f_zm
        else:
            f_m += np.multiply(tables["meter"][ch][0], z, out=t1)
    del g1, z, t1
    out_sum, out_diff, out_m = (None, None, None) if out is None else out
    x_sum = _irfft(f_s, length, out_sum)
    del f_s
    y_m = _irfft(f_m, length, out_m)
    del f_m
    z_m = None if f_zm is None else _irfft(f_zm, length)
    del f_zm
    # difference port: independent vacuum at the detected power, root * draw
    f_d = _draw(rng, m)
    np.multiply(root, f_d, out=f_d)
    return x_sum, _irfft(f_d, length, out_diff), y_m, z_m


def _irfft(f, length, out=None):
    """The real series of half spectrum ``f``, into ``out`` if given.

    Zeroes ``f``'s DC bin first; ``irfft`` reads only the Nyquist bin's real part.
    """
    f[0] = 0.0
    return np.fft.irfft(f, n=length, out=out)


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


def _piece(cfg, tables, psd, seq, out=None):
    """One piece's (sum, difference, meter), drawn from its own substream.

    The series are transformed into the three rows of ``out`` if given,
    and into new arrays otherwise.  The time-domain steps run in place and
    share one noise row; as in ``_segment``, each keeps the operands and
    order of the expression in its comment.
    """
    rng = np.random.default_rng(seq)
    x_sum, x_diff, y_m, z_m = _segment(cfg, tables, psd, rng, out)
    if cfg.nonlinearity_lambda != 0.0:
        # x_sum += lambda * (z_m**2 - mean(z_m**2))
        np.square(z_m, out=z_m)
        z_m -= z_m.mean()
        np.multiply(cfg.nonlinearity_lambda, z_m, out=z_m)
        x_sum += z_m
    del z_m
    if cfg.spike_rate > 0.0:
        _add_spikes(x_sum, cfg, rng)
    # x_diff += leak * x_sum
    noise = np.multiply(10.0 ** (cfg.common_mode_leak_db / 20.0), x_sum)
    x_diff += noise
    # x += sigma_e * standard_normal(length), for each channel in turn
    sigma_e = np.sqrt(cfg.electronic_noise_level)
    for x in (x_sum, x_diff, y_m):
        rng.standard_normal(out=noise)
        np.multiply(sigma_e, noise, out=noise)
        x += noise
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


def _synthesize_into(cfg: SynthConfig, port_tables, put, chans=None) -> None:
    """Draw every piece on the pool and hand its samples to ``put``.

    ``port_tables`` is what ``_port_tables`` returns for ``cfg``.
    ``put(name, start, x, add)`` stores ``x`` as the samples of channel
    ``name`` from ``start`` on or, with ``add``, adds ``x`` to the samples
    stored there.  It runs on the worker that drew the piece.  Given
    ``chans``, the in-memory channels by name, a piece that is not
    cross-faded is drawn straight into its rows there, and ``put`` is not
    called for it.  Each piece draws from its own substream spawned from
    the seed, so the samples do not depend on the number of CPUs.
    """
    tables, psd = port_tables
    length = cfg.segment_length
    half = length // 2
    n_total = cfg.n_segments * length
    n_pieces = 2 * cfg.n_segments + 1 if cfg.continuous else cfg.n_segments
    if cfg.continuous:
        # sin half-windows at 50% overlap sum to unit power across joints
        window = np.sin(np.pi * (np.arange(length) + 0.5) / length)
    seqs = np.random.SeedSequence(cfg.seed).spawn(n_pieces)

    def place(i, add=False):
        lo = i * half - half if cfg.continuous else i * length
        if chans is not None and not cfg.continuous:
            rows = [chans[name][lo : lo + length] for name in CHANNELS]
            _piece(cfg, tables, psd, seqs[i], out=rows)
            return
        a = max(lo, 0)
        b = min(lo + length, n_total)
        for name, x in zip(CHANNELS, _piece(cfg, tables, psd, seqs[i])):
            if cfg.continuous:
                x = np.multiply(window, x, out=x)[a - lo : b - lo]
                if not add:
                    x += 0.0  # the stored sample is 0 + a, so -0.0 becomes +0.0
            put(name, a, x, add)

    if cfg.continuous:
        # piece i spans half-blocks i-1 and i, so the even pieces and then
        # the odd ones write disjoint samples and each pass covers every
        # sample once; each sample is 0 + a + b, the same in either order
        _on_pool(lambda k: place(2 * k), cfg.n_segments + 1)
        _on_pool(lambda k: place(2 * k + 1, add=True), cfg.n_segments)
    else:
        _on_pool(place, n_pieces)


def synthesize(system: SystemParams, cfg: SynthConfig) -> DataSet:
    """Generate a dataset whose second-order statistics match the model.

    Deterministic given (system, cfg), whatever the number of CPUs: the
    worker that draws a piece transforms it into its rows of the channels
    or, in continuous mode, adds it there.
    """
    port_tables = _port_tables(system, cfg)
    n_total = cfg.n_segments * cfg.segment_length
    chans = {name: np.zeros(n_total) for name in CHANNELS}

    def put(name, start, x, add):
        row = chans[name][start : start + len(x)]
        if add:
            row += x
        else:
            row[:] = x

    _synthesize_into(cfg, port_tables, put, chans)
    return DataSet(**chans, config=cfg, config_hash=system.config_hash())


def synthesize_file(system: SystemParams, cfg: SynthConfig, path) -> None:
    """Synthesize straight into the ``.qnd`` file at ``path``.

    Writes the bytes of ``write_dataset(synthesize(system, cfg), path)``
    without holding the channels: the worker that draws a piece writes it at
    its offset in the file, and in continuous mode the second pass reads
    its samples back, adds and writes them again.  A failed run leaves no
    file behind (see ``_write``).
    """
    port_tables = _port_tables(system, cfg)
    _write(path, cfg, system.config_hash(),
           lambda put: _synthesize_into(cfg, port_tables, put))


def _write(path, cfg: SynthConfig, config_hash: str, fill) -> None:
    """Write the ``.qnd`` file at ``path``: the one writer of the format.

    ``fill(put)`` stores the samples through ``put(name, start, x, add)``
    (see ``_synthesize_into``); a non-finite one raises ``ConfigError`` as
    ``DataSet`` does.  The file is written under a temporary name beside
    ``path`` and renamed after ``fill`` returns, so a failed write leaves
    neither file behind.
    """
    # every SynthConfig field as name=repr(value), so floats round-trip
    lines = [f"{f.name}={getattr(cfg, f.name)!r}\n" for f in fields(SynthConfig)]
    lines.append(f"config_hash={config_hash}\n\n")
    header = _MAGIC + bytes([_VERSION]) + "".join(lines).encode("utf-8")
    n_total = cfg.n_segments * cfg.segment_length
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w+b", buffering=0) as fh:
            fd = fh.fileno()
            _pwrite(fd, header, 0)
            # pre-sized: a sample that is never written would read as zero,
            # which is why the file is renamed only after the last one
            fh.truncate(len(header) + 3 * n_total * 8)

            def put(name, start, x, add):
                offset = len(header) + (CHANNELS.index(name) * n_total + start) * 8
                if add:
                    x = np.add(_pread_into(fd, np.empty(len(x), dtype="<f8"), offset), x)
                if not np.all(np.isfinite(x)):
                    raise ConfigError(f"non-finite samples in {name} channel")
                _pwrite(fd, np.ascontiguousarray(x, dtype="<f8"), offset)

            fill(put)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of ``data`` at byte ``offset`` of ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _pread_into(fd: int, out: np.ndarray, offset: int) -> np.ndarray:
    """Fill ``out`` (``<f8``) with the samples at byte ``offset`` of ``fd``."""
    view = memoryview(out).cast("B")
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise FormatError(f"payload ends before byte {offset}")
        view, offset = view[n:], offset + n
    return out


def write_dataset(ds: DataSet, path) -> None:
    """Write ``ds`` as a ``.qnd`` file through ``synthesize_file``'s writer."""

    def fill(put):
        for name in CHANNELS:
            put(name, 0, ds.channel(name), False)

    _write(path, ds.config, ds.config_hash, fill)


# header value parsers by the type of a SynthConfig field's default
_PARSE = {bool: {"True": True, "False": False}.__getitem__, int: int, float: float}


def _read_header(fh) -> tuple[SynthConfig, str]:
    """Parse the header of the open file ``fh`` and check its payload size.

    Returns the ``SynthConfig`` and the system hash, with ``fh`` at the
    first payload byte.  Any header that does not rebuild a valid
    ``SynthConfig`` (a version-1 file, a missing or unknown key, a value
    that does not parse or that ``SynthConfig`` rejects) raises
    ``FormatError``, as does a payload of the wrong size.
    """
    magic = fh.read(4)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    version = fh.read(1)
    if len(version) != 1 or version[0] != _VERSION:
        raise FormatError(
            f"unsupported version {version!r}, expected {_VERSION}; "
            "re-run qndlab synth to write the current format"
        )
    header = {}
    while (line := fh.readline()) != b"\n":
        if not line.endswith(b"\n"):
            raise FormatError("unexpected end of file inside header")
        key, sep, value = line[:-1].decode("utf-8", "replace").partition("=")
        if not sep:
            raise FormatError(f"malformed header line {line!r}")
        if key in header:
            raise FormatError(f"duplicate header key {key!r}")
        header[key] = value
    keys = [f.name for f in fields(SynthConfig)] + ["config_hash"]
    missing = [k for k in keys if k not in header]
    unknown = [k for k in header if k not in keys]
    if missing or unknown:
        raise FormatError(f"header keys: missing {missing}, unknown {unknown}")
    values = {}
    for f in fields(SynthConfig):
        kind = type(f.default)
        try:
            values[f.name] = _PARSE[kind](header[f.name])
        except (KeyError, ValueError):
            raise FormatError(
                f"header {f.name}={header[f.name]!r} does not parse as {kind.__name__}"
            ) from None
    try:
        cfg = SynthConfig(**values)
    except ConfigError as exc:
        raise FormatError(f"header: {exc}") from None
    expected = 3 * cfg.segment_length * cfg.n_segments * 8
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != expected:
        raise FormatError(
            f"truncated or padded payload: expected {expected} bytes, "
            f"got {payload}"
        )
    return cfg, header["config_hash"]


def read_dataset(path) -> DataSet:
    """Read a dataset file into memory; round-trips ``write_dataset`` bit-exactly.

    The file is opened as a ``QndFile``, so it raises ``FormatError`` for
    the same headers and payload sizes, and for a non-finite sample.
    """
    with QndFile(path) as qf:
        n_total = qf.config.segment_length * qf.config.n_segments
        # one read into one array; the channels are views of it
        data = _pread_into(qf._fh.fileno(), np.empty(3 * n_total, "<f8"), qf._payload)
    try:
        return DataSet(
            sum=data[:n_total],
            difference=data[n_total : 2 * n_total],
            meter=data[2 * n_total :],
            config=qf.config,
            config_hash=qf.config_hash,
        )
    except ConfigError as exc:  # non-finite samples in the payload
        raise FormatError(f"payload: {exc}") from None


class QndFile:
    """An open dataset file that serves its segments by positioned reads.

    Opening parses the header and checks the payload size (``read_dataset``
    reads through it too); no sample is read until ``segment`` asks for
    one, so the channels are never held in memory.  ``segment`` may be
    called from several threads at once; each thread reads into its own
    one-segment buffer.  The samples are not checked here: selection checks
    every one for finiteness as it reads them.  Close the file with
    ``close`` or by using it as a context manager.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self.config, self.config_hash = _read_header(self._fh)
        except BaseException:
            self._fh.close()
            raise
        self._payload = self._fh.tell()
        self._local = threading.local()  # per-call buffers slowed `estimate` 22 %

    def segment(self, name: str, i: int) -> np.ndarray:
        """Channel ``name`` of segment ``i``, read into this thread's buffer.

        The thread's next call overwrites the returned array.
        """
        _check_segment(self.config, i)
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = np.empty(self.config.segment_length, dtype="<f8")
        first = CHANNELS.index(name) * self.config.n_segments + i
        offset = self._payload + first * self.config.segment_length * 8
        return _pread_into(self._fh.fileno(), buf, offset)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "QndFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

