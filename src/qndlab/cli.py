"""Command-line entry point for reproducible runs.

Subcommands: theory, synth, estimate, fit, budget.  All outputs are CSV
or plain text; plotting is left to external tools.

Exit codes, carried by the error families of ``errors``:
  0  success
  2  ConfigError: bad config file, key, flag or [synth] value, a run config
     that did not make the dataset, ``fit`` on a vacuum-only dataset, an
     inverted estimate band, an analysis frequency outside it, an unknown
     window, a band-average width or belt confidence ``band_average``
     rejects (a confidence whose 0.5 + confidence/2 rounds to 1 or to 0.5
     among them), a ``[fit]`` band reaching past the estimate band, a ``[fit]``
     setting ``FitProblem`` rejects
  3  FormatError or OSError: missing or malformed dataset file
  4  StatisticsError: too few segments, singular systems, degenerate
     targets, an estimate band off the grid, one without calibration bins,
     and for ``estimate`` one without a bin in the window of the residual
     minimum, a shot-noise calibration that gives no positive SQL
  5  ModelError: non-convergence, divergent susceptibility, domain

``estimate`` and ``fit`` run every check that needs only the config and
the dataset header before they read any payload sample.  Any other
exception propagates with its traceback.  SIGTERM exits 143 after the
same clean-up an exception runs, so ``synth`` leaves no temporary file
behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import signal
import sys
import threading

import numpy as np

from . import estimation, fitting, synth, theory
from .config import RunConfig, default_config_text, load_config
from .errors import ConfigError, QndError, StatisticsError
from .pipeline import analyze


def _minimum_window(frequencies):
    """Mask of the open 160-180 kHz window of ``estimate``'s residual minimum.

    Raises for ``frequencies`` without a bin there.
    """
    inside = (frequencies > 160e3) & (frequencies < 180e3)
    if not inside.any():
        raise StatisticsError(
            "the estimate band holds no bin of 160-180 kHz, where the report "
            "looks for the residual minimum"
        )
    return inside


def _write_csv(path, header, columns, config_hash=None):
    with open(path, "w") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _system(cfg: RunConfig, vacuum_only: bool):
    system = cfg.system()
    return system.vacuum_only() if vacuum_only else system


@contextlib.contextmanager
def _open_dataset(cfg: RunConfig, path, vacuum_only_ok: bool):
    """Open the dataset at ``path``; yield it and its estimate-band grid.

    Checks, reading no payload sample: the estimate band on the header's
    grid, its calibration bins, the analysis frequency and the window; then
    the run config's system, or its vacuum-only variant if
    ``vacuum_only_ok``, must hash to the dataset's ``config_hash``, and its
    ``[synth]`` settings must equal the header's (the seed is not
    compared).  The command then checks its own settings on the grid.
    """
    with synth.QndFile(path) as ds:
        freqs, lo, hi = estimation.band_grid(ds.config, cfg.estimate_band())
        estimation.calibration_bins(freqs[lo:hi])
        cfg.analysis_freq_hz()
        estimation.taper(cfg.get("estimate", "window"), ds.config.segment_length)
        system = cfg.system()
        driven = system.config_hash()
        if ds.config_hash not in (driven, system.vacuum_only().config_hash()):
            raise ConfigError(
                f"{path}: the dataset's system hash {ds.config_hash} is not the run "
                f"config's {driven} (nor its vacuum-only variant's)"
            )
        if ds.config_hash != driven and not vacuum_only_ok:
            raise ConfigError(
                f"{path}: the dataset is vacuum-only (synth --vacuum-only), "
                "which carries no drive to fit"
            )
        run = cfg.synth_config(seed=ds.config.seed)
        for f in dataclasses.fields(run):
            have, want = getattr(ds.config, f.name), getattr(run, f.name)
            if have != want:
                raise ConfigError(
                    f"{path}: synthesized with {f.name} = {have!r}, "
                    f"but the run config gives {want!r}"
                )
        yield ds, freqs[lo:hi]


def cmd_theory(cfg: RunConfig, args) -> int:
    out = args.out
    system = _system(cfg, args.vacuum_only)
    # simplified single-oscillator curves on their documented grid
    sp = theory.SimpleModelParams(
        omega_m=1.0, gamma_m=0.005, gamma_ba=1.0, gamma_th=0.5, r_param=0.0
    )
    w = np.linspace(0.8, 1.2, 2001)
    if args.vacuum_only:
        # no drive: every quantum-limited curve is flat shot noise
        limits = [np.ones_like(w)] * 3
    else:
        limits = [
            theory.simple_residual_spectrum(sp, w),
            theory.min_quadrature_spectrum(sp, w),
            theory.fixed_phase_output_spectrum(sp, 0.1, w),
        ]
    _write_csv(
        os.path.join(out, "simple_model.csv"),
        [
            "omega_over_omega_m",
            "displacement",
            "residual_quantum_limit",
            "min_quadrature",
            "fixed_phase_output",
        ],
        [w, theory.displacement_spectrum(sp, w), *limits],
        config_hash=system.config_hash(),
    )
    omega = theory.default_omega_grid(system)
    model = theory.SpectrumModel(system, omega)
    s_xs, s_ym, s_xy, msc, res = model.residual_spectra()
    _write_csv(
        os.path.join(out, "full_model.csv"),
        [
            "frequency_hz",
            "s_xs",
            "s_ym",
            "s_xy_re",
            "s_xy_im",
            "msc",
            "residual",
        ],
        [omega / (2 * np.pi), s_xs, s_ym, s_xy.real, s_xy.imag, msc, res],
        config_hash=system.config_hash(),
    )
    print(f"wrote simple_model.csv and full_model.csv to {out}")
    return 0


def cmd_budget(cfg: RunConfig, args) -> int:
    system = _system(cfg, args.vacuum_only)
    omega = theory.default_omega_grid(system)
    budget = theory.noise_budget(system, "signal", omega)
    header = ["frequency_hz"] + list(budget.contributions) + ["total"]
    columns = [omega / (2 * np.pi), *budget.contributions.values(), budget.total]
    path = os.path.join(args.out, "budget_signal.csv")
    _write_csv(path, header, columns, config_hash=system.config_hash())
    print(f"wrote {path}")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    system = _system(cfg, args.vacuum_only)
    scfg = cfg.synth_config(seed=args.seed)
    path = os.path.join(args.out, "dataset.qnd")
    synth.synthesize_file(system, scfg, path)
    print(
        f"wrote {path}: {scfg.n_segments} segments of {scfg.segment_length} "
        f"samples at {scfg.sample_rate:g} Hz, seed {scfg.seed}"
    )
    return 0


def cmd_estimate(cfg: RunConfig, args) -> int:
    channels = tuple(c.strip() for c in args.channels.split(",") if c.strip())
    residual = {
        ("meter",): estimation.residual_single,
        ("meter", "meter_squared"): estimation.residual_two_channel,
    }.get(channels)
    if residual is None:
        raise ConfigError(
            f"--channels must be 'meter' or 'meter,meter_squared', got {args.channels!r}"
        )
    width = cfg.get_float("estimate", "band_average_hz")
    confidence = cfg.get_float("estimate", "confidence")
    with _open_dataset(cfg, args.dataset, vacuum_only_ok=True) as (ds, freqs):
        estimation.banding(width, freqs, confidence)
        _minimum_window(freqs)
        analysis = analyze(ds, cfg)
    seg = analysis.seg
    res = residual(seg)
    res_n = analysis.normalized(res)
    msc = estimation.msc_estimate(seg)
    banded = estimation.band_average(res_n, width, confidence)
    diag = estimation.split_consistency(res)
    out = args.out
    for name, estimate in (
        ("spectrum_sum", analysis.spectrum_sum),
        ("residual", res_n),
        ("residual_banded", banded),
        ("msc", msc),
    ):
        estimation.write_spectrum_csv(estimate, os.path.join(out, f"{name}.csv"))
    _write_csv(
        os.path.join(out, "split_consistency.csv"),
        ["frequency_hz", "normalized_difference"],
        [diag.frequencies, diag.values],
    )
    f = banded.frequencies
    imin = np.argmin(np.where(_minimum_window(f), banded.values, np.inf))
    report = [
        "estimation report",
        "-----------------",
        f"segments kept: {seg.n_kept}/{len(seg.kept_mask)} "
        f"({seg.kept_fraction:.1%})",
        f"SQL reference: {analysis.sql:.6g} "
        f"(stderr {analysis.calibration['stderr']:.3g})",
        f"channels: {','.join(channels)}",
        f"banded residual minimum: {banded.values[imin]:.4f} "
        f"+- {banded.stderr[imin]:.4f} at {f[imin]:.0f} Hz "
        f"({width:g} Hz bands, {confidence:.0%} belt)",
        f"split consistency: mean {diag.mean:.3f} +- {diag.mean_stderr:.3f}, "
        f"sd {diag.sd:.3f}",
    ]
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")
    print("\n".join(report))
    return 0


def cmd_fit(cfg: RunConfig, args) -> int:
    with _open_dataset(cfg, args.dataset, vacuum_only_ok=False) as (ds, freqs):
        system = cfg.system()
        # checked on the header's grid with a stand-in target, then refilled
        problem = fitting.FitProblem(
            system=system,
            frequencies=freqs,
            target=np.ones_like(freqs),
            stderr=np.ones_like(freqs),
            free_params=cfg.fit_bounds(system.cavity.kappa),
            band=cfg.fit_band(),
            n_multistarts=cfg.get_int("fit", "n_multistarts"),
            seed=cfg.seed(args.seed),
        )
        p_sum = analyze(ds, cfg).spectrum_sum
    result = fitting.fit(
        dataclasses.replace(problem, target=p_sum.values, stderr=p_sum.stderr)
    )
    text = fitting.fit_report_text(result)
    with open(os.path.join(args.out, "fit_report.txt"), "w") as fh:
        fh.write(text)
    fitted_system = fitting.with_params(system, result.params)
    model = theory.SpectrumModel(fitted_system, 2 * np.pi * p_sum.frequencies)
    _write_csv(
        os.path.join(args.out, "fit_curves.csv"),
        ["frequency_hz", "target", "model"],
        [
            p_sum.frequencies,
            p_sum.values,
            model.quadrature_spectrum("signal", model.phi_s),
        ],
    )
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndlab",
        description="Cavity optomechanics QND measurement laboratory",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration and exit")
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="configuration file")
    common.add_argument("--out", default=".", help="output directory")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="run seed override")
    vacuum = argparse.ArgumentParser(add_help=False)
    vacuum.add_argument("--vacuum-only", action="store_true",
                        help="switch off drive and classical noises")
    sub.add_parser("theory", parents=[common, vacuum])
    sub.add_parser("budget", parents=[common, vacuum])
    sub.add_parser("synth", parents=[common, seed, vacuum])
    p_est = sub.add_parser("estimate", parents=[common])
    p_est.add_argument("dataset", help="dataset file to analyze")
    p_est.add_argument("--channels", default="meter",
                       help="predictor channels: meter or meter,meter_squared")
    p_fit = sub.add_parser("fit", parents=[common, seed])
    p_fit.add_argument("dataset", help="dataset file to fit")
    return parser


_COMMANDS = {
    "theory": cmd_theory,
    "budget": cmd_budget,
    "synth": cmd_synth,
    "estimate": cmd_estimate,
    "fit": cmd_fit,
}


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_exits():
    """Turn SIGTERM into ``SystemExit(143)`` while the block runs.

    The exit unwinds the stack, so ``finally`` and ``except`` blocks, such
    as the one that removes a half-written dataset, run first.  A handler
    can only be set from the main thread; elsewhere SIGTERM keeps its own.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(default_config_text())
        return 0
    if args.command is None:
        parser.print_help()
        return ConfigError.exit_code
    try:
        with _sigterm_exits():
            cfg = load_config(path=args.config) if args.config else load_config(text="")
            os.makedirs(args.out, exist_ok=True)
            return _COMMANDS[args.command](cfg, args)
    except (QndError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a file that cannot be read exits as a malformed one does
        return exc.exit_code if isinstance(exc, QndError) else 3


if __name__ == "__main__":
    sys.exit(main())
