"""Output-digest matrix: what every qndlab command writes, as SHA-256 digests.

    python3 tools/outputs.py [--src TREE] --out DIR [--against OLD_DIR]

Runs a fixed matrix of CLI invocations against the package in
``TREE/src`` (by default this checkout's), each in its own child process,
two at a time, from the scratch directory
``DIR/work`` with relative ``--out`` paths, so that stdout compares across
trees.  The matrix, at 16 x 2^16 samples and seed 3:

- ``theory``, ``budget`` and ``synth``, plain and ``--vacuum-only``;
- ``theory`` and ``budget`` with ``thermal_force_scaling = frequency``,
  whose xi PSD varies over the grid;
- ``estimate`` with ``meter``, with ``meter,meter_squared``, with the
  ``hann`` window and on the vacuum-only dataset;
- ``synth`` and ``estimate`` at an odd count of 15 segments;
- ``fit`` at 6 multistarts with the default ``free_params`` and each other
  non-empty subset;
- a stress config (``continuous``, spikes, nonlinearity, selection limits
  120 and 30) through ``synth``, ``estimate`` and ``fit``;
- bad inputs: a belt ``confidence`` whose 0.5 + confidence/2 rounds to 1,
  and ``estimate`` and ``fit`` on a dataset whose difference channel is
  zero, so that the shot-noise calibration gives no positive SQL.

One more invocation, ``model-probe``, runs no command: it prints, as
``repr`` values, library model quantities that no config key reaches.
These are the bare-detuning steady states and the lock-phase offset
phi_r - phi_s over lock phases and arm power ratios.

It writes ``DIR/outputs.json``: per invocation the exit code and the
SHA-256 of stdout, stderr and every output file.  The files stay in
``DIR/work/<invocation>/``, the streams in ``DIR/streams/``.

With ``--against OLD_DIR`` (an earlier ``--out``) it then prints only the
invocations that differ from it and exits 1 if any does.  For a numeric CSV
it prints, per column, the largest |delta|, the largest distance in units
in the last place (ulp) and how many rows differ; for text, a short diff.

This is a report, not a test: float output may differ across numpy and BLAS
builds, so digests only compare runs on one machine.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import difflib
import hashlib
import itertools
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the non-empty free_params subsets other than the default, all three
FIT_SUBSETS = [
    ",".join(s)
    for n in (1, 2)
    for s in itertools.combinations(("detuning", "phi_s", "zeta_background"), n)
]

BASE = """
[run]
seed = 3

[synth]
segment_length = 65536
n_segments = 16

[fit]
n_multistarts = 6
"""
STRESS = BASE.replace("n_segments = 16\n", """n_segments = 16
continuous = true
spike_rate = 20
nonlinearity_lambda = 2e-5

[estimate]
peak_limit = 120
rms_limit = 30
""")


def _fit_name(subset):
    return "fit-" + subset.replace(",", "+")


CONFIGS = {
    "base.cfg": BASE,
    "stress.cfg": STRESS,
    # the largest double below 1
    "confidence.cfg": BASE + "\n[estimate]\nconfidence = 0.9999999999999999\n",
    "xi-frequency.cfg": BASE + "\n[system]\nthermal_force_scaling = frequency\n",
    "hann.cfg": BASE + "\n[estimate]\nwindow = hann\n",
    "odd.cfg": BASE.replace("n_segments = 16\n", "n_segments = 15\n"),
    **{f"{_fit_name(s)}.cfg": f"{BASE}free_params = {s}\n" for s in FIT_SUBSETS},
}

# writes the dataset of argv[1] to argv[2] with its difference channel zeroed
ZERO_DIFFERENCE = """
import dataclasses, sys
import numpy as np
from qndlab.synth import read_dataset, write_dataset
ds = read_dataset(sys.argv[1])
ds = dataclasses.replace(ds, difference=np.zeros_like(ds.difference))
write_dataset(ds, sys.argv[2])
"""

# prints the steady states of om_core.steady_state's bare-detuning branch
# (mode-matched 0.3 W at -3 kappa is bistable, 1 W at -2 and -3 kappa has
# one steady state) and at the reference point, and phi_r - phi_s at lock
# phases phi0 for arm power ratios 0.25, the reference and a dark
# reference arm
MODEL_PROBE = """
import dataclasses
import qndlab as q
from qndlab.errors import ModelError
s = q.reference_defaults()
st = q.steady_state(s.mech, s.cavity, s.effective_drive())

def probe(label, f, *args):
    try:
        print(label, repr(f(*args)))
    except ModelError as exc:
        print(label, "ModelError:", exc)

def bare(power, detuning0):
    cavity = dataclasses.replace(s.cavity, detuning=None, detuning0=detuning0)
    drive = dataclasses.replace(s.drive, power=power)
    r = q.steady_state(s.mech, cavity, drive)
    return float(r.detuning), float(abs(r.alpha_s))

def offset(det, phi0):
    trial = dataclasses.replace(det, phi0=phi0)
    phi_r, _, phi_s = q.quadrature_phases(st, s.cavity, trial)
    return phi_r - phi_s

for power, a in ((0.3, -3.0), (1.0, -2.0), (1.0, -3.0)):
    probe(f"steady state {power} W at {a} kappa:", bare, power, a * s.cavity.kappa)
probe("steady state reference:", bare, s.effective_drive().power,
      st.detuning - st.g0 * st.q_s)
for name, det in (
    ("R 0.25", dataclasses.replace(s.det, p_cavity_arm=1.0, p_reference_arm=4.0)),
    ("R reference", s.det),
    ("dark reference arm", dataclasses.replace(s.det, p_reference_arm=0.0)),
):
    for phi0 in (-2.5, -0.3, 0.0, 0.3, 2.5):
        probe(f"phi_r - phi_s, {name}, phi0 {phi0}:", offset, det, phi0)
"""


def _cli(*argv):
    return ["-m", "qndlab.cli", *argv]


# (invocation, python arguments); the invocation's name is its --out
# directory.  A stage reads only what earlier stages wrote.
STAGES = [
    [
        *(
            (f"{command}{suffix}", _cli(command, "--config", "base.cfg", *flags))
            for command in ("theory", "budget", "synth")
            for suffix, flags in (("", ()), ("-vacuum", ("--vacuum-only",)))
        ),
        *(
            (f"{command}-xi-frequency", _cli(command, "--config", "xi-frequency.cfg"))
            for command in ("theory", "budget")
        ),
        ("synth-stress", _cli("synth", "--config", "stress.cfg")),
        ("synth-odd", _cli("synth", "--config", "odd.cfg")),
        ("model-probe", ["-c", MODEL_PROBE]),
    ],
    [
        ("estimate-meter", _cli("estimate", "synth/dataset.qnd", "--config", "base.cfg")),
        ("estimate-meter-squared", _cli("estimate", "synth/dataset.qnd", "--config",
                                        "base.cfg", "--channels", "meter,meter_squared")),
        ("estimate-hann", _cli("estimate", "synth/dataset.qnd", "--config", "hann.cfg")),
        ("estimate-vacuum", _cli("estimate", "synth-vacuum/dataset.qnd", "--config",
                                 "base.cfg")),
        ("estimate-odd", _cli("estimate", "synth-odd/dataset.qnd", "--config", "odd.cfg")),
        ("fit", _cli("fit", "synth/dataset.qnd", "--config", "base.cfg")),
        *(
            (_fit_name(s), _cli("fit", "synth/dataset.qnd", "--config",
                                f"{_fit_name(s)}.cfg"))
            for s in FIT_SUBSETS
        ),
        ("estimate-stress", _cli("estimate", "synth-stress/dataset.qnd", "--config",
                                 "stress.cfg")),
        ("fit-stress", _cli("fit", "synth-stress/dataset.qnd", "--config",
                            "stress.cfg")),
        ("bad-confidence", _cli("estimate", "synth/dataset.qnd", "--config",
                                "confidence.cfg")),
        ("zero-difference", ["-c", ZERO_DIFFERENCE, "synth/dataset.qnd",
                             "zero-difference/dataset.qnd"]),
    ],
    [
        (f"bad-zero-difference-{command}",
         _cli(command, "zero-difference/dataset.qnd", "--config", "base.cfg"))
        for command in ("estimate", "fit")
    ],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name, args, src: Path, out: Path) -> dict:
    """Run one invocation from ``out/work``; return its digest entry."""
    work, streams = out / "work", out / "streams"
    (work / name).mkdir()
    if args[0] == "-m":  # a CLI command: give it its output directory
        args = [*args, "--out", name]
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    proc = subprocess.run(
        [sys.executable, *args], cwd=work, env=env, capture_output=True, timeout=600
    )
    (streams / f"{name}.stdout").write_bytes(proc.stdout)
    (streams / f"{name}.stderr").write_bytes(proc.stderr)
    return {
        "argv": args,
        "exit": proc.returncode,
        "stdout": _sha256(proc.stdout),
        "stderr": _sha256(proc.stderr),
        "files": {
            p.name: _sha256(p.read_bytes()) for p in sorted((work / name).iterdir())
        },
    }


def run_matrix(src: Path, out: Path) -> dict:
    """Run every stage of the matrix; return {invocation: digest entry}."""
    for sub in ("work", "streams"):
        (out / sub).mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out / "work" / name).write_text(text)
    entries = {}
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for stage in STAGES:
            futures = {name: pool.submit(_run, name, args, src, out)
                       for name, args in stage}
            entries.update((name, f.result()) for name, f in futures.items())
    return entries


def _ulp_key(x: float) -> int:
    """An integer that counts doubles: adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(1 << 63) - i


def _numeric_csv(path: Path):
    """(header, rows of floats) of a CSV without its # lines, or None."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    try:
        return rows[0], [[float(v) for v in r] for r in rows[1:]]
    except (IndexError, ValueError):
        return None


def _csv_delta(old: Path, new: Path) -> list[str] | None:
    """Per-column lines of the change between two numeric CSVs, or None."""
    a, b = _numeric_csv(old), _numeric_csv(new)
    if a is None or b is None or a[0] != b[0] or len(a[1]) != len(b[1]):
        return None
    lines = []
    for c, column in enumerate(a[0]):
        pairs = [(ra[c], rb[c]) for ra, rb in zip(a[1], b[1]) if ra[c] != rb[c]]
        if pairs:
            delta = max(abs(x - y) for x, y in pairs)
            ulps = max(abs(_ulp_key(x) - _ulp_key(y)) for x, y in pairs)
            lines.append(f"      {column}: {len(pairs)} of {len(a[1])} rows differ, "
                         f"max |delta| {delta:.3g}, max {ulps} ulp")
    return lines


def _text_delta(old: Path, new: Path, limit: int = 12) -> list[str]:
    try:
        a, b = old.read_text().splitlines(), new.read_text().splitlines()
    except UnicodeDecodeError:
        return []  # binary: the digest says it all
    diff = list(difflib.unified_diff(a, b, lineterm="", n=0))[2:]
    return [f"      {line}" for line in diff[:limit]]


def compare(old_dir: Path, old: dict, new_dir: Path, new: dict) -> int:
    """Print the invocations of ``new`` that differ from ``old``; count them."""
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"{name}: only in {'new' if a is None else 'old'}")
            differ += 1
            continue
        lines = []
        if a["exit"] != b["exit"]:
            lines.append(f"  exit {a['exit']} -> {b['exit']}")
        for stream in ("stdout", "stderr"):
            if a[stream] != b[stream]:
                lines.append(f"  {stream} differs")
                lines += _text_delta(old_dir / "streams" / f"{name}.{stream}",
                                     new_dir / "streams" / f"{name}.{stream}")
        for file in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(file) == b["files"].get(file):
                continue
            if file not in a["files"] or file not in b["files"]:
                side = "new" if file in b["files"] else "old"
                lines.append(f"  {file}: only in {side}")
                continue
            lines.append(f"  {file} differs")
            paths = old_dir / "work" / name / file, new_dir / "work" / name / file
            delta = _csv_delta(*paths) if file.endswith(".csv") else None
            lines += _text_delta(*paths) if delta is None else delta
        if lines:
            differ += 1
            print(name)
            print("\n".join(lines))
    print(f"{differ} of {len(new)} invocations differ")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="tree whose src/ is run (default: this checkout)")
    parser.add_argument("--out", type=Path, required=True,
                        help="new or empty directory for the digests and files")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier --out to compare with")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "qndlab").is_dir():
        parser.error(f"--src {args.src}: no src/qndlab in it")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    old = None
    if args.against is not None:
        old = json.loads((args.against / "outputs.json").read_text())
    start = time.perf_counter()
    entries = run_matrix(args.src.resolve(), args.out.resolve())
    (args.out / "outputs.json").write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} invocations in "
          f"{time.perf_counter() - start:.1f} s; wrote {args.out / 'outputs.json'}")
    if old is None:
        return 0
    return 1 if compare(args.against, old, args.out, entries) else 0


if __name__ == "__main__":
    sys.exit(main())
