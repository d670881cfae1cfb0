"""Measure the reference-size facts the workloads were chosen on.

    python3 benchmark/facts.py

Runs ``qndlab synth``, ``estimate`` and ``fit`` at their defaults (64 x
2**19 at seed 171, an 805 MB dataset under ``.bench_work/``) and prints, as
one JSON object, the default-limit kept fraction, the band bins kept over
the rfft bins computed, and the baseline fit's evaluation count.  Takes about a
minute and 2 GB of memory; the benchmark itself does not run it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qndlab.config import load_config  # noqa: E402
from workloads import read_reports  # noqa: E402

SEED = 171


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = ROOT / ".bench_work" / f"facts-{os.getpid()}"
    out.mkdir(parents=True)
    dataset = str(out / "dataset.qnd")
    seed = ["--seed", str(SEED)]
    try:
        for argv_ in (["synth", *seed], ["estimate", dataset], ["fit", dataset, *seed]):
            subprocess.run(
                [sys.executable, "-m", "qndlab.cli", *argv_, "--out", str(out)],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
        r = read_reports(out)
        with open(out / "residual.csv") as fh:
            freqs = [float(line.split(",")[0]) for line in list(fh)[1:]]
    finally:
        shutil.rmtree(out)
    cfg = load_config(text="")
    rfft_bins = cfg.get_int("synth", "segment_length") // 2 + 1
    lo, hi = cfg.get_float("fit", "band_lo_hz"), cfg.get_float("fit", "band_hi_hz")
    print(json.dumps({
        "seed": SEED,
        "kept": f"{r['kept']}/{r['segments']}",
        "band_bins": len(freqs),
        "rfft_bins": rfft_bins,
        "band_bin_fraction": len(freqs) / rfft_bins,
        "fit_bins": sum(lo <= f <= hi for f in freqs),
        "fit_n_evals": r["n_evals"],
        "sql_reference": r["sql"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
