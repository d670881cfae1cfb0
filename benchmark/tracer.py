"""Layer spans recorded from outside the package.

``Tracer.install`` replaces the public entry points of qndlab's layers
(``cli``, ``synth``, ``estimation``, ``fitting``, ``theory``) with thin
wrappers that record one span per call: name, layer, start, end, parent
span, and the process's peak-RSS high-water mark before and after.  No file
under ``src/`` changes; ``uninstall`` puts the original functions back.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux, shared by
every process on the machine), so spans written by CLI child processes
line up with the parent's op window.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time

LAYERS = ("cli", "synth", "estimation", "fitting", "theory")

# The calls each layer's callers make.  ``SpectrumModel.channel_contribution``
# is left out: it runs 13 times inside every ``quadrature_spectrum`` and its
# spans would dominate the tracing overhead of the fit loop.
TRACED = {
    "cli": ("main",),
    "synth": ("synthesize", "write_dataset", "read_dataset"),
    "estimation": (
        "segment_and_select",
        "transform",
        "power_spectrum",
        "residual_single",
        "residual_two_channel",
        "msc_estimate",
        "shot_calibration",
        "subtract_electronic_noise",
        "band_average",
        "split_consistency",
        "write_spectrum_csv",
    ),
    "fitting": ("fit", "fit_report_text"),
    "theory": (
        "SpectrumModel.__init__",
        "SpectrumModel.quadrature_spectrum",
        "SpectrumModel.cross_spectrum",
        "coherence",
        "residual_spectrum_theory",
    ),
}


def _dataset_attrs(ds):
    n = len(ds.sum)
    return {"samples": 3 * n, "bytes": 3 * n * 8}


# Counters read off a call's arguments or result, keyed by span name.
_COUNTERS = {
    "synth.synthesize": lambda args, result: _dataset_attrs(result),
    "synth.read_dataset": lambda args, result: _dataset_attrs(result),
    "synth.write_dataset": lambda args, result: _dataset_attrs(args[0]),
    "estimation.segment_and_select": lambda args, result: {
        "kept": result.n_kept,
        "segments": len(result.kept_mask),
    },
    "estimation.transform": lambda args, result: {
        "band_bins": len(result.frequencies),
        "rfft_bins": result.segment_length // 2 + 1,
    },
    "fitting.fit": lambda args, result: {"n_evals": result.n_evals},
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans around qndlab's layer calls while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, names in TRACED.items():
            module = importlib.import_module(f"qndlab.{layer}")
            for dotted in names:
                owner = module
                *outer, attr = dotted.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(f"{layer}.{dotted}", layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, layer, func):
        counter = _COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "rss0_kb": _peak_rss_kb(),
                "start": time.monotonic(),
            }
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                span["rss1_kb"] = _peak_rss_kb()
                self._stack.pop()
            if counter is not None:
                span["attrs"] = counter(args, result)
            return result

        return traced

    def take(self) -> list[dict]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_summary(spans: list[dict]) -> dict:
    """Per-op totals from one op's spans (all of one process's list).

    Returns self time and self peak-RSS growth per layer, the summed
    duration and call count per span name, the summed counters, and the
    total duration of the top-level spans.  Self time is a span's duration
    minus its direct children's; self growth likewise, so each second and
    each megabyte is charged to exactly one layer.
    """
    child_time = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    top = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is None:
            top += dur
        else:
            child_time[s["parent"]] += dur
            child_rss[s["parent"]] += s["rss1_kb"] - s["rss0_kb"]
    self_s = {layer: 0.0 for layer in LAYERS}
    rss_kb = {layer: 0 for layer in LAYERS}
    time_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    counters: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        self_s[s["layer"]] += dur - child_time[i]
        rss_kb[s["layer"]] += (s["rss1_kb"] - s["rss0_kb"]) - child_rss[i]
        time_by_name[s["name"]] = time_by_name.get(s["name"], 0.0) + dur
        calls_by_name[s["name"]] = calls_by_name.get(s["name"], 0) + 1
        for key, value in s.get("attrs", {}).items():
            counters[f"{s['name']}.{key}"] = counters.get(f"{s['name']}.{key}", 0) + value
    return {
        "self_s": self_s,
        "rss_growth_mb": {k: v / 1024.0 for k, v in rss_kb.items()},
        "time": time_by_name,
        "calls": calls_by_name,
        "counters": counters,
        "top_s": top,
    }
