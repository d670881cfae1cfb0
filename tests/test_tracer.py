"""The benchmark's layer tracer finds every traced name and puts each one back.

``benchmark/tracer.py`` wraps the package's entry points by name, so a
renamed or removed entry point breaks the traced benchmark run.  This test
loads the tracer from its file and installs it against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qndlab import theory

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_attributes(traced):
    """(qualified name, owner, attribute, original) of every traced name."""
    out = []
    for layer, names in traced.items():
        module = importlib.import_module(f"qndlab.{layer}")
        for dotted in names:
            owner = module
            *outer, attr = dotted.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            out.append((f"qndlab.{layer}.{dotted}", owner, attr, original))
    return out


def test_tracer_installs_and_uninstalls():
    tracer_module = _load_tracer()
    traced = _traced_attributes(tracer_module.TRACED)
    assert [name for name, _, _, original in traced if original is None] == []
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for name, owner, attr, original in traced:
            assert owner.__dict__[attr] is not original, name
        x = np.ones(3)
        theory.coherence(x, x, x)
        assert [span["name"] for span in tracer.take()] == ["theory.coherence"]
    finally:
        tracer.uninstall()
    for name, owner, attr, original in traced:
        assert owner.__dict__[attr] is original, name
