"""Shared fixtures: reference system and a small reusable synthetic dataset."""

import contextlib
import sys

import numpy as np
import pytest

import qndlab as q
from qndlab import synth


@pytest.fixture(scope="session")
def system():
    """Reference working point (detuning -0.016 kappa, phi_s = -24 mrad)."""
    return q.reference_defaults()


@pytest.fixture(scope="session")
def small_dataset(system):
    """A quick clean dataset: 32 segments of 2**14 samples, no impairments."""
    cfg = q.SynthConfig(
        segment_length=2**14, n_segments=32, seed=11, electronic_noise_level=0.0
    )
    return q.synthesize(system, cfg)


@pytest.fixture(scope="session")
def small_segments(small_dataset):
    seg = q.segment_and_select(small_dataset)
    return q.transform(seg)


def white_dataset(sigma=1.0, n_segments=16, length=2**12, seed=0):
    """Gaussian white channels packaged as a DataSet for estimator tests."""
    rng = np.random.default_rng(seed)
    cfg = q.SynthConfig(
        sample_rate=5e6,
        segment_length=length,
        n_segments=n_segments,
        seed=seed,
        electronic_noise_level=0.0,
    )
    n = n_segments * length
    return q.DataSet(
        sum=sigma * rng.standard_normal(n),
        difference=sigma * rng.standard_normal(n),
        meter=sigma * rng.standard_normal(n),
        config=cfg,
    )


@contextlib.contextmanager
def pool_workers(n):
    """Run the CPU pool with ``n`` workers that switch threads every 1 us.

    More workers than cores, switching often, interleave the tasks in
    many orders, which shakes out any dependence on the schedule.
    """
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_cpu_count", lambda: n)
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
