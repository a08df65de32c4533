"""The names the benchmark harness imports from the package, or rebinds.

bench/tracer.py and bench/layers.py reach into the package by module
attribute; a rename in src/ that they do not follow crashes the traced
benchmark with an AttributeError.  Importing both and installing the
trace once makes such a rename fail here instead.
"""

import importlib.util
from pathlib import Path

from allencahn import drift, experiments, stepping
from allencahn.noise import NoiseStream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_harness_names_exist_and_the_trace_installs():
    _load("layers")
    tracer = _load("tracer")
    seams = [
        (experiments, "integrate"),
        (stepping, "evaluate_drift"),
        (stepping, "coeffs_to_values"),
        (drift, "coeffs_to_values"),
        (drift, "values_to_coeffs"),
        (NoiseStream, "increments"),
    ]
    originals = [getattr(owner, name) for owner, name in seams]
    with tracer.LayerTrace().installed():
        for (owner, name), original in zip(seams, originals):
            assert getattr(owner, name) is not original, name
    assert [getattr(owner, name) for owner, name in seams] == originals
