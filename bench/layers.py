"""Isolated layer microbenchmarks, timed with timeit outside any study.

Each figure is the median over REPEATS timeit repeats of the per-call time,
with the call count per repeat chosen by `Timer.autorange` (>= 0.2 s).
Inputs come from a fixed generator so every run times the same arrays.
"""

from __future__ import annotations

import statistics
import time
import timeit

import numpy as np

from allencahn.config import parse_config
from allencahn.drift import evaluate_drift, fast_dealias_size
from allencahn.experiments import coupled_error_sample
from allencahn.noise import NoiseSpec, NoiseStream
from allencahn.spectral import coeffs_to_values, values_to_coeffs

SIZES = (256, 512, 1024)
REPEATS = 5
REFINEMENT = 3


def per_call_s(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / number


def kernel_metrics(cfg) -> dict[str, float]:
    """DST round trip, evaluate_drift and NoiseStream.increments(r=3) per size (us)."""
    rng = np.random.default_rng(0)
    drift = cfg.drift
    out = {}
    for n in SIZES:
        m = fast_dealias_size(n)
        x = rng.standard_normal(n) / np.arange(1, n + 1)
        stream = NoiseStream(NoiseSpec(cfg.noise_kind, n), seed=0, path=0)
        out[f"spectral.roundtrip_us.N{n}"] = 1e6 * per_call_s(
            lambda: values_to_coeffs(coeffs_to_values(x, m), n)
        )
        out[f"drift.call_us.N{n}"] = 1e6 * per_call_s(
            lambda: evaluate_drift(drift, x, m)
        )
        out[f"noise.increments_us.N{n}"] = 1e6 * per_call_s(
            lambda: stream.increments(0, 2.0**-7, REFINEMENT)
        )
    return out


def config_load_s(ini: str) -> float:
    return per_call_s(lambda: parse_config(ini))


def representative_cell(cfg):
    """(scheme, law, delta, keyword args) of one cell of the workload's shape."""
    if cfg.kind == "spatial":
        kw = dict(n_modes=cfg.spatial_modes[-1], reference_modes=cfg.spatial_reference)
        return cfg.schemes[0], cfg.laws[0], cfg.deltas[0], kw
    scheme = next(s for s in cfg.schemes if s != "te")
    return scheme, cfg.laws[0], cfg.deltas[len(cfg.deltas) // 2], {}


def coupled_sample_ms(cfg, runs: int = 3) -> float:
    """Median wall time of one coupled_error_sample call of a representative cell."""
    scheme, law, delta, kw = representative_cell(cfg)
    times = []
    for path in range(runs):
        t0 = time.perf_counter()
        coupled_error_sample(cfg, scheme, law, delta, path, **kw)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)
