"""Workload shapes of the study benchmark and the inputs generated from a seed.

Each workload is one study config: the INI text a CLI user would pass with
--config.  The workload seed picks the Philox seed of the study and the
(cell, path) pairs the correctness gate replays; everything else is the
fixed shape, so work counts per coupled step repeat exactly across seeds.
Why each shape was chosen is recorded in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import hashlib
import random

_DELTAS = "2^-2, 2^-3, 2^-4, 2^-5, 2^-6, 2^-7"

# (noise kind, [study] keys) of each shape; the seed is filled in per run.
_SHAPES = {
    "desk-trace": ("trace-class", f"""kind = temporal
schemes = te, ateu, atea
laws = type1, type2, type3
deltas = {_DELTAS}
samples = 8
n_modes = 256
threads = 2"""),
    "spatial": ("trace-class", """kind = spatial
schemes = te
laws = type1
deltas = 2^-7
samples = 2
n_modes = 512
spatial_modes = 16, 32, 64, 128
spatial_reference = 512
threads = 1"""),
}

WORKLOADS = tuple(_SHAPES)


def study_seed(workload: str, seed: int) -> int:
    """64-bit Philox seed of the study, a fixed function of (workload, seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def study_ini(workload: str, seed: int) -> str:
    noise, study = _SHAPES[workload]
    return f"""[study]
{study}
seed = {study_seed(workload, seed)}
horizon = 1.0
refinement = 3
initial = e1

[noise]
kind = {noise}
scale = 1.0

[drift]
a3 = -1.0
a2 = 0.0
a1 = 1.0
a0 = 0.0

[laws]
xi = 10.0
"""


def replay_picks(seed: int, cells: int, samples: int, count: int = 4):
    """(cell index, sample index) pairs the correctness gate replays."""
    rng = random.Random(seed)
    return [(rng.randrange(cells), rng.randrange(samples)) for _ in range(count)]
