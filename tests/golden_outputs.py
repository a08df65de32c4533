"""Pinned study outputs: writes the golden file that test_golden.py compares with.

Run from the repository root, after a change that is meant to move the
outputs:

    PYTHONPATH=src python tests/golden_outputs.py

The file holds, per study shape, the repr of every cell's key, rms,
mean_steps and SampleOutcomes, the repr of the slope fits and of the
stability report, together with the numpy, scipy and Python versions and
the platform they were computed on.  Every study runs serially; the test
checks that a pooled run gives the same.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from allencahn.config import load_preset
from allencahn.experiments import StudyConfig, convergence_study, te_fallback_step

GOLDEN = Path(__file__).with_name("golden_outputs.json")

_DELTAS = tuple(2.0**-k for k in range(2, 8))

# The benchmark's two workload shapes (bench/workloads.py) at two samples,
# the smoke preset, and a white-noise config whose te guess misses at 2^-2,
# so that the second temporal map runs.
SHAPES = {
    "smoke": load_preset("smoke"),
    "desk-trace": StudyConfig(
        deltas=_DELTAS,
        schemes=("te", "ateu", "atea"),
        laws=("type1", "type2", "type3"),
        n_modes=256,
        samples=2,
        seed=1,
    ),
    "spatial": StudyConfig(
        kind="spatial",
        deltas=(2.0**-7,),
        schemes=("te",),
        n_modes=512,
        samples=2,
        seed=1,
        spatial_modes=(16, 32, 64, 128),
        spatial_reference=512,
    ),
    "te-guess-miss": dataclasses.replace(
        load_preset("desk-white"), deltas=_DELTAS[:3], samples=2, seed=1
    ),
}


def te_guess_misses(cfg: StudyConfig, result) -> list[float]:
    """The delta levels at which some te cell's matched step is not the
    guessed `te_fallback_step`."""
    return sorted(
        {
            c.delta
            for c in result.cells
            if c.scheme == "te" and c.te_h != te_fallback_step(cfg, c.delta)
        },
        reverse=True,
    )


def snapshot(result) -> dict:
    """Every output of a study that should not move, as repr strings."""
    return {
        "cells": [
            {
                "key": repr((c.scheme, c.law, c.delta, c.n_modes, c.te_h)),
                "rms": repr(c.rms),
                "mean_steps": repr(c.mean_steps),
                "divergent": repr(c.divergent),
                "outcomes": [repr(o) for o in c.outcomes],
            }
            for c in result.cells
        ],
        "slopes": [repr(s) for s in result.slopes],
        "slopes_delta": [repr(s) for s in result.slopes_delta],
        "stability": repr(result.stability),
    }


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    shapes = {}
    for name, cfg in SHAPES.items():
        shapes[name] = snapshot(convergence_study(dataclasses.replace(cfg, threads=1)))
        print(name, len(shapes[name]["cells"]), "cells", file=sys.stderr)
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "shapes": shapes}, indent=1) + "\n"
    )
    print("wrote", GOLDEN, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
