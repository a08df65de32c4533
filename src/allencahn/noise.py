"""Q-Wiener increments with counter-based, coupling-exact sampling.

Each (seed, path, step ordinal) triple keys an independent Philox stream;
one draw per coarse step yields the r fine increments of that step's equal
subdivision, and the coarse increment is defined as their exact sum.  Draws
therefore never depend on evaluation order, other paths, or how many steps
a neighbouring trajectory took.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

TRACE_CLASS = "trace-class"
WHITE = "white"

_KINDS = (TRACE_CLASS, WHITE)


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance model: Q e_i = q_i e_i with q_i = i^-2 (trace-class) or 1 (white).

    `scale` multiplies the increment standard deviation (0 switches the noise
    off).
    """

    kind: str
    n_modes: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected {_KINDS}")
        if self.n_modes < 1:
            raise ValueError("need at least one noise mode")
        if not 0 <= self.scale < np.inf:
            raise ValueError(f"noise scale must be finite and >= 0, got {self.scale!r}")

    @cached_property
    def mode_variances(self) -> np.ndarray:
        i = np.arange(1, self.n_modes + 1, dtype=float)
        q = i**-2.0 if self.kind == TRACE_CLASS else np.ones_like(i)
        q.flags.writeable = False
        return q


@dataclass(frozen=True)
class NoiseStream:
    """Addressable increment source for one sample path.

    After `keep_draws()` the stream keeps every (fine, coarse) pair it
    serves, read-only and keyed by (step, dt, r), and serves that same pair
    when asked again: paths that run on one stream draw each step once.
    """

    spec: NoiseSpec
    seed: int
    path: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.path < 2**32:
            raise ValueError("path index must fit in 32 bits")

    def __getstate__(self):
        # The reused Philox, the last step's scale and the kept draws are
        # caches: pickles carry the fields only, as do __eq__, __hash__ and
        # repr, which see dataclass fields alone.
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("_rng", "_sig", "_kept")
        }

    def keep_draws(self) -> NoiseStream:
        """Keep every draw from now on and replay it when asked again; the
        stream itself is returned."""
        self.__dict__.setdefault("_kept", {})
        return self

    def _generator(self, step: int) -> Generator:
        """The generator of Generator(Philox(key)) for this step's key.

        One Philox is built per stream and reset to the fresh state of the
        step's key before each draw (counter, buffer, buffer_pos, has_uint32
        and uinteger included), so draws are bitwise those of a new one.
        """
        if not 0 <= step < 2**32:
            raise ValueError("step ordinal must fit in 32 bits")
        key = np.array([self.seed, (self.path << 32) | step], dtype=np.uint64)
        rng = self.__dict__.get("_rng")
        if rng is None:
            bitgen = Philox(key=key)
            rng = (bitgen, Generator(bitgen), bitgen.state)
            object.__setattr__(self, "_rng", rng)
            return rng[1]
        bitgen, gen, fresh = rng
        fresh["state"]["key"] = key
        bitgen.state = fresh
        return gen

    def increments(
        self, step: int, dt: float, r: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fine increments (r rows) over a step of length dt, and their exact sum.

        Row j is the increment over the j-th of r equal substeps, so each row
        has per-mode variance q_i * dt / r.  The coarse increment is defined
        as the sum of the rows; nothing is ever resampled.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if r < 1:
            raise ValueError("refinement factor must be at least 1")
        kept = self.__dict__.get("_kept")
        if kept is not None and (step, dt, r) in kept:
            return kept[step, dt, r]
        # Steps of one path mostly repeat their length: keep the last scale.
        last = self.__dict__.get("_sig")
        if last is None or last[0] != (dt, r):
            spec = self.spec
            last = ((dt, r), spec.scale * np.sqrt(spec.mode_variances * (dt / r)))
            object.__setattr__(self, "_sig", last)
        fine = self._generator(step).standard_normal((r, self.spec.n_modes)) * last[1]
        # The sum of one row is that row exactly.
        coarse = fine[0] if r == 1 else fine.sum(axis=0)
        if kept is not None:
            fine.flags.writeable = coarse.flags.writeable = False
            kept[step, dt, r] = fine, coarse
        return fine, coarse

