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
        if self.scale < 0:
            raise ValueError("noise scale must be nonnegative")

    @cached_property
    def mode_variances(self) -> np.ndarray:
        i = np.arange(1, self.n_modes + 1, dtype=float)
        q = i**-2.0 if self.kind == TRACE_CLASS else np.ones_like(i)
        q.flags.writeable = False
        return q


def increment_stddev(spec: NoiseSpec, mode: int, dt: float) -> float:
    """Standard deviation of the mode-n increment over a step of length dt."""
    if not 1 <= mode <= spec.n_modes:
        raise ValueError(f"mode {mode} outside 1..{spec.n_modes}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return spec.scale * float(np.sqrt(spec.mode_variances[mode - 1] * dt))


@dataclass(frozen=True)
class NoiseStream:
    """Addressable increment source for one sample path."""

    spec: NoiseSpec
    seed: int
    path: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.path < 2**32:
            raise ValueError("path index must fit in 32 bits")

    def __getstate__(self):
        # The reused Philox is a cache: pickles carry the fields only, as do
        # __eq__, __hash__ and repr, which see dataclass fields alone.
        return {k: v for k, v in self.__dict__.items() if k != "_rng"}

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
        sig = self.spec.scale * np.sqrt(self.spec.mode_variances * (dt / r))
        fine = self._generator(step).standard_normal((r, self.spec.n_modes)) * sig
        coarse = fine.sum(axis=0)
        return fine, coarse

