"""Dissipative cubic Nemytskii drift evaluated pseudo-spectrally.

f(u) = a3 u^3 + a2 u^2 + a1 u + a0 with a3 < 0.  The drift of an N-mode
field is evaluated on the quadrature grid of M = fast_dealias_size(N) >=
3N+1 interior points unless told otherwise.  The quadrature norms below,
the state's L4/L6 norms among them, are exact there and are read on no
other grid.

The projected drift F^N = P_N f(X) is exact only for an odd cubic
(a2 = a0 = 0): its image of N sine modes is at most 3N sine modes, and
any M >= 2N projects them exactly, so the least such grid,
projection_grid, serves evaluations that read F^N alone.  a2 u^2 and a0
are cosine series, whose sine coefficients no grid gives exactly; a
non-odd drift therefore evaluates on the one quadrature grid always, so
every evaluation of a path shares one aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralField,
    coeffs_to_values,
    fast_dealias_size,
    fast_grid_size,
    lp_quadrature,
    values_to_coeffs,
)


@dataclass(frozen=True)
class CubicDrift:
    a3: float
    a2: float
    a1: float
    a0: float = 0.0

    def __post_init__(self):
        if not self.a3 < 0:
            raise ValueError(
                f"cubic coefficient must be negative for dissipativity, got a3={self.a3}"
            )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        # ((a3 u + a2) u + a1) u + a0, operation for operation, in one new array.
        w = self.a3 * u
        w += self.a2
        w *= u
        w += self.a1
        w *= u
        w += self.a0
        return w

    @property
    def odd(self) -> bool:
        """f(-u) = -f(u), so f maps a sine series to a sine series."""
        return self.a2 == 0 and self.a0 == 0

    @property
    def one_sided_lipschitz(self) -> float:
        # sup of f'(u) = 3 a3 u^2 + 2 a2 u + a1 over the real line (a3 < 0).
        return self.a1 + self.a2**2 / (3.0 * abs(self.a3))

    @property
    def growth_constant(self) -> float:
        # |f(x)-f(y)| <= growth_constant * (1 + R_x^2 + R_y^2) |x-y| pointwise.
        return abs(self.a1) + abs(self.a2) + 3.0 * abs(self.a3)


class DriftEvaluation:
    """Everything one drift evaluation yields, computed from two transforms.

    Shared by the timestep laws and the step updates so the state is only
    synthesised once per step.  A (rows, N) block of states takes one
    transform pair along the last axis.  The norms are computed when read,
    so a step that needs only the coefficients pays for no norm; for a
    block they are lists with one entry per row, each equal bit for bit
    to that row's own evaluation (each row summed on its own, never in a
    pairwise sum over the block).  The norms and the sups read the grid:
    they need the quadrature grid M >= 3N+1 and raise on a smaller one,
    where only the coefficients and their norm are read.
    """

    __slots__ = ("grid_values", "image_values", "coeffs", "m", "a0")

    def __init__(self, drift: CubicDrift, state_coeffs: np.ndarray, m: int):
        self.m = m
        self.a0 = drift.a0
        v = coeffs_to_values(state_coeffs, m)
        self.grid_values = v
        self.image_values = drift(v)
        self.coeffs = values_to_coeffs(self.image_values, state_coeffs.shape[-1])

    def take(self, rows) -> DriftEvaluation:
        """The evaluation of some rows of the block (a slice or index list),
        equal bit for bit to their own."""
        part = object.__new__(DriftEvaluation)
        part.m, part.a0 = self.m, self.a0
        part.grid_values = self.grid_values[rows]
        part.image_values = self.image_values[rows]
        part.coeffs = self.coeffs[rows]
        return part

    def _check_quadrature(self):
        n = self.coeffs.shape[-1]
        if self.m < 3 * n + 1:
            raise ValueError(
                f"grid m={self.m} is no quadrature grid for {n} modes; "
                f"need >= {3 * n + 1}"
            )

    @property
    def image_norm(self):
        """||f(X)|| by trapezoid quadrature on the grid."""
        self._check_quadrature()
        # The state vanishes at x = 0, 1 but its image equals f(0) = a0
        # there, hence the boundary term a0^2.
        a0_sq, cells = self.a0**2, self.m + 1
        w = self.image_values
        if w.ndim == 1:
            return math.sqrt((np.dot(w, w) + a0_sq) / cells)
        return [math.sqrt((np.dot(row, row) + a0_sq) / cells) for row in w]

    @property
    def projected_norm(self):
        """||F^N(X)||, the norm of the projected drift coefficients."""
        c = self.coeffs
        if c.ndim == 1:
            return math.sqrt(np.dot(c, c))
        return [math.sqrt(np.dot(row, row)) for row in c]

    @property
    def lp_norms(self) -> list[tuple[float, float]]:
        """(||X||_L4, ||X||_L6) of each row by quadrature on the grid, exact
        for band-limited X; a one-pair list for a single state."""
        self._check_quadrature()
        rows = np.atleast_2d(self.grid_values)
        return [(lp_quadrature(v, 4), lp_quadrature(v, 6)) for v in rows]

    @property
    def state_sup(self):
        """max |X| over the grid (exact, so a block row's equals its own)."""
        self._check_quadrature()
        return np.abs(self.grid_values).max(axis=-1).tolist()


def _least_grid(drift: CubicDrift, n_modes: int) -> int:
    # An odd drift's F^N is exact on any M >= 2N; any other drift shares
    # the quadrature grid's aliasing, M >= 3N+1.
    return 2 * n_modes if drift.odd else 3 * n_modes + 1


def projection_grid(drift: CubicDrift, n_modes: int) -> int:
    """The grid of an evaluation that reads only F^N and its norm: the least
    fast M >= 2N for an odd drift, fast_dealias_size(N) for any other."""
    return fast_grid_size(_least_grid(drift, n_modes))


def evaluate_drift(
    drift: CubicDrift, state_coeffs: np.ndarray, m: int | None = None
) -> DriftEvaluation:
    """The drift of one state, or of each row of a (rows, N) block of states,
    on the quadrature grid unless m is given.  m must project F^N exactly
    (M >= 2N for an odd drift) and, for any other drift, be a quadrature
    grid (M >= 3N+1)."""
    n = state_coeffs.shape[-1]
    if m is None:
        m = fast_dealias_size(n)
    # A quadrature grid passes for every drift; only a smaller one asks.
    if m <= 3 * n and m < _least_grid(drift, n):
        raise ValueError(
            f"drift grid m={m} too small for {n} modes; "
            f"need >= {_least_grid(drift, n)}"
        )
    return DriftEvaluation(drift, state_coeffs, m)


def apply_drift(drift: CubicDrift, field: SpectralField) -> SpectralField:
    """Projected drift F^N(X): evaluation on the quadrature grid, then
    projection onto N modes.

    Exact to round-off for band-limited fields when the drift is odd.
    """
    return SpectralField(evaluate_drift(drift, field.coeffs).coeffs)


def drift_l2_norm(drift: CubicDrift, field: SpectralField) -> float:
    """L2 norm of the drift image f(X), the norm the timestep laws consume."""
    return evaluate_drift(drift, field.coeffs).image_norm


def inner_product_x_f(drift: CubicDrift, field: SpectralField) -> float:
    """<X, f(X)> by trapezoid quadrature on the quadrature grid, exact for
    band-limited X."""
    ev = evaluate_drift(drift, field.coeffs)
    # Boundary terms vanish with the state.
    return float(np.dot(ev.grid_values, ev.image_values) / (ev.m + 1))
