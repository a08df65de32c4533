"""Dissipative cubic Nemytskii drift evaluated pseudo-spectrally.

f(u) = a3 u^3 + a2 u^2 + a1 u + a0 with a3 < 0.  The drift of an N-mode
field is evaluated on a dealiasing grid of M >= 3N+1 interior points, where
the cubic image (at most 3N modes) is represented exactly, so the projected
coefficients and the quadrature norms below carry no aliasing error for
band-limited inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, coeffs_to_values, values_to_coeffs


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
    def one_sided_lipschitz(self) -> float:
        # sup of f'(u) = 3 a3 u^2 + 2 a2 u + a1 over the real line (a3 < 0).
        return self.a1 + self.a2**2 / (3.0 * abs(self.a3))

    @property
    def growth_constant(self) -> float:
        # |f(x)-f(y)| <= growth_constant * (1 + R_x^2 + R_y^2) |x-y| pointwise.
        return abs(self.a1) + abs(self.a2) + 3.0 * abs(self.a3)


def fast_dealias_size(n_modes: int) -> int:
    # The one dealiasing grid: any M >= 3N+1 is exact.  This is the least
    # such M whose M+1 is even, so x = 1/2 is a grid point, and has no prime
    # factor above 5, which keeps the DST on its fast mixed-radix path.
    cells = (3 * n_modes + 3) // 2 * 2  # M + 1: the least even >= 3N + 2
    while True:
        rest = cells
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return cells - 1
        cells += 2


def _check_dealias(n_modes: int, m: int) -> None:
    if m < 3 * n_modes + 1:
        raise ValueError(
            f"dealiasing grid m={m} too small for {n_modes} modes; need >= {3 * n_modes + 1}"
        )


class DriftEvaluation:
    """Everything one drift evaluation yields, computed from two transforms.

    Shared by the timestep laws and the step updates so the state is only
    synthesised once per step.  A (rows, N) block of states takes one
    transform pair along the last axis.  The norms are computed when read,
    so a step that needs only the coefficients pays for no norm; for a
    block they are lists with one float per row, each equal bit for bit
    to that row's own evaluation (one np.dot per row, never a pairwise
    sum over the block).
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

    @property
    def image_norm(self):
        """||f(X)|| by trapezoid quadrature on the grid."""
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
    def state_sup(self):
        """max |X| over the grid (exact, so a block row's equals its own)."""
        return np.abs(self.grid_values).max(axis=-1).tolist()


def evaluate_drift(
    drift: CubicDrift, state_coeffs: np.ndarray, m: int | None = None
) -> DriftEvaluation:
    """The drift of one state, or of each row of a (rows, N) block of states."""
    n = state_coeffs.shape[-1]
    if m is None:
        m = fast_dealias_size(n)
    _check_dealias(n, m)
    return DriftEvaluation(drift, state_coeffs, m)


def apply_drift(
    drift: CubicDrift, field: SpectralField, m: int | None = None
) -> SpectralField:
    """Projected drift F^N(X): dealiased evaluation, then projection onto N modes.

    Exact to round-off for band-limited fields whenever m >= 3N+1.
    """
    ev = evaluate_drift(drift, field.coeffs, m)
    return SpectralField(ev.coeffs)


def drift_l2_norm(
    drift: CubicDrift, field: SpectralField, m: int | None = None
) -> float:
    """L2 norm of the drift image f(X), the norm the timestep laws consume."""
    return evaluate_drift(drift, field.coeffs, m).image_norm


def inner_product_x_f(
    drift: CubicDrift, field: SpectralField, m: int | None = None
) -> float:
    """<X, f(X)> by quadrature on the dealiasing grid (exact for band-limited X)."""
    ev = evaluate_drift(drift, field.coeffs, m)
    # Boundary terms vanish with the state.
    return float(np.dot(ev.grid_values, ev.image_values) / (ev.m + 1))
