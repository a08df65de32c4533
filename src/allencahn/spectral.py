"""Sine-basis spectral fields for Dirichlet problems on the unit interval.

The state space is spanned by the orthonormal eigenfunctions
e_i(x) = sqrt(2) sin(i pi x) of the Dirichlet Laplacian A = -d^2/dx^2,
with eigenvalues lambda_i = pi^2 i^2.  A field is stored as its first N
coefficients; grid representations live on the interior points
x_k = k/(M+1), k = 1..M, where the boundary values are identically zero.
Every grid quantity uses one quadrature grid, M = fast_dealias_size(N) >=
3N + 1: its quadrature of |X|^p is exact up to p = 6, since |X|^6 has no
frequency at or above 2(M+1), and it holds an odd cubic's image (at most
3N sine modes) exactly.  Projecting that image onto N modes needs less:
mode k > M + 1 aliases onto 2(M+1) - k, which lies above N once M >= 2N,
so the least fast grid M >= 2N serves evaluations that read only the
projected drift of an odd cubic (drift.projection_grid).

The DST-I comes from scipy's pocketfft extension, loaded on its own, so
importing the package does not import scipy.fft, scipy.fftpack or
scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

_SQRT2 = np.sqrt(2.0)


def _load_pocketfft():
    # scipy.fft's package __init__ imports scipy.special and the array-API
    # layer; its compiled pocketfft imports nothing from scipy.
    # Loading the extension by file relies on scipy's private layout, checked
    # on scipy 1.17.1 only.  There is no second code path: a scipy without
    # the file fails here, at import.
    where = Path(scipy.__path__[0]) / "fft" / "_pocketfft"
    finder = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.fft._pocketfft.pypocketfft")
    if spec is None:
        raise ImportError(
            f"no pypocketfft extension in {where} (scipy {scipy.__version__})"
        )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


def dst(x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Unnormalised DST-I of a float array along its last axis, single-threaded.

    The same C call, with the same arguments, that scipy.fftpack.dst(x,
    type=1) and scipy.fft.dst(x, type=1) make; with overwrite_x the result
    is written into x.
    """
    return _pocketfft.dst(x, 1, (-1,), 0, x if overwrite_x else None, 1)


@lru_cache(maxsize=None)
def eigenvalues(n_modes: int) -> np.ndarray:
    """Eigenvalues pi^2 i^2 of the Dirichlet Laplacian, modes i = 1..n_modes."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    lam = (np.pi * np.arange(1, n_modes + 1)) ** 2
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=None)
def fast_grid_size(least: int) -> int:
    """The least M >= least whose M+1 is even, so x = 1/2 is a grid point,
    and has no prime factor above 5, which keeps the DST on its fast
    mixed-radix path."""
    cells = (least + 2) // 2 * 2  # M + 1: the least even >= least + 1
    while True:
        rest = cells
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return cells - 1
        cells += 2


def fast_dealias_size(n_modes: int) -> int:
    """The one quadrature grid for N modes: any M >= 3N+1 is exact."""
    return fast_grid_size(3 * n_modes + 1)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable coefficient vector (a_1, ..., a_N) against e_i = sqrt(2) sin(i pi x)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficients must form a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coefficient in spectral field")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size


def coeffs_to_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of the coefficient vector at the M interior grid points.

    A (rows, N) block transforms row by row along the last axis, each row
    bitwise as its own call.  M >= N is required so every mode is
    representable on the grid; the round trip
    values_to_coeffs(coeffs_to_values(a, M), N) is then exact.
    """
    n = coeffs.shape[-1]
    if m < n:
        raise ValueError(f"grid with {m} interior points cannot represent {n} modes")
    # DST-I of the zero-padded coefficients gives 2 * sum a_i sin(i pi x_k);
    # the basis carries an extra sqrt(2).
    buf = np.zeros(coeffs.shape[:-1] + (m,))
    buf[..., :n] = coeffs
    values = dst(buf, overwrite_x=True)
    values /= _SQRT2
    return values


def values_to_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """The first n_modes sine coefficients of values on the M interior points.

    Uses the discrete orthogonality of sin(i pi x_k) on the uniform grid:
    a_i = sqrt(2)/(M+1) * sum_k values_k sin(i pi x_k), exact whenever the
    underlying function is band-limited to at most M modes.  A (rows, M)
    block transforms row by row along the last axis.
    """
    m = values.shape[-1]
    if not 1 <= n_modes <= m:
        raise ValueError(
            f"grid with {m} interior points cannot resolve {n_modes} modes"
        )
    return dst(values)[..., :n_modes] * (_SQRT2 / (2.0 * (m + 1)))


def apply_semigroup(field: SpectralField, t: float) -> SpectralField:
    """Apply the heat semigroup S(t) = exp(-tA), diagonal in the sine basis."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    lam = eigenvalues(field.n_modes)
    return SpectralField(field.coeffs * np.exp(-t * lam))


def apply_fractional_power(field: SpectralField, gamma: float) -> SpectralField:
    """Apply A^(gamma/2) mode-wise, the scaling behind the H^gamma norms.

    gamma may be negative; A has no zero eigenvalue.
    """
    lam = eigenvalues(field.n_modes)
    return SpectralField(field.coeffs * lam ** (gamma / 2.0))


def l2_norm(field: SpectralField) -> float:
    """L2 norm via Parseval: the Euclidean norm of the coefficients."""
    return float(np.linalg.norm(field.coeffs))


def sup_norm(field: SpectralField) -> float:
    """Max of |X| over the grid fast_dealias_size(N), a lower bound on the sup norm.

    x = 1/2 is a grid point, so the bound is attained for e_1.
    """
    vals = coeffs_to_values(field.coeffs, fast_dealias_size(field.n_modes))
    return float(np.max(np.abs(vals)))


def lp_norm(field: SpectralField, p: int) -> float:
    """L^p norm, p in {2, 4, 6}, by quadrature on the grid fast_dealias_size(N).

    The quadrature is (1/(M+1)) sum |X(x_k)|^p; the boundary terms of the
    trapezoid rule vanish because the field does.  It is exact up to p = 6
    for band-limited X.
    """
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported norm order p={p}; expected one of 2, 4, 6")
    vals = coeffs_to_values(field.coeffs, fast_dealias_size(field.n_modes))
    return lp_quadrature(vals, p)


def lp_quadrature(values: np.ndarray, p: int) -> float:
    """((1/(M+1)) sum_k v_k^p)^(1/p) of a field's values v on the M interior points."""
    return float(((values**p).sum() / (values.size + 1)) ** (1.0 / p))
