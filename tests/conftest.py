"""Shared oracles: direct O(M*N) summation transforms, no fast-transform code.

These deliberately avoid scipy.fft so every transform test has an
independent reference implementation.  `find_cell` looks up a temporal
study's cell by its key.
"""

import numpy as np
import pytest


def direct_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """values_k = sum_i a_i sqrt(2) sin(i pi k/(M+1)), by explicit summation."""
    k = np.arange(1, m + 1)[:, None]
    i = np.arange(1, coeffs.size + 1)[None, :]
    table = np.sqrt(2.0) * np.sin(i * np.pi * k / (m + 1))
    return table @ coeffs


def direct_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    """a_i = sqrt(2)/(M+1) sum_k values_k sin(i pi k/(M+1)), by explicit summation."""
    m = values.size
    k = np.arange(1, m + 1)[None, :]
    i = np.arange(1, n + 1)[:, None]
    table = np.sqrt(2.0) * np.sin(i * np.pi * k / (m + 1)) / (m + 1)
    return table @ values


def find_cell(result, scheme: str, law: str, delta: float):
    """The one cell of a temporal study result with this (scheme, law, delta)."""
    key = (scheme, law, delta)
    [found] = [c for c in result.cells if (c.scheme, c.law, c.delta) == key]
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
