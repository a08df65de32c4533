import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allencahn.spectral import (
    SpectralField,
    apply_fractional_power,
    apply_semigroup,
    coeffs_to_values,
    eigenvalues,
    fast_dealias_size,
    l2_norm,
    lp_norm,
    lp_quadrature,
    sup_norm,
    values_to_coeffs,
)

from conftest import direct_coeffs, direct_values


def test_eigenvalues():
    lam = eigenvalues(5)
    assert lam[0] == pytest.approx(np.pi**2, abs=1e-14)
    assert np.allclose(lam, np.pi**2 * np.arange(1, 6) ** 2)
    assert np.all(np.diff(lam) > 0)
    with pytest.raises(ValueError):
        eigenvalues(0)


def test_eigenvalues_cached_read_only():
    lam = eigenvalues(4)
    assert lam is eigenvalues(4)
    with pytest.raises(ValueError):
        lam[0] = 0.0


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SpectralField(np.array([]))
    field = SpectralField(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        field.coeffs[0] = 5.0  # frozen storage


# coeffs_to_values is the inverse (synthesis) transform, values_to_coeffs
# the forward (analysis) one.


def test_inverse_transform_first_mode():
    # e_1 sampled at M = 3: sqrt(2) sin(pi/4), sin(pi/2), sin(3pi/4)
    values = coeffs_to_values(np.array([1.0]), 3)
    assert np.allclose(values, [1.0, np.sqrt(2.0), 1.0], atol=1e-14)


def test_inverse_transform_zero():
    assert np.all(coeffs_to_values(np.zeros(4), 9) == 0)


def test_forward_transform_first_mode():
    vals = direct_values(np.array([1.0]), 7)
    coeffs = values_to_coeffs(vals, 4)
    assert np.allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_forward_transform_two_mode_oracle():
    # 2 e_1 + 3 e_3 on M = 15 points, read back 4 modes: (2, 0, 3, 0)
    coeffs = np.array([2.0, 0.0, 3.0, 0.0])
    vals = direct_values(coeffs, 15)
    back = values_to_coeffs(vals, 4)
    assert np.allclose(back, [2.0, 0.0, 3.0, 0.0], atol=1e-12)


def test_transforms_match_direct_summation(rng):
    for n, m in ((1, 1), (3, 7), (8, 8), (8, 31), (17, 40)):
        coeffs = rng.standard_normal(n)
        fast = coeffs_to_values(coeffs, m)
        assert np.allclose(fast, direct_values(coeffs, m), atol=1e-10)
        back = values_to_coeffs(fast, n)
        assert np.allclose(back, direct_coeffs(fast, n), atol=1e-10)


def test_round_trip_exact(rng):
    for n, m in ((1, 1), (4, 4), (4, 13), (32, 64)):
        coeffs = rng.standard_normal(n)
        back = values_to_coeffs(coeffs_to_values(coeffs, m), n)
        assert np.allclose(back, coeffs, atol=1e-12)


def test_inverse_of_forward_on_bandlimited_grid(rng):
    # grids that are synthesized from <= M modes survive the round trip
    coeffs = rng.standard_normal(6)
    values = coeffs_to_values(coeffs, 11)
    again = coeffs_to_values(values_to_coeffs(values, 11), 11)
    assert np.allclose(again, values, atol=1e-12)


def test_dst_bitwise_equal_to_scipy_fft():
    # the package takes its DST from scipy.fftpack; it must give exactly what
    # scipy.fft.dst gives on the one grid fast_dealias_size(N) (drift, sup
    # and Lp norms), and on the plain multiples 2N and 4N as well
    from scipy.fft import dst as fft_dst

    from allencahn import spectral

    rng = np.random.default_rng(8)
    for n in range(16, 1025):
        for m in (2 * n, fast_dealias_size(n), 4 * n):
            x = rng.standard_normal(m)
            assert np.array_equal(spectral.dst(x, type=1), fft_dst(x, type=1)), m


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("n", [16, 256])
def test_block_transforms_equal_row_by_row(rows, n):
    # a (rows, N) block transforms along the last axis, each row bitwise as
    # its own call, on the one grid fast_dealias_size(N) and on a 2N grid
    rng = np.random.default_rng(rows * n)
    block = rng.standard_normal((rows, n))
    for m in (fast_dealias_size(n), 2 * n):
        values = coeffs_to_values(block, m)
        back = values_to_coeffs(values, n)
        assert values.shape == (rows, m) and back.shape == (rows, n)
        for row, v, b in zip(block, values, back):
            assert np.array_equal(v, coeffs_to_values(row, m))
            assert np.array_equal(b, values_to_coeffs(v, n))


def test_transform_dimension_errors():
    with pytest.raises(ValueError):
        coeffs_to_values(np.ones(5), 4)
    values = np.ones(3)
    with pytest.raises(ValueError):
        values_to_coeffs(values, 4)
    with pytest.raises(ValueError):
        values_to_coeffs(values, 0)
    # a block's mode count is its row length, not its size
    with pytest.raises(ValueError):
        coeffs_to_values(np.ones((2, 5)), 4)
    with pytest.raises(ValueError):
        values_to_coeffs(np.ones((8, 3)), 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=24,
    )
)
def test_parseval_quadrature_property(coeff_list):
    field = SpectralField(np.array(coeff_list))
    coeff_norm = l2_norm(field)
    quad_norm = lp_norm(field, 2)
    assert abs(coeff_norm - quad_norm) <= 1e-10 * max(coeff_norm, 1.0)


def test_semigroup_identity_and_decay():
    field = SpectralField(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(apply_semigroup(field, 0.0).coeffs, field.coeffs)
    out = apply_semigroup(field, 1.0 / np.pi**2)
    assert out.coeffs[0] == pytest.approx(math.exp(-1.0), abs=1e-14)
    with pytest.raises(ValueError):
        apply_semigroup(field, -0.1)


def test_semigroup_high_mode_damping():
    coeffs = np.zeros(32)
    coeffs[31] = 1.0
    out = apply_semigroup(SpectralField(coeffs), 10.0)
    assert abs(out.coeffs[31]) <= math.exp(-eigenvalues(32)[31] * 10.0) * (1 + 1e-12)


def test_semigroup_composition_and_contraction(rng):
    field = SpectralField(rng.standard_normal(16))
    a = apply_semigroup(apply_semigroup(field, 0.3), 0.45)
    b = apply_semigroup(field, 0.75)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)
    for t in (1e-3, 0.1, 2.0):
        out = apply_semigroup(field, t)
        assert l2_norm(out) <= l2_norm(field)
        h1 = l2_norm(apply_fractional_power(out, 1.0))
        assert h1 <= l2_norm(apply_fractional_power(field, 1.0))
        assert sup_norm(out) <= sup_norm(field) + 1e-12


def test_fractional_power():
    field = SpectralField(np.array([1.0, 0.0]))
    assert np.allclose(apply_fractional_power(field, 0.0).coeffs, field.coeffs)
    assert apply_fractional_power(field, 2.0).coeffs[0] == pytest.approx(
        np.pi**2, abs=1e-12
    )
    rng = np.random.default_rng(3)
    x = SpectralField(rng.standard_normal(8))
    back = apply_fractional_power(apply_fractional_power(x, -2.0), 2.0)
    assert np.allclose(back.coeffs, x.coeffs, atol=1e-12)


def test_l2_norm_pythagorean():
    assert l2_norm(SpectralField(np.array([3.0, 4.0]))) == pytest.approx(5.0)


def test_sup_norm_first_mode():
    # true sup of sqrt(2) sin(pi x) is sqrt(2), attained at x = 1/2, which
    # is a grid point because M + 1 is even
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    assert (fast_dealias_size(8) + 1) % 2 == 0
    assert abs(sup_norm(SpectralField(coeffs)) - np.sqrt(2.0)) <= 1e-15


def test_lp_norm_orders():
    field = SpectralField(np.array([1.0]))
    # ||e_1||_L4^4 = 4 int sin^4 = 3/2;  ||e_1||_L6^6 = 8 int sin^6 = 5/2
    assert lp_norm(field, 4) == pytest.approx(1.5**0.25, abs=1e-12)
    assert lp_norm(field, 6) == pytest.approx(2.5 ** (1.0 / 6.0), abs=1e-12)
    assert lp_norm(field, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lp_norm(field, 3)


def test_lp_norm_default_grid_is_exact(rng):
    # |X|^6 holds frequencies up to 6N < 2(M+1), so the quadrature on the
    # default grid is exact for p = 4 and 6: it equals a 16N-grid reference
    for n in (8, 40, 256):
        for _ in range(10):
            field = SpectralField(rng.standard_normal(n) / np.arange(1, n + 1))
            fine = coeffs_to_values(field.coeffs, 16 * n)
            for p in (4, 6):
                want = lp_quadrature(fine, p)
                assert lp_norm(field, p) == pytest.approx(want, rel=1e-12), (n, p)


def test_smoothing_ratio_bounded(rng):
    # sup_norm(A^rho S(t) u) stays below a fixed multiple of
    # t^-rho + t^-(rho+1/2) on unit-norm fields
    worst = 0.0
    for _ in range(25):
        coeffs = rng.standard_normal(256)
        unit = SpectralField(coeffs / np.linalg.norm(coeffs))
        for rho in (0.25, 0.5):
            for t in (1e-3, 1e-2, 1e-1):
                num = sup_norm(apply_fractional_power(apply_semigroup(unit, t), 2 * rho))
                worst = max(worst, num / (t**-rho + t ** (-rho - 0.5)))
    assert worst <= 2.0
