import numpy as np
import pytest

from allencahn.drift import (
    CubicDrift,
    DriftEvaluation,
    apply_drift,
    drift_l2_norm,
    evaluate_drift,
    fast_dealias_size,
    inner_product_x_f,
    projection_grid,
)
from allencahn.spectral import (
    SpectralField,
    coeffs_to_values,
    l2_norm,
    lp_norm,
    sup_norm,
)

from conftest import direct_values

CUBIC = CubicDrift(-1.0, 0.0, 1.0)  # f(u) = u - u^3


def quadrature_oracle(func, points: int = 1_000_000) -> float:
    """\\int_0^1 func(x) dx by high-resolution trapezoid."""
    x = np.linspace(0.0, 1.0, points + 1)
    return float(np.trapezoid(func(x), x))


def test_construction_rejects_nonnegative_cubic_term():
    with pytest.raises(ValueError):
        CubicDrift(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CubicDrift(0.5, 0.0, 1.0)


def test_pointwise_polynomial():
    drift = CubicDrift(-2.0, 3.0, -1.0, 0.5)
    u = np.linspace(-2, 2, 9)
    expected = -2.0 * u**3 + 3.0 * u**2 - 1.0 * u + 0.5
    assert np.allclose(drift(u), expected, atol=1e-13)


def _grid_rule(m: int, least: int) -> bool:
    # large enough (M >= least), x = 1/2 on the grid (M+1 even), 5-smooth M+1
    cells = m + 1
    for p in (2, 3, 5):
        while cells % p == 0:
            cells //= p
    return m >= least and (m + 1) % 2 == 0 and cells == 1


def test_dealias_sizes():
    assert fast_dealias_size(8) == 29
    sizes = [fast_dealias_size(n) for n in (16, 32, 64, 128, 256, 512, 1024)]
    assert sizes == [49, 99, 199, 399, 799, 1599, 3199]
    for n in range(1, 1025):
        m = fast_dealias_size(n)
        assert _grid_rule(m, 3 * n + 1), n
        assert not any(_grid_rule(k, 3 * n + 1) for k in range(3 * n + 1, m)), n


NON_ODD = [CubicDrift(-1.0, 0.5, 1.0), CubicDrift(-1.0, 0.0, 1.0, 0.3)]


def test_projection_sizes():
    # an odd drift's projection grid: the least M >= 2N with M+1 even and
    # 5-smooth; any other drift's is the quadrature grid
    sizes = [projection_grid(CUBIC, n) for n in (8, 16, 256, 512, 1024)]
    assert sizes == [17, 35, 539, 1079, 2159]
    for n in range(1, 1025):
        m = projection_grid(CUBIC, n)
        assert _grid_rule(m, 2 * n), n
        assert not any(_grid_rule(k, 2 * n) for k in range(2 * n, m)), n
        for drift in NON_ODD:
            assert projection_grid(drift, n) == fast_dealias_size(n)
    assert CUBIC.odd and CubicDrift(-2.0, 0.0, 0.5).odd
    assert not any(drift.odd for drift in NON_ODD)


@pytest.mark.parametrize("n", [16, 256, 512])
def test_projection_grid_is_exact_for_an_odd_cubic(n, rng):
    # an odd cubic's image of N sine modes has at most 3N sine modes; on
    # M >= 2N none of them aliases onto the first N, on M = 2N - 1 mode 3N,
    # which a large top mode feeds, lands on mode N
    drift = CubicDrift(-2.0, 0.0, 0.5)
    coeffs = rng.standard_normal(n) / np.arange(1, n + 1) ** 0.75
    coeffs[-1] = 0.5
    fine = evaluate_drift(drift, coeffs, 8 * n).coeffs

    def error(m):
        got = DriftEvaluation(drift, coeffs, m).coeffs
        return np.max(np.abs(got - fine)) / np.max(np.abs(fine))

    assert error(projection_grid(drift, n)) <= 1e-12
    assert error(2 * n) <= 1e-12
    assert error(2 * n - 1) > 1e-6


def test_no_grid_projects_a_non_odd_drift_exactly(rng):
    # a2 u^2 and a0 are cosine series: their sine coefficients alias on the
    # quadrature grid, which is why a non-odd drift keeps that one grid
    n = 256
    coeffs = rng.standard_normal(n) / np.arange(1, n + 1) ** 0.75
    for drift in NON_ODD:
        fine = evaluate_drift(drift, coeffs, 8 * n).coeffs
        base = evaluate_drift(drift, coeffs).coeffs
        assert np.max(np.abs(base - fine)) > 1e-10 * np.max(np.abs(fine))


def test_drift_grid_guards():
    x = np.ones(8)
    # an odd drift projects on M >= 2N, any other drift needs M >= 3N+1
    assert evaluate_drift(CUBIC, x, 16).m == 16
    with pytest.raises(ValueError):
        evaluate_drift(CUBIC, x, 15)
    for drift in NON_ODD:
        assert evaluate_drift(drift, x, 25).m == 25
        with pytest.raises(ValueError):
            evaluate_drift(drift, x, 24)
    # below 3N+1 only F^N and its norm are read, and no norm or sup of the grid
    block = np.ones((2, 8))
    exact = evaluate_drift(CUBIC, block, 64).projected_norm
    for m in (16, 24):
        ev = evaluate_drift(CUBIC, block, m)
        assert ev.projected_norm == pytest.approx(exact, rel=1e-12)
        for name in ("image_norm", "lp_norms", "state_sup"):
            with pytest.raises(ValueError):
                getattr(ev, name)
    ev = evaluate_drift(CUBIC, x, 25)
    assert ev.image_norm > 0 and ev.state_sup > 0 and len(ev.lp_norms) == 1


@pytest.mark.parametrize("n", [16, 256, 512, 1024])
@pytest.mark.parametrize(
    "drift", [CUBIC, CubicDrift(-2.0, 0.0, 0.5)], ids=["cubic", "scaled"]
)
def test_default_grid_is_dealiased(drift, n, rng):
    # An odd cubic maps a band-limited state to at most 3N modes, so its
    # projection and image norm on the default grid equal those on an 8N
    # grid; at N = 16 the grid is M = 3N + 1 itself.
    for _ in range(3):
        coeffs = rng.standard_normal(n) / np.arange(1, n + 1) ** 0.75
        base = evaluate_drift(drift, coeffs)
        fine = evaluate_drift(drift, coeffs, 8 * n)
        scale = np.max(np.abs(fine.coeffs))
        assert np.max(np.abs(base.coeffs - fine.coeffs)) <= 1e-12 * scale
        assert base.image_norm == pytest.approx(fine.image_norm, rel=1e-12)
    # on an aliasing grid the same comparison fails: on M = 2N - 1 mode 3N,
    # which a large top mode feeds, lands on mode N (the norms raise there)
    coeffs[-1] = 0.5
    fine = evaluate_drift(drift, coeffs, 8 * n).coeffs
    aliased = DriftEvaluation(drift, coeffs, 2 * n - 1).coeffs
    assert np.max(np.abs(aliased - fine)) > 1e-8 * np.max(np.abs(fine))


def test_default_grid_is_the_integrators(rng):
    for n in (1, 5, 8, 256):
        x = rng.standard_normal(n)
        assert evaluate_drift(CUBIC, x).m == fast_dealias_size(x.size)


def test_apply_drift_first_mode_trig_identity():
    # sin^3 t = (3 sin t - sin 3t)/4 gives F(e_1) = -e_1/2 + e_3/2
    field = SpectralField(np.concatenate(([1.0], np.zeros(7))))
    out = apply_drift(CUBIC, field)
    expected = np.zeros(8)
    expected[0], expected[2] = -0.5, 0.5
    assert np.max(np.abs(out.coeffs - expected)) < 1e-12


def test_apply_drift_zero_fixed_point():
    field = SpectralField(np.zeros(6))
    assert np.all(apply_drift(CUBIC, field).coeffs == 0.0)


def test_apply_drift_constant_source_projection():
    # f = 2 at X = 0: sine coefficients of the constant are
    # 2*sqrt(2)*(1-(-1)^i)/(i pi); the quadrature projection converges to
    # them quadratically in 1/M
    drift = CubicDrift(-1.0, 0.0, 1.0, 2.0)
    field = SpectralField(np.zeros(4))
    out = evaluate_drift(drift, field.coeffs, 1_000_000)
    i = np.arange(1, 5)
    expected = 2.0 * np.sqrt(2.0) * (1 - (-1.0) ** i) / (i * np.pi)
    assert np.max(np.abs(out.coeffs - expected)) < 1e-9


def test_drift_l2_norm_constant_exact():
    drift = CubicDrift(-1.0, 0.0, 1.0, 2.0)
    field = SpectralField(np.zeros(4))
    # trapezoid boundary term makes the constant-image norm exact at any M
    assert drift_l2_norm(drift, field) == pytest.approx(2.0, abs=1e-14)
    assert drift_l2_norm(CUBIC, field) == 0.0


def test_drift_l2_norm_against_quadrature_oracle():
    field = SpectralField(np.concatenate(([1.0], np.zeros(7))))
    oracle = np.sqrt(
        quadrature_oracle(lambda x: (CUBIC(np.sqrt(2.0) * np.sin(np.pi * x))) ** 2)
    )
    assert drift_l2_norm(CUBIC, field) == pytest.approx(oracle, abs=1e-9)
    # the image of e_1 is band-limited, so image and projected norms agree
    assert evaluate_drift(CUBIC, field.coeffs).projected_norm == pytest.approx(
        oracle, abs=1e-9
    )
    # frozen closed form: ||F(e_1)|| = sqrt(1/4 + 1/4)
    assert drift_l2_norm(CUBIC, field) == pytest.approx(2.0**-0.5, abs=1e-13)


def test_drift_norm_random_field_oracle(rng):
    coeffs = rng.standard_normal(6) / np.arange(1, 7)
    field = SpectralField(coeffs)

    def image_sq(x):
        u = np.zeros_like(x)
        for i, a in enumerate(coeffs, start=1):
            u += a * np.sqrt(2.0) * np.sin(i * np.pi * x)
        return CUBIC(u) ** 2

    oracle = np.sqrt(quadrature_oracle(image_sq))
    assert drift_l2_norm(CUBIC, field) == pytest.approx(oracle, abs=1e-8)


def test_inner_product_examples(rng):
    zero = SpectralField(np.zeros(5))
    assert inner_product_x_f(CUBIC, zero) == 0.0
    # f = -u^3 pairs to -||u||_L4^4
    pure_cubic = CubicDrift(-1.0, 0.0, 0.0)
    for _ in range(5):
        field = SpectralField(rng.standard_normal(12))
        got = inner_product_x_f(pure_cubic, field)
        assert got == pytest.approx(-lp_norm(field, 4) ** 4, rel=1e-10)
        assert got <= 0.0
    # <e_1, e_1 - e_1^3> = 1 - 3/2 = -1/2, exactly resolved by the grid
    e1 = SpectralField(np.concatenate(([1.0], np.zeros(7))))
    assert inner_product_x_f(CUBIC, e1) == pytest.approx(-0.5, abs=1e-12)
    oracle = quadrature_oracle(
        lambda x: np.sqrt(2.0)
        * np.sin(np.pi * x)
        * CUBIC(np.sqrt(2.0) * np.sin(np.pi * x))
    )
    assert inner_product_x_f(CUBIC, e1) == pytest.approx(oracle, abs=1e-9)


def test_evaluation_matches_direct_synthesis(rng):
    # one evaluation bundles synthesis, image, projection, norms; cross-check
    # every piece against direct summation on the same grid
    coeffs = rng.standard_normal(5)
    m = fast_dealias_size(5)
    ev = evaluate_drift(CUBIC, coeffs)
    v = direct_values(coeffs, m)
    w = CUBIC(v)
    assert np.allclose(ev.grid_values, v, atol=1e-10)
    assert np.allclose(ev.image_values, w, atol=1e-10)
    assert ev.image_norm == pytest.approx(np.sqrt(w @ w / (m + 1)), rel=1e-12)
    assert ev.state_sup == pytest.approx(np.max(np.abs(v)), rel=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_block_evaluation_equals_row_by_row(rows, rng):
    # one transform pair for the block; every array and norm of a row is
    # bitwise that of the row's own evaluation
    drift = CubicDrift(-1.0, 0.5, 1.0, 0.25)
    block = rng.standard_normal((rows, 256)) / np.arange(1, 257)
    ev = evaluate_drift(drift, block)
    assert ev.m == fast_dealias_size(256)
    for name in ("image_norm", "projected_norm", "state_sup"):
        assert len(getattr(ev, name)) == rows
    for i, row in enumerate(block):
        alone = evaluate_drift(drift, row)
        for name in ("grid_values", "image_values", "coeffs"):
            assert np.array_equal(getattr(ev, name)[i], getattr(alone, name)), name
        for name in ("image_norm", "projected_norm", "state_sup"):
            got, want = getattr(ev, name)[i], getattr(alone, name)
            assert type(got) is float and type(want) is float, name
            assert np.array_equal(got, want), name


def _random_pair(rng, n=16, sup_cap=5.0):
    def draw():
        coeffs = rng.standard_normal(n) / np.arange(1, n + 1)
        field = SpectralField(coeffs)
        s = sup_norm(field)
        if s > sup_cap:
            field = SpectralField(coeffs * (sup_cap / s))
        return field

    return draw(), draw()


@pytest.mark.parametrize(
    "drift", [CUBIC, CubicDrift(-2.0, 1.5, 0.5), CubicDrift(-0.5, -1.0, 2.0, 0.3)]
)
def test_one_sided_lipschitz_bound(drift, rng):
    # <X-Y, F(X)-F(Y)> <= (a1 + a2^2/(3|a3|)) ||X-Y||^2 on 1e3 random pairs
    bound = drift.one_sided_lipschitz
    worst = -np.inf
    for _ in range(1000):
        x, y = _random_pair(rng)
        fx = apply_drift(drift, x).coeffs
        fy = apply_drift(drift, y).coeffs
        diff = x.coeffs - y.coeffs
        denom = float(diff @ diff)
        if denom == 0.0:
            continue
        worst = max(worst, float(diff @ (fx - fy)) / denom)
    assert worst <= bound + 1e-9


def test_one_sided_lipschitz_constant_for_protocol_drift():
    assert CUBIC.one_sided_lipschitz == pytest.approx(1.0, abs=1e-15)


def test_polynomial_growth_bound(rng):
    # ||f(u)-f(v)||_L2 <= L1 (1 + ||u||_E^2 + ||v||_E^2) ||u-v||_L2
    drift = CubicDrift(-1.0, 0.5, 1.0)
    L1 = drift.growth_constant
    assert L1 == pytest.approx(1.0 + 0.5 + 3.0)
    for _ in range(200):
        x, y = _random_pair(rng)
        m = fast_dealias_size(x.n_modes)
        ex = evaluate_drift(drift, x.coeffs, m)
        ey = evaluate_drift(drift, y.coeffs, m)
        img_diff = np.sqrt(
            ((ex.image_values - ey.image_values) ** 2).sum() / (m + 1)
        )
        denom = l2_norm(SpectralField(x.coeffs - y.coeffs))
        if denom < 1e-12:
            continue
        # E-norms from a finer grid than the default diagnostic bound
        sup_x, sup_y = (
            np.abs(coeffs_to_values(z.coeffs, 16 * z.n_modes)).max() for z in (x, y)
        )
        cap = 1.0 + sup_x**2 + sup_y**2
        assert img_diff / denom <= L1 * cap * (1.0 + 1e-3)
