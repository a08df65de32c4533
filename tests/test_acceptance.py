"""Acceptance gate: one test per shipped claim, run on the desk presets.

Criteria 1-2 check the temporal strong-convergence slopes cell by cell,
criterion 3 the spatial sweep, criterion 4 the pathwise step-count law,
criteria 5-7 the exactness contracts (coupling, drift oracle, one-sided
Lipschitz), criterion 8 stability, and criterion 9 bitwise determinism.
Each test prints the measured quantities it judged.

The three studies below are the expensive part (a few minutes in total,
single process); they are built once per module and shared.
"""

import math

import numpy as np
import pytest

from allencahn.config import load_preset
from allencahn.drift import CubicDrift, evaluate_drift
from allencahn.experiments import (
    STABILITY_CEILING,
    convergence_study,
    coupled_error_sample,
    fit_order,
    write_cells_csv,
)
from allencahn.noise import NoiseSpec, NoiseStream
from allencahn.spectral import SpectralField, l2_norm, lp_norm

from conftest import find_cell

CUBIC = CubicDrift(-1.0, 0.0, 1.0)

TEMPORAL_TRACE_BAND = (0.35, 0.65)
TEMPORAL_WHITE_BAND = (0.13, 0.40)
SPATIAL_FLOOR = 0.7  # the paper's spatial order beta = 1, less SPATIAL_TOL
SPATIAL_TOL = 0.3  # slope tolerance around the truncated noise tail's slope
SPATIAL_TAIL_RTOL = 0.10  # per-N rms against the closed-form tail
STEP_SLOPE_BAND = (0.9, 1.1)


@pytest.fixture(scope="module")
def study_trace():
    return convergence_study(load_preset("desk-trace-class"))


@pytest.fixture(scope="module")
def study_white():
    return convergence_study(load_preset("desk-white"))


@pytest.fixture(scope="module")
def study_spatial():
    return convergence_study(load_preset("spatial-desk"))


def _slope_table(study):
    return {(s, l): fit for s, l, fit in study.slopes}


def test_criterion_1_temporal_order_trace_class(study_trace):
    cfg = study_trace.config
    # the protocol itself is part of the claim
    assert cfg.n_modes == 256
    assert cfg.samples == 100
    assert cfg.deltas == tuple(2.0**-k for k in range(2, 8))
    assert cfg.schemes == ("te", "ateu", "atea")
    assert cfg.laws == ("type1", "type2", "type3")
    assert cfg.noise_kind == "trace-class"
    assert cfg.xi == 10.0

    lo, hi = TEMPORAL_TRACE_BAND
    fits = _slope_table(study_trace)
    assert len(fits) == 9
    out_of_band = []
    for (scheme, law), fit in sorted(fits.items()):
        print(f"criterion 1 cell {scheme}/{law}: slope={fit.slope:.4f} "
              f"r2={fit.r_squared:.3f}")
        if not lo <= fit.slope <= hi:
            out_of_band.append((scheme, law, fit.slope))
    assert not out_of_band, (
        f"temporal trace-class slopes outside [{lo}, {hi}]: {out_of_band}"
    )
    print(f"criterion 1: PASS - 9/9 slopes in [{lo}, {hi}]")


def test_criterion_2_temporal_order_white_noise(study_white):
    cfg = study_white.config
    assert cfg.noise_kind == "white"
    assert cfg.schemes == ("te", "ateu")
    assert cfg.laws == ("type4", "type5", "type6")
    assert cfg.samples == 100

    lo, hi = TEMPORAL_WHITE_BAND
    fits = _slope_table(study_white)
    assert len(fits) == 6
    out_of_band = []
    for (scheme, law), fit in sorted(fits.items()):
        print(f"criterion 2 cell {scheme}/{law}: slope={fit.slope:.4f} "
              f"r2={fit.r_squared:.3f}")
        if not lo <= fit.slope <= hi:
            out_of_band.append((scheme, law, fit.slope))
    assert not out_of_band, (
        f"temporal white-noise slopes outside [{lo}, {hi}]: {out_of_band}"
    )
    print(f"criterion 2: PASS - 6/6 slopes in [{lo}, {hi}]")


def _truncated_noise_tail(n, n_ref, horizon):
    """sqrt(sum_{n<i<=n_ref} q_i (1 - exp(-2 lambda_i T)) / (2 lambda_i)), q_i = i^-2.

    The L2 norm at T of the stochastic convolution in the modes the n-mode
    solution lacks: a floor under the spatial error, in closed form.
    """
    i = np.arange(n + 1, n_ref + 1, dtype=float)
    lam = (np.pi * i) ** 2
    return math.sqrt(float(np.sum(i**-2.0 * -np.expm1(-2.0 * lam * horizon) / (2.0 * lam))))


def test_criterion_3_spatial_order_trace_class(study_spatial):
    cfg = study_spatial.config
    assert cfg.spatial_modes == (16, 32, 64, 128)
    assert cfg.spatial_reference == 512
    assert cfg.deltas == (2.0**-7,)
    assert cfg.samples == 100
    assert cfg.schemes == ("te",)
    assert cfg.noise_kind == "trace-class" and cfg.noise_scale == 1.0

    # For q_i = i^-2 the noise meets the paper's assumption for every
    # beta < 3/2; the paper proves order beta <= 1, and the error cannot
    # fall faster than the truncated noise tail, whose own slope is ~1.48.
    tails = [
        _truncated_noise_tail(c.n_modes, cfg.spatial_reference, cfg.horizon)
        for c in study_spatial.cells
    ]
    s_tail = fit_order(list(zip(cfg.spatial_modes, tails))).slope
    for cell, tail in zip(study_spatial.cells, tails):
        print(f"criterion 3 cell N={cell.n_modes}: rms={cell.rms!r} "
              f"tail={tail!r} ratio={cell.rms / tail:.4f}")
    slope = _slope_table(study_spatial)[("te", "type1")].slope
    lo = SPATIAL_FLOOR
    print(f"criterion 3: measured spatial slope {slope:.6f}, "
          f"tail slope {s_tail:.6f}, floor {lo}, tolerance {SPATIAL_TOL}")
    assert lo <= slope and abs(slope - s_tail) <= SPATIAL_TOL, (
        f"spatial slope {slope:.6f} below {lo} or more than {SPATIAL_TOL} "
        f"from the tail slope {s_tail:.6f}; per-N rms "
        f"{[(c.n_modes, c.rms) for c in study_spatial.cells]}"
    )
    off = [
        (c.n_modes, c.rms / tail)
        for c, tail in zip(study_spatial.cells, tails)
        if abs(c.rms / tail - 1.0) > SPATIAL_TAIL_RTOL
    ]
    assert not off, f"rms/tail outside 1 +- {SPATIAL_TAIL_RTOL}: {off}"
    print(f"criterion 3: PASS - spatial slope {slope:.4f} >= {lo}, within "
          f"{SPATIAL_TOL} of the tail slope {s_tail:.4f}")


def test_criterion_4_step_count_law(study_trace):
    cfg = study_trace.config
    horizon = cfg.horizon
    # pathwise bound for the min-capped law under the uniform low bound
    for delta in cfg.deltas:
        cell = find_cell(study_trace, "ateu", "type1", delta)
        bound = (1.0 / delta) * horizon * (1.0 / cfg.tau_min + 1.0 / horizon)
        worst = max(o.steps for o in cell.outcomes)
        print(f"criterion 4 ateu/type1 delta={delta}: max steps {worst} "
              f"<= bound {bound:.1f}")
        assert all(o.steps <= bound for o in cell.outcomes), (
            f"step-count bound violated at delta={delta}: "
            f"max {worst} > {bound}"
        )
    # pathwise bound for the adaptive low bound, from recorded trajectories
    for delta in cfg.deltas:
        cell = find_cell(study_trace, "atea", "type1", delta)
        for o in cell.outcomes:
            bound = (1.0 / delta) * horizon * o.max_bound_expr
            assert o.steps <= bound, (
                f"adaptive-bound step count violated at delta={delta}: "
                f"{o.steps} > {bound}"
            )
    # mean step count must scale like 1/delta
    lo, hi = STEP_SLOPE_BAND
    for scheme in ("ateu", "atea"):
        cells = [find_cell(study_trace, scheme, "type1", d) for d in cfg.deltas]
        x = np.log([1.0 / c.delta for c in cells])
        y = np.log([c.mean_steps for c in cells])
        slope = float(np.polyfit(x, y, 1)[0])
        print(f"criterion 4 {scheme}/type1: mean-step slope {slope:.4f}")
        assert lo <= slope <= hi, (
            f"{scheme} step-count slope {slope:.4f} outside [{lo}, {hi}]"
        )
    print(f"criterion 4: PASS - pathwise bounds hold, slopes in [{lo}, {hi}]")


def test_criterion_5_coupling_exactness(study_trace, study_white, study_spatial):
    # NoiseStream.increments defines the coarse increment as the sum of the
    # fine rows, so the contract to check is that the integrator drives its
    # reference with exactly those rows: test_experiments.py::
    # test_coupled_error_sample_matches_scripted_pair replays one coupled
    # sample by hand from the same draws and fails if the reference is fed
    # anything else.  Below, the draw identities themselves are checked on
    # both noise kinds.  The spatial study draws one increment per step and
    # has no refined reference, so it witnesses no sum.
    assert study_trace.cells and study_white.cells and study_spatial.cells
    # Stored study outcomes against independent single-path replays: a
    # study that hands a path's outcome to the wrong cell or sample fails.
    cfg = study_trace.config
    picks = (
        ("ateu", "type1", 0, 37),
        ("atea", "type2", 2, 5),
        ("te", "type3", 5, 99),
        ("ateu", "type3", 3, 61),
        ("atea", "type1", 5, 13),
        ("te", "type2", 1, 88),
    )
    for scheme, law, i, s in picks:
        cell = find_cell(study_trace, scheme, law, cfg.deltas[i])
        alone = coupled_error_sample(
            cfg, scheme, law, cell.delta, i * cfg.samples + s, te_h=cell.te_h
        )
        assert repr(alone) == repr(cell.outcomes[s]), (scheme, law, cell.delta, s)
    # independent spot checks of the draw contract, both noise kinds
    checks = 0
    for kind, n in (("trace-class", 512), ("white", 256)):
        spec = NoiseSpec(kind, n, 1.0)
        for path in (0, 7, 99):
            stream = NoiseStream(spec, 0, path)
            for step in (0, 3, 127):
                for tau in (2.0**-7, 0.2):
                    fine, coarse = stream.increments(step, tau, 3)
                    assert fine.shape == (3, n)
                    assert np.array_equal(fine.sum(axis=0), coarse)
                    again_fine, again_coarse = stream.increments(step, tau, 3)
                    assert np.array_equal(fine, again_fine)
                    assert np.array_equal(coarse, again_coarse)
                    checks += 1
    print(f"criterion 5: PASS - {len(picks)} stored outcomes replayed; "
          f"{checks} exact draw identities")


def test_criterion_6_drift_oracle_and_parseval():
    field = SpectralField(np.array([1.0] + [0.0] * 7))
    image = evaluate_drift(CUBIC, field.coeffs).coeffs
    expected = np.zeros(8)
    expected[0], expected[2] = -0.5, 0.5
    worst = float(np.max(np.abs(image - expected)))
    assert worst <= 1e-12, f"drift oracle deviation {worst!r}"

    rng = np.random.default_rng(20240819)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 129))
        coeffs = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        f = SpectralField(coeffs)
        coeff_norm = l2_norm(f)
        quad_norm = lp_norm(f, 2)
        worst_rel = max(
            worst_rel, abs(coeff_norm - quad_norm) / max(coeff_norm, 1e-300)
        )
    assert worst_rel <= 1e-10, f"parseval relative deviation {worst_rel!r}"
    print(f"criterion 6: PASS - oracle dev {worst:.2e}, "
          f"parseval rel dev {worst_rel:.2e} over 1000 fields")


def test_criterion_7_one_sided_lipschitz():
    rng = np.random.default_rng(20240821)
    limit = 1.0 + 1e-9  # one-sided constant is 1 for f = u - u^3
    assert CUBIC.one_sided_lipschitz == 1.0
    worst = -math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        x = SpectralField(rng.standard_normal(n) * rng.uniform(0.1, 3.0))
        y = SpectralField(rng.standard_normal(n) * rng.uniform(0.1, 3.0))
        diff = x.coeffs - y.coeffs
        denom = float(diff @ diff)
        if denom == 0.0:
            continue
        gap = (
            evaluate_drift(CUBIC, x.coeffs).coeffs
            - evaluate_drift(CUBIC, y.coeffs).coeffs
        )
        worst = max(worst, float(diff @ gap) / denom)
    assert worst <= limit, f"one-sided ratio {worst!r} exceeds {limit}"
    print(f"criterion 7: PASS - worst ratio {worst:.12f} <= {limit}")


def test_criterion_8_stability(study_trace, study_white):
    for name, study in (("trace-class", study_trace), ("white", study_white)):
        rep = study.stability
        print(f"criterion 8 {name}: divergent={rep.divergent_samples} "
              f"max_sup={rep.max_sup:.4f} max_l2={rep.max_l2:.4f}")
        assert rep.divergent_samples == 0, f"{name}: divergent samples"
        assert rep.max_sup < STABILITY_CEILING, f"{name}: sup-norm ceiling"
        assert rep.max_l2 < STABILITY_CEILING
        assert not rep.exceeded
    print("criterion 8: PASS - no divergence, norms below ceiling")


def test_criterion_9_determinism(study_white, tmp_path):
    rerun = convergence_study(load_preset("desk-white"))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_cells_csv(first, study_white)
    write_cells_csv(second, rerun)

    def rows_without_cpu(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return [r.split(",")[:5] + r.split(",")[6:] for r in lines]

    a, b = rows_without_cpu(first), rows_without_cpu(second)
    assert a == b, "re-run errors.csv differs beyond the CPU column"
    print(f"criterion 9: PASS - {len(a) - 1} rows bitwise identical "
          "(cpu_seconds excluded)")
