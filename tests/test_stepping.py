import inspect
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allencahn import stepping
from allencahn.drift import (
    CubicDrift,
    DriftEvaluation,
    evaluate_drift,
    fast_dealias_size,
    projection_grid,
)
from allencahn.errors import BlowUpError, RunawayPartitionError
from allencahn.noise import NoiseSpec, NoiseStream
from allencahn.spectral import SpectralField, eigenvalues, l2_norm, lp_norm
from allencahn.stepping import (
    AA_FAMILIES,
    ADAPTIVE,
    CLAMP,
    FALLBACK,
    Scheme,
    TimestepLaw,
    _select_branch,
    integrate,
    integrate_block,
)

CUBIC = CubicDrift(-1.0, 0.0, 1.0)

E1_DRIFT_NORM = 2.0**-0.5  # ||F(e_1)|| for f = u - u^3, frozen from the oracle


def e1(n=8):
    coeffs = np.zeros(n)
    coeffs[0] = 1.0
    return SpectralField(coeffs)


def zero(n=8):
    return SpectralField(np.zeros(n))


def stream(n=8, seed=0, path=0, kind="trace-class", scale=1.0):
    return NoiseStream(NoiseSpec(kind, n, scale), seed, path)


def law_at(law, field, drift=CUBIC):
    """tau^delta at a state, from the drift evaluation a step would make."""
    ev = evaluate_drift(drift, field.coeffs)
    lp = (lp_norm(field, 4), lp_norm(field, 6)) if law.needs_lp_norms else ()
    return law.value(l2_norm(field), ev.image_norm[0], *lp)


def one_step(scheme, field, tau, noise=None):
    """A one-step integrate run of length tau; returns (final coeffs, record).

    Without a stream the step runs noise-free.
    """
    if noise is None:
        noise = stream(field.n_modes, scale=0.0)
    res = integrate(scheme, field, tau, noise, CUBIC, collect_records=True)
    assert res.summary.steps == 1
    return res.final.coeffs, res.records[0]


@dataclass(frozen=True)
class FixedLaw:
    """A law whose value is `step` at every state, with the bound parameters
    of a `TimestepLaw`: the stand-in for a law in the branch, clamp and
    blow-up tests below.  `Scheme` does not check its law's type."""

    step: float
    delta: float = 1.0
    horizon: float = 1.0
    zeta: float = 1.0
    xi: float = 10.0
    q0: float = 1.0
    tau_min: float = 0.2
    needs_lp_norms = False

    def value(self, l2, drift_norm, l4=None, l6=None):
        return self.step


def ae(tau):
    return Scheme("ae", law=FixedLaw(tau))


# ---------------------------------------------------------------------------
# timestep laws


def test_law_validation():
    with pytest.raises(ValueError):
        TimestepLaw("au0", 0.25)
    with pytest.raises(ValueError):
        TimestepLaw("au1", 0.0)
    with pytest.raises(ValueError):
        TimestepLaw("au1", 1.5)
    with pytest.raises(ValueError):
        TimestepLaw("au1", 0.25, phi=0.0)
    with pytest.raises(ValueError):
        TimestepLaw("au1", 0.25, tau_min=0.0)
    # the low bound 1/(zeta ||X||^q0 + xi) must be finite and positive at every X
    for bad in ({"xi": 0.0}, {"xi": -1.0}, {"zeta": -1.0}, {"q0": -1.0}):
        with pytest.raises(ValueError):
            TimestepLaw("au1", 0.25, **bad)
    TimestepLaw("au1", 0.25, zeta=0.0, q0=0.0)


@pytest.mark.parametrize(
    "name", ["delta", "horizon", "phi", "zeta", "xi", "q0", "tau_min"]
)
def test_law_refuses_a_non_finite_parameter(name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            TimestepLaw(**{"family": "au1", "delta": 0.25, name: value})


def test_law_needs_lp_norms():
    assert TimestepLaw("aa2", 0.5).needs_lp_norms
    assert not TimestepLaw("au2", 0.5).needs_lp_norms


def test_au3_at_zero_state():
    law = TimestepLaw("au3", 2.0**-4)
    assert law_at(law, zero()) == pytest.approx(0.0625, abs=1e-15)


def test_au4_at_zero_state():
    law = TimestepLaw("au4", 2.0**-4, horizon=1.0)
    assert law_at(law, zero()) == pytest.approx(0.0625, abs=1e-15)


def test_au1_on_first_eigenfunction():
    base = (1.0 / (E1_DRIFT_NORM + 1.0)) ** (4.0 / 3.0)  # l2 = 1
    law = TimestepLaw("au1", 0.25)
    assert law_at(law, e1()) == pytest.approx(
        min(0.25, base), abs=1e-14
    )
    assert law_at(law, e1()) == 0.25  # the cap binds here
    fine = TimestepLaw("au1", 2.0**-6)
    assert law_at(fine, e1()) == pytest.approx(2.0**-6, abs=1e-16)


def test_au6_has_builtin_regularization():
    law = TimestepLaw("au6", 0.5, phi=123.0)  # phi is ignored by this family
    got = law_at(law, e1())
    assert got == pytest.approx(0.5 * (1.0 / (E1_DRIFT_NORM + 3.0)) ** (4.0 / 3.0))


def test_aa1_uses_l4_l6_norms():
    # for e_1: ||X||_L4^4 = 3/2, ||X||_L6^6 = 5/2
    law = TimestepLaw("aa1", 0.5)
    base = min(
        2.0 * 1.5 / (2.5 + 1.0), (1.0 / (E1_DRIFT_NORM + 1.0)) ** (4.0 / 3.0)
    )
    assert law_at(law, e1()) == pytest.approx(
        min(0.5, base), abs=1e-14
    )


def test_aa3_formula():
    law = TimestepLaw("aa3", 0.5)
    base = min(
        1.0 / (2.5 + 1.0), (1.0 / (E1_DRIFT_NORM + 1.0)) ** (4.0 / 3.0)
    )  # l2 = 1
    assert law_at(law, e1()) == pytest.approx(0.5 * base, abs=1e-14)


def test_min_capped_laws_respect_delta_horizon(rng):
    for fam in ("au1", "aa1", "au4"):
        law = TimestepLaw(fam, 2.0**-3, horizon=1.0)
        for _ in range(50):
            field = SpectralField(rng.standard_normal(8) / np.arange(1, 9))
            assert law_at(law, field) <= 2.0**-3 + 1e-15


def test_scaled_law_below_capped_sibling(rng):
    for capped_fam, scaled_fam in (("au1", "au2"), ("aa1", "aa2")):
        capped = TimestepLaw(capped_fam, 2.0**-2)
        scaled = TimestepLaw(scaled_fam, 2.0**-2)
        for _ in range(50):
            field = SpectralField(rng.standard_normal(8) / np.arange(1, 9))
            tc = law_at(capped, field)
            ts = law_at(scaled, field)
            assert ts <= tc + 1e-15


def test_law_families_are_distinct(rng):
    # each family is its own function of the state: no two agree on every
    # state of a sampled set
    families = stepping.FAMILIES
    states = []
    for scale in rng.exponential(2.0, size=50):
        field = SpectralField(scale * rng.standard_normal(8) / np.arange(1, 9))
        drift_norm = evaluate_drift(CUBIC, field.coeffs).image_norm[0]
        lp = (lp_norm(field, 4), lp_norm(field, 6))
        states.append((l2_norm(field), drift_norm, *lp))
    for delta in (2.0**-2, 2.0**-6):
        values = {
            fam: [TimestepLaw(fam, delta).value(*state) for state in states]
            for fam in families
        }
        for i, a in enumerate(families):
            for b in families[i + 1:]:
                assert values[a] != values[b], (a, b, delta)
    assert len(families) == 8


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(AA_FAMILIES),
    kind=st.sampled_from(("atea", "ateu", "ae")),
    delta=st.sampled_from([2.0**-k for k in range(8)]),
    tau_min=st.sampled_from((0.01, 0.2)),
    l2=st.floats(0.0, 50.0),
    drift_norm=st.floats(0.0, 1e4),
    l4=st.floats(0.0, 50.0),
    l6=st.floats(0.0, 50.0),
)
def test_aa_law_without_lp_norms_bounds_its_value(
    family, kind, delta, tau_min, l2, drift_norm, l4, l6
):
    # the integrator skips the L4/L6 norms where the Lp-free value falls
    # back; the law's own value must then fall back to the same step
    law = TimestepLaw(family, delta, tau_min=tau_min)
    scheme = Scheme(kind, law=law)
    assert law.base_value(l2, drift_norm) >= law.base_value(l2, drift_norm, l4, l6)
    free, full = law.value(l2, drift_norm), law.value(l2, drift_norm, l4, l6)
    assert free >= full
    branch = _select_branch(scheme, free, l2)
    if branch[0] == FALLBACK:
        assert _select_branch(scheme, full, l2) == branch


# ---------------------------------------------------------------------------
# single steps: one-step integrate runs


def test_ae_step_zero_fixed_point():
    out, record = one_step(ae(0.3), zero(), 0.3)
    assert record.branch == ADAPTIVE
    assert np.all(out == 0.0)


def test_ae_step_pure_semigroup_kick():
    # from X = 0, where F(0) = 0, one step is the decayed increment alone;
    # at tau = 1/pi^2 mode 1 decays by exactly e^-1
    tau = 1.0 / np.pi**2
    noise = stream(seed=4)
    out, _ = one_step(ae(tau), zero(), tau, noise=noise)
    _, dw = noise.increments(0, tau, 1)
    decay = np.exp(-tau * eigenvalues(8))
    assert decay[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert np.allclose(out, decay * dw, rtol=1e-14, atol=0.0)
    assert np.all(out != 0.0)


def test_ae_step_composes_drift_and_semigroup():
    tau = 0.01
    out, _ = one_step(ae(tau), e1(), tau)
    drift_coeffs = np.zeros(8)
    drift_coeffs[0], drift_coeffs[2] = -0.5, 0.5
    expected = np.exp(-tau * eigenvalues(8)) * (e1().coeffs + tau * drift_coeffs)
    assert np.allclose(out, expected, atol=1e-14)


def test_tamed_step_zero_fixed_point():
    out, record = one_step(Scheme("te", h=0.5), zero(), 0.5)
    assert record.branch == FALLBACK
    assert np.all(out == 0.0)


def test_tamed_step_matches_ae_for_tiny_tau(rng):
    field = SpectralField(rng.standard_normal(8) / np.arange(1, 9))
    tau = 1e-8
    a, _ = one_step(ae(tau), field, tau)
    b, _ = one_step(Scheme("te", h=tau), field, tau)
    assert np.max(np.abs(a - b)) <= 1e-6 * l2_norm(field)


def test_tamed_step_damps_drift_term():
    tau = 1.0
    out, _ = one_step(Scheme("te", h=tau), e1(), tau)
    drift_coeffs = np.zeros(8)
    drift_coeffs[0], drift_coeffs[2] = -0.5, 0.5
    damp = tau / (1.0 + E1_DRIFT_NORM * tau)  # taming uses ||F^N||
    expected = np.exp(-tau * eigenvalues(8)) * (e1().coeffs + damp * drift_coeffs)
    assert np.allclose(out, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# hybrid branch selection, read from the first step of an integrate run


def first_record(kind, law, field):
    res = integrate(Scheme(kind, law=law), field, 1.0, stream(), CUBIC,
                    collect_records=True)
    return res.records[0]


def test_hybrid_step_atea_adaptive_branch_at_zero_state():
    # bound = 1/(zeta*0 + xi) = 0.1 and au3 gives tau = 0.25 >= 0.1
    law = TimestepLaw("au3", 0.25, xi=10.0)
    record = first_record("atea", law, zero())
    assert record.branch == ADAPTIVE
    assert record.tau == pytest.approx(0.25, abs=1e-15)


def test_hybrid_step_ateu_fallback_branch():
    law = FixedLaw(0.15, delta=0.5)
    record = first_record("ateu", law, e1())
    assert record.branch == FALLBACK
    assert record.tau == pytest.approx(min(0.2, 0.5), abs=1e-15)  # = tau_min here
    law_up = FixedLaw(1e-3, delta=2.0**-4)
    rec_capped = first_record("ateu", law_up, e1())
    assert rec_capped.branch == FALLBACK
    assert rec_capped.tau == pytest.approx(2.0**-4)  # fallback capped by delta*T


def test_hybrid_step_tie_goes_adaptive():
    law = FixedLaw(0.2)
    record = first_record("ateu", law, e1())
    assert record.branch == ADAPTIVE


def test_scheme_validation():
    with pytest.raises(ValueError):
        Scheme("te")  # needs h
    with pytest.raises(ValueError):
        Scheme("ateu")  # needs law
    with pytest.raises(ValueError):
        Scheme("nope", h=0.1)
    law = TimestepLaw("au1", 2.0**-4, tau_min=0.2)
    assert Scheme("ateu", law=law).fallback_length == pytest.approx(2.0**-4)


def test_te_scheme_refuses_a_non_finite_step():
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"step h > 0, got {h}$"):
            Scheme("te", h=h)


# ---------------------------------------------------------------------------
# integrator behaviour


def test_te_partition_is_uniform():
    res = integrate(Scheme("te", h=0.25), e1(), 1.0, stream(), CUBIC,
                    collect_records=True)
    taus = [r.tau for r in res.records]
    assert taus == [0.25, 0.25, 0.25, 0.25]
    assert all(r.branch == FALLBACK for r in res.records)
    assert res.summary.steps == 4
    assert sum(taus) == pytest.approx(1.0, abs=4 * np.spacing(1.0))


def test_partition_lands_exactly_on_horizon():
    law = TimestepLaw("au3", 2.0**-3)
    res = integrate(Scheme("ae", law=law), e1(), 1.0, stream(), CUBIC,
                    collect_records=True)
    assert abs(sum(r.tau for r in res.records) - 1.0) <= 4 * np.spacing(1.0)
    assert all(r.tau > 0 for r in res.records)


def test_final_clamp_tagged_and_excluded_from_min_step():
    law = FixedLaw(0.3)
    res = integrate(Scheme("ae", law=law), e1(), 1.0, stream(), CUBIC,
                    collect_records=True)
    taus = [r.tau for r in res.records]
    assert taus == pytest.approx([0.3, 0.3, 0.3, 0.1])
    assert [r.branch for r in res.records] == [ADAPTIVE] * 3 + [CLAMP]
    assert res.summary.clamp_steps == 1
    assert res.summary.min_step == pytest.approx(0.3)  # clamp not counted


def test_exact_fit_final_step_keeps_its_branch():
    res = integrate(Scheme("te", h=0.5), e1(), 1.0, stream(), CUBIC,
                    collect_records=True)
    assert [r.branch for r in res.records] == [FALLBACK, FALLBACK]
    assert res.summary.clamp_steps == 0


def test_integrate_validation():
    law = TimestepLaw("au3", 0.5)
    with pytest.raises(ValueError):
        integrate(Scheme("ae", law=law), e1(), 0.0, stream(), CUBIC)
    with pytest.raises(ValueError):
        integrate(Scheme("ae", law=law), e1(), 1.0, stream(), CUBIC, refinement=0)
    with pytest.raises(ValueError):
        integrate(Scheme("ae", law=law), e1(16), 1.0, stream(8), CUBIC)


def test_integrate_refuses_a_non_finite_horizon(monkeypatch):
    # refused before any increment is drawn
    def no_draw(*args):
        raise AssertionError("an increment was drawn")

    monkeypatch.setattr(NoiseStream, "increments", no_draw)
    for horizon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^horizon .*, got {horizon}$"):
            integrate(Scheme("te", h=0.25), e1(), horizon, stream(), CUBIC)


def test_ateu_reduces_to_ae_when_fallback_never_fires():
    law = FixedLaw(0.3)
    a = integrate(Scheme("ateu", law=law), e1(), 1.0, stream(seed=5), CUBIC)
    b = integrate(Scheme("ae", law=law), e1(), 1.0, stream(seed=5), CUBIC)
    assert np.array_equal(a.final.coeffs, b.final.coeffs)
    assert a.summary.fallback_steps == 0


def test_ateu_constant_law_below_bound_is_te():
    law = FixedLaw(0.15)
    a = integrate(Scheme("ateu", law=law), e1(), 1.0, stream(seed=9), CUBIC)
    b = integrate(Scheme("te", h=0.2), e1(), 1.0, stream(seed=9), CUBIC)
    assert np.array_equal(a.final.coeffs, b.final.coeffs)
    assert a.summary.adaptive_steps == 0


def test_atea_branches_on_state_dependent_bound():
    # from e_1 the au3 value delta*(1/(1/sqrt2+1))^{4/3} ~ 0.245 clears
    # 1/(1+10) but not a tight bound with large zeta
    law_loose = TimestepLaw("au3", 0.5, zeta=1.0, xi=10.0, q0=1.0)
    res = integrate(
        Scheme("atea", law=law_loose), e1(), 1.0, stream(scale=0.0), CUBIC,
        collect_records=True,
    )
    assert res.records[0].branch == ADAPTIVE
    law_tight = TimestepLaw("au3", 2.0**-6, zeta=100.0, xi=1.0, q0=1.0)
    res = integrate(
        Scheme("atea", law=law_tight), e1(), 1.0, stream(scale=0.0), CUBIC,
        collect_records=True,
    )
    assert res.records[0].branch == FALLBACK


def test_errors_survive_pickling():
    # pool workers hand exceptions back pickled
    blow = pickle.loads(pickle.dumps(BlowUpError(0.5, 3.0)))
    assert type(blow) is BlowUpError
    assert (blow.time, blow.sup_norm) == (0.5, 3.0)
    assert str(blow) == str(BlowUpError(0.5, 3.0))
    runaway = pickle.loads(pickle.dumps(RunawayPartitionError(7, 0.25)))
    assert type(runaway) is RunawayPartitionError
    assert (runaway.steps, runaway.time) == (7, 0.25)
    assert str(runaway) == str(RunawayPartitionError(7, 0.25))


def test_blow_up_raises_with_location():
    big = SpectralField(np.array([1e130, 0.0, 0.0, 0.0]))
    law = FixedLaw(0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as info:
            integrate(Scheme("ae", law=law), big, 1.0, stream(4), CUBIC)
    assert info.value.time == 0.0
    assert info.value.sup_norm > 1e100


def test_runaway_partition_from_degenerate_law():
    # au1 at X = 0 returns tau = 0: no progress is a hard error, not a hang
    law = TimestepLaw("au1", 0.25)
    with pytest.raises(RunawayPartitionError):
        integrate(Scheme("ae", law=law), zero(), 1.0, stream(scale=0.0), CUBIC)


def test_runaway_message_covers_a_stalled_step_and_the_ceiling():
    # au1 at X = 0 stalls at once, long before any ceiling
    law = TimestepLaw("au1", 0.25)
    with pytest.raises(RunawayPartitionError) as info:
        integrate(Scheme("ae", law=law), zero(), 1.0, stream(scale=0.0), CUBIC)
    assert (info.value.steps, info.value.time) == (0, 0.0)
    assert str(info.value) == (
        "partition ran away after 0 steps at t=0: "
        "a step did not advance t, or the step ceiling was reached"
    )


def test_step_ceiling_triggers_runaway_error(monkeypatch):
    monkeypatch.setattr(stepping, "STEP_CEILING", 50)
    law = FixedLaw(1e-4)
    with pytest.raises(RunawayPartitionError) as info:
        integrate(Scheme("ae", law=law), e1(), 1.0, stream(), CUBIC)
    assert info.value.steps == 50


def test_integrator_entries_take_three_keywords():
    for entry in (integrate, integrate_block):
        keywords = [
            p.name
            for p in inspect.signature(entry).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ]
        assert keywords == ["refinement", "collect_records", "exact_convolution"]


def test_pathwise_step_count_bound_min_capped():
    # M <= (1/delta) T (1/tau_min + 1/T) for the delta-capped families
    delta = 2.0**-4
    law = TimestepLaw("au1", delta, tau_min=0.2)
    bound = (1.0 / delta) * 1.0 * (1.0 / 0.2 + 1.0)
    for path in range(5):
        res = integrate(
            Scheme("ateu", law=law), e1(32), 1.0, stream(32, path=path), CUBIC
        )
        assert res.summary.steps <= bound


def test_pathwise_step_count_bound_atea():
    delta = 2.0**-3
    law = TimestepLaw("aa1", delta, zeta=1.0, xi=10.0, q0=1.0)
    for path in range(5):
        res = integrate(
            Scheme("atea", law=law), e1(32), 1.0, stream(32, path=path), CUBIC
        )
        bound = (1.0 / delta) * 1.0 * res.summary.max_bound_expr
        assert res.summary.steps <= bound


def test_zero_noise_sup_norm_decays_from_e1():
    law = TimestepLaw("au3", 2.0**-2)
    res = integrate(
        Scheme("ae", law=law), e1(), 1.0, stream(scale=0.0), CUBIC,
        collect_records=True,
    )
    sups = [r.norm_sup for r in res.records]
    assert all(b <= a + 1e-12 for a, b in zip(sups[1:], sups[2:]))
    assert sups[-1] <= sups[1] + 1e-12
    assert res.summary.max_sup <= math.sqrt(2.0) + 1e-12


def test_reference_tracks_coarse_in_smooth_limit():
    # tiny uniform steps: the r-fold refined companion stays close to the
    # coarse endpoint, and both equal the same modes of the driving noise
    res = integrate(
        Scheme("te", h=2.0**-7), e1(), 1.0, stream(seed=21), CUBIC, refinement=3
    )
    assert res.reference_final is not None
    gap = np.linalg.norm(res.reference_final.coeffs - res.final.coeffs)
    assert 0.0 < gap < 0.05


def test_exact_convolution_noise_form():
    # one te step from the zero state, where F(0) = 0: only the noise term
    # is left, and each form weights the same normals differently
    n, tau = 8, 0.05
    lam = eigenvalues(n)
    s = stream(n, seed=3)
    q = s.spec.mode_variances
    z = s._generator(0).standard_normal((1, n))[0]
    conv = integrate(
        Scheme("te", h=tau), zero(n), tau, s, CUBIC, exact_convolution=True
    ).final.coeffs
    expected = np.sqrt(q * -np.expm1(-2.0 * lam * tau) / (2.0 * lam)) * z
    np.testing.assert_allclose(conv, expected, rtol=1e-13, atol=0.0)

    default = integrate(Scheme("te", h=tau), zero(n), tau, s, CUBIC).final.coeffs
    _, dw = s.increments(0, tau, 1)
    assert np.array_equal(default, np.exp(-tau * lam) * dw)

    with pytest.raises(ValueError):
        integrate(
            Scheme("te", h=tau), zero(n), 1.0, s, CUBIC,
            refinement=2, exact_convolution=True,
        )


def test_record_diagnostics_are_prestep():
    res = integrate(Scheme("te", h=0.5), e1(), 1.0, stream(scale=0.0), CUBIC,
                    collect_records=True)
    first = res.records[0]
    assert first.norm_l2 == pytest.approx(1.0, abs=1e-15)
    assert first.norm_sup == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert first.norm_drift == pytest.approx(E1_DRIFT_NORM, abs=1e-13)


def test_laws_read_the_image_norm():
    # with a constant source the image norm ||f(0)|| = 2 exceeds the
    # projected norm; the step and its record read the image norm
    drift = CubicDrift(-1.0, 0.0, 1.0, 2.0)
    law = TimestepLaw("au3", 0.5)
    full = law_at(law, zero(), drift)
    assert full == pytest.approx(0.5 * (1.0 / (2.0 + 1.0)) ** (4.0 / 3.0), abs=1e-13)
    res = integrate(Scheme("atea", law=law), zero(), 1.0, stream(scale=0.0), drift,
                    collect_records=True)
    first = res.records[0]
    assert first.branch == ADAPTIVE and first.tau == full
    assert first.norm_drift == pytest.approx(2.0, abs=1e-13)


# ---------------------------------------------------------------------------
# a group of schemes on one path against each scheme's own integrate run


def _fingerprint(run):
    """Everything a run returns, exactly: coefficients as float lists."""
    if isinstance(run, BlowUpError):
        return repr((type(run), run.time, run.sup_norm))
    reference = run.reference_final
    return repr((
        run.final.coeffs.tolist(),
        None if reference is None else reference.coeffs.tolist(),
        run.summary,
        run.records,
    ))


def _alone(scheme, initial, noise, **kw):
    try:
        return integrate(scheme, initial, 1.0, noise, CUBIC, **kw)
    except BlowUpError as exc:
        return exc


def _group_equals_members(schemes, initial, noise, monkeypatch, **kw):
    """Asserts the oracle and returns the group's increment draw count."""
    draws = []
    original = NoiseStream.increments

    def counting(self, step, dt, r=1):
        draws.append((step, dt))
        return original(self, step, dt, r)

    monkeypatch.setattr(NoiseStream, "increments", counting)
    (group,) = integrate_block(
        schemes, initial, 1.0, [noise], CUBIC, collect_records=True, **kw
    )
    monkeypatch.setattr(NoiseStream, "increments", original)
    assert len(group) == len(schemes)
    for scheme, run in zip(schemes, group):
        alone = _alone(scheme, initial, noise, collect_records=True, **kw)
        assert _fingerprint(run) == _fingerprint(alone), scheme
    return group, len(draws)


def _hybrid(kind, family, delta=0.125, tau_min=0.1):
    return Scheme(kind, law=TimestepLaw(family, delta, tau_min=tau_min))


def _branches(run):
    return "".join(r.branch[0] for r in run.records)


def test_group_that_never_splits_draws_once_per_step(monkeypatch):
    # every law falls back at every step, so all four take one partition,
    # and so does te at their fallback length min(tau_min, delta*T) = 0.125
    schemes = [
        _hybrid("ateu", "au1", tau_min=0.2),
        _hybrid("ateu", "au3", tau_min=0.2),
        _hybrid("ateu", "au6", tau_min=0.2),
        _hybrid("atea", "aa3", tau_min=0.2),
        Scheme("te", h=0.125),
    ]
    group, draws = _group_equals_members(
        schemes, e1(), stream(seed=1), monkeypatch, refinement=2
    )
    assert {_branches(run) for run in group} == {"t" * 8}
    assert draws == 8


def test_group_splits_where_one_law_takes_an_adaptive_step(monkeypatch):
    au3, au6, aa3 = (
        _hybrid("ateu", "au3"), _hybrid("ateu", "au6"), _hybrid("atea", "aa3")
    )
    group, draws = _group_equals_members(
        [au3, au6, aa3], e1(), stream(seed=1), monkeypatch, refinement=2
    )
    paths = [_branches(run) for run in group]
    # shared fallback steps, then au3 turns adaptive where the others fall
    # back; each part ends with its own final clamp
    assert paths[0].startswith("tta") and paths[1].startswith("ttt")
    assert paths[1] == paths[2]
    assert [run.records[-1].branch for run in group] == [CLAMP] * 3
    assert group[0].summary.steps != group[1].summary.steps
    assert group[0].records[-1].tau != group[1].records[-1].tau
    assert draws == 2 + (group[0].summary.steps - 2) + (group[1].summary.steps - 2)


def test_group_members_with_different_final_steps(monkeypatch):
    # uniform steps: 0.25 lands on the horizon, 0.3 and 0.4 end in clamps
    schemes = [ae(0.25), ae(0.3), Scheme("te", h=0.4), ae(0.25)]
    group, draws = _group_equals_members(
        schemes, e1(), stream(), monkeypatch, refinement=3
    )
    assert [run.records[-1].branch for run in group] == [
        ADAPTIVE, CLAMP, CLAMP, ADAPTIVE
    ]
    assert draws == 4 + 4 + 3  # the two 0.25 members share their draws
    assert group[0].summary is not group[3].summary


def test_group_member_blows_up_while_another_completes(monkeypatch):
    big = SpectralField(np.array([30.0, 0.0, 0.0, 0.0]))
    schemes = [ae(0.1), Scheme("te", h=0.1), ae(0.1)]
    with np.errstate(over="ignore", invalid="ignore"):
        group, _ = _group_equals_members(schemes, big, stream(4), monkeypatch)
    assert isinstance(group[0], BlowUpError) and isinstance(group[2], BlowUpError)
    assert not isinstance(group[1], BlowUpError)
    with pytest.raises(BlowUpError):
        with np.errstate(over="ignore", invalid="ignore"):
            integrate(ae(0.1), big, 1.0, stream(4), CUBIC)


def test_group_raises_its_members_runaway(monkeypatch):
    monkeypatch.setattr(stepping, "STEP_CEILING", 5)
    schemes = [Scheme("te", h=0.25), Scheme("te", h=0.1)]
    with pytest.raises(RunawayPartitionError) as alone:
        integrate(schemes[1], e1(), 1.0, stream(), CUBIC)
    with pytest.raises(RunawayPartitionError) as grouped:
        integrate_block(schemes, e1(), 1.0, [stream()], CUBIC)
    assert (grouped.value.steps, grouped.value.time) == (
        alone.value.steps, alone.value.time
    )
    ((finished,),) = integrate_block(schemes[:1], e1(), 1.0, [stream()], CUBIC)
    assert finished.summary.steps == 4


# ---------------------------------------------------------------------------
# a block of sample paths against each path's own one-row block


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_block_l4_l6_equal_row_by_row(rows):
    rng = np.random.default_rng(rows)
    block = rng.standard_normal((rows, 64)) / np.arange(1, 65)
    norms = evaluate_drift(CUBIC, block).lp_norms
    assert len(norms) == rows
    for row, (l4, l6) in zip(block, norms):
        assert (l4, l6) == evaluate_drift(CUBIC, row[None]).lp_norms[0]
        assert [(l4, l6)] == evaluate_drift(CUBIC, row).lp_norms
        field = SpectralField(row)
        assert (l4, l6) == (lp_norm(field, 4), lp_norm(field, 6))


def _block_equals_rows(schemes, initial, streams, monkeypatch, **kw):
    """Asserts the block oracle; returns the block and its drift evaluation count."""
    evaluations = []
    original = stepping.evaluate_drift

    def counting(drift, coeffs, m=None):
        evaluations.append(coeffs.shape)
        return original(drift, coeffs, m)

    monkeypatch.setattr(stepping, "evaluate_drift", counting)
    block = integrate_block(
        schemes, initial, 1.0, streams, CUBIC, collect_records=True, **kw
    )
    monkeypatch.setattr(stepping, "evaluate_drift", original)
    assert len(block) == len(streams)
    for noise, row in zip(streams, block):
        (alone,) = integrate_block(
            schemes, initial, 1.0, [noise], CUBIC, collect_records=True, **kw
        )
        assert [_fingerprint(run) for run in row] == [
            _fingerprint(run) for run in alone
        ]
    return block, evaluations


def test_block_that_never_splits_evaluates_once_per_substep(monkeypatch):
    # every law of every row falls back at every step: eight group steps,
    # each one drift evaluation of all four rows and two of the reference
    schemes = [
        _hybrid("ateu", "au1", tau_min=0.2),
        _hybrid("ateu", "au3", tau_min=0.2),
        _hybrid("atea", "aa3", tau_min=0.2),
    ]
    streams = [stream(seed=s, path=p) for s, p in ((1, 0), (1, 1), (2, 0), (3, 7))]
    block, evaluations = _block_equals_rows(
        schemes, e1(), streams, monkeypatch, refinement=2
    )
    assert {_branches(run) for row in block for run in row} == {"t" * 8}
    # the first evaluation of a step holds the coarse and the reference rows
    assert evaluations == [(8, 8), (4, 8)] * 8


def _drift_grids(monkeypatch):
    """The (rows, M) of every drift evaluation the integrator makes."""
    calls = []
    original = stepping.evaluate_drift

    def recording(drift, coeffs, m=None):
        calls.append((coeffs.shape[0], m))
        return original(drift, coeffs, m)

    monkeypatch.setattr(stepping, "evaluate_drift", recording)
    return calls


def _falling_back_block(drift, monkeypatch):
    """Four rows whose members fall back at every step, at r = 3, with the
    grid of every drift evaluation."""
    schemes = [
        _hybrid("ateu", "au1", tau_min=0.2),
        _hybrid("atea", "aa3", tau_min=0.2),
        Scheme("te", h=0.125),
    ]
    streams = [stream(seed=s, path=p) for s, p in ((1, 0), (1, 1), (2, 0), (3, 7))]
    with monkeypatch.context() as patch:
        calls = _drift_grids(patch)
        block = integrate_block(
            schemes, e1(), 1.0, streams, drift, refinement=3, collect_records=True
        )
    assert {_branches(run) for row in block for run in row} == {"t" * 8}
    return block, calls


def test_later_reference_substeps_of_an_odd_drift_use_the_projection_grid(
    monkeypatch,
):
    # the coarse rows and the first reference substep share one evaluation
    # on the quadrature grid; the two later substeps read only F^N, on the
    # projection grid
    m_grid, m_sub = fast_dealias_size(8), projection_grid(CUBIC, 8)
    assert (m_grid, m_sub) == (29, 17)
    block, calls = _falling_back_block(CUBIC, monkeypatch)
    assert calls == [(8, m_grid), (4, m_sub), (4, m_sub)] * 8

    # with the substeps on the quadrature grid instead, the coarse side is
    # bitwise the same and the reference moves at round-off
    monkeypatch.setattr(stepping, "projection_grid", lambda d, n: fast_dealias_size(n))
    one_grid, calls = _falling_back_block(CUBIC, monkeypatch)
    assert calls == [(8, m_grid), (4, m_grid), (4, m_grid)] * 8
    for row, other in zip(block, one_grid):
        for run, alike in zip(row, other):
            assert repr((run.final.coeffs.tolist(), run.summary, run.records)) == repr(
                (alike.final.coeffs.tolist(), alike.summary, alike.records)
            )
            ref, want = run.reference_final.coeffs, alike.reference_final.coeffs
            assert np.max(np.abs(ref - want)) <= 1e-13 * np.max(np.abs(want))


def test_non_odd_drift_evaluates_on_the_quadrature_grid_only(monkeypatch):
    # a0 != 0: no grid projects the drift exactly, so coarse and reference
    # keep sharing one aliasing
    drift = CubicDrift(-1.0, 0.0, 1.0, 0.3)
    _, calls = _falling_back_block(drift, monkeypatch)
    assert calls == [(8, 29), (4, 29), (4, 29)] * 8


def test_block_without_reference_evaluates_once_per_step(monkeypatch):
    schemes = [_hybrid("ateu", "au1", tau_min=0.2), _hybrid("atea", "aa3", tau_min=0.2)]
    streams = [stream(seed=s) for s in range(4)]
    block, evaluations = _block_equals_rows(schemes, e1(), streams, monkeypatch)
    assert {_branches(run) for row in block for run in row} == {"t" * 8}
    assert evaluations == [(4, 8)] * 8


def test_block_row_turns_adaptive_while_the_others_fall_back(monkeypatch):
    # au3 at delta = 1/4 adapts while ||f(X)|| <= 0.18: the noise-free row
    # keeps adapting, the noisy rows fall back once noise kicks their state;
    # au1 falls back throughout
    schemes = [_hybrid("ateu", "au3", 0.25, 0.2), _hybrid("ateu", "au1", 0.25, 0.2)]
    small = SpectralField(np.array([0.1] + [0.0] * 7))
    streams = [stream(seed=4, scale=3.0), stream(scale=0.0), stream(seed=5, scale=3.0)]
    block, evaluations = _block_equals_rows(
        schemes, small, streams, monkeypatch, refinement=3
    )
    au3 = [_branches(row[0]) for row in block]
    assert au3[1] == "aaaaf"
    assert au3[2].startswith("at") and "t" in au3[0]
    assert {_branches(row[1]) for row in block} == {"ttttf"}
    # the first step is shared by all three rows; after it they split
    assert evaluations[:3] == [(6, 8), (3, 8), (3, 8)]
    assert (2, 8) in evaluations and (1, 8) in evaluations


def _desk_atea(delta):
    """atea under aa1-aa3 as the desk-trace-class preset sets them up."""
    return [Scheme("atea", law=TimestepLaw(f"aa{i}", delta)) for i in (1, 2, 3)]


def _counting_l4_l6(monkeypatch):
    """Records the row count of every read of DriftEvaluation.lp_norms."""
    rows = []
    original = DriftEvaluation.lp_norms

    def counting(ev):
        rows.append(len(ev.grid_values))
        return original.fget(ev)

    monkeypatch.setattr(DriftEvaluation, "lp_norms", property(counting))
    return rows


@pytest.mark.parametrize("delta", [2.0**-4, 2.0**-7])
def test_atea_below_its_bound_computes_no_lp_norms(monkeypatch, delta):
    # aa1 is capped at delta T and aa2, aa3 stay near delta, below the atea
    # bound 1/(||X|| + 10): every step falls back without the norms
    lp_rows = _counting_l4_l6(monkeypatch)
    streams = [stream(256, seed=s) for s in range(4)]
    block, _ = _block_equals_rows(
        _desk_atea(delta), e1(256), streams, monkeypatch, refinement=3
    )
    assert lp_rows == []
    assert {run.summary.adaptive_steps for row in block for run in row} == {0}


def test_atea_member_above_its_bound_gets_its_lp_norms(monkeypatch):
    # from 2 e_1 at delta = 1/4 the Lp-free aa1 value clears the bound,
    # and only the norms decide its branch
    lp_rows = _counting_l4_l6(monkeypatch)
    big = SpectralField(2.0 * e1(256).coeffs)
    streams = [stream(256, seed=s) for s in range(3)]
    block, _ = _block_equals_rows(
        _desk_atea(2.0**-2), big, streams, monkeypatch, refinement=3
    )
    assert lp_rows
    assert any(run.summary.adaptive_steps for row in block for run in row)


@pytest.mark.parametrize("refinement", [1, 2])
def test_block_row_blows_up_while_the_others_complete(monkeypatch, refinement):
    # a huge noise scale blows one row up, in its coarse path (r = 1) or in
    # its reference (r = 2); the rows beside it run to the horizon
    schemes = [ae(0.1), Scheme("te", h=0.1)]
    streams = [stream(seed=1), stream(seed=2, scale=1e200), stream(seed=3)]
    with np.errstate(over="ignore", invalid="ignore"):
        block, _ = _block_equals_rows(
            schemes, e1(), streams, monkeypatch, refinement=refinement
        )
    assert all(isinstance(run, BlowUpError) for run in block[1])
    for row in (block[0], block[2]):
        for run in row:
            last = run.records[-1]
            assert last.branch == CLAMP and last.t + last.tau == 1.0


def test_block_raises_its_rows_runaway(monkeypatch):
    monkeypatch.setattr(stepping, "STEP_CEILING", 5)
    schemes = [Scheme("te", h=0.1)]
    streams = [stream(seed=s) for s in range(3)]
    with pytest.raises(RunawayPartitionError) as alone:
        integrate_block(schemes, e1(), 1.0, streams[:1], CUBIC)
    with pytest.raises(RunawayPartitionError) as blocked:
        integrate_block(schemes, e1(), 1.0, streams, CUBIC)
    assert (blocked.value.steps, blocked.value.time) == (
        alone.value.steps, alone.value.time
    )
