"""Self-contained invariant suites runnable from the CLI.

Five suites: Parseval agreement of coefficient and grid norms, keyed
draws of refined Brownian increments, the trig-identity drift oracle,
boundedness of the semigroup smoothing ratio, and the two-sided sandwich
tying each scaled timestep law to its min-capped sibling.

Every suite samples from its own seeded generator, so `validate` is
deterministic and produces the same verdict on every run.  A suite yields
one (ok, detail) pair per check, and `run_validation` stops it at its
first failing check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drift import CubicDrift, evaluate_drift, inner_product_x_f, projection_grid
from .noise import NoiseSpec, NoiseStream
from .spectral import (
    SpectralField,
    apply_fractional_power,
    apply_semigroup,
    l2_norm,
    lp_norm,
    sup_norm,
)
from .stepping import TimestepLaw

# Empirical ceiling for the smoothing ratio on unit fields: the sampled
# ratios reach 0.1224, so 0.25 leaves a margin of about 2x.
SMOOTHING_RATIO_CEILING = 0.25


@dataclass(frozen=True)
class CheckResult:
    suite: str
    ok: bool
    checks: int
    detail: str = ""

    @property
    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        tail = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{mark}  {self.suite}: {self.checks} checks{tail}"


def _random_field(rng, n: int, scale: float = 1.0) -> SpectralField:
    # decaying spectrum keeps sampled states in the regime the schemes visit
    decay = 1.0 / np.arange(1, n + 1)
    return SpectralField(scale * rng.standard_normal(n) * decay)


def suite_parseval():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 129))
        field = _random_field(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        coeff = l2_norm(field)
        quad = lp_norm(field, 2)
        yield (
            abs(coeff - quad) <= 1e-10 * max(coeff, 1e-300),
            f"n={n} coeff={coeff!r} quadrature={quad!r}",
        )


def suite_coupling():
    seed = 211
    for kind, n in (("trace-class", 64), ("white", 32)):
        spec = NoiseSpec(kind, n)
        for path in (0, 7):
            stream = NoiseStream(spec, seed, path)
            for step in (0, 3):
                for r in (2, 3, 5):
                    for dt in (0.01, 0.2):
                        fine, coarse = stream.increments(step, dt, r)
                        # a stream that drew other steps draws as a fresh one
                        fresh = NoiseStream(spec, seed, path).increments(step, dt, r)
                        yield (
                            np.array_equal(fine, fresh[0]),
                            f"kind={kind} r={r} dt={dt} step={step}",
                        )
                        again = stream.increments(step, dt, r)[1]
                        yield np.array_equal(again, coarse), "redraw differed"


def suite_drift_oracle():
    drift = CubicDrift(-1.0, 0.0, 1.0)
    e1 = SpectralField(np.concatenate(([1.0], np.zeros(7))))
    image = evaluate_drift(drift, e1.coeffs).coeffs
    expected = np.zeros(8)
    expected[0], expected[2] = -0.5, 0.5
    yield np.max(np.abs(image - expected)) <= 1e-12, f"e1 image {image[:4]}"

    # resolution independence: dealiased evaluation must not move when the
    # quadrature grid doubles (an aliased evaluator fails this), and the
    # odd drift's projection grid must give the same F^N
    rng = np.random.default_rng(307)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        field = _random_field(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        base = evaluate_drift(drift, field.coeffs)
        fine = evaluate_drift(drift, field.coeffs, 8 * n)
        proj = evaluate_drift(drift, field.coeffs, projection_grid(drift, n))
        dev = max(np.max(np.abs(ev.coeffs - fine.coeffs)) for ev in (base, proj))
        (norm,), (fine_norm,) = base.image_norm, fine.image_norm
        norm_dev = abs(norm - fine_norm)
        yield (
            dev <= 1e-10 and norm_dev <= 1e-10 * (fine_norm + 1),
            f"n={n} coeff dev {dev:.2e}",
        )


def suite_smoothing():
    rng = np.random.default_rng(401)
    for _ in range(50):
        field = _random_field(rng, 256)
        unit = SpectralField(field.coeffs / l2_norm(field))
        for rho in (0.25, 0.5):
            for t in (1e-3, 1e-2, 1e-1):
                smoothed = apply_fractional_power(apply_semigroup(unit, t), 2 * rho)
                ratio = sup_norm(smoothed) / (t**-rho + t ** (-rho - 0.5))
                yield (
                    ratio <= SMOOTHING_RATIO_CEILING,
                    f"ratio {ratio:.3f} at rho={rho} t={t}",
                )


def suite_sandwich():
    """Scaled law <= capped sibling, both inside the two-sided envelope."""
    drift = CubicDrift(-1.0, 0.0, 1.0)
    rng = np.random.default_rng(503)
    horizon = 1.0
    for _ in range(150):
        n = int(rng.integers(2, 49))
        field = _random_field(rng, n, scale=float(rng.uniform(0.05, 3.0)))
        l2 = l2_norm(field)
        # ||f(X)|| and (L4, L6) from one evaluation, as the integrator reads them
        ev = evaluate_drift(drift, field.coeffs)
        (drift_norm,), ((l4, l6),) = ev.image_norm, ev.lp_norms
        for capped_fam, scaled_fam in (("au1", "au2"), ("aa1", "aa2")):
            for delta in (2.0**-2, 2.0**-5):
                capped = TimestepLaw(capped_fam, delta, horizon)
                scaled = TimestepLaw(scaled_fam, delta, horizon)
                base = capped.base_value(l2, drift_norm, l4, l6)
                v_c = capped.value(l2, drift_norm, l4, l6)
                v_s = scaled.value(l2, drift_norm, l4, l6)
                lo = delta * min(horizon, base)
                hi = min(delta * horizon, base)
                slack = 1e-12 * max(1.0, base)
                yield (
                    v_s <= v_c + slack
                    and lo - slack <= v_s <= hi + slack
                    and lo - slack <= v_c <= hi + slack,
                    f"{capped_fam}/{scaled_fam} delta={delta} base={base!r} "
                    f"capped={v_c!r} scaled={v_s!r}",
                )
        # the quadratic-growth inequality the lp-capped laws are built for:
        # <X, F(X)> + tau(X) ||F(X)||^2 / 2 <= K ||X||^2, with K = 3/2 for
        # the L4/L6-capped pair and K = 2 for the l2-capped variant
        inner = inner_product_x_f(drift, field)
        for family, bound_const in (("aa1", 1.5), ("aa2", 1.5), ("aa3", 2.0)):
            law = TimestepLaw(family, 0.25, horizon)
            tau = law.base_value(l2, drift_norm, l4, l6)
            lhs = inner + 0.5 * tau * drift_norm**2
            yield (
                lhs <= bound_const * l2**2 + 1e-12,
                f"{family} growth bound: {lhs!r} > {bound_const} * {l2**2!r}",
            )


# Each suite yields one (ok, detail) pair per check.
SUITES = (
    ("parseval", suite_parseval),
    ("coupling", suite_coupling),
    ("drift-oracle", suite_drift_oracle),
    ("smoothing", suite_smoothing),
    ("sandwich", suite_sandwich),
)


def _checked(suite: str, checks) -> CheckResult:
    """The result of a suite's checks, which stop at the first failing one."""
    count = 0
    for ok, detail in checks:
        count += 1
        if not ok:
            return CheckResult(suite, False, count, detail)
    return CheckResult(suite, True, count)


def run_validation() -> tuple[bool, list[CheckResult]]:
    results = [_checked(name, suite()) for name, suite in SUITES]
    return all(r.ok for r in results), results
