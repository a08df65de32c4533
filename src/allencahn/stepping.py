"""Timestep laws and the coupled integrator with its one step update.

Schemes
-------
ae    adaptive exponential update  S(tau)(X + tau F(X) + dW)
te    tamed update at a uniform step h: the drift term is damped by
      1/(1 + ||F(X)|| tau)
ateu  ae when the law value clears the uniform low bound tau_min,
      otherwise a single tamed step of the fallback length
atea  ae when the law value clears the state-dependent bound
      1/(zeta ||X||^q0 + xi), otherwise the tamed fallback

The noise enters inside the semigroup as in the paper, or, for the spatial
study, as the exact stochastic convolution over each step (see `integrate`).

Ties go to the adaptive branch.  The refined law values tau^delta cap or
scale an underlying base ratio so that
delta * min(T, tau(X)) <= tau^delta(X) <= min(delta T, tau(X)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .drift import (
    CubicDrift,
    DriftEvaluation,
    evaluate_drift,
    fast_dealias_size,
)
from .errors import BlowUpError, RunawayPartitionError
from .noise import NoiseStream
from .spectral import SpectralField, coeffs_to_values, eigenvalues

ADAPTIVE = "adaptive"
FALLBACK = "tamed-fallback"
CLAMP = "final-clamp"

AU_FAMILIES = ("au1", "au2", "au3", "au4", "au5", "au6")
AA_FAMILIES = ("aa1", "aa2", "aa3")
FAMILIES = AU_FAMILIES + AA_FAMILIES + ("uniform",)

SCHEME_KINDS = ("ae", "te", "ateu", "atea")

_FOUR_THIRDS = 4.0 / 3.0


@dataclass(frozen=True)
class TimestepLaw:
    """A refined timestep function tau^delta together with its bound parameters.

    `family` picks the formula; `delta` is the refinement level.  phi
    regularises denominators, (zeta, xi, q0) parameterise the adaptive low
    bound, tau_min the uniform one.  The `uniform` family returns
    `fixed_step` regardless of the state (useful for traces and branch
    tests).

    au3, au4 and au5 share one base ratio; au4 caps it at delta * horizon
    where au3 scales it by delta.  au5 is an alias of au3: the law token
    `type5` runs the au3 trajectory.
    """

    family: str
    delta: float
    horizon: float = 1.0
    phi: float = 1.0
    zeta: float = 1.0
    xi: float = 10.0
    q0: float = 1.0
    tau_min: float = 0.2
    fixed_step: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown timestep family {self.family!r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.tau_min <= 0:
            raise ValueError("tau_min must be positive")
        if self.family == "uniform":
            if self.fixed_step is None or self.fixed_step <= 0:
                raise ValueError("uniform family needs a positive fixed_step")

    @property
    def needs_lp_norms(self) -> bool:
        return self.family in AA_FAMILIES

    def base_value(
        self,
        l2: float,
        drift_norm: float,
        l4: float | None = None,
        l6: float | None = None,
    ) -> float:
        """The underlying (unrefined) timestep function tau(X)."""
        phi = self.phi
        fam = self.family
        if fam in ("au1", "au2"):
            return (l2 / (drift_norm + phi)) ** _FOUR_THIRDS
        if fam in ("au3", "au4", "au5"):
            return (1.0 / (drift_norm + phi)) ** _FOUR_THIRDS
        if fam == "au6":
            # The +3 regularisation is part of this law's definition.
            return (1.0 / (drift_norm + 3.0)) ** _FOUR_THIRDS
        if fam in ("aa1", "aa2"):
            return min(
                2.0 * l4**4 / (l6**6 + phi),
                (l2 / (drift_norm + phi)) ** _FOUR_THIRDS,
            )
        if fam == "aa3":
            return min(
                l2**2 / (l6**6 + phi),
                (1.0 / (drift_norm + phi)) ** _FOUR_THIRDS,
            )
        if fam == "uniform":
            return self.fixed_step
        raise AssertionError(fam)

    def value(
        self,
        l2: float,
        drift_norm: float,
        l4: float | None = None,
        l6: float | None = None,
    ) -> float:
        """The refined timestep tau^delta(X) from precomputed state norms."""
        base = self.base_value(l2, drift_norm, l4, l6)
        fam = self.family
        if fam in ("au1", "aa1", "au4"):
            return min(self.delta * self.horizon, base)
        if fam == "uniform":
            return base
        return self.delta * base


@dataclass(frozen=True)
class Scheme:
    """A scheme kind plus whatever that kind needs (law or uniform step)."""

    kind: str
    law: TimestepLaw | None = None
    h: float | None = None
    uncapped_fallback: bool = False

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "te":
            if self.h is None or self.h <= 0:
                raise ValueError("te scheme needs a positive uniform step h")
        else:
            if self.law is None:
                raise ValueError(f"{self.kind} scheme needs a timestep law")

    @property
    def fallback_length(self) -> float:
        law = self.law
        if self.uncapped_fallback:
            return law.tau_min
        return min(law.tau_min, law.delta * law.horizon)


@dataclass(frozen=True)
class StepRecord:
    """Pre-step diagnostics of one integrator step."""

    t: float
    tau: float
    branch: str
    norm_l2: float
    norm_sup: float
    norm_drift: float


@dataclass
class TrajectorySummary:
    """Aggregates the per-step quantities the studies assert on."""

    steps: int = 0
    adaptive_steps: int = 0
    fallback_steps: int = 0
    clamp_steps: int = 0
    sum_tau: float = 0.0
    min_step: float = math.inf  # over non-clamp steps
    max_l2: float = 0.0
    max_sup: float = 0.0
    max_bound_expr: float = 0.0  # sup_m zeta ||X_m||^q0 + xi + 1/T (non-clamp steps)


@dataclass
class IntegrationResult:
    final: SpectralField
    summary: TrajectorySummary
    records: list[StepRecord] | None = None
    reference_final: SpectralField | None = None


def _lp_from_values(values: np.ndarray, m: int, p: int) -> float:
    return float(((values**p).sum() / (m + 1)) ** (1.0 / p))


def _l4_l6(coeffs: np.ndarray) -> tuple[float, float]:
    """The L4 and L6 norms of the state, for the aa laws."""
    m = 2 * coeffs.size
    vals = coeffs_to_values(coeffs, m)
    return _lp_from_values(vals, m, 4), _lp_from_values(vals, m, 6)


def compute_timestep(
    law: TimestepLaw, coeffs: np.ndarray, l2: float, drift_norm: float
) -> float:
    """tau^delta at the state `coeffs`, given its L2 norm and drift norm.

    Both norms come from the step's drift evaluation, so the law costs no
    extra drift call; the aa families add the L4/L6 norms by quadrature on
    the M = 2N grid, exact for band-limited states.
    """
    if not law.needs_lp_norms:
        return law.value(l2, drift_norm)
    return law.value(l2, drift_norm, *_l4_l6(coeffs))


def _select_branch(
    scheme: Scheme, tau_m: float, l2: float
) -> tuple[str, float, bool]:
    """Returns (branch, step length, use tamed update)."""
    law = scheme.law
    if scheme.kind == "ae":
        return ADAPTIVE, tau_m, False
    if scheme.kind == "ateu":
        bound = law.tau_min
    else:  # atea
        bound = 1.0 / (law.zeta * l2**law.q0 + law.xi)
    if tau_m >= bound:
        return ADAPTIVE, tau_m, False
    return FALLBACK, scheme.fallback_length, True


def _update(
    x: np.ndarray,
    ev: DriftEvaluation,
    tau: float,
    decay: np.ndarray,
    dw: np.ndarray,
    tamed: bool,
    t: float,
    noise_weight: np.ndarray | None = None,
) -> np.ndarray:
    """One step from x: S(tau)(x + tau F(x) + dW), decay = exp(-tau lambda).

    The tamed update damps the drift term by 1/(1 + ||F^N(x)|| tau).  With
    a `noise_weight` c the noise enters outside the semigroup as c * dW
    (the exact-convolution form).
    """
    if tamed:
        drift_term = (tau / (1.0 + ev.projected_norm * tau)) * ev.coeffs
    else:
        drift_term = tau * ev.coeffs
    if noise_weight is None:
        out = decay * (x + drift_term + dw)
    else:
        out = decay * (x + drift_term) + noise_weight * dw
    if not np.all(np.isfinite(out)):
        raise BlowUpError(t, ev.state_sup)
    return out


def integrate(
    scheme: Scheme,
    initial: SpectralField,
    horizon: float,
    stream: NoiseStream,
    drift: CubicDrift,
    *,
    refinement: int = 1,
    step_ceiling: int = 10_000_000,
    collect_records: bool = False,
    projected_drift_norm: bool = False,
    exact_convolution: bool = False,
) -> IntegrationResult:
    """Advance the scheme from t=0 to t=horizon on one sample path.

    With refinement r > 1 a coupled reference trajectory (the same scheme at
    the same mode count, each step split into r equal substeps) is advanced
    through the fine increments whose exact sum drives the coarse
    trajectory.  The substeps reuse the branch decided for the coarse step
    they refine.  Each step's increment is drawn over the step actually
    taken, so a fallback step consumes noise of the fallback length, not
    of the rejected law value.

    By default the noise enters as in the paper, S(tau)(X + tau F + dW), so
    the increment of mode i is damped by exp(-lambda_i tau).  With
    `exact_convolution` the update is S(tau)(X + tau F) + c(tau) * dW with
    c_i = sqrt((1 - exp(-2 lambda_i tau)) / (2 lambda_i tau)): the noise
    term then has the variance q_i (1 - exp(-2 lambda_i tau)) / (2 lambda_i)
    of the stochastic convolution int S(tau - s) dW in every mode, whatever
    lambda_i tau is (exponential Euler of Jentzen & Kloeden, 2009).  The
    spatial study uses this form; it has no refined reference, so it
    raises with refinement r > 1.

    The last step is clamped so the partition ends exactly at the horizon;
    clamped steps are tagged final-clamp and excluded from the low-bound
    bookkeeping in the summary.

    This is the one-scheme call of `integrate_group`; a blow-up raises
    `BlowUpError`.
    """
    (result,) = integrate_group(
        [scheme],
        initial,
        horizon,
        stream,
        drift,
        refinement=refinement,
        step_ceiling=step_ceiling,
        collect_records=collect_records,
        projected_drift_norm=projected_drift_norm,
        exact_convolution=exact_convolution,
    )
    if isinstance(result, BlowUpError):
        raise result
    return result


def integrate_group(
    schemes: Sequence[Scheme],
    initial: SpectralField,
    horizon: float,
    stream: NoiseStream,
    drift: CubicDrift,
    *,
    refinement: int = 1,
    step_ceiling: int = 10_000_000,
    collect_records: bool = False,
    projected_drift_norm: bool = False,
    exact_convolution: bool = False,
) -> list[IntegrationResult | BlowUpError]:
    """`integrate` of every scheme on one sample path, sharing equal steps.

    Returns one entry per scheme, in order: its `IntegrationResult`, or the
    `BlowUpError` its own `integrate` call would raise.  Each entry equals
    that call's result bit for bit.

    Schemes that have taken the same steps share one state (coarse and
    reference coefficients, time, step ordinal).  Each step of such a
    group evaluates the drift, the L2 norm and, when a member's law needs
    them, the L4/L6 norms once; each member then picks its own branch,
    step length and final clamp.  Members that move alike, by (step
    length, tamed update, final step), take that step together: one
    increment draw, one coarse update and r reference substeps.  A group
    whose members move differently splits, and the parts never meet
    again.  Every member keeps its own summary and records.

    A member whose partition runs away (see `integrate`) raises
    `RunawayPartitionError` for the whole group.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if refinement < 1:
        raise ValueError("refinement factor must be at least 1")
    if exact_convolution and refinement > 1:
        raise ValueError("the exact-convolution form takes no refined reference")
    n = initial.n_modes
    if stream.spec.n_modes < n:
        raise ValueError("noise stream carries fewer modes than the state")
    track_reference = refinement > 1

    lam = eigenvalues(n)
    m_grid = fast_dealias_size(n)

    def factors(tau):
        """(tau, decay, noise weight, reference decay) of a step of length tau."""
        weight = None
        if exact_convolution:
            two_lam_tau = 2.0 * tau * lam
            weight = np.sqrt(-np.expm1(-two_lam_tau) / two_lam_tau)
        decay_ref = np.exp(-(tau / refinement) * lam) if track_reference else None
        return tau, np.exp(-tau * lam), weight, decay_ref

    results: list = [None] * len(schemes)
    members = [
        (k, scheme, TrajectorySummary(), [] if collect_records else None)
        for k, scheme in enumerate(schemes)
    ]
    # A live group: (members, x, xr, t, step ordinal, factors of its last step).
    live = [(members, initial.coeffs, initial.coeffs, 0.0, 0, (None,))]
    while live:
        members, x, xr, t, steps, last = live.pop()
        if steps >= step_ceiling:
            raise RunawayPartitionError(steps, t)

        ev = evaluate_drift(drift, x, m_grid)
        drift_norm = ev.projected_norm if projected_drift_norm else ev.image_norm
        l2 = math.sqrt(np.dot(x, x))
        lp = ()  # the L4/L6 norms, once a member's law needs them

        moves: dict[tuple[float, bool, bool], list] = {}
        for member in members:
            _, scheme, summary, records = member
            law = scheme.law
            if scheme.kind == "te":
                branch, tau, use_tamed = FALLBACK, scheme.h, True
            else:
                if not lp and law.needs_lp_norms:
                    lp = _l4_l6(x)
                tau_m = law.value(l2, drift_norm, *lp)
                branch, tau, use_tamed = _select_branch(scheme, tau_m, l2)

            if tau <= 0 or t + tau == t:
                raise RunawayPartitionError(steps, t)

            final = t + tau >= horizon
            if final and horizon - t != tau:
                tau = horizon - t
                branch = CLAMP
            moves.setdefault((tau, use_tamed, final), []).append(member)

            if records is not None:
                records.append(StepRecord(t, tau, branch, l2, ev.state_sup, drift_norm))
            summary.steps += 1
            summary.sum_tau += tau
            summary.max_l2 = max(summary.max_l2, l2)
            summary.max_sup = max(summary.max_sup, ev.state_sup)
            if branch == ADAPTIVE:
                summary.adaptive_steps += 1
            elif branch == FALLBACK:
                summary.fallback_steps += 1
            else:
                summary.clamp_steps += 1
            if branch != CLAMP:
                summary.min_step = min(summary.min_step, tau)
                if law is not None:
                    expr = law.zeta * l2**law.q0 + law.xi + 1.0 / horizon
                    summary.max_bound_expr = max(summary.max_bound_expr, expr)

        for (tau, use_tamed, final), movers in moves.items():
            fine, coarse = stream.increments(steps, tau, refinement)
            step = last if last[0] == tau else factors(tau)
            _, decay, weight, decay_ref = step
            try:
                x_next = _update(x, ev, tau, decay, coarse[:n], use_tamed, t, weight)
                xr_next = xr
                if track_reference:
                    sub = tau / refinement
                    for j in range(refinement):
                        evr = evaluate_drift(drift, xr_next, m_grid)
                        xr_next = _update(
                            xr_next, evr, sub, decay_ref, fine[j, :n], use_tamed,
                            t + j * sub,
                        )
            except BlowUpError as exc:
                for k, _, _, _ in movers:
                    results[k] = exc
                continue
            if not final:
                live.append((movers, x_next, xr_next, t + tau, steps + 1, step))
                continue
            final_field = SpectralField(x_next)
            reference_final = SpectralField(xr_next) if track_reference else None
            end_l2 = float(np.linalg.norm(x_next))
            end_sup = float(np.max(np.abs(coeffs_to_values(x_next, m_grid))))
            for k, _, summary, records in movers:
                summary.max_l2 = max(summary.max_l2, end_l2)
                summary.max_sup = max(summary.max_sup, end_sup)
                results[k] = IntegrationResult(
                    final_field, summary, records, reference_final
                )
    return results
