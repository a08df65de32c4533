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
from itertools import repeat

import numpy as np

from .drift import CubicDrift, evaluate_drift, projection_grid
from .errors import BlowUpError, RunawayPartitionError
from .noise import NoiseStream
from .spectral import SpectralField, coeffs_to_values, eigenvalues, fast_dealias_size

ADAPTIVE = "adaptive"
FALLBACK = "tamed-fallback"
CLAMP = "final-clamp"

AU_FAMILIES = ("au1", "au2", "au3", "au4", "au6")
AA_FAMILIES = ("aa1", "aa2", "aa3")
FAMILIES = AU_FAMILIES + AA_FAMILIES

SCHEME_KINDS = ("ae", "te", "ateu", "atea")

STEP_CEILING = 10_000_000  # a partition this many steps long has run away

_FOUR_THIRDS = 4.0 / 3.0


# Slotted, as is Scheme: pool workers unpickle them, and on CPython 3.11 an
# unpickled instance with a __dict__ slowed a block's adaptive steps by 5%.
@dataclass(frozen=True, slots=True)
class TimestepLaw:
    """A refined timestep function tau^delta together with its bound parameters.

    `family` picks the formula; `delta` is the refinement level.  phi
    regularises denominators, (zeta, xi, q0) parameterise the adaptive low
    bound, tau_min the uniform one.

    au3 and au4 share one base ratio; au4 caps it at delta * horizon where
    au3 scales it by delta.  The law token `type5` runs au3; there is no
    fifth uniform-bound family.  Every family is a distinct function of
    the state.
    """

    family: str
    delta: float
    horizon: float = 1.0
    phi: float = 1.0
    zeta: float = 1.0
    xi: float = 10.0
    q0: float = 1.0
    tau_min: float = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown timestep family {self.family!r}")
        for name in ("delta", "horizon", "phi", "zeta", "xi", "q0", "tau_min"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        # The adaptive low bound 1/(zeta ||X||^q0 + xi) must be finite and
        # positive at every state, X = 0 included.
        if self.xi <= 0 or self.zeta < 0 or self.q0 < 0:
            raise ValueError("the low bound needs xi > 0, zeta >= 0 and q0 >= 0")
        if self.tau_min <= 0:
            raise ValueError("tau_min must be positive")

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
        """The underlying (unrefined) timestep function tau(X).

        An aa law takes the min of an Lp term and a drift term.  With `l4`
        and `l6` omitted it returns the drift term alone, an upper bound on
        its value.
        """
        phi = self.phi
        fam = self.family
        if fam in ("au1", "au2"):
            return (l2 / (drift_norm + phi)) ** _FOUR_THIRDS
        if fam in ("au3", "au4"):
            return (1.0 / (drift_norm + phi)) ** _FOUR_THIRDS
        if fam == "au6":
            # The +3 regularisation is part of this law's definition.
            return (1.0 / (drift_norm + 3.0)) ** _FOUR_THIRDS
        if fam in ("aa1", "aa2"):
            ratio = (l2 / (drift_norm + phi)) ** _FOUR_THIRDS
            return ratio if l4 is None else min(2.0 * l4**4 / (l6**6 + phi), ratio)
        if fam == "aa3":
            ratio = (1.0 / (drift_norm + phi)) ** _FOUR_THIRDS
            return ratio if l6 is None else min(l2**2 / (l6**6 + phi), ratio)
        raise AssertionError(fam)

    def value(
        self,
        l2: float,
        drift_norm: float,
        l4: float | None = None,
        l6: float | None = None,
    ) -> float:
        """The refined timestep tau^delta(X) from precomputed state norms.

        With `l4` and `l6` omitted, an aa law gives the refined value of its
        drift term alone.  The cap and the scaling by delta are monotone in
        floating point too, so that value is never below the one the norms
        give: where it fails a branch test, the full value fails it too.
        """
        base = self.base_value(l2, drift_norm, l4, l6)
        fam = self.family
        if fam in ("au1", "aa1", "au4"):
            return min(self.delta * self.horizon, base)
        return self.delta * base


@dataclass(frozen=True, slots=True)
class Scheme:
    """A scheme kind plus whatever that kind needs (law or uniform step)."""

    kind: str
    law: TimestepLaw | None = None
    h: float | None = None

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
        return min(self.law.tau_min, self.law.delta * self.law.horizon)


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
    drift_coeffs: np.ndarray,
    tau: float,
    decay: np.ndarray,
    dw: np.ndarray,
    tamed_norms: list[float] | None,
    noise_weight: np.ndarray | None = None,
) -> np.ndarray:
    """One step of each row of the block x: S(tau)(x + tau F(x) + dW).

    decay = exp(-tau lambda).  With the per-row norms ||F^N(x)|| given, the
    tamed update damps each row's drift term by 1/(1 + ||F^N(x)|| tau).
    With a `noise_weight` c the noise enters outside the semigroup as
    c * dW (the exact-convolution form).
    """
    if tamed_norms is None:
        out = tau * drift_coeffs
    else:
        damped = [[tau / (1.0 + norm * tau)] for norm in tamed_norms]
        out = np.array(damped) * drift_coeffs
    # In place, operand for operand: decay * (x + drift term + dW), or
    # decay * (x + drift term) + c * dW.
    out += x
    if noise_weight is None:
        out += dw
        out *= decay
    else:
        out *= decay
        out += noise_weight * dw
    return out


def _grid_sups(x: np.ndarray, m: int):
    """max |X| over the grid of M = m points: of each row of a block, or of
    one state."""
    return np.abs(coeffs_to_values(x, m)).max(axis=-1).tolist()


def _not_finite(out: np.ndarray) -> list[int]:
    """The rows of the block out that hold a non-finite value."""
    if np.isfinite(out).all():
        return []
    return np.flatnonzero(~np.isfinite(out).all(axis=-1)).tolist()


def integrate(
    scheme: Scheme,
    initial: SpectralField,
    horizon: float,
    stream: NoiseStream,
    drift: CubicDrift,
    *,
    refinement: int = 1,
    step_ceiling: int = STEP_CEILING,
    collect_records: bool = False,
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

    This is the one-scheme, one-row call of `integrate_block`: a blow-up
    raises `BlowUpError`, and a runaway partition, at the latest after
    `step_ceiling` = `STEP_CEILING` steps, `RunawayPartitionError`.
    """
    ((result,),) = integrate_block(
        [scheme],
        initial,
        horizon,
        [stream],
        drift,
        refinement=refinement,
        step_ceiling=step_ceiling,
        collect_records=collect_records,
        exact_convolution=exact_convolution,
    )
    if isinstance(result, BlowUpError):
        raise result
    return result


def integrate_block(
    schemes: Sequence[Scheme],
    initial: SpectralField,
    horizon: float,
    streams: Sequence[NoiseStream],
    drift: CubicDrift,
    *,
    refinement: int = 1,
    step_ceiling: int = STEP_CEILING,
    collect_records: bool = False,
    exact_convolution: bool = False,
) -> list[list[IntegrationResult | BlowUpError]]:
    """`integrate` of every scheme on a block of sample paths, one per stream.

    Returns one row per stream, in order; a row holds one entry per scheme:
    its `IntegrationResult`, or the `BlowUpError` its own `integrate` call
    would raise.  Each entry equals that call's result bit for bit.

    A row is one sample path: its own noise stream, coarse and reference
    state, and members (the schemes, each with its own summary and
    records).  A live group is a block of rows that share the time and the
    step ordinal.  Each step of a group evaluates the drift of every row
    with one transform pair; with r > 1 that evaluation also holds every
    row's reference state, for the first reference substep.  Every member
    of every row then picks its own branch, step length and final clamp.
    An aa law is first valued without its Lp term, an upper bound on its
    value: the group's L4/L6 norms are read, once, only when that bound
    puts some member on the adaptive branch.  They come from the drift
    evaluation (`DriftEvaluation.lp_norms`): the norms, the sups and the
    coarse drift share the quadrature grid, fast_dealias_size(N).  The
    members that move alike, by (step length, tamed update, final step),
    take that step together: one increment draw per row, one coarse update
    of their rows and r reference substeps, r - 1 of them with a drift
    evaluation of their own.  Those read only F^N and its norm, so they
    run on `projection_grid`, the least grid that projects an odd drift
    exactly; a non-odd drift keeps the quadrature grid there too.
    A group whose members move differently splits, and the parts never
    meet again.  A row that blows up ends its members there; the other
    rows go on.

    A member whose partition runs away raises `RunawayPartitionError` for
    the whole block: its step length is not positive or does not advance
    t, or its group reaches `step_ceiling` steps (by default `STEP_CEILING`).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if refinement < 1:
        raise ValueError("refinement factor must be at least 1")
    if exact_convolution and refinement > 1:
        raise ValueError("the exact-convolution form takes no refined reference")
    n = initial.n_modes
    if any(stream.spec.n_modes < n for stream in streams):
        raise ValueError("noise stream carries fewer modes than the state")
    track_reference = refinement > 1
    reads_drift_norm = collect_records or any(s.kind != "te" for s in schemes)

    # lam as a (1, N) row: the step factors take a block row's shape, so a
    # one-row block updates without broadcasting.
    lam = eigenvalues(n)[None]
    m_grid = fast_dealias_size(n)
    m_sub = projection_grid(drift, n)

    def factors(tau):
        """(tau, decay, noise weight, reference decay) of a step of length tau."""
        weight = None
        if exact_convolution:
            two_lam_tau = 2.0 * tau * lam
            weight = np.sqrt(-np.expm1(-two_lam_tau) / two_lam_tau)
        decay_ref = np.exp(-(tau / refinement) * lam) if track_reference else None
        return tau, np.exp(-tau * lam), weight, decay_ref

    results = [[None] * len(schemes) for _ in streams]
    # A row: (its index, its stream, its members); a member: (scheme index,
    # scheme, summary, records).
    rows = [
        (
            i,
            stream,
            [
                (k, scheme, TrajectorySummary(), [] if collect_records else None)
                for k, scheme in enumerate(schemes)
            ],
        )
        for i, stream in enumerate(streams)
    ]
    x0 = np.tile(initial.coeffs, (len(rows), 1))
    # A live group: (rows, x, xr, t, step ordinal, factors of its last step).
    live = [(rows, x0, x0, 0.0, 0, (None,))]
    while live:
        rows, x, xr, t, steps, last = live.pop()
        if steps >= step_ceiling:
            raise RunawayPartitionError(steps, t)

        if track_reference:
            # The coarse state and the first reference substep's, in one
            # evaluation of both blocks.
            both = evaluate_drift(drift, np.concatenate((x, xr)), m_grid)
            ev, ev_ref = both.take(slice(len(x))), both.take(slice(len(x), None))
        else:
            ev, ev_ref = evaluate_drift(drift, x, m_grid), None
        # ||f(X)||, read by the laws and the records only
        drift_norms = ev.image_norm if reads_drift_norm else repeat(None)
        sups = ev.state_sup
        lp = ()  # the L4/L6 norms of each row, once a member's branch needs them

        # (step length, tamed, final) -> {row position in the group: members}
        moves: dict[tuple[float, bool, bool], dict[int, list]] = {}
        for pos, ((_, _, members), row, drift_norm, sup) in enumerate(
            zip(rows, x, drift_norms, sups)
        ):
            l2 = math.sqrt(np.dot(row, row))
            for member in members:
                _, scheme, summary, records = member
                law = scheme.law
                if scheme.kind == "te":
                    branch, tau, use_tamed = FALLBACK, scheme.h, True
                else:
                    # Without the norms an aa law's value is an upper bound:
                    # if that falls back, so does the law.
                    tau_m = law.value(l2, drift_norm)
                    branch, tau, use_tamed = _select_branch(scheme, tau_m, l2)
                    if branch == ADAPTIVE and law.needs_lp_norms:
                        if not lp:
                            lp = ev.lp_norms
                        tau_m = law.value(l2, drift_norm, *lp[pos])
                        branch, tau, use_tamed = _select_branch(scheme, tau_m, l2)

                if tau <= 0 or t + tau == t:
                    raise RunawayPartitionError(steps, t)

                final = t + tau >= horizon
                if final and horizon - t != tau:
                    tau = horizon - t
                    branch = CLAMP
                moves.setdefault((tau, use_tamed, final), {}).setdefault(
                    pos, []
                ).append(member)

                if records is not None:
                    records.append(StepRecord(t, tau, branch, l2, sup, drift_norm))
                summary.steps += 1
                summary.max_l2 = max(summary.max_l2, l2)
                summary.max_sup = max(summary.max_sup, sup)
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

        for (tau, use_tamed, final), by_pos in moves.items():
            projected = ev.projected_norm if use_tamed else None
            if len(moves) == 1:  # every member of every row moves alike
                movers, x_m, xr_m, drift_m, sups_m = rows, x, xr, ev.coeffs, sups
                evr_m = ev_ref
            else:
                pos = list(by_pos)
                movers = [(rows[p][0], rows[p][1], by_pos[p]) for p in pos]
                x_m, xr_m, drift_m = x[pos], xr[pos], ev.coeffs[pos]
                sups_m = [sups[p] for p in pos]
                if use_tamed:
                    projected = [projected[p] for p in pos]
                if track_reference:
                    evr_m = ev_ref.take(pos)
            draws = [
                stream.increments(steps, tau, refinement) for _, stream, _ in movers
            ]
            step = last if last[0] == tau else factors(tau)
            _, decay, weight, decay_ref = step
            x_next = _update(
                x_m,
                drift_m,
                tau,
                decay,
                np.array([coarse[:n] for _, coarse in draws]),
                projected,
                weight,
            )
            # A row's first non-finite state ends it, with its time and sup.
            blown = {}
            for q in _not_finite(x_next):
                blown[q] = BlowUpError(t, sups_m[q])
            xr_next = xr_m
            if track_reference:
                sub = tau / refinement
                for j in range(refinement):
                    evr = evr_m if j == 0 else evaluate_drift(drift, xr_next, m_sub)
                    xr_prev, xr_next = xr_next, _update(
                        xr_next,
                        evr.coeffs,
                        sub,
                        decay_ref,
                        np.array([fine[j, :n] for fine, _ in draws]),
                        evr.projected_norm if use_tamed else None,
                    )
                    for q in _not_finite(xr_next):
                        if q not in blown:
                            sup = _grid_sups(xr_prev[q], m_grid)
                            blown[q] = BlowUpError(t + j * sub, sup)
            if blown:
                for q, exc in blown.items():
                    i, _, members = movers[q]
                    for k, _, _, _ in members:
                        results[i][k] = exc
                keep = [q for q in range(len(movers)) if q not in blown]
                if not keep:
                    continue
                movers = [movers[q] for q in keep]
                x_next, xr_next = x_next[keep], xr_next[keep]
            if not final:
                live.append((movers, x_next, xr_next, t + tau, steps + 1, step))
                continue
            end_sup = _grid_sups(x_next, m_grid)
            for q, (i, _, members) in enumerate(movers):
                final_field = SpectralField(x_next[q])
                reference_final = SpectralField(xr_next[q]) if track_reference else None
                end_l2 = float(np.linalg.norm(x_next[q]))
                for k, _, summary, records in members:
                    summary.max_l2 = max(summary.max_l2, end_l2)
                    summary.max_sup = max(summary.max_sup, end_sup[q])
                    results[i][k] = IntegrationResult(
                        final_field, summary, records, reference_final
                    )
    return results
