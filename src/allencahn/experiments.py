"""Convergence and stability studies built on coupled sample paths.

A temporal study runs a (scheme, law, delta) grid: every sample couples a
coarse trajectory to a reference driven by the same Brownian increments at
r-fold smaller steps, and the strong error is the L2 distance of the two
endpoints.  Order is fitted as the least-squares slope of log(error)
against log(1/cost), with cost the mean realized step count.

A spatial study fixes one fine delta and sweeps the mode count against a
higher-resolution reference on the same uniform te partition, sharing the
same increments mode-wise; both take the exact-convolution noise form.
"""

from __future__ import annotations

import csv
import math
import re
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .drift import CubicDrift
from .errors import BlowUpError, ConfigError, StudyError
from .noise import TRACE_CLASS, NoiseSpec, NoiseStream
from .spectral import SpectralField
from .stepping import FAMILIES, SCHEME_KINDS, Scheme, TimestepLaw, integrate

TYPE_TOKENS = tuple(f"type{i}" for i in range(1, 7))
LAW_TOKENS = TYPE_TOKENS + FAMILIES


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved description of one study; hashable, picklable, immutable."""

    deltas: tuple[float, ...]
    schemes: tuple[str, ...] = ("te", "ateu", "atea")
    laws: tuple[str, ...] = ("type1",)
    kind: str = "temporal"
    noise_kind: str = TRACE_CLASS
    noise_scale: float = 1.0
    a3: float = -1.0
    a2: float = 0.0
    a1: float = 1.0
    a0: float = 0.0
    n_modes: int = 256
    horizon: float = 1.0
    samples: int = 100
    seed: int = 0
    refinement: int = 3
    initial: str = "e1"
    phi: float = 1.0
    zeta: float = 1.0
    xi: float = 10.0
    q0: float = 1.0
    tau_min: float = 0.2
    uncapped_fallback: bool = False
    projected_drift_norm: bool = False
    step_ceiling: int = 10_000_000
    stability_ceiling: float = 1000.0
    threads: int = 1
    spatial_modes: tuple[int, ...] = ()
    spatial_reference: int = 0

    def __post_init__(self):
        if self.kind not in ("temporal", "spatial"):
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if not self.deltas:
            raise ConfigError("need at least one delta level")
        for d in self.deltas:
            if not 0.0 < d <= 1.0:
                raise ConfigError(f"delta {d} outside (0, 1]")
        if len(self.deltas) > 1 and any(
            b >= a for a, b in zip(self.deltas, self.deltas[1:])
        ):
            raise ConfigError("delta levels must be strictly decreasing")
        if self.samples < 2:
            raise ConfigError("need at least two samples")
        unknown = [s for s in self.schemes if s not in SCHEME_KINDS]
        if unknown:
            raise ConfigError(f"unknown schemes: {', '.join(unknown)}")
        unknown = [t for t in self.laws if t not in LAW_TOKENS]
        if unknown:
            raise ConfigError(f"unknown law tokens: {', '.join(unknown)}")
        if self.kind == "spatial":
            if not self.spatial_modes:
                raise ConfigError("spatial study needs spatial_modes")
            if any(
                b <= a for a, b in zip(self.spatial_modes, self.spatial_modes[1:])
            ):
                raise ConfigError("spatial_modes must be strictly increasing")
            if self.spatial_reference <= max(self.spatial_modes):
                raise ConfigError(
                    "spatial_reference must exceed every swept mode count"
                )
            if len(self.deltas) != 1:
                raise ConfigError("spatial study uses exactly one delta level")
            if self.schemes != ("te",) or len(self.laws) != 1:
                raise ConfigError(
                    "spatial study runs the te scheme alone, under exactly one law"
                )
        elif self.refinement < 2:
            raise ConfigError("a temporal study needs refinement >= 2 for its reference")
        # The objects a study builds from these values own their checks;
        # building each once here rejects a bad value before any run starts.
        try:
            self.drift
            spec = NoiseSpec(self.noise_kind, self.n_modes, self.noise_scale)
            NoiseStream(spec, self.seed, 0)
            TimestepLaw(
                "au1", self.deltas[0], self.horizon, self.phi, self.zeta,
                self.xi, self.q0, self.tau_min,
            )
            fewest = self.spatial_modes[0] if self.kind == "spatial" else self.n_modes
            initial_state(self.initial, fewest)
            for scheme_kind in self.schemes:
                for token in self.laws:
                    resolve_family(token, scheme_kind)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def drift(self) -> CubicDrift:
        return CubicDrift(self.a3, self.a2, self.a1, self.a0)


_INITIAL_RE = re.compile(r"^e(\d+)(?:\s*\*\s*([-+0-9.eE]+))?$")


def initial_state(token: str, n_modes: int) -> SpectralField:
    """Parse an initial-datum descriptor: 'zero', 'e1', 'e3*0.5', ..."""
    token = token.strip()
    coeffs = np.zeros(n_modes)
    if token == "zero":
        return SpectralField(coeffs)
    match = _INITIAL_RE.match(token)
    if not match:
        raise ConfigError(f"cannot parse initial state {token!r}")
    mode = int(match.group(1))
    if not 1 <= mode <= n_modes:
        raise ConfigError(f"initial mode {mode} outside 1..{n_modes}")
    coeffs[mode - 1] = float(match.group(2)) if match.group(2) else 1.0
    return SpectralField(coeffs)


def resolve_family(token: str, scheme_kind: str) -> str:
    """Map a law token to a concrete family for a scheme.

    Generic types resolve to the uniform-bound variant except under atea,
    which takes the adaptive-bound variant; types 4-6 exist only in the
    uniform-bound form.
    """
    if token in FAMILIES:
        return token
    idx = int(token[4:])
    if scheme_kind == "atea":
        if idx > 3:
            raise ConfigError(
                f"{token} has no adaptive-bound variant; atea supports type1..type3"
            )
        return f"aa{idx}"
    return f"au{idx}"


def make_law(cfg: StudyConfig, token: str, scheme_kind: str, delta: float) -> TimestepLaw:
    family = resolve_family(token, scheme_kind)
    fixed = delta * cfg.horizon if family == "uniform" else None
    return TimestepLaw(
        family=family,
        delta=delta,
        horizon=cfg.horizon,
        phi=cfg.phi,
        zeta=cfg.zeta,
        xi=cfg.xi,
        q0=cfg.q0,
        tau_min=cfg.tau_min,
        fixed_step=fixed,
    )


def make_scheme(
    cfg: StudyConfig,
    scheme_kind: str,
    law_token: str,
    delta: float,
    te_h: float | None = None,
) -> Scheme:
    if scheme_kind == "te":
        return Scheme("te", h=te_h if te_h is not None else delta * cfg.horizon)
    return Scheme(
        scheme_kind,
        law=make_law(cfg, law_token, scheme_kind, delta),
        uncapped_fallback=cfg.uncapped_fallback,
    )


@dataclass(frozen=True)
class SampleOutcome:
    """Per-path result of one coupled error sample."""

    error: float
    steps: int
    diverged: bool = False
    blow_time: float | None = None
    nonclamp_steps: int = 0
    min_step: float = math.inf
    max_l2: float = 0.0
    max_sup: float = 0.0
    max_bound_expr: float = 0.0


def _stream(cfg: StudyConfig, path: int, modes: int) -> NoiseStream:
    spec = NoiseSpec(cfg.noise_kind, modes, cfg.noise_scale)
    return NoiseStream(spec, cfg.seed, path)


def _run_path(
    cfg: StudyConfig, scheme: Scheme, stream: NoiseStream, modes: int, **kw
):
    """One path from the config's initial state: its result, or its blow-up time."""
    try:
        return integrate(
            scheme,
            initial_state(cfg.initial, modes),
            cfg.horizon,
            stream,
            cfg.drift,
            step_ceiling=cfg.step_ceiling,
            projected_drift_norm=cfg.projected_drift_norm,
            **kw,
        )
    except BlowUpError as exc:
        return exc.time


def _outcome(coarse, reference) -> SampleOutcome:
    """Error of a coarse `_run_path` result against the reference coefficients.

    Either may be a blow-up time instead; a coarse blow-up is reported
    first.  A coarse state with fewer modes is zero-padded.
    """
    for run in (coarse, reference):
        if isinstance(run, float):
            return SampleOutcome(
                error=math.nan, steps=0, diverged=True, blow_time=run
            )
    x = coarse.final.coeffs
    if x.size != reference.size:
        padded = np.zeros(reference.size)
        padded[: x.size] = x
        x = padded
    s = coarse.summary
    return SampleOutcome(
        error=float(np.linalg.norm(reference - x)),
        steps=s.steps,
        nonclamp_steps=s.steps - s.clamp_steps,
        min_step=s.min_step,
        max_l2=s.max_l2,
        max_sup=s.max_sup,
        max_bound_expr=s.max_bound_expr,
    )


def _spatial_reference(
    cfg: StudyConfig, scheme: Scheme, stream: NoiseStream, n_ref: int
):
    """Final coefficients of the n_ref-mode reference path, or its blow-up time."""
    ref = _run_path(cfg, scheme, stream, n_ref, exact_convolution=True)
    return ref if isinstance(ref, float) else ref.final.coeffs


def _spatial_sample(
    cfg: StudyConfig, scheme: Scheme, stream: NoiseStream, n: int, reference
) -> SampleOutcome:
    """The n-mode path on the reference's partition and increments, compared with it."""
    coarse = _run_path(cfg, scheme, stream, n, exact_convolution=True)
    return _outcome(coarse, reference)


def coupled_error_sample(
    cfg: StudyConfig,
    scheme_kind: str,
    law_token: str,
    delta: float,
    path: int,
    *,
    te_h: float | None = None,
    n_modes: int | None = None,
    reference_modes: int | None = None,
) -> SampleOutcome:
    """Strong error of one coarse/reference pair on one sample path.

    Under a temporal config the reference is the coarse trajectory's r-fold
    refinement at the same mode count.  Under a spatial config it is the
    same te scheme at `reference_modes` on the same uniform partition: both
    resolutions take the exact-convolution noise form and the same per-mode
    increments, one per step, so the error is the spatial truncation alone
    and `refinement` is not used.  A spatial `convergence_study` makes the
    same two calls, with the reference shared by every swept mode count.

    Divergent paths are reported, not raised; they carry the blow-up time
    and count as excluded in the cell aggregation.
    """
    n = n_modes if n_modes is not None else cfg.n_modes
    scheme = make_scheme(cfg, scheme_kind, law_token, delta, te_h)
    if cfg.kind == "spatial":
        if scheme_kind != "te":
            raise ValueError("a spatial sample needs the uniform te partition")
        n_ref = reference_modes if reference_modes is not None else n
        stream = _stream(cfg, path, max(n, n_ref))
        reference = _spatial_reference(cfg, scheme, stream, n_ref)
        return _spatial_sample(cfg, scheme, stream, n, reference)
    if reference_modes is not None:
        raise ValueError("reference_modes applies to spatial samples only")
    res = _run_path(
        cfg, scheme, _stream(cfg, path, n), n, refinement=cfg.refinement
    )
    ref = res if isinstance(res, float) else res.reference_final.coeffs
    return _outcome(res, ref)


def _temporal_sample(cfg, scheme_kind, law_token, delta, path, te_h) -> SampleOutcome:
    return coupled_error_sample(cfg, scheme_kind, law_token, delta, path, te_h=te_h)


def rms_error(errors) -> float:
    """Root-mean-square of the valid (finite) errors, in fixed summation order."""
    vals = [e for e in errors if math.isfinite(e)]
    if not vals:
        raise ValueError("no valid errors to aggregate")
    return math.sqrt(math.fsum(e * e for e in vals) / len(vals))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def fit_order(points) -> FitResult:
    """Least-squares slope of log(error) against log(1/cost).

    `points` is a sequence of (cost, error) pairs, at least three, all
    positive; a scheme of order p on cost ~ steps gives slope ~ p.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("order fit needs at least three points")
    if any(c <= 0 or e <= 0 for c, e in pts):
        raise ValueError("order fit needs positive costs and errors")
    x = np.log([1.0 / c for c, _ in pts])
    y = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return FitResult(float(slope), float(intercept), r2)


@dataclass
class CellResult:
    """Aggregated outcomes of one (scheme, law, delta) cell."""

    scheme: str
    law: str
    family: str | None
    delta: float
    rms: float
    mean_steps: float
    cpu_seconds: float
    divergent: int
    te_h: float | None
    outcomes: tuple[SampleOutcome, ...]
    n_modes: int

    @property
    def max_l2(self) -> float:
        return max((o.max_l2 for o in self.outcomes), default=0.0)

    @property
    def max_sup(self) -> float:
        return max((o.max_sup for o in self.outcomes), default=0.0)


@dataclass(frozen=True)
class StabilityReport:
    """Never raises; reports how close a study came to the stability ceiling."""

    max_l2: float
    max_sup: float
    ceiling: float
    exceeded: bool
    divergent_samples: int


def stability_monitor(cells, ceiling: float = 1000.0) -> StabilityReport:
    cells = list(cells)
    max_l2 = max((c.max_l2 for c in cells), default=0.0)
    max_sup = max((c.max_sup for c in cells), default=0.0)
    divergent = sum(c.divergent for c in cells)
    return StabilityReport(
        max_l2=max_l2,
        max_sup=max_sup,
        ceiling=ceiling,
        exceeded=bool(max_sup > ceiling or max_l2 > ceiling),
        divergent_samples=divergent,
    )


@dataclass
class StudyResult:
    """Cells of a temporal or spatial study, with their fits.

    `slopes` fits log(rms) against log(1/cost) per (scheme, law) series,
    with cost the mean step count (temporal) or the mode count (spatial);
    `slopes_delta` fits against 1/delta instead, over three or more delta
    levels, and is empty for a spatial study.
    """

    config: StudyConfig
    cells: list[CellResult]
    slopes: list[tuple[str, str, FitResult]]  # (scheme, law token, fit)
    slopes_delta: list[tuple[str, str, FitResult]]
    spearman: dict[tuple[str, str], float]
    stability: StabilityReport

    def cell(self, scheme: str, law: str, delta: float) -> CellResult:
        """The one cell with this key; a spatial study's cells all share one."""
        found = [
            c for c in self.cells
            if c.scheme == scheme and c.law == law and c.delta == delta
        ]
        if len(found) > 1:
            raise KeyError(
                f"{len(found)} cells match {(scheme, law, delta)}; "
                "pick a spatial cell from cells by n_modes"
            )
        if not found:
            raise KeyError((scheme, law, delta))
        return found[0]


@contextmanager
def _pool(cfg: StudyConfig):
    """A process pool of cfg.threads workers, or None to run in this process.

    A study that raises cancels the paths still queued; a normal exit waits.
    """
    if cfg.threads <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=cfg.threads)
    try:
        yield pool
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def _timed(task, *args):
    """task(*args) and the process CPU seconds it took."""
    start = time.process_time()
    out = task(*args)
    return out, time.process_time() - start


def _map(pool: ProcessPoolExecutor | None, task, args) -> list:
    """(task(*a), its CPU seconds) for every tuple a in args, in order.

    On the pool if there is one: a whole wave of paths goes in one map,
    so no worker waits at a cell boundary.
    """
    if pool is None:
        return [_timed(task, *a) for a in args]
    return list(pool.map(partial(_timed, task), *zip(*args), chunksize=4))


def _cells(keys, timed, samples: int) -> list[CellResult]:
    """Split a wave's (outcome, CPU seconds) list into cells, in `keys` order.

    Each key (scheme, law token, delta, te_h, n_modes) owns the next
    `samples` entries; its cpu_seconds is the sum of their CPU seconds.
    """
    cells = []
    for k, (scheme_kind, law_token, delta, te_h, n_modes) in enumerate(keys):
        block = timed[k * samples : (k + 1) * samples]
        outcomes = [o for o, _ in block]
        errors = [o.error for o in outcomes if not o.diverged]
        if not errors:
            raise StudyError(
                f"every sample diverged in cell ({scheme_kind}, {law_token}, {delta})"
            )
        counted = [o.steps for o in outcomes if not o.diverged]
        family = None
        if scheme_kind != "te":
            family = resolve_family(law_token, scheme_kind)
        cells.append(
            CellResult(
                scheme=scheme_kind,
                law=law_token,
                family=family,
                delta=delta,
                rms=rms_error(errors),
                mean_steps=float(np.mean(counted)),
                cpu_seconds=math.fsum(cpu for _, cpu in block),
                divergent=sum(o.diverged for o in outcomes),
                te_h=te_h,
                outcomes=tuple(outcomes),
                n_modes=n_modes,
            )
        )
    return cells


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of the ranks they span."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    first = np.r_[True, x[order][1:] != x[order][:-1]]
    group = np.empty(x.size, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    bounds = np.r_[np.flatnonzero(first), x.size]
    return 0.5 * (bounds[group] + bounds[group + 1] + 1)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation of two series; NaN if either is constant."""
    rx, ry = _average_ranks(x), _average_ranks(y)
    if rx.min() == rx.max() or ry.min() == ry.max():
        return math.nan
    return float(np.corrcoef(rx, ry)[1, 0])


def _temporal_cells(
    cfg: StudyConfig, pool: ProcessPoolExecutor | None
) -> list[CellResult]:
    """The (scheme, law, delta) grid, in scheme, law, delta order.

    Every adaptive path runs in a first wave, so the te baseline can match
    its uniform step to the realized mean adaptive step count; every te
    path runs in a second.  Sample s at delta level i is path i * samples + s.
    """
    def wave(keys):
        """The cells of `keys` = (scheme, law, delta level, delta, te_h), by key."""
        args = [
            (cfg, scheme_kind, law_token, delta, i * cfg.samples + s, te_h)
            for scheme_kind, law_token, i, delta, te_h in keys
            for s in range(cfg.samples)
        ]
        timed = _map(pool, _temporal_sample, args)
        cells = _cells(
            [(sk, lt, d, te_h, cfg.n_modes) for sk, lt, _, d, te_h in keys],
            timed,
            cfg.samples,
        )
        return {(c.scheme, c.law, c.delta): c for c in cells}

    levels = list(enumerate(cfg.deltas))
    results = wave(
        [
            (scheme_kind, law_token, i, delta, None)
            for scheme_kind in cfg.schemes
            if scheme_kind != "te"
            for law_token in cfg.laws
            for i, delta in levels
        ]
    )
    if "te" in cfg.schemes:
        te_keys = []
        for law_token in cfg.laws:
            for i, delta in levels:
                te_h = delta * cfg.horizon
                for preferred in ("ateu", "atea", "ae"):
                    key = (preferred, law_token, delta)
                    if key in results:
                        te_h = cfg.horizon / results[key].mean_steps
                        break
                te_keys.append(("te", law_token, i, delta, te_h))
        results.update(wave(te_keys))
    return [
        results[(s, l, d)]
        for s in cfg.schemes
        for l in cfg.laws
        for d in cfg.deltas
    ]


def _spatial_cells(
    cfg: StudyConfig, pool: ProcessPoolExecutor | None
) -> list[CellResult]:
    """One te cell per swept mode count, against a shared higher-resolution reference.

    All resolutions at one sample share the partition (uniform step
    delta * T under te) and the mode-wise increments of the reference
    draw, so the measured difference isolates the resolution change.
    Every resolution takes the exact-convolution noise form (see
    `integrate`): under the paper's form a mode with lambda_i tau >> 1
    receives almost no noise, and the error would collapse instead of
    showing the truncated noise tail.  `refinement` is not used.

    Each sample's reference is integrated once, in a first map, and
    compared with every swept mode count in a second; a cell's cpu_seconds
    covers its own mode count's runs only.
    """
    delta = cfg.deltas[0]
    law_token = cfg.laws[0]
    te_h = delta * cfg.horizon
    scheme = make_scheme(cfg, "te", law_token, delta, te_h)
    n_ref = cfg.spatial_reference
    # n_ref exceeds every swept count, so one n_ref-mode stream serves all.
    streams = [_stream(cfg, s, n_ref) for s in range(cfg.samples)]
    references = [
        ref
        for ref, _ in _map(
            pool, _spatial_reference, [(cfg, scheme, st, n_ref) for st in streams]
        )
    ]
    timed = _map(
        pool,
        _spatial_sample,
        [
            (cfg, scheme, st, n, ref)
            for n in cfg.spatial_modes
            for st, ref in zip(streams, references)
        ],
    )
    keys = [("te", law_token, delta, te_h, n) for n in cfg.spatial_modes]
    return _cells(keys, timed, cfg.samples)


def convergence_study(cfg: StudyConfig) -> StudyResult:
    """Run a temporal or spatial study and fit its order slopes.

    A temporal config runs the (scheme, law, delta) grid; a spatial config
    sweeps the mode count at one te cell.  Either way each (scheme, law)
    series of cells is fitted against its cost: the mean step count, or
    the mode count, so the fitted slope is the spatial order.
    """
    spatial = cfg.kind == "spatial"
    with _pool(cfg) as pool:
        cells = (_spatial_cells if spatial else _temporal_cells)(cfg, pool)

    series: dict[tuple[str, str], list[CellResult]] = {}
    for c in cells:
        series.setdefault((c.scheme, c.law), []).append(c)
    slopes, slopes_delta = [], []
    spearman: dict[tuple[str, str], float] = {}
    for (s, l), run in series.items():
        if len(run) >= 3:
            cost = [c.n_modes if spatial else c.mean_steps for c in run]
            slopes.append((s, l, fit_order(zip(cost, [c.rms for c in run]))))
        if len(cfg.deltas) >= 3:
            # delta-axis cross-check: step count scales like 1/delta
            slopes_delta.append(
                (s, l, fit_order([(1.0 / c.delta, c.rms) for c in run]))
            )
        if len(cfg.deltas) >= 2:
            spearman[(s, l)] = spearman_rho(
                [c.delta for c in run], [c.rms for c in run]
            )
    stability = stability_monitor(cells, cfg.stability_ceiling)
    return StudyResult(cfg, cells, slopes, slopes_delta, spearman, stability)


def spatial_study(cfg: StudyConfig) -> StudyResult:
    """`convergence_study` of a spatial config; a temporal one is an error.

    Kept for callers that still choose the study entry by kind.
    """
    if cfg.kind != "spatial":
        raise ConfigError("config is not a spatial study")
    return convergence_study(cfg)


# ---------------------------------------------------------------------------
# CSV emission.  All files are UTF-8 with a header row and '.' decimals;
# floats are written with repr (shortest round-trip) so identical studies
# produce identical bytes, except for the cpu_seconds column.

def write_cells_csv(path, result: StudyResult) -> None:
    """One row per cell, keyed by scheme and law, or by n_modes and n_ref
    for a spatial study."""
    cfg = result.config
    spatial = cfg.kind == "spatial"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            (["n_modes", "n_ref"] if spatial else ["scheme", "law"])
            + [
                "delta",
                "mean_steps",
                "rms_error",
                "cpu_seconds",
                "divergent_samples",
            ]
        )
        for c in result.cells:
            w.writerow(
                ([c.n_modes, cfg.spatial_reference] if spatial else [c.scheme, c.law])
                + [
                    repr(c.delta),
                    repr(c.mean_steps),
                    repr(c.rms),
                    repr(c.cpu_seconds),
                    c.divergent,
                ]
            )


def write_slopes_csv(path, slopes) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "law", "slope", "intercept", "r_squared"])
        for scheme, law, fit in slopes:
            w.writerow(
                [scheme, law, repr(fit.slope), repr(fit.intercept), repr(fit.r_squared)]
            )


def write_trace_csv(path, records, path_index: int = 0) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["path", "step", "t", "tau", "branch", "norm_l2", "norm_sup", "norm_F"]
        )
        for i, r in enumerate(records):
            w.writerow(
                [
                    path_index,
                    i,
                    repr(r.t),
                    repr(r.tau),
                    r.branch,
                    repr(r.norm_l2),
                    repr(r.norm_sup),
                    repr(r.norm_drift),
                ]
            )
