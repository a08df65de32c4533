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
from .stepping import (
    SCHEME_KINDS,
    Scheme,
    TimestepLaw,
    integrate,
    integrate_block,
)

LAW_TOKENS = tuple(f"type{i}" for i in range(1, 7))


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
    step_ceiling: int = 10_000_000
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
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.step_ceiling < 1:
            raise ConfigError("step_ceiling must be at least 1")
        if not self.schemes or not self.laws:
            raise ConfigError("need at least one scheme and one law")
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
        # The stream is the last path's, whose index is the largest.
        try:
            self.drift
            path_stream(self, len(self.deltas) * self.samples - 1, self.n_modes)
            fewest = self.spatial_modes[0] if self.kind == "spatial" else self.n_modes
            initial_state(self.initial, fewest)
            for scheme_kind in self.schemes:
                for token in self.laws:
                    make_law(self, token, scheme_kind, self.deltas[0])
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
    """Map a law token type1..type6 to the `TimestepLaw` family a scheme runs.

    A type resolves to its uniform-bound variant except under atea, which
    takes the adaptive-bound variant; types 4-6 exist only in the
    uniform-bound form, and type5 is the au3 law.
    """
    idx = int(token[4:])
    if scheme_kind == "atea":
        if idx > 3:
            raise ConfigError(
                f"{token} has no adaptive-bound variant; atea supports type1..type3"
            )
        return f"aa{idx}"
    return "au3" if idx == 5 else f"au{idx}"


def make_law(cfg: StudyConfig, token: str, scheme_kind: str, delta: float) -> TimestepLaw:
    return TimestepLaw(
        family=resolve_family(token, scheme_kind),
        delta=delta,
        horizon=cfg.horizon,
        phi=cfg.phi,
        zeta=cfg.zeta,
        xi=cfg.xi,
        q0=cfg.q0,
        tau_min=cfg.tau_min,
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
    return Scheme(scheme_kind, law=make_law(cfg, law_token, scheme_kind, delta))


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
    adaptive_steps: int = 0
    fallback_steps: int = 0
    clamp_steps: int = 0


def _form(cfg: StudyConfig) -> tuple[int, dict]:
    """How the study runs its paths: the mode count of a path it runs
    alone, and the integrator keywords of every path.

    A temporal path runs at n_modes and carries its r-fold refined
    reference.  A spatial path takes the exact-convolution noise form and
    no reference (see `_spatial_cells`); it runs alone only as a sample's
    reference, at spatial_reference modes.
    """
    if cfg.kind == "spatial":
        return cfg.spatial_reference, {"exact_convolution": True}
    return cfg.n_modes, {"refinement": cfg.refinement}


def path_stream(cfg: StudyConfig, path: int, modes: int | None = None) -> NoiseStream:
    """The noise stream of sample path `path` at `modes` modes, by default
    those of a path the study runs alone (see `_form`).

    Sample s of delta level i is path i * samples + s.  A path index that
    does not fit in 32 bits raises `ValueError`.
    """
    if modes is None:
        modes = _form(cfg)[0]
    spec = NoiseSpec(cfg.noise_kind, modes, cfg.noise_scale)
    return NoiseStream(spec, cfg.seed, path)


def run_path(
    cfg: StudyConfig, scheme: Scheme, stream: NoiseStream, *, collect_records=False
):
    """The study's path of `scheme` on `stream`, from the config's initial
    state at the stream's modes: its `IntegrationResult`, or the
    `BlowUpError` that ended it.

    It is one `integrate` call, which the benchmark tracer counts.
    """
    try:
        return integrate(
            scheme,
            initial_state(cfg.initial, stream.spec.n_modes),
            cfg.horizon,
            stream,
            cfg.drift,
            step_ceiling=cfg.step_ceiling,
            collect_records=collect_records,
            **_form(cfg)[1],
        )
    except BlowUpError as exc:
        return exc


def _run_block(cfg: StudyConfig, schemes, streams, modes: int):
    """`run_path` of every scheme on every stream, as one `integrate_block`
    at `modes` modes: per stream, one result or `BlowUpError` per scheme."""
    return integrate_block(
        schemes,
        initial_state(cfg.initial, modes),
        cfg.horizon,
        streams,
        cfg.drift,
        step_ceiling=cfg.step_ceiling,
        **_form(cfg)[1],
    )


def _outcome(coarse, reference=None) -> SampleOutcome:
    """Error of a coarse run's final state against a reference run's, or,
    with none given, against the coarse run's own coupled reference.

    Either run may be the `BlowUpError` that ended it; a coarse blow-up is
    reported first.  A coarse state with fewer modes is zero-padded.
    """
    for run in (coarse, reference):
        if isinstance(run, BlowUpError):
            return SampleOutcome(
                error=math.nan, steps=0, diverged=True, blow_time=run.time
            )
    ref = (coarse.reference_final if reference is None else reference.final).coeffs
    x = coarse.final.coeffs
    if x.size != ref.size:
        padded = np.zeros(ref.size)
        padded[: x.size] = x
        x = padded
    s = coarse.summary
    return SampleOutcome(
        error=float(np.linalg.norm(ref - x)),
        nonclamp_steps=s.steps - s.clamp_steps,
        **vars(s),
    )


def _spatial_outcomes(cfg, scheme, n_ref, modes, paths) -> list[list[SampleOutcome]]:
    """Per path of the block `paths`, the outcome of the path at each mode
    count in `modes` against its n_ref-mode reference (by default
    spatial_reference modes).

    All resolutions of a path share its partition and one n_ref-mode
    stream, so every mode takes the same increments at every resolution.
    Each path's reference is integrated once, as its own `run_path`; then
    each swept N runs once, as one `_run_block` whose rows are the block's
    streams.  A stream keeps its draws, so each step of a path is drawn
    once, by its reference, and every swept N replays that very draw in the
    path's row.

    The references stay one-path runs only so that the benchmark tracer,
    which counts a study's work at `experiments.integrate`, still sees
    every spatial path; running them as block rows too waits on a tracer
    that counts at seams every path crosses.
    """
    streams = [path_stream(cfg, path, n_ref).keep_draws() for path in paths]
    refs = [run_path(cfg, scheme, stream) for stream in streams]
    swept = [_run_block(cfg, [scheme], streams, n) for n in modes]
    return [
        [_outcome(runs[q][0], ref) for runs in swept] for q, ref in enumerate(refs)
    ]


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
    refinement, and the sample is a one-path `_temporal_outcomes`.  Under a
    spatial config it is the same te scheme at `reference_modes` (by
    default the config's `spatial_reference`) on the same uniform
    partition: both resolutions take the exact-convolution noise form and
    the same per-mode increments, one per step, so the error is the
    spatial truncation alone and `refinement` is not used.  A spatial
    sample needs its swept `n_modes`, and is a one-path `_spatial_outcomes`.
    `te_h` applies to te alone, and `n_modes` and `reference_modes` to
    spatial samples alone; any other use raises `ValueError`.

    Divergent paths are reported, not raised; they carry the blow-up time
    and count as excluded in the cell aggregation.
    """
    if te_h is not None and scheme_kind != "te":
        raise ValueError(f"te_h applies to te samples only, not {scheme_kind}")
    scheme = make_scheme(cfg, scheme_kind, law_token, delta, te_h)
    if cfg.kind == "spatial":
        if scheme_kind != "te":
            raise ValueError("a spatial sample needs the uniform te partition")
        if n_modes is None:
            raise ValueError("a spatial sample needs its swept n_modes")
        return _spatial_outcomes(
            cfg, scheme, reference_modes, (n_modes,), (path,)
        )[0][0]
    if n_modes is not None or reference_modes is not None:
        raise ValueError("n_modes and reference_modes apply to spatial samples only")
    return _temporal_outcomes(cfg, [scheme], (path,))[0][0]


def _temporal_outcomes(cfg, schemes, paths) -> list[list[SampleOutcome]]:
    """Per path of the block `paths`, the outcome of every scheme of
    `schemes` against its r-fold refined reference.

    An adaptive list runs on the block as one `_run_block`, so steps its
    schemes share are taken once and paths that step alike share their
    transforms.  A te list holds one scheme, each of whose paths is its own
    `run_path`, so the benchmark tracer, which counts a study's work at
    `experiments.integrate`, still sees it.
    """
    streams = [path_stream(cfg, path) for path in paths]
    if schemes[0].kind == "te":
        (scheme,) = schemes
        return [[_outcome(run_path(cfg, scheme, stream))] for stream in streams]
    block = _run_block(cfg, schemes, streams, cfg.n_modes)
    return [[_outcome(run) for run in runs] for runs in block]


def _te_matched_kind(cfg: StudyConfig) -> str | None:
    """The scheme whose cells a level's te baseline matches: the first of
    ateu, atea and ae the config runs, or None."""
    return next((k for k in ("ateu", "atea", "ae") if k in cfg.schemes), None)


def te_fallback_step(cfg: StudyConfig, delta: float) -> float:
    """The te step the study matches at delta when no hybrid step adapts.

    That is the fallback length of the first of ateu, atea and ae the
    config runs, or delta T if it runs none of them.  Unless that first
    scheme is ae, whose fallback length is no step it takes, a temporal
    study guesses this step and runs the level's te paths at it beside
    the adaptive variants (see `_temporal_cells`).
    """
    matched = _te_matched_kind(cfg)
    if matched is None:
        return delta * cfg.horizon
    return make_scheme(cfg, matched, cfg.laws[0], delta).fallback_length


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

    @property
    def adaptive_steps(self) -> int:
        return sum(o.adaptive_steps for o in self.outcomes)

    @property
    def fallback_steps(self) -> int:
        return sum(o.fallback_steps for o in self.outcomes)

    @property
    def clamp_steps(self) -> int:
        return sum(o.clamp_steps for o in self.outcomes)


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
    if cfg.threads == 1:
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

    On the pool if there is one, one task at a time per worker: a whole
    wave of paths goes in one map, so no worker waits at a cell boundary.
    """
    if pool is None:
        return [_timed(task, *a) for a in args]
    return list(pool.map(partial(_timed, task), *zip(*args)))


def _cell(key, block) -> CellResult:
    """The cell of key (scheme, law token, delta, te_h, n_modes) from its
    samples' (outcome, CPU seconds) pairs; cpu_seconds is their sum."""
    scheme_kind, law_token, delta, te_h, n_modes = key
    outcomes = [o for o, _ in block]
    errors = [o.error for o in outcomes if not o.diverged]
    if not errors:
        raise StudyError(
            f"every sample diverged in cell ({scheme_kind}, {law_token}, {delta})"
        )
    counted = [o.steps for o in outcomes if not o.diverged]
    return CellResult(
        scheme=scheme_kind,
        law=law_token,
        delta=delta,
        rms=rms_error(errors),
        mean_steps=float(np.mean(counted)),
        cpu_seconds=math.fsum(cpu for _, cpu in block),
        divergent=sum(o.diverged for o in outcomes),
        te_h=te_h,
        outcomes=tuple(outcomes),
        n_modes=n_modes,
    )


def _wave(cfg, pool, task, jobs) -> dict[tuple, list]:
    """Per cell key of jobs (cell keys, delta level i, task args), in key
    order, its samples' (outcome, CPU seconds) pairs; see `_cell`.

    A job runs task(cfg, *args, paths) on blocks of up to BLOCK_ROWS of
    level i's paths, sample s at level i being path i * samples + s; a
    task gives, per path, one outcome per key, or one that every key
    shares.  Every task of the wave goes in one map, job by job.  A task's
    CPU seconds are split equally among the (cell, sample) outcomes it
    serves, so the pairs' CPU seconds sum to the tasks' CPU seconds.
    """
    samples = cfg.samples
    tasks = [
        (j, range(s, min(s + BLOCK_ROWS, samples)))
        for j in range(len(jobs))
        for s in range(0, samples, BLOCK_ROWS)
    ]
    timed = _map(
        pool,
        task,
        [
            (cfg, *jobs[j][2], tuple(jobs[j][1] * samples + s for s in block))
            for j, block in tasks
        ],
    )
    collected = [[[] for _ in keys] for keys, _, _ in jobs]
    for (j, block), (outs, cpu) in zip(tasks, timed):
        keys = jobs[j][0]
        share = cpu / (len(keys) * len(block))
        for out in outs:
            if len(out) == 1:
                out = out * len(keys)
            for cell_block, o in zip(collected[j], out):
                cell_block.append((o, share))
    return {
        key: block
        for (keys, _, _), blocks in zip(jobs, collected)
        for key, block in zip(keys, blocks)
    }


# sample paths per task of a wave; see `_temporal_cells`
BLOCK_ROWS = 8


def _temporal_cells(
    cfg: StudyConfig, pool: ProcessPoolExecutor | None
) -> list[CellResult]:
    """The (scheme, law, delta) grid, in scheme, law, delta order.

    Sample s at delta level i is path i * samples + s.  One map runs, per
    level, finest first, so the longest tasks start first, and one task
    at a time per worker, a task per scheme list of the level and block of
    up to BLOCK_ROWS of its samples (see `_temporal_outcomes`):
    - every adaptive (scheme, law) variant, as one `integrate_block`;
    - te at the guessed step `te_fallback_step`, one `run_path` per path,
      unless the te baseline matches ae.
    At 8 rows of 799 grid points (N = 256) one transform of the block costs
    about half as much per row as a single one; more rows save little more.

    The te baseline matches its uniform step te_h to the realized mean
    step count of the first ateu, atea or ae cell of its (law, level), or
    runs at delta T if the study runs none.  A te cell whose te_h equals
    the guess takes the guessed outcomes.  Only the remaining distinct
    (level, te_h) pairs run, in a second map, as te lists on blocks of up
    to BLOCK_ROWS samples; the te cells of a pair share its outcomes.  Such
    a cell also keeps its share of the guessed task's CPU seconds, so the
    cells' cpu_seconds still sum to the tasks' CPU seconds.
    """
    n = cfg.n_modes
    levels = list(enumerate(cfg.deltas))
    variants = [(sk, lt) for sk in cfg.schemes if sk != "te" for lt in cfg.laws]
    matched = _te_matched_kind(cfg)
    # ae never takes its fallback length, so a te baseline matched to ae
    # gets no guess
    guess = "te" in cfg.schemes and matched != "ae"
    jobs = []
    for i, delta in reversed(levels):  # the finest, longest first
        if variants:
            keys = [(sk, lt, delta, None, n) for sk, lt in variants]
            schemes = [make_scheme(cfg, sk, lt, delta) for sk, lt in variants]
            jobs.append((keys, i, (schemes,)))
        if guess:
            te_h = te_fallback_step(cfg, delta)
            keys = [("te", lt, delta, te_h, n) for lt in cfg.laws]
            jobs.append((keys, i, ([Scheme("te", h=te_h)],)))
    blocks = _wave(cfg, pool, _temporal_outcomes, jobs)
    cells = {
        key[:3]: _cell(key, block) for key, block in blocks.items() if key[0] != "te"
    }
    if "te" in cfg.schemes:
        guessed = {key[:3]: block for key, block in blocks.items() if key[0] == "te"}
        missed: dict[tuple[int, float], list] = {}
        for law_token in cfg.laws:
            for i, delta in levels:
                te_h = delta * cfg.horizon
                if matched is not None:
                    te_h = cfg.horizon / cells[matched, law_token, delta].mean_steps
                key = ("te", law_token, delta, te_h, n)
                if key in blocks:
                    cells[key[:3]] = _cell(key, blocks[key])
                else:
                    missed.setdefault((i, te_h), []).append(key)
        if missed:
            jobs = [
                (keys, i, ([Scheme("te", h=te_h)],))
                for (i, te_h), keys in missed.items()
            ]
            for key, block in _wave(cfg, pool, _temporal_outcomes, jobs).items():
                earlier = guessed.get(key[:3], [(None, 0.0)] * len(block))
                cells[key[:3]] = _cell(
                    key,
                    [(o, cpu + spent) for (o, cpu), (_, spent) in zip(block, earlier)],
                )
    return [
        cells[(s, l, d)]
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

    One wave runs one task per block of up to BLOCK_ROWS samples
    (`_spatial_outcomes`): each sample's reference once, as one path, then
    each swept mode count once, as one block over the task's samples.  As
    in a temporal study, a task's CPU seconds are split equally among the
    (cell, sample) outcomes it serves.
    """
    delta = cfg.deltas[0]
    law_token = cfg.laws[0]
    te_h = delta * cfg.horizon
    scheme = make_scheme(cfg, "te", law_token, delta, te_h)
    keys = [("te", law_token, delta, te_h, n) for n in cfg.spatial_modes]
    job = (keys, 0, (scheme, cfg.spatial_reference, cfg.spatial_modes))
    blocks = _wave(cfg, pool, _spatial_outcomes, [job])
    return [_cell(key, block) for key, block in blocks.items()]


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
    for (s, l), run in series.items():
        if len(run) >= 3:
            cost = [c.n_modes if spatial else c.mean_steps for c in run]
            slopes.append((s, l, fit_order(zip(cost, [c.rms for c in run]))))
        if len(cfg.deltas) >= 3:
            # delta-axis cross-check: step count scales like 1/delta
            slopes_delta.append(
                (s, l, fit_order([(1.0 / c.delta, c.rms) for c in run]))
            )
    stability = stability_monitor(cells)
    return StudyResult(cfg, cells, slopes, slopes_delta, stability)


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
