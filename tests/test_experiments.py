import dataclasses
import math
import os
import time

import numpy as np
import pytest

from allencahn import experiments
from allencahn.drift import fast_dealias_size
from allencahn.errors import (
    BlowUpError,
    ConfigError,
    RunawayPartitionError,
    StudyError,
)
from allencahn.experiments import (
    CellResult,
    FitResult,
    StudyConfig,
    convergence_study,
    coupled_error_sample,
    fit_order,
    initial_state,
    make_law,
    make_scheme,
    resolve_family,
    rms_error,
    spatial_study,
    STABILITY_CEILING,
    stability_monitor,
    write_cells_csv,
    write_slopes_csv,
    write_trace_csv,
)
from allencahn.noise import NoiseSpec, NoiseStream
from allencahn.spectral import eigenvalues
from allencahn.stepping import Scheme, integrate, integrate_block

from conftest import direct_coeffs, direct_values, find_cell


def small_config(**overrides):
    # 40 samples keeps the statistical assertions below out of noise while
    # the whole study still runs in well under a second at 16 modes
    base = dict(
        deltas=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        schemes=("te", "ateu"),
        laws=("type1",),
        n_modes=16,
        samples=40,
        refinement=2,
        seed=11,
    )
    base.update(overrides)
    return StudyConfig(**base)


# ---------------------------------------------------------------------------
# aggregation helpers


def test_fit_order_recovers_exact_slope():
    pts = [(c, 2.0 * (1.0 / c) ** 0.5) for c in (1.0, 4.0, 16.0, 64.0)]
    fit = fit_order(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_order_flat_series():
    fit = fit_order([(1.0, 0.3), (2.0, 0.3), (4.0, 0.3)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_order_validation():
    with pytest.raises(ValueError):
        fit_order([(1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(ValueError):
        fit_order([(1.0, 0.5), (2.0, 0.0), (4.0, 0.1)])
    with pytest.raises(ValueError):
        fit_order([(0.0, 0.5), (2.0, 0.2), (4.0, 0.1)])


def test_rms_error_values():
    assert rms_error([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-15)
    assert rms_error([0.7] * 9) == pytest.approx(0.7, abs=1e-15)
    assert rms_error([math.nan, 3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        rms_error([])
    with pytest.raises(ValueError):
        rms_error([math.nan])


# ---------------------------------------------------------------------------
# config plumbing


def test_initial_state_tokens():
    f = initial_state("e1", 8)
    assert f.coeffs[0] == 1.0 and np.all(f.coeffs[1:] == 0.0)
    f = initial_state("e3*0.5", 8)
    assert f.coeffs[2] == 0.5
    f = initial_state("e2 * -1.5", 8)
    assert f.coeffs[1] == -1.5
    assert np.all(initial_state("zero", 8).coeffs == 0.0)
    for bad in ("foo", "e0", "e9", "0.5*e1", "e1*"):
        with pytest.raises(ConfigError):
            initial_state(bad, 8)


def test_resolve_family_tokens():
    assert resolve_family("type1", "te") == "au1"
    assert resolve_family("type1", "ateu") == "au1"
    assert resolve_family("type1", "atea") == "aa1"
    assert resolve_family("type4", "ateu") == "au4"
    with pytest.raises(ConfigError):
        resolve_family("type4", "atea")
    with pytest.raises(ConfigError):
        resolve_family("type6", "atea")


def test_type5_runs_au3():
    # au3 under a second name would be an alias; type5 names au3 itself
    for scheme_kind in ("te", "ateu", "ae"):
        assert resolve_family("type5", scheme_kind) == "au3"
    with pytest.raises(ConfigError):
        small_config(laws=("au5",))


def test_make_law_and_scheme():
    cfg = small_config()
    law = make_law(cfg, "type2", "atea", 0.125)
    assert law.family == "aa2" and law.delta == 0.125
    sch = make_scheme(cfg, "te", "type1", 0.125)
    assert sch.h == pytest.approx(0.125)
    sch = make_scheme(cfg, "te", "type1", 0.125, te_h=0.05)
    assert sch.h == pytest.approx(0.05)


def test_study_config_validation():
    with pytest.raises(ConfigError):
        small_config(deltas=())
    with pytest.raises(ConfigError):
        small_config(deltas=(0.125, 0.25))  # must decrease
    with pytest.raises(ConfigError):
        small_config(deltas=(1.5,))
    with pytest.raises(ConfigError):
        small_config(samples=1)
    with pytest.raises(ConfigError):
        small_config(schemes=("te", "euler"))
    with pytest.raises(ConfigError):
        small_config(laws=("type7",))
    # configs name laws by type alone; the families are TimestepLaw names
    for family in ("au1", "uniform"):
        with pytest.raises(ConfigError):
            small_config(laws=(family,))
    with pytest.raises(ConfigError):
        small_config(schemes=("te", "atea"), laws=("au6",))
    # an empty grid has no cell to run
    with pytest.raises(ConfigError):
        small_config(schemes=())
    with pytest.raises(ConfigError):
        small_config(laws=())
    # a repeated token would run and list its cells twice
    with pytest.raises(ConfigError, match=r"repeated schemes: ateu$"):
        small_config(schemes=("te", "ateu", "ateu"))
    with pytest.raises(ConfigError, match=r"repeated laws: type1$"):
        small_config(laws=("type1", "type1"))
    for threads in (0, -3):
        with pytest.raises(ConfigError):
            small_config(threads=threads)
    # each spatial case below breaks one rule of an otherwise valid config
    with pytest.raises(ConfigError):
        spatial_config(spatial_modes=())
    with pytest.raises(ConfigError):
        spatial_config(spatial_modes=(8, 4))  # must increase
    with pytest.raises(ConfigError):
        spatial_config(spatial_reference=16)
    with pytest.raises(ConfigError):
        spatial_config(deltas=(0.25, 0.125))
    # a spatial study runs te under one law; nothing is dropped silently
    for schemes in (("ateu",), ("te", "ateu")):
        with pytest.raises(ConfigError):
            spatial_config(schemes=schemes)
    with pytest.raises(ConfigError):
        spatial_config(laws=("type1", "type2"))


# ---------------------------------------------------------------------------
# coupled sampling against a handwritten twin


def test_coupled_error_sample_matches_scripted_pair():
    """Replicate one te sample with a handwritten loop over the same draws."""
    cfg = small_config(n_modes=8, seed=3)
    h = 0.25
    got = coupled_error_sample(cfg, "te", "type1", 0.25, path=5, te_h=h)

    spec = NoiseSpec("trace-class", 8, 1.0)
    stream = NoiseStream(spec, 3, 5)
    m = fast_dealias_size(8)
    lam = eigenvalues(8)

    def drift_hat(coeffs):
        v = direct_values(coeffs, m)
        return direct_coeffs(v - v**3, 8)

    def tamed(coeffs, tau, dw):
        fhat = drift_hat(coeffs)
        damp = tau / (1.0 + np.linalg.norm(fhat) * tau)
        return np.exp(-tau * lam) * (coeffs + damp * fhat + dw)

    x = initial_state("e1", 8).coeffs.copy()
    xr = x.copy()
    for step in range(4):
        fine, coarse = stream.increments(step, h, 2)
        x = tamed(x, h, coarse)
        for j in range(2):
            xr = tamed(xr, h / 2.0, fine[j])
    expected = float(np.linalg.norm(xr - x))

    assert not got.diverged
    assert got.steps == 4
    assert got.error == pytest.approx(expected, abs=1e-12)
    assert expected > 1e-4  # the comparison is not vacuous


def test_coupled_error_sample_zero_noise_zero_error():
    cfg = small_config(noise_scale=0.0, initial="zero")
    out = coupled_error_sample(cfg, "te", "type1", 0.25, path=0)
    assert out.error == 0.0
    out = coupled_error_sample(cfg, "ae", "type3", 0.25, path=0)
    assert out.error == 0.0


def test_coupled_error_sample_refuses_a_non_finite_te_step():
    # an input error, not a divergence or a one-step path
    cfg = small_config()
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"step h > 0, got {h}$"):
            coupled_error_sample(cfg, "te", "type1", 0.25, 0, te_h=h)


def test_coupled_error_sample_is_deterministic():
    cfg = small_config()
    a = coupled_error_sample(cfg, "ateu", "type1", 0.125, path=2)
    b = coupled_error_sample(cfg, "ateu", "type1", 0.125, path=2)
    assert a.error == b.error
    assert a.steps == b.steps


def test_coupled_error_sample_needs_refinement():
    # A temporal sample needs an r-fold reference; r < 2 is refused when
    # the config is built, before any sample can run.
    with pytest.raises(ConfigError):
        small_config(refinement=1)


def test_coupled_error_sample_reports_divergence():
    cfg = small_config(initial="e1*1e200", n_modes=8, samples=2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = coupled_error_sample(cfg, "te", "type1", 0.5, path=0)
    assert out.diverged
    assert out.blow_time == 0.0
    assert math.isnan(out.error)


# ---------------------------------------------------------------------------
# studies


@pytest.fixture(scope="module")
def small_study():
    return convergence_study(small_config())


def test_convergence_study_grid(small_study):
    cfg = small_study.config
    assert len(small_study.cells) == len(cfg.schemes) * len(cfg.deltas)
    for s in cfg.schemes:
        for d in cfg.deltas:
            cell = find_cell(small_study, s, "type1", d)
            assert cell.divergent == 0
            assert cell.rms > 0


def test_convergence_study_is_deterministic(small_study):
    again = convergence_study(small_config())
    for a, b in zip(small_study.cells, again.cells):
        assert a.rms == b.rms
        assert a.mean_steps == b.mean_steps
    for (s1, l1, f1), (s2, l2, f2) in zip(small_study.slopes, again.slopes):
        assert (s1, l1) == (s2, l2)
        assert f1.slope == f2.slope


def test_te_step_matched_to_adaptive_cost(small_study):
    for d in small_study.config.deltas:
        adaptive = find_cell(small_study, "ateu", "type1", d)
        te = find_cell(small_study, "te", "type1", d)
        assert te.te_h == pytest.approx(1.0 / adaptive.mean_steps)


def test_errors_shrink_with_delta(small_study):
    for scheme in ("te", "ateu"):
        rms = [c.rms for c in small_study.cells if c.scheme == scheme]
        assert len(rms) == len(small_study.config.deltas)
        assert all(b < a for a, b in zip(rms, rms[1:])), (scheme, rms)
    assert len(small_study.slopes) == 2
    for _, _, fit in small_study.slopes:
        assert 0.3 < fit.slope < 0.7
        assert fit.r_squared > 0.9


def test_stability_report_tracks_extremes(small_study):
    rep = small_study.stability
    assert rep.ceiling == STABILITY_CEILING
    assert not rep.exceeded
    assert 0.0 < rep.max_sup < STABILITY_CEILING
    assert rep.divergent_samples == 0
    # one outcome past the ceiling, in either norm, makes the report exceeded
    cell = small_study.cells[0]
    for norm in ("max_sup", "max_l2"):
        loud = dataclasses.replace(
            cell.outcomes[0], **{norm: 2.0 * STABILITY_CEILING}
        )
        cells = [*small_study.cells, dataclasses.replace(cell, outcomes=(loud,))]
        assert stability_monitor(cells).exceeded, norm


def test_study_raises_when_every_sample_diverges():
    cfg = small_config(
        initial="e1*1e200", n_modes=8, samples=2, deltas=(0.5,), schemes=("te",)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StudyError):
            convergence_study(cfg)


def _stalled(cfg):
    """cfg with ae under au1 from X = 0 and no noise: its first step has
    tau = 0, so every path runs away at t = 0."""
    return dataclasses.replace(
        cfg, schemes=("ae",), laws=("type1",), initial="zero", noise_scale=0.0
    )


def test_pooled_study_reports_runaway_partition():
    # the runaway happens in a pool worker, and the error must come back as
    # itself, not as a broken pool
    cfg = StudyConfig(
        deltas=(0.25, 0.125), schemes=("te",), n_modes=8, samples=2,
        refinement=2, threads=2,
    )
    with pytest.raises(RunawayPartitionError, match="after 0 steps at t=0: "):
        convergence_study(_stalled(cfg))


class _RecordingPool:
    """Runs a pool's map in this process and records how it is shut down."""

    shutdowns: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def map(self, fn, *iterables, chunksize=1):
        return [fn(*a) for a in zip(*iterables)]

    def shutdown(self, *args, **kwargs):
        self.shutdowns.append((args, kwargs))


def test_pool_cancels_queued_paths_only_when_a_study_raises(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "shutdowns", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    cfg = StudyConfig(
        deltas=(0.25, 0.125), schemes=("te",), n_modes=8, samples=2,
        refinement=2, threads=2,
    )
    convergence_study(cfg)
    assert _RecordingPool.shutdowns == [((), {})]
    with pytest.raises(RunawayPartitionError):
        convergence_study(_stalled(cfg))
    assert _RecordingPool.shutdowns[1:] == [((), {"cancel_futures": True})]


def _counting_maps(monkeypatch):
    """Record each `_map` call's task and its tasks' args after the config."""
    calls = []
    original = experiments._map

    def counting(pool, task, args):
        calls.append((task, [a[1:] for a in args]))
        return original(pool, task, args)

    monkeypatch.setattr(experiments, "_map", counting)
    return calls


def test_temporal_study_runs_in_one_map_when_te_steps_match(monkeypatch):
    calls = _counting_maps(monkeypatch)
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    cfg = small_config(
        schemes=("te", "ateu", "atea"), laws=("type1", "type2"),
        deltas=(0.25, 0.125), samples=3,
    )
    res = convergence_study(cfg)
    guesses = [experiments.te_fallback_step(cfg, d) for d in cfg.deltas]
    assert [c.te_h for c in res.cells if c.scheme == "te"] == guesses * 2
    # per delta level, finest first, one task per block of samples: the
    # adaptive list, then te at the guessed step
    [(task, tasks)] = calls
    assert task is experiments._temporal_outcomes
    expected = []
    for i in (1, 0):
        delta = cfg.deltas[i]
        schemes = [
            make_scheme(cfg, sk, lt, delta)
            for sk in ("ateu", "atea")
            for lt in cfg.laws
        ] + [Scheme("te", h=guesses[i])]
        for paths in ((3 * i, 3 * i + 1), (3 * i + 2,)):
            expected.append((schemes, paths))
    assert tasks == expected


def test_te_paths_replay_the_draws_of_the_hybrids_that_fell_back(monkeypatch):
    # every te cell takes the guessed step here, so a serial study runs
    # Philox once per (path, step, dt, r) key: a te step at the guessed
    # length replays the draw of a hybrid that fell back at that ordinal
    draws, asked, phase = [], [], []
    increments, generator = NoiseStream.increments, NoiseStream._generator

    def recording_increments(stream, step, dt, r=1):
        asked.append((phase[-1], (stream.path, step, dt, r)))
        return increments(stream, step, dt, r)

    def recording_generator(stream, step):
        draws.append(asked[-1])
        return generator(stream, step)

    def in_phase(name, run):
        def running(*args, **kwargs):
            phase.append(name)
            try:
                return run(*args, **kwargs)
            finally:
                phase.pop()

        return running

    monkeypatch.setattr(NoiseStream, "increments", recording_increments)
    monkeypatch.setattr(NoiseStream, "_generator", recording_generator)
    monkeypatch.setattr(experiments, "integrate", in_phase("te", integrate))
    monkeypatch.setattr(
        experiments, "integrate_block", in_phase("block", integrate_block)
    )
    cfg = small_config(
        schemes=("te", "ateu", "atea"), laws=("type1", "type2"),
        deltas=(0.25, 0.125), samples=3,
    )
    res = convergence_study(cfg)
    te = [c for c in res.cells if c.scheme == "te"]
    assert all(c.te_h == experiments.te_fallback_step(cfg, c.delta) for c in te)
    keys = [key for _, key in draws]
    assert len(keys) == len(set(keys))
    block_keys = {key for name, key in draws if name == "block"}
    te_asked = {key for name, key in asked if name == "te"}
    te_fresh = {key for name, key in draws if name == "te"}
    # the hybrids fell back at some of te's ordinals, and te drew none of
    # those keys again
    assert te_asked & block_keys
    assert not te_fresh & block_keys
    assert sum(c.fallback_steps for c in res.cells if c.scheme != "te") > 0
    monkeypatch.undo()
    for cell in te:
        for s, stored in enumerate(cell.outcomes):
            path = cfg.deltas.index(cell.delta) * cfg.samples + s
            alone = coupled_error_sample(
                cfg, "te", cell.law, cell.delta, path, te_h=cell.te_h
            )
            assert repr(alone) == repr(stored)


def test_te_cells_whose_step_misses_the_guess_run_in_a_second_map(monkeypatch):
    # white noise at 2^-2: ateu under type4 adapts with its steps capped at
    # delta T, so that te cell matches te_h = 0.25 against a guess of
    # min(tau_min, delta T) = 0.2; every other te cell takes the guess
    calls = _counting_maps(monkeypatch)
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    cfg = small_config(
        noise_kind="white", laws=("type4", "type5"), deltas=(2.0**-2, 2.0**-3),
        samples=3,
    )
    res = convergence_study(cfg)
    te = {(c.law, c.delta): c for c in res.cells if c.scheme == "te"}
    assert te["type4", 0.25].te_h == 0.25
    assert experiments.te_fallback_step(cfg, 0.25) == 0.2
    assert all(
        c.te_h == experiments.te_fallback_step(cfg, c.delta)
        for key, c in te.items() if key != ("type4", 0.25)
    )
    [_, (task, reruns)] = calls
    # only the missed (level, te_h) pair, as te lists on blocks of samples
    assert task is experiments._temporal_outcomes
    assert reruns == [([Scheme("te", h=0.25)], (0, 1)), ([Scheme("te", h=0.25)], (2,))]
    assert len(reruns) == math.ceil(cfg.samples / experiments.BLOCK_ROWS)
    for cell in te.values():
        for s, stored in enumerate(cell.outcomes):
            path = cfg.deltas.index(cell.delta) * cfg.samples + s
            alone = coupled_error_sample(
                cfg, "te", cell.law, cell.delta, path, te_h=cell.te_h
            )
            assert repr(alone) == repr(stored)
    pooled = convergence_study(dataclasses.replace(cfg, threads=2))
    for a, b in zip(res.cells, pooled.cells):
        assert repr(dataclasses.replace(a, cpu_seconds=0.0)) == repr(
            dataclasses.replace(b, cpu_seconds=0.0)
        )


def test_te_matched_to_ae_guesses_its_fallback_step(monkeypatch):
    # te matched to ae is guessed like any te baseline; ae never takes its
    # fallback length, so every te cell misses the guess and reruns
    calls = _counting_maps(monkeypatch)
    cfg = small_config(schemes=("te", "ae"), deltas=(2.0**-2, 2.0**-3), samples=3)
    res = convergence_study(cfg)
    [(_, tasks), (_, reruns)] = calls
    guesses = [experiments.te_fallback_step(cfg, d) for d in reversed(cfg.deltas)]
    assert [[(s.kind, s.h) for s in schemes] for schemes, _ in tasks] == [
        [("ae", None), ("te", h)] for h in guesses
    ]
    te = [c for c in res.cells if c.scheme == "te"]
    assert not {c.te_h for c in te} & set(guesses)
    blocks = math.ceil(cfg.samples / experiments.BLOCK_ROWS)
    assert len(reruns) == len(te) * blocks
    assert all([s.kind for s in schemes] == ["te"] for schemes, _ in reruns)
    for i, c in enumerate(te):
        for s, stored in enumerate(c.outcomes):
            alone = coupled_error_sample(
                cfg, "te", c.law, c.delta, i * cfg.samples + s, te_h=c.te_h
            )
            assert repr(alone) == repr(stored)


def _napping(run, nap):
    def run_after_a_nap(*args, **kwargs):
        time.sleep(nap)
        return run(*args, **kwargs)

    return run_after_a_nap


def test_cpu_seconds_is_the_cpu_time_of_the_cells_paths(monkeypatch):
    nap = 0.02
    monkeypatch.setattr(experiments, "integrate", _napping(integrate, nap))
    monkeypatch.setattr(experiments, "integrate_block", _napping(integrate_block, nap))
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    task_cpu = []
    timed = experiments._timed

    def recording(task, *args):
        out, cpu = timed(task, *args)
        task_cpu.append(cpu)
        return out, cpu

    monkeypatch.setattr(experiments, "_timed", recording)
    temporal = small_config(
        n_modes=8, deltas=(0.5, 0.25), samples=3, schemes=("te", "ateu", "atea")
    )
    for cfg in (temporal, spatial_config()):
        task_cpu.clear()
        res = convergence_study(cfg)
        for cell in res.cells:
            # at least one nap per task; wall time would include them
            assert 0.0 < cell.cpu_seconds < 0.5 * nap * cfg.samples, cell
        if cfg.kind == "temporal":
            assert {c.scheme for c in res.cells} == {"te", "ateu", "atea"}
            # a level's block task (the adaptive list, then te at the
            # guessed step) and a rerun te task serve the (cell, sample)
            # outcomes of their block of two samples or one; at delta 0.5
            # the te step misses the guess, and that cell keeps its share
            # of the block task
            missed = {
                (c.delta, c.te_h) for c in res.cells if c.scheme == "te"
                and c.te_h != experiments.te_fallback_step(cfg, c.delta)
            }
            assert len(missed) == 1
            tasks = 2 * 2 + len(missed) * 2
        else:
            # a spatial task serves its block of two samples or one in
            # every swept-N cell
            tasks = math.ceil(cfg.samples / experiments.BLOCK_ROWS)
        # a task's CPU seconds are split equally among the outcomes it serves
        assert len(task_cpu) == tasks
        assert math.fsum(c.cpu_seconds for c in res.cells) == pytest.approx(
            math.fsum(task_cpu), rel=1e-12
        )


def test_te_cells_with_equal_step_share_their_paths(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].h)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", counting)
    cfg = small_config(
        laws=("type1", "type2", "type3"), deltas=(2.0**-3, 2.0**-5), samples=3
    )
    res = convergence_study(cfg)
    te = [c for c in res.cells if c.scheme == "te"]
    shared = {}
    for cell in te:
        shared.setdefault((cell.delta, cell.te_h), []).append(cell)
    assert len(shared) < len(te)  # some level has two laws with one te_h
    assert len(calls) == len(shared) * cfg.samples
    for (delta, te_h), cells in shared.items():
        for cell in cells:
            assert cell.outcomes == cells[0].outcomes
            for s, stored in enumerate(cell.outcomes):
                path = cfg.deltas.index(delta) * cfg.samples + s
                alone = coupled_error_sample(
                    cfg, "te", cell.law, delta, path, te_h=te_h
                )
                assert repr(alone) == repr(stored)


def test_outcomes_carry_the_branch_mix(small_study):
    cfg = small_study.config
    for cell in small_study.cells:
        for o in cell.outcomes:
            assert o.adaptive_steps + o.fallback_steps + o.clamp_steps == o.steps
            assert o.nonclamp_steps == o.steps - o.clamp_steps
        for name in ("adaptive_steps", "fallback_steps", "clamp_steps"):
            assert getattr(cell, name) == sum(getattr(o, name) for o in cell.outcomes)
        if cell.scheme == "te":
            assert cell.adaptive_steps == 0
    ateu = [c for c in small_study.cells if c.scheme == "ateu"]
    assert sum(c.adaptive_steps for c in ateu) > 0
    assert sum(c.fallback_steps for c in ateu) > 0
    # the counts are the path's own summary counts
    delta = cfg.deltas[0]
    scheme = make_scheme(cfg, "ateu", "type1", delta)
    stream = NoiseStream(NoiseSpec(cfg.noise_kind, cfg.n_modes), cfg.seed, 1)
    summary = integrate(
        scheme, initial_state(cfg.initial, cfg.n_modes), cfg.horizon, stream,
        cfg.drift, refinement=cfg.refinement,
    ).summary
    stored = find_cell(small_study, "ateu", "type1", delta).outcomes[1]
    assert (stored.adaptive_steps, stored.fallback_steps, stored.clamp_steps) == (
        summary.adaptive_steps, summary.fallback_steps, summary.clamp_steps
    )


def test_capped_ateu_below_tau_min_is_te_at_delta_t():
    # Under a capped law (type1 -> au1, type4 -> au4) tau^delta <= delta T,
    # so with delta T < tau_min ateu never adapts: every non-clamp step is
    # a tamed fallback of length min(tau_min, delta T) = delta T, and the
    # path is te's at h = delta T.  The repr differs only because te has
    # no law, hence no max_bound_expr.  A fitted ateu slope over such
    # levels is te's (see the README's acceptance section).
    cfg = small_config(
        schemes=("ateu",), laws=("type1", "type4"), deltas=(2.0**-3, 2.0**-4),
        samples=4,
    )
    assert all(delta * cfg.horizon < cfg.tau_min for delta in cfg.deltas)
    res = convergence_study(cfg)
    for cell in res.cells:
        for s, stored in enumerate(cell.outcomes):
            assert stored.adaptive_steps == 0
            assert stored.fallback_steps == stored.nonclamp_steps > 0
            path = cfg.deltas.index(cell.delta) * cfg.samples + s
            te = coupled_error_sample(
                cfg, "te", cell.law, cell.delta, path, te_h=cell.delta * cfg.horizon
            )
            assert (stored.error, stored.steps) == (te.error, te.steps)


def test_block_tasks_give_single_path_outcomes():
    # blocks of 8 and 3 samples per level: every outcome of a block task is
    # its variant's own single-path sample
    cfg = small_config(
        schemes=("ateu", "atea"), laws=("type1", "type3"),
        deltas=(2.0**-2, 2.0**-3), samples=11, n_modes=8,
    )
    assert experiments.BLOCK_ROWS == 8
    res = convergence_study(cfg)
    for cell in res.cells:
        for s, stored in enumerate(cell.outcomes):
            path = cfg.deltas.index(cell.delta) * cfg.samples + s
            alone = coupled_error_sample(cfg, cell.scheme, cell.law, cell.delta, path)
            assert repr(alone) == repr(stored)
    assert sum(c.adaptive_steps for c in res.cells) > 0


def test_te_paths_reach_experiments_integrate(monkeypatch):
    # bench/tracer.py counts a study's work by wrapping
    # experiments.integrate and divides by the steps it sees there; if no
    # te path reached it, the traced benchmark would crash with a
    # ZeroDivisionError at bench/run.py:379 (c["dst_points"] / steps).
    # Delete this guard once the tracer counts at kernel seams (ROADMAP
    # item 1).
    kinds = []

    def counting(*args, **kwargs):
        kinds.append(args[0].kind)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", counting)
    cfg = small_config(samples=3)
    res = convergence_study(cfg)
    te_paths = {(c.delta, c.te_h) for c in res.cells if c.scheme == "te"}
    assert kinds.count("te") >= len(te_paths) * cfg.samples > 0
    kinds.clear()
    cfg = spatial_config()
    convergence_study(cfg)
    # one reference path per sample; the swept mode counts run as blocks
    assert kinds.count("te") >= cfg.samples


def test_spatial_study_sweep():
    cfg = StudyConfig(
        kind="spatial",
        deltas=(2.0**-3,),
        schemes=("te",),
        laws=("type1",),
        spatial_modes=(4, 8, 16),
        spatial_reference=32,
        n_modes=32,
        samples=3,
        refinement=2,
        seed=7,
    )
    res = convergence_study(cfg)
    assert [c.n_modes for c in res.cells] == [4, 8, 16]
    assert res.config.spatial_reference == 32
    rms = [c.rms for c in res.cells]
    assert all(r > 0 for r in rms)
    assert rms[2] < rms[0]  # refining in space reduces the coupled error
    [(scheme, law, fit)] = res.slopes
    assert (scheme, law) == ("te", "type1") and fit.slope > 0
    assert not res.stability.exceeded


def spatial_config(**overrides):
    base = dict(
        kind="spatial",
        deltas=(2.0**-3,),
        schemes=("te",),
        laws=("type1",),
        spatial_modes=(4, 8, 16),
        spatial_reference=32,
        n_modes=32,
        samples=3,
        refinement=2,
        seed=7,
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_spatial_sample_shares_the_partition():
    # with equal mode counts the reference is the swept run itself: same
    # partition, same increments, so no temporal gap may remain
    cfg = spatial_config()
    out = coupled_error_sample(
        cfg, "te", "type1", 2.0**-3, 0, te_h=2.0**-3,
        n_modes=32, reference_modes=32,
    )
    assert out.error == 0.0
    assert out.steps == 8


def test_spatial_sample_measures_against_the_reference_by_default():
    cfg = spatial_config()
    out = coupled_error_sample(cfg, "te", "type1", 2.0**-3, 0, n_modes=8)
    assert out.error > 0.0
    against = coupled_error_sample(
        cfg, "te", "type1", 2.0**-3, 0, n_modes=8,
        reference_modes=cfg.spatial_reference,
    )
    assert repr(out) == repr(against)
    with pytest.raises(ValueError, match="n_modes"):
        coupled_error_sample(cfg, "te", "type1", 2.0**-3, 0)


def test_spatial_study_ignores_refinement():
    cfg = spatial_config()
    res = convergence_study(cfg)
    other = convergence_study(spatial_config(refinement=1))
    assert [c.rms for c in other.cells] == [c.rms for c in res.cells]
    # each stored outcome is the single-path sample
    cell = res.cells[1]
    alone = coupled_error_sample(
        cfg, "te", "type1", cell.delta, 2, te_h=cell.te_h,
        n_modes=cell.n_modes, reference_modes=32,
    )
    assert alone == cell.outcomes[2]


def test_spatial_study_needs_uniform_partition():
    with pytest.raises(ConfigError):
        convergence_study(spatial_config(schemes=("ateu",)))
    with pytest.raises(ValueError):
        coupled_error_sample(
            spatial_config(), "ateu", "type1", 2.0**-3, 0,
            n_modes=8, reference_modes=32,
        )


def test_spatial_study_rejects_temporal_config():
    with pytest.raises(ConfigError):
        spatial_study(small_config())


def test_spatial_study_runs_in_one_map(monkeypatch):
    calls = _counting_maps(monkeypatch)

    def blocks():
        return [(task, [a[-1] for a in args]) for task, args in calls]

    cfg = spatial_config()
    assert experiments.BLOCK_ROWS == 8
    convergence_study(cfg)
    # one task per block of samples: their references, then every swept
    # mode count as one block
    assert blocks() == [(experiments._spatial_outcomes, [(0, 1, 2)])]
    calls.clear()
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    convergence_study(cfg)
    assert blocks() == [(experiments._spatial_outcomes, [(0, 1), (2,)])]


def test_spatial_reference_is_integrated_once_per_sample(monkeypatch):
    paths, blocks = [], []

    def one_path(*args, **kwargs):
        paths.append((args[1].n_modes, args[3].path))
        return integrate(*args, **kwargs)

    def one_block(*args, **kwargs):
        blocks.append((args[1].n_modes, tuple(s.path for s in args[3])))
        return integrate_block(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", one_path)
    monkeypatch.setattr(experiments, "integrate_block", one_block)
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    cfg = spatial_config()
    convergence_study(cfg)
    # one reference path per sample, then one block per (task, swept N)
    # over that task's samples
    assert paths == [(cfg.spatial_reference, s) for s in range(cfg.samples)]
    assert blocks == [
        (n, task) for task in ((0, 1), (2,)) for n in cfg.spatial_modes
    ]


def test_spatial_sample_draws_each_step_once(monkeypatch):
    # every swept N replays each row's reference draws: Philox is reset
    # once per step of each sample, not once per step of each resolution
    resets = []
    original = NoiseStream._generator

    def counting(stream, step):
        resets.append((stream.path, step))
        return original(stream, step)

    monkeypatch.setattr(NoiseStream, "_generator", counting)
    cfg = spatial_config()
    scheme = make_scheme(cfg, "te", "type1", 2.0**-3)
    block = experiments._spatial_outcomes(cfg, scheme, 32, cfg.spatial_modes, (1, 2))
    steps = block[0][0].steps
    for outcomes in block:
        assert [o.steps for o in outcomes] == [steps] * len(cfg.spatial_modes)
    assert resets == [(path, step) for path in (1, 2) for step in range(steps)]


def test_spatial_outcomes_equal_fresh_streams_per_resolution():
    cfg = spatial_config()
    scheme = make_scheme(cfg, "te", "type1", 2.0**-3)
    paths = (0, 2)
    shared = experiments._spatial_outcomes(cfg, scheme, 32, cfg.spatial_modes, paths)

    def run(path, n):
        stream = experiments.path_stream(cfg, path, 32)
        return experiments._run_block(cfg, [scheme], [stream], n)[0][0]

    alone = [
        [experiments._outcome(run(path, n), run(path, 32)) for n in cfg.spatial_modes]
        for path in paths
    ]
    assert repr(shared) == repr(alone)


def test_streams_keep_draws_only_where_a_later_run_replays_them(monkeypatch):
    # kept draws cost a path's increments in memory: a temporal stream
    # keeps its draws only in a task that runs te after an adaptive block;
    # missed-pair te tasks, studies without te and single-path replays
    # keep none
    kept = []
    original = NoiseStream.keep_draws

    def recording(stream):
        kept.append(stream.path)
        return original(stream)

    monkeypatch.setattr(NoiseStream, "keep_draws", recording)
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2)
    tasks = []
    outcomes = experiments._temporal_outcomes

    def recording_task(cfg, schemes, paths):
        tasks.append(([s.kind for s in schemes], paths, len(kept)))
        return outcomes(cfg, schemes, paths)

    monkeypatch.setattr(experiments, "_temporal_outcomes", recording_task)
    cfg = small_config(samples=3, schemes=("te", "ateu", "atea"), deltas=(0.5, 0.25))
    res = convergence_study(cfg)
    # at delta 0.5 the te step misses the guess and reruns on fresh streams
    assert any(
        c.te_h != experiments.te_fallback_step(cfg, c.delta)
        for c in res.cells if c.scheme == "te"
    )
    lists = [kinds for kinds, _, _ in tasks]
    assert lists[:4] == [["ateu", "atea", "te"]] * 4
    assert lists[4:] and all(kinds == ["te"] for kinds in lists[4:])
    # every path of the first map's tasks, once, and nothing after
    assert sorted(kept) == list(range(2 * cfg.samples))
    assert [before for _, _, before in tasks[4:]] == [len(kept)] * len(tasks[4:])
    kept.clear()
    convergence_study(dataclasses.replace(cfg, schemes=("ateu", "atea")))
    coupled_error_sample(cfg, "te", "type1", 0.25, 3)
    coupled_error_sample(cfg, "ateu", "type1", 0.25, 3)
    assert kept == []
    cfg = spatial_config()
    convergence_study(cfg)
    assert sorted(kept) == list(range(cfg.samples))


def _cell_rows(tmp_path, result):
    out = tmp_path / "cells.csv"
    write_cells_csv(out, result)
    rows = [line.split(",") for line in _read(out)]
    drop = rows[0].index("cpu_seconds")
    return [row[:drop] + row[drop + 1:] for row in rows]


def _same_at_every_worker_count(tmp_path, cfg):
    serial = convergence_study(cfg)
    pooled = convergence_study(dataclasses.replace(cfg, threads=2))
    assert _cell_rows(tmp_path, pooled) == _cell_rows(tmp_path, serial)
    assert len(pooled.cells) == len(serial.cells)
    for a, b in zip(serial.cells, pooled.cells):
        assert repr(a.outcomes) == repr(b.outcomes)


def test_spatial_study_same_at_every_worker_count(tmp_path):
    _same_at_every_worker_count(tmp_path, spatial_config())


def test_temporal_study_same_at_every_worker_count(tmp_path):
    # two levels of six samples, each run as one block per scheme list
    cfg = small_config(
        schemes=("te", "ateu", "atea"), deltas=(2.0**-2, 2.0**-3), samples=6
    )
    _same_at_every_worker_count(tmp_path, cfg)


def test_spatial_outcomes_equal_single_path_samples(monkeypatch):
    # five samples: one block of five, then blocks of two, two and one
    cfg = spatial_config(samples=5)
    for rows in (8, 2):
        monkeypatch.setattr(experiments, "BLOCK_ROWS", rows)
        res = convergence_study(cfg)
        for cell in res.cells:
            for s, stored in enumerate(cell.outcomes):
                alone = coupled_error_sample(
                    cfg, "te", "type1", cell.delta, s,
                    te_h=cell.delta * cfg.horizon, n_modes=cell.n_modes,
                    reference_modes=cfg.spatial_reference,
                )
                assert repr(alone) == repr(stored), (rows, cell.n_modes, s)


def test_coarse_blow_up_is_reported_before_the_reference():
    first = experiments._outcome(BlowUpError(0.25, 1.0), BlowUpError(0.5, 1.0))
    assert first.diverged and first.blow_time == 0.25
    cfg = spatial_config()
    stream = NoiseStream(NoiseSpec(cfg.noise_kind, 32), cfg.seed, 0)
    scheme = make_scheme(cfg, "te", "type1", 2.0**-3)
    coarse = experiments._run_block(cfg, [scheme], [stream], 8)[0][0]
    second = experiments._outcome(coarse, BlowUpError(0.5, 1.0))
    assert second.diverged and second.blow_time == 0.5


def test_temporal_sample_rejects_reference_modes():
    with pytest.raises(ValueError):
        coupled_error_sample(
            small_config(), "te", "type1", 2.0**-2, 0, n_modes=16, reference_modes=32
        )


def test_temporal_sample_rejects_each_spatial_keyword():
    # a temporal sample runs at the config's n_modes against its r-fold
    # refinement; a mode count of its own would be silently another study
    for kw in (dict(n_modes=16), dict(reference_modes=32)):
        with pytest.raises(ValueError, match="spatial samples only"):
            coupled_error_sample(small_config(), "te", "type1", 2.0**-2, 0, **kw)


@pytest.mark.parametrize("kind", ["ateu", "atea", "ae"])
def test_hybrid_sample_rejects_te_h(kind):
    # a hybrid scheme takes its steps from its law; a uniform step given to
    # it would be dropped, and the sample would not be the one asked for
    cfg = small_config(schemes=("te", kind))
    with pytest.raises(ValueError, match="te_h"):
        coupled_error_sample(cfg, kind, "type1", 2.0**-2, 0, te_h=0.25)


def _fresh_import_has(code, module):
    import subprocess
    import sys

    code += f"; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_stats_out():
    assert not _fresh_import_has("import sys, allencahn", "scipy.stats")


@pytest.mark.parametrize("module", ["scipy.fft", "scipy.fftpack", "scipy.special"])
def test_import_leaves_scipy_fft_and_special_out(module):
    # what a CLI run imports before its study: the DST is scipy's pocketfft
    # extension, loaded without scipy.fft's package __init__
    code = "import sys, allencahn; from allencahn.config import parse_config"
    assert not _fresh_import_has(code, module)


def test_package_exports_resolve():
    import allencahn

    missing = [name for name in allencahn.__all__ if not hasattr(allencahn, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# csv emission


def _read(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_errors_csv_schema(tmp_path, small_study):
    out = tmp_path / "errors.csv"
    write_cells_csv(out, small_study)
    lines = _read(out)
    assert lines[0] == (
        "scheme,law,delta,mean_steps,rms_error,cpu_seconds,divergent_samples"
    )
    assert len(lines) == 1 + len(small_study.cells)
    first = lines[1].split(",")
    assert first[0] in ("te", "ateu")
    assert float(first[2]) in small_study.config.deltas


def test_slopes_csv_schema(tmp_path, small_study):
    out = tmp_path / "slopes.csv"
    write_slopes_csv(out, small_study.slopes)
    lines = _read(out)
    assert lines[0] == "scheme,law,slope,intercept,r_squared"
    assert len(lines) == 1 + len(small_study.slopes)
    row = lines[1].split(",")
    assert float(row[2]) == small_study.slopes[0][2].slope


def test_trace_csv_schema(tmp_path):
    cfg = small_config(n_modes=8)
    scheme = make_scheme(cfg, "ateu", "type1", 0.25)
    stream = NoiseStream(NoiseSpec("trace-class", 8, 1.0), 0, 0)
    res = integrate(
        scheme, initial_state("e1", 8), 1.0, stream, cfg.drift,
        collect_records=True,
    )
    out = tmp_path / "trace.csv"
    write_trace_csv(out, res.records, path_index=4)
    lines = _read(out)
    assert lines[0] == "path,step,t,tau,branch,norm_l2,norm_sup,norm_F"
    assert len(lines) == 1 + len(res.records)
    row = lines[1].split(",")
    assert row[0] == "4" and row[1] == "0"
    assert float(row[2]) == 0.0
    assert float(row[3]) > 0.0


def test_spatial_csv_schema(tmp_path):
    cfg = StudyConfig(
        kind="spatial",
        deltas=(2.0**-2,),
        schemes=("te",),
        laws=("type1",),
        spatial_modes=(4, 8, 16),
        spatial_reference=32,
        n_modes=32,
        samples=2,
        refinement=2,
    )
    res = convergence_study(cfg)
    out = tmp_path / "spatial.csv"
    write_cells_csv(out, res)
    lines = _read(out)
    assert lines[0] == (
        "n_modes,n_ref,delta,mean_steps,rms_error,cpu_seconds,divergent_samples"
    )
    assert len(lines) == 4
    assert [int(l.split(",")[0]) for l in lines[1:]] == [4, 8, 16]
    assert all(l.split(",")[1] == "32" for l in lines[1:])


def test_errors_csv_bitwise_reproducible(tmp_path):
    cfg = small_config(deltas=(0.25, 0.125), samples=2, schemes=("ateu",))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cells_csv(a, convergence_study(cfg))
    write_cells_csv(b, convergence_study(cfg))

    def strip_cpu(path):
        rows = [l.split(",") for l in _read(path)]
        return [r[:5] + r[6:] for r in rows]

    assert strip_cpu(a) == strip_cpu(b)
