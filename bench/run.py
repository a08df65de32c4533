#!/usr/bin/env python3
"""Study benchmark of allencahn: end-to-end study runs and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload desk-trace --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

--trace 0 repeats the workload's study, untraced, for about --seconds and
reports the end-to-end metrics as medians over the repeats, each repeat's
times scaled to a reference host speed by a gauge read around it
(gauge.py).
--trace 1 runs the layer microbenchmarks and one serial study each
untraced and traced (plus one pooled study when the workload uses a pool)
and reports the per-layer metrics.  `--workload all` runs every workload in
its own process and prints one table.

Every run checks the program's outputs (see `Gate`), prints one line per
metric with its unit and sample count, writes its result with the
environment to bench/results/, and ends stdout with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` counts coupled paths run; `failed` counts divergent paths plus
paths whose result did not reproduce.  The exit code is 0 whenever a
result was printed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
from workloads import WORKLOADS, replay_picks, study_ini

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_RUNS = 5  # fresh interpreters per run; this process already wrote the .pyc files
GAUGE_SHARE = 0.04  # a gauge reading lasts this share of the repeat before it ...
GAUGE_S = (0.03, 0.3)  # ... within these seconds (see gauge.py)

# Import of the package plus resolving the generated INI, as a CLI run pays it.
_SETUP_CHILD = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import allencahn
from allencahn.config import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


# ---------------------------------------------------------------------------
# one study call, timed


@dataclasses.dataclass
class StudyRun:
    result: object | None  # StudyResult / SpatialResult, None if the study raised
    wall_s: float
    cpu_s: float
    paths: int
    error: str = ""
    start: float = 0.0  # perf_counter() when the call began

    @property
    def cells(self):
        return self.result.cells

    @property
    def divergent(self) -> int:
        return sum(c.divergent for c in self.cells)

    @property
    def coupled_steps(self) -> int:
        """Coarse steps of non-divergent paths, each with its r reference substeps."""
        return sum(o.steps for c in self.cells for o in c.outcomes if not o.diverged)

    def rows(self):
        """errors.csv / spatial.csv rows without the cpu_seconds column."""
        return [
            (c.scheme, c.law, c.n_modes, repr(c.delta), repr(c.mean_steps), repr(c.rms), c.divergent)
            for c in self.cells
        ]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _paths(cfg) -> int:
    if cfg.kind == "spatial":
        return len(cfg.spatial_modes) * cfg.samples
    return len(cfg.schemes) * len(cfg.laws) * len(cfg.deltas) * cfg.samples


def run_study(cfg) -> StudyRun:
    from allencahn.errors import BlowUpError, RunawayPartitionError, StudyError
    from allencahn.experiments import convergence_study, spatial_study

    study = spatial_study if cfg.kind == "spatial" else convergence_study
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = study(cfg)
        error = ""
    except (StudyError, RunawayPartitionError, BlowUpError) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return StudyRun(result, wall, _cpu_seconds() - cpu0, _paths(cfg), error, t0)


# ---------------------------------------------------------------------------
# correctness gate


class Gate:
    """Counts attempted and failed paths and collects named checks.

    A path fails when it diverged, when its study raised, when its cell's
    row differs between two runs of the same seed (repeats, or threads = 1
    against threads = 2), or when replaying it alone through
    coupled_error_sample does not give its stored outcome.  Checks on the
    program's outputs decide `correct`; checks of the trace's own
    bookkeeping (`output=False`) are reported but do not, since they fail
    when the call structure changes, not when a result is wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str, bool]] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _, output in self.checks if output)

    def check(self, name: str, ok: bool, detail: str = "", output: bool = True) -> None:
        self.checks.append((name, ok, detail, output))

    def study(self, run: StudyRun) -> bool:
        self.attempted += run.paths
        if run.result is None:
            self.failed += run.paths
            self.check("study completes", False, run.error)
            return False
        self.failed += run.divergent
        return True

    def same_rows(self, name: str, first: StudyRun, other: StudyRun, samples: int) -> None:
        differing = sum(a != b for a, b in zip(first.rows(), other.rows()))
        self.failed += differing * samples
        self.check(name, differing == 0, f"{differing} of {len(first.cells)} cell rows differ")

    def replay(self, cfg, run: StudyRun, seed: int) -> None:
        """Re-run a few (cell, path) pairs as single-path calls."""
        from allencahn.experiments import coupled_error_sample

        picks = replay_picks(seed, len(run.cells), cfg.samples)
        bad = 0
        for cell_index, sample in picks:
            c = run.cells[cell_index]
            kw = {}
            if cfg.kind == "spatial":
                kw = dict(n_modes=c.n_modes, reference_modes=cfg.spatial_reference)
            # Path keying of a study: delta level i, sample s -> path i * samples + s.
            path = cfg.deltas.index(c.delta) * cfg.samples + sample
            alone = coupled_error_sample(
                cfg, c.scheme, c.law, c.delta, path, te_h=c.te_h, **kw
            )
            stored = c.outcomes[sample]
            same = (alone.steps, alone.diverged) == (stored.steps, stored.diverged) and (
                stored.diverged or math.isclose(alone.error, stored.error, rel_tol=1e-12)
            )
            bad += not same
        self.attempted += len(picks)
        self.failed += bad
        self.check("single-path replay", bad == 0, f"{bad} of {len(picks)} replays differ")


# ---------------------------------------------------------------------------
# environment and set-up


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    # GIT_CEILING_DIRECTORIES keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(cfg, seed: int, gauge_before: gauge.Reading) -> dict:
    import numpy
    import scipy

    return {
        "gauge_us": [1e6 * gauge_before.wall_s, 1e6 * gauge.read().wall_s],
        "gauge_ref_us": 1e6 * gauge.GAUGE_REF_S,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "start_method": multiprocessing.get_start_method(),
        "workload_seed": seed,
        "study_seed": cfg.seed,
        "threads": cfg.threads,
        "samples": cfg.samples,
    }


def setup_seconds(ini: str) -> list[float]:
    """Set-up time of SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), ini],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout))
    return times


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (ru_maxrss is KiB)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run


def _stat(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def untraced_run(cfg, ini: str, seed: int, seconds: float, gate: Gate):
    """Repeat the study for about `seconds`; end-to-end metrics as medians over repeats.

    Each repeat's wall and CPU times are scaled to the reference host speed
    by the gauge read just before and just after it, in as many processes as
    the study has workers (see gauge.py).  Returns the metrics and the
    unscaled figures, which are printed and kept in the result file but are
    not metrics.  Only the first repeat's study result is kept, so peak RSS
    does not grow with the number of repeats.
    """
    first: StudyRun | None = None
    repeats: list[dict] = []
    start = time.perf_counter()
    before = gauge.read(cfg.threads, GAUGE_S[0])
    while True:
        run = run_study(cfg)
        reading_s = min(GAUGE_S[1], max(GAUGE_S[0], GAUGE_SHARE * run.wall_s))
        after = gauge.read(cfg.threads, reading_s)
        if not gate.study(run):
            return {}, {}
        if first is None:
            first = run
        else:
            gate.same_rows(f"repeat {len(repeats)} rows equal repeat 0", first, run, cfg.samples)
        wall_scale, cpu_scale = gauge.Reading.scale(before, after)
        repeats.append({
            "t": run.start - start, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
            "coupled_steps": run.coupled_steps, "wall_scale": wall_scale, "cpu_scale": cpu_scale,
        })
        before = after
        elapsed = time.perf_counter() - start
        if elapsed * (len(repeats) + 1) / len(repeats) > seconds:  # the next one would overrun
            break
    peak_rss = _peak_rss_mb()  # before the set-up children are reaped
    gate.replay(cfg, first, seed)
    setup = setup_seconds(ini)

    def col(key):
        return [r[key] for r in repeats]

    wall_norm = [r["wall_s"] * r["wall_scale"] for r in repeats]
    metrics = {
        "study_norm_s": ("s", _stat(wall_norm)),
        "coupled_steps_per_norm_s": (
            "1/s", _stat([r["coupled_steps"] / t for r, t in zip(repeats, wall_norm)])
        ),
        "cpu_norm_s": ("s", _stat([r["cpu_s"] * r["cpu_scale"] for r in repeats])),
        "setup_s": ("s", _stat(setup)),
        "peak_rss_mb": ("MB", _stat([peak_rss])),
    }
    raw = {
        "study_wall_s": ("s", _stat(col("wall_s"))),
        "cpu_s": ("s", _stat(col("cpu_s"))),
        "gauge_wall_scale": ("ratio", _stat(col("wall_scale"))),
        "gauge_cpu_scale": ("ratio", _stat(col("cpu_scale"))),
        "repeats": repeats,
    }
    return metrics, raw


def traced_run(cfg, ini: str, seed: int, gate: Gate):
    """Layer microbenchmarks, then serial untraced / traced studies (and a pooled one)."""
    import layers
    from tracer import LayerTrace

    metrics = {name: ("us", v) for name, v in layers.kernel_metrics(cfg).items()}
    metrics["config.load_s"] = ("s", layers.config_load_s(ini))
    metrics["experiments.coupled_sample_ms"] = ("ms", layers.coupled_sample_ms(cfg))

    serial_cfg = dataclasses.replace(cfg, threads=1)
    serial = run_study(serial_cfg)
    trace = LayerTrace()
    with trace.installed():
        traced = run_study(serial_cfg)
    pooled = run_study(cfg) if cfg.threads > 1 else serial
    runs = [serial, traced] + ([pooled] if pooled is not serial else [])
    if not all([gate.study(r) for r in runs]):
        return {}, {}
    gate.same_rows("traced rows equal untraced rows", serial, traced, cfg.samples)
    if pooled is not serial:
        gate.same_rows(
            f"threads={cfg.threads} rows equal threads=1 rows", serial, pooled, cfg.samples
        )
    gate.replay(cfg, serial, seed)
    mismatches = trace.count_mismatches()
    gate.check(
        "work counts equal computed counts", not mismatches, "; ".join(mismatches), False
    )

    c, busy = trace.count, trace.busy
    steps = c["steps"]
    gate.check(
        "steps equal study step count",
        steps == traced.coupled_steps,
        f"{steps} traced, {traced.coupled_steps} in the study result",
        False,
    )
    r = cfg.refinement
    drift_calls = c["drift_coarse"] + c["drift_reference"]
    drift_s = busy["drift_coarse"] + busy["drift_reference"]
    integrate_share = busy["integrate"] / traced.wall_s
    cell_walls = [cell.cpu_seconds for cell in pooled.cells]  # the column is wall time
    nonclamp = steps - c["clamp_steps"]
    metrics.update({
        "spectral.dst_points_per_coupled_step": ("count", c["dst_points"] / steps),
        "spectral.transform_s": ("s", busy["transform"]),
        "drift.coarse_calls": ("count", c["drift_coarse"]),
        "drift.reference_calls": ("count", c["drift_reference"]),
        "drift.coarse_s": ("s", busy["drift_coarse"]),
        "drift.reference_s": ("s", busy["drift_reference"]),
        "drift.call_us": ("us", 1e6 * drift_s / drift_calls),
        "drift.calls_per_coupled_step": ("count", drift_calls / steps),
        "noise.calls": ("count", c["noise_calls"]),
        "noise.increments_s": ("s", busy["noise"]),
        "noise.draws_per_coupled_step": ("count", c["noise_calls"] / steps),
        "noise.normals_per_coupled_step": ("count", c["normals"] / steps),
        "stepping.coupled_steps": ("count", steps),
        "stepping.integrate_s": ("s", busy["integrate"]),
        "stepping.self_s": ("s", busy["integrate"] - drift_s - busy["noise"] - busy["lp_norm"]),
        "stepping.lp_norm_calls": ("count", c["lp_norm_calls"]),
        "stepping.lp_norm_s": ("s", busy["lp_norm"]),
        "stepping.integrate_share": ("ratio", integrate_share),
        "stepping.adaptive_steps": ("count", c["adaptive_steps"]),
        "stepping.fallback_steps": ("count", c["fallback_steps"]),
        "stepping.clamp_steps": ("count", c["clamp_steps"]),
        "stepping.adaptive_share": ("ratio", c["adaptive_steps"] / nonclamp),
        "experiments.cells": ("count", len(traced.cells)),
        "experiments.cell_wall_s.median": ("s", statistics.median(cell_walls)),
        "experiments.cell_wall_s.max": ("s", max(cell_walls)),
        "experiments.aggregate_s": ("s", pooled.wall_s - sum(cell_walls)),
        # Untraced serial work (integrate's share of it) over workers x pooled wall.
        "experiments.pool_efficiency": (
            "ratio", serial.wall_s * integrate_share / (cfg.threads * pooled.wall_s)
        ),
        "trace_overhead_ratio": ("ratio", traced.wall_s / serial.wall_s),
    })
    per_step = {
        "drift.calls_per_coupled_step": 1 + r,
        "noise.draws_per_coupled_step": 1,
    }
    for name, want in per_step.items():
        got = metrics[name][1]
        gate.check(f"{name} = {want}", got == want, f"got {got!r}", False)
    gate.check(
        "integrate covers >= 90% of the traced study", integrate_share >= 0.9,
        f"{integrate_share:.4f}", False,
    )
    return {name: (unit, _stat([v])) for name, (unit, v) in metrics.items()}, {}


# ---------------------------------------------------------------------------
# output


def _report(workload, seed, trace, cfg, metrics, raw, gate: Gate, env: dict) -> dict:
    repeats = raw.pop("repeats", [])
    print(f"workload {workload}  seed {seed}  trace {trace}  threads {cfg.threads}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail, output in gate.checks:
        kind = "check" if output else "trace"
        verdict = "ok  " if ok else ("FAIL" if output else "WARN")
        print(f"{kind} {verdict} {name}" + (f"  ({detail})" if detail else ""))
    ratio = gate.failed / gate.attempted if gate.attempted else math.nan
    print(f"failed_path_ratio {ratio!r}  ({gate.failed} of {gate.attempted} paths attempted)")
    for kind, stats in (("  ", metrics), ("raw ", raw)):
        for name, (unit, st) in stats.items():
            spread = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}" if st["n"] > 1 else ""
            print(f"{kind}{name:40s} {st['median']:14.6g} {unit:6s} n={st['n']}{spread}")
    print(f"correct {gate.correct}")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": st["median"], "unit": unit}
            for name, (unit, st) in metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": workload,
        "env": env,
        "checks": [
            {"name": n, "ok": ok, "detail": d, "decides_correct": output}
            for n, ok, d, output in gate.checks
        ],
        "stats": {name: dict(st, unit=unit) for name, (unit, st) in metrics.items()},
        "raw": {name: dict(st, unit=unit) for name, (unit, st) in raw.items()},
        "repeats": repeats,
        **result,
    }
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from allencahn.config import parse_config

    ini = study_ini(workload, seed)
    cfg = parse_config(ini, source=f"workload:{workload}")
    before = gauge.read()
    gate = Gate()
    if trace:
        metrics, raw = traced_run(cfg, ini, seed, gate)
    else:
        metrics, raw = untraced_run(cfg, ini, seed, seconds, gate)
    env = environment(cfg, seed, before)
    return _report(workload, seed, trace, cfg, metrics, raw, gate, env)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak RSS and CPU time stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"workload {workload} exited with {out.returncode}")
        res = json.loads(lines[-1])
        stats = json.loads(
            (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8")
        )["stats"]
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"], stats[name]["n"]))
        rows.append((workload, "failed_path_ratio",
                     res["failed"] / res["attempted"], f"of {res['attempted']}", ""))
        rows.append((workload, "correct", res["correct"], "", ""))
    print(f"{'workload':12s} {'metric':40s} {'value':>14s} {'unit':8s} n")
    for workload, name, value, unit, n in rows:
        shown = f"{value:14.6g}" if not isinstance(value, bool) else f"{value!s:>14s}"
        print(f"{workload:12s} {name:40s} {shown} {unit:8s} {n}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "allencahn" / "__init__.py").is_file():
        print("bench: src/allencahn not found; run from a full source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
