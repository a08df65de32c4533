"""Host-speed gauge: a fixed numpy/scipy kernel timed beside every study repeat.

On a shared host the speed of a core drifts: the same study call can take
1.8 times as long in one minute as in the next, and CPU time drifts with
wall time (the slowdown is in the core's throughput).  At times the host
also takes a vCPU away, which doubles the wall time of a study that runs on
two workers but not its CPU time.  A run of a minute cannot average either
out, so the benchmark runs this gauge just before and just after each study
repeat and scales the repeat's wall time by GAUGE_REF_S over the gauge's
wall time per call, and its CPU time by GAUGE_REF_S over the gauge's CPU
time per call (see `Reading.scale`).  The result is what the repeat would
have taken on a host where the kernel takes GAUGE_REF_S per call.

The gauge runs the kernel in as many processes at once as the study has
workers, so that it is slowed by a missing vCPU as the study is.  The
kernel is a few steps of a spectral cubic-drift update with Philox noise,
written here with numpy and scipy alone: the same mix of DSTs, elementwise
work, normal draws and per-call dispatch that the studies spend their time
on.  It imports nothing from allencahn, so no change to the package can
move it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import statistics
import time

import numpy as np
from scipy.fft import dst

GAUGE_REF_S = 7e-4  # per-call seconds of the kernel that scaled ("norm") seconds refer to


def _steps(n: int, m: int, steps: int, seed: int) -> None:
    rng = np.random.Generator(np.random.Philox(seed))
    k = np.arange(1, n + 1)
    decay = 1.0 / (1.0 + 1e-3 * k * k)
    c = np.zeros(n)
    c[0] = 1.0
    grid = np.zeros(m)
    for _ in range(steps):
        grid[:n] = c
        v = dst(grid, type=1)
        f = v - v * v * v
        d = dst(f, type=1)[:n] / (2.0 * (m + 1))
        c = decay * (c + 1e-3 * d + (rng.standard_normal((3, n)) * 1e-2).sum(axis=0))


def _kernel() -> None:
    _steps(256, 1023, 4, 1)
    _steps(512, 2047, 2, 2)


def _time_kernel(seconds: float, conn=None) -> tuple[float, float]:
    """Median wall and CPU seconds per kernel call, calling it for `seconds`."""
    walls, cpus = [], []
    end = time.perf_counter() + seconds
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if len(walls) >= 5 and time.perf_counter() >= end:
            break
    out = (statistics.median(walls), statistics.median(cpus))
    if conn is not None:
        conn.send(out)
        conn.close()
    return out


@dataclasses.dataclass(frozen=True)
class Reading:
    wall_s: float  # per kernel call, mean over the gauge's processes
    cpu_s: float

    @staticmethod
    def scale(before: "Reading", after: "Reading") -> tuple[float, float]:
        """(wall, CPU) factors from the host's speed around a repeat to the reference speed."""
        return (
            GAUGE_REF_S / (0.5 * (before.wall_s + after.wall_s)),
            GAUGE_REF_S / (0.5 * (before.cpu_s + after.cpu_s)),
        )


def read(workers: int = 1, seconds: float = 0.1) -> Reading:
    """Time the kernel for `seconds` in `workers` processes at once (this one and forks)."""
    ctx = multiprocessing.get_context("fork")
    children = []
    for _ in range(workers - 1):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_time_kernel, args=(seconds, send))
        proc.start()
        send.close()
        children.append((proc, recv))
    try:
        readings = [_time_kernel(seconds)] + [recv.recv() for _, recv in children]
    finally:
        for proc, _ in children:
            proc.join()
    return Reading(
        statistics.fmean(w for w, _ in readings), statistics.fmean(c for _, c in readings)
    )
