"""Per-layer counts and busy times of a traced study, recorded from outside the package.

`LayerTrace.installed()` rebinds, for the duration of a `with` block, the
names through which the integrator calls into each layer:

    experiments.integrate           coupled path (stepping)
    stepping.evaluate_drift         drift, split coarse/reference by position
    stepping.coeffs_to_values       aa-law Lp norms (m = 2N) and the final sup
    drift.coeffs_to_values,
    drift.values_to_coeffs          DST transforms inside a drift evaluation
    NoiseStream.increments          noise

Within one coarse step the integrator calls the drift once for the coarse
state, then draws the step's noise, then calls it r times for the reference
substeps; that order is what splits coarse from reference calls here.
Totals accumulate in memory of this process, so only a serial
(threads = 1) study is traced: totals kept in pool workers would be lost.

Alongside the observed counts the trace accumulates the counts the
integrator must make, computed from each path's step count and shape, so
a run can check them for exact equality.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from allencahn import drift as drift_mod
from allencahn import experiments as experiments_mod
from allencahn import noise as noise_mod
from allencahn import stepping as stepping_mod
from allencahn.drift import fast_dealias_size

_clock = time.perf_counter


class LayerTrace:
    def __init__(self):
        self.count: Counter[str] = Counter()  # observed at the wrappers
        self.expected: Counter[str] = Counter()  # computed from path shapes
        self.busy: defaultdict[str, float] = defaultdict(float)
        self._pending_reference = 0

    @contextmanager
    def installed(self):
        targets = [
            (experiments_mod, "integrate", self._wrap_integrate),
            (stepping_mod, "evaluate_drift", self._wrap_drift),
            (stepping_mod, "coeffs_to_values", self._wrap_stepping_transform),
            (drift_mod, "coeffs_to_values", self._wrap_dst_synthesis),
            (drift_mod, "values_to_coeffs", self._wrap_dst_analysis),
            (noise_mod.NoiseStream, "increments", self._wrap_increments),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
        try:
            for owner, name, wrap in targets:
                setattr(owner, name, wrap(getattr(owner, name)))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def _wrap_integrate(self, original):
        def integrate(*args, **kwargs):
            scheme, initial, stream = args[0], args[1], args[3]
            self._pending_reference = 0
            t0 = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self.busy["integrate"] += _clock() - t0
            s = result.summary
            self.count["paths"] += 1
            self.count["steps"] += s.steps
            self.count["adaptive_steps"] += s.adaptive_steps
            self.count["fallback_steps"] += s.fallback_steps
            self.count["clamp_steps"] += s.clamp_steps

            r = kwargs.get("refinement", 1)
            n = initial.n_modes
            n_ref = kwargs.get("reference_modes") or n
            reference_calls = r if r > 1 else 0
            self.expected["drift_coarse"] += s.steps
            self.expected["drift_reference"] += reference_calls * s.steps
            self.expected["noise_calls"] += s.steps
            self.expected["normals"] += s.steps * r * stream.spec.n_modes
            self.expected["dst_points"] += s.steps * 2 * (
                fast_dealias_size(n) + reference_calls * fast_dealias_size(n_ref)
            )
            uses_lp = scheme.kind != "te" and scheme.law.needs_lp_norms
            self.expected["lp_norm_calls"] += s.steps if uses_lp else 0
            return result

        return integrate

    def _wrap_drift(self, original):
        def evaluate_drift(drift, state_coeffs, m=None):
            t0 = _clock()
            ev = original(drift, state_coeffs, m)
            elapsed = _clock() - t0
            if self._pending_reference:
                self._pending_reference -= 1
                key = "drift_reference"
            else:
                key = "drift_coarse"
            self.count[key] += 1
            self.busy[key] += elapsed
            return ev

        return evaluate_drift

    def _wrap_increments(self, original):
        def increments(stream, step, dt, r=1):
            t0 = _clock()
            out = original(stream, step, dt, r)
            self.busy["noise"] += _clock() - t0
            self.count["noise_calls"] += 1
            self.count["normals"] += r * stream.spec.n_modes
            self._pending_reference = r if r > 1 else 0
            return out

        return increments

    def _wrap_stepping_transform(self, original):
        def coeffs_to_values(coeffs, m):
            if m != 2 * coeffs.size:  # end-of-path sup norm: stays in stepping self time
                self.count["sup_calls"] += 1
                return original(coeffs, m)
            t0 = _clock()
            vals = original(coeffs, m)
            self.busy["lp_norm"] += _clock() - t0
            self.count["lp_norm_calls"] += 1
            return vals

        return coeffs_to_values

    def _wrap_dst_synthesis(self, original):
        def coeffs_to_values(coeffs, m):
            t0 = _clock()
            vals = original(coeffs, m)
            self.busy["transform"] += _clock() - t0
            self.count["dst_points"] += m
            return vals

        return coeffs_to_values

    def _wrap_dst_analysis(self, original):
        def values_to_coeffs(values, n_modes):
            t0 = _clock()
            coeffs = original(values, n_modes)
            self.busy["transform"] += _clock() - t0
            self.count["dst_points"] += values.size
            return coeffs

        return values_to_coeffs

    def count_mismatches(self) -> list[str]:
        """Names whose observed count differs from the computed one."""
        return [
            f"{key}: observed {self.count[key]}, computed {self.expected[key]}"
            for key in sorted(self.expected)
            if self.count[key] != self.expected[key]
        ]
