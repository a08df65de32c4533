"""Exception taxonomy shared across the package."""

from __future__ import annotations


class BlowUpError(RuntimeError):
    """A trajectory produced a non-finite state.

    Carries the time at which the offending step started and the sup norm of
    the last finite state, so callers can report where a path diverged.
    """

    def __init__(self, time: float, sup_norm: float):
        self.time = time
        self.sup_norm = sup_norm
        super().__init__(
            f"trajectory blew up at t={time:.6g} (last finite sup norm {sup_norm:.6g})"
        )

    def __reduce__(self):
        return type(self), (self.time, self.sup_norm)


class RunawayPartitionError(RuntimeError):
    """A step did not advance t, or the integrator reached its step ceiling."""

    def __init__(self, steps: int, time: float):
        self.steps = steps
        self.time = time
        super().__init__(
            f"partition ran away after {steps} steps at t={time:.6g}: "
            "a step did not advance t, or the step ceiling was reached"
        )

    def __reduce__(self):
        return type(self), (self.steps, self.time)


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class StudyError(RuntimeError):
    """A study could not produce a usable result (e.g. every sample diverged)."""
