"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch one base type.  Specific subclasses mark which subsystem detected
the problem; they carry plain messages and never wrap unrelated exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid model or accelerator configuration was supplied."""


class ShapeError(ReproError):
    """A tensor/matrix did not have the shape an operation requires."""


class PartitionError(ReproError):
    """A weight matrix cannot be partitioned into the required tiles."""


class QuantizationError(ReproError):
    """A quantization step received values it cannot represent."""


class FixedPointError(ReproError):
    """A fixed-point format or operation was misused."""


class ScheduleError(ReproError):
    """The accelerator scheduler was driven into an invalid state."""


class ServingError(ReproError):
    """The serving simulator was misconfigured or driven inconsistently."""


class MemoryModelError(ReproError):
    """An on-chip memory model was accessed out of range or misconfigured."""


class ReliabilityError(ReproError):
    """A fault model, ABFT check, or injection campaign was misused."""


class DecodingError(ReproError):
    """Greedy sequence decoding could not proceed."""


class TrainingError(ReproError):
    """The numpy training loop diverged or was misconfigured."""


class TelemetryError(ReproError):
    """A metrics instrument, exporter, or the bench-diff gate was misused."""


class ObsError(ReproError):
    """A request trace, trace sampler, or SLO monitor was misused."""
