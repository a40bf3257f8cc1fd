"""Exception types shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for recoverable pipeline failures (item-level, not fatal)."""


class ContractViolation(ValueError):
    """A caller broke a documented precondition or invariant."""


class TransportError(PipelineError):
    """A remote call failed after exhausting its retry budget, or with a failure no retry can mend;
    the message says which ("after N attempts", "not retried")."""


class ProtocolError(PipelineError):
    """A remote service answered with a malformed body or one missing a field."""
