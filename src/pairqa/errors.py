"""Exception types shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for recoverable pipeline failures (item-level, not fatal)."""


class ContractViolation(ValueError):
    """A caller broke a documented precondition or invariant."""


class TransportError(PipelineError):
    """A remote call failed after exhausting its retry budget."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(PipelineError):
    """A remote service answered with a malformed body or one missing a field."""
