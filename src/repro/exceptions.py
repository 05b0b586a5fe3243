"""Exception hierarchy for the remote-peering reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  Subclasses exist per functional area so tests
and downstream code can be precise about what failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class TopologyError(ReproError):
    """Raised when the synthetic world violates a structural invariant."""


class AddressingError(TopologyError):
    """Raised when IP address allocation fails or an address is invalid."""


class UnknownEntityError(TopologyError):
    """Raised when an entity id (ASN, IXP id, facility id, ...) is unknown."""


class DataSourceError(ReproError):
    """Raised when a simulated data source produces inconsistent records."""


class MeasurementError(ReproError):
    """Raised when a measurement campaign is asked to do something invalid."""


class VantagePointError(MeasurementError):
    """Raised when a vantage point cannot be used (e.g. filtered out)."""


class RoutingError(ReproError):
    """Raised when no forwarding path can be constructed between endpoints."""


class InferenceError(ReproError):
    """Raised when the inference pipeline receives inconsistent inputs."""


class UndeclaredReadError(InferenceError):
    """Raised when a step-graph node reads something its ``StepSpec`` omits.

    Only declared reads enter a node's cache key, so an undeclared one would
    let a cache hit serve a stale result.  Deliberately not an
    :class:`AttributeError`: ``getattr`` with a default and ``hasattr``
    cannot swallow it.
    """

    def __init__(self, node: str, member: str) -> None:
        super().__init__(
            f"step {node!r} read {member!r}, which its StepSpec does not declare"
        )
        self.node = node
        self.member = member


class ValidationError(ReproError):
    """Raised when a validation dataset or metric computation is invalid."""
