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


class ValidationError(ReproError):
    """Raised when a validation dataset or metric computation is invalid."""
