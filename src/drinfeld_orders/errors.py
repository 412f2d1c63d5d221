"""Typed errors shared across the library.

Library code raises them directly and never prints.  The CLI maps each
to an exit code by the first of its base classes in one table.  A class
exists only where something tells it apart from its parent: the three
verdicts of class validation (at infinity, at v, reducible over k), and
each row of that table.
"""


class DrinfeldOrdersError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DrinfeldOrdersError):
    """An operation was applied outside its domain (zero polynomial, inexact
    division, malformed field data)."""


class ConfigError(DrinfeldOrdersError):
    """A problem description failed to parse or validate."""


class WeilValidationError(DrinfeldOrdersError):
    """The isogeny-class data cannot be a Frobenius minimal polynomial, or
    lies outside the supported characteristics."""


class ReducibleError(WeilValidationError):
    """The cubic is reducible over the rational function field."""


class NotWeilAtVError(WeilValidationError):
    """The v-adic splitting shape is incompatible with a Frobenius minimal
    polynomial: more than one v-adic factor has constant term divisible by
    pv."""


class InternalInconsistencyError(DrinfeldOrdersError):
    """An exact identity that must hold for valid inputs failed; upstream
    data is corrupt."""


class CandidateBoundExceededError(DrinfeldOrdersError):
    """The (c, a, b) candidate space is larger than the configured bound."""
