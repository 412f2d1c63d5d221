"""Typed errors shared across the library.

Library code raises them directly and never prints.  The CLI maps each
to an exit code by the first of its base classes in one table.
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


class BadConstantTermError(WeilValidationError):
    """The constant-term data (mu, pv, m) is malformed."""


class NotWeilAtVError(WeilValidationError):
    """The v-adic splitting shape is incompatible with a Frobenius minimal
    polynomial: more than one v-adic factor has constant term divisible by
    pv."""


class Char3UnsupportedError(WeilValidationError):
    """Characteristic 3 is rejected: the depressed-cubic substitution divides
    by 3 and 27."""


class Char2UnsupportedError(WeilValidationError):
    """Characteristic 2 is rejected: the polynomial discriminant degenerates
    to c2^2 there and the square-free discriminant formula no longer
    computes the field discriminant (quadratic ramification turns wild)."""


class InternalInconsistencyError(DrinfeldOrdersError):
    """An exact identity that must hold for valid inputs failed; upstream
    data is corrupt."""


class NoSolutionError(InternalInconsistencyError):
    """The integral-basis congruence system admits no solution."""


class NoCandidateError(InternalInconsistencyError):
    """No enumerated order contains a module's endomorphisms (not even the
    order generated by the Frobenius)."""


class CandidateBoundExceededError(DrinfeldOrdersError):
    """The (c, a, b) candidate space is larger than the configured bound."""
