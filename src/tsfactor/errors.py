"""Exception hierarchy used across the package.

Every error raised deliberately by this library derives from
:class:`TsfactorError`, so callers can catch one base class.  The
subclasses mark distinct failure categories, and each carries the stable
process exit code, ``exit_code``, that the command line returns for it.
"""

from __future__ import annotations

__all__ = [
    "TsfactorError",
    "InvalidData",
    "InvalidLag",
    "InvalidConfig",
    "PreconditionViolated",
    "IllConditioned",
    "DegenerateSpectrum",
    "IngestError",
]


class TsfactorError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 10


class InvalidData(TsfactorError):
    """Input array is malformed: wrong shape, too short, or non-finite."""

    exit_code = 4


class InvalidLag(TsfactorError):
    """A lag or lag count is out of range for the sample size."""

    exit_code = 6


class InvalidConfig(TsfactorError):
    """Configuration fields are individually or jointly inadmissible."""

    exit_code = 5


class PreconditionViolated(TsfactorError):
    """An operation was called on data that skipped a required step."""

    exit_code = 7


class IllConditioned(TsfactorError):
    """A matrix that must be inverted is numerically singular.

    ``q_effective`` reports the largest leading dimension that would
    still be admissible, so callers can retry with a smaller q instead
    of silently regularizing.
    """

    exit_code = 8

    def __init__(self, message: str, q_effective: int | None = None):
        super().__init__(message)
        self.q_effective = q_effective


class DegenerateSpectrum(TsfactorError):
    """An eigenvalue ratio is undefined (zero denominator, no offset)."""

    exit_code = 9


class IngestError(TsfactorError):
    """A CSV input could not be parsed; carries the offending location."""

    exit_code = 3

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
