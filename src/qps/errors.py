"""Exception hierarchy shared by the library and the CLI exit-code contract."""


class QpsError(Exception):
    """Base class for all library errors; `exit_code` is the CLI's."""

    exit_code = 2


class InvalidInputError(QpsError):
    """Malformed or physically inadmissible input (CLI exit code 2)."""


class CoverageError(QpsError):
    """A grid does not cover the state well enough for the request (exit 3)."""

    exit_code = 3


class UnsupportedError(QpsError):
    """A valid but unsupported combination was requested (exit 4)."""

    exit_code = 4


class SaturationError(InvalidInputError):
    """Moments do not saturate the uncertainty relation."""
