"""Exception types shared across the library."""


class ShmFomoError(Exception):
    """Base class for all library errors."""


class EmptyInputError(ShmFomoError):
    """An operation received an empty recording, window set, or series."""


class ConfigError(ShmFomoError):
    """Inconsistent or unsupported configuration values."""


class DataError(ShmFomoError):
    """Input data violates a contract (bad labels, missing targets, wrong tags)."""


class FormatError(ShmFomoError):
    """A persisted file is malformed, truncated, or has the wrong magic."""


class CalibrationError(ShmFomoError):
    """The threshold grid cannot reach the largest calibration error."""


class DivergenceError(ShmFomoError):
    """Training produced a non-finite loss or gradient."""
