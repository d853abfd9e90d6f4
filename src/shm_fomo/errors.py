"""Exception types shared across the library."""


class ShmFomoError(Exception):
    """Base class for all library errors."""


class ConfigError(ShmFomoError):
    """Inconsistent or unsupported configuration values."""


class DataError(ShmFomoError):
    """Input data violates a contract: bad labels, missing targets or tags,
    an empty recording, window set or series, a spectrogram of the wrong size,
    a threshold grid that cannot reach the largest calibration error, or a
    training run whose loss or gradient turned non-finite."""


class FormatError(ShmFomoError):
    """A persisted file is malformed, truncated, or has the wrong magic."""
