"""Exception types, and the argument checks, shared across the package."""

import math
import numbers


class MimolocError(Exception):
    """Base class for all package-specific errors."""


class ZeroDistance(MimolocError):
    """User position coincides with the base station."""


class DelayOverflow(MimolocError):
    """A path's sampled delay falls outside the OFDM delay window."""


class DimensionMismatch(MimolocError):
    """Array shapes disagree with the declared configuration."""


class ZeroAdp(MimolocError):
    """Similarity requested against an all-zero angle-delay profile."""


class NotEnoughPaths(MimolocError):
    """A distortion needs more paths than the channel provides."""


class FormatError(MimolocError):
    """A persisted file does not match the documented layout."""


class VersionError(MimolocError):
    """A persisted file declares an unsupported format version."""


class TruncatedFile(MimolocError):
    """A persisted file ends before the declared record count."""


class DivergedLoss(MimolocError):
    """Training produced a non-finite loss."""


class EmptyHistory(MimolocError):
    """Prediction requested from an empty frame history."""


class EmptyNeighborhood(MimolocError):
    """Recovery has no fingerprints and no usable prediction to fuse."""


class LengthMismatch(MimolocError):
    """Paired inputs have different lengths."""


class ConfigError(MimolocError):
    """An experiment configuration failed validation."""


class HelperFailed(MimolocError):
    """A helper process ended without sending its jobs' results."""


def check_int(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer of at least
    ``least``; a bool is no integer here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


def is_finite(value) -> bool:
    """``value`` is an int or a float, not a bool, that a float holds
    finitely. json.load reads NaN, Infinity and 1e400 (as inf), and ints
    too large for a float."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def check_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is ``is_finite`` and above 0."""
    if not (is_finite(value) and value > 0):
        raise ValueError(f"{name} must be finite and above 0, got {value!r}")
