"""Exception types shared across the package."""


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
