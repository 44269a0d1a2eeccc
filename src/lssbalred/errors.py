"""Exception types shared across the package."""


class LssError(Exception):
    """Base class for all package-specific errors."""


class ModelFormatError(LssError):
    """Raised when a model file is malformed (bad JSON, ragged arrays,
    non-finite entries, inconsistent shapes)."""


class InfeasibleError(LssError):
    """Raised when a solver cannot produce a certificate or grammian.  The
    message says why: a budget ran out, or phase 1 of the interior-point
    solve ended with s > 0 (no point of bounded trace clears the margin).
    Neither is a proof that the set is empty without a margin."""
