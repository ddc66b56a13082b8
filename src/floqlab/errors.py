"""Exception types shared across the package."""


class FloqlabError(Exception):
    """Base class for all floqlab errors."""


class DegenerateAxisError(FloqlabError):
    """Rotation axis has zero norm but the angle is nonzero."""


class GaplessPointError(FloqlabError):
    """Quasienergy at this momentum sits on a gap closing; the Bloch axis
    is undefined there."""


class InsufficientResolutionError(FloqlabError):
    """A grid-based winding integrator could not bound its per-step angle
    change.  The package counts windings exactly and no longer raises this;
    it stays defined for code that catches it."""


class NoBisError(FloqlabError):
    """No band-inversion momentum was detected in the polarization trace."""


class AmbiguousSlopeError(FloqlabError):
    """Polarization slope at a candidate inversion point is outside the
    trusted magnitude window."""


class BulkGapError(FloqlabError):
    """Bulk quasienergy gap is too small to classify edge modes."""
