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
    change.  The package counts windings exactly and never raises this.  It
    stays defined only because perfbench/test_perfbench.py imports it;
    ROADMAP item 8 deletes it once the benchmark stops doing so."""


class ParityError(FloqlabError):
    """Two windings that must share a parity do not: the frame windings of
    gap_invariants, or the slope sum of one quench frame (an unpaired
    inversion point)."""


class NoBisError(FloqlabError):
    """No band-inversion momentum was detected in the polarization trace."""


class AmbiguousSlopeError(FloqlabError):
    """Polarization slope at a candidate inversion point is outside the
    trusted magnitude window."""


class BulkGapError(FloqlabError):
    """Bulk quasienergy gap is too small to classify edge modes."""
