"""Exception types shared across the lfk modules."""


class LfkError(Exception):
    """Base class for all lfk-specific errors."""


# -- laurent ----------------------------------------------------------------

class CosetMismatch(LfkError):
    """Adding polynomials whose exponents lie on different cosets of Z."""


class NotDivisible(LfkError):
    """An exact Laurent quotient was requested but none exists."""


# -- cubes ------------------------------------------------------------------

class IncompleteLabels(LfkError, ValueError):
    """A cube's edge labels or vertex gradings are missing; a usage error."""


class InvalidLabeling(LfkError):
    """Edge labels violate path-sum consistency on some square face."""


class DimensionUnsupported(LfkError):
    """Corner homology is not determined by edge labels in this dimension."""


class OddGrading(LfkError, ValueError):
    """Origin gradings must be even; a usage error."""


class TruncationUnstable(LfkError):
    """Truncated homology failed to vanish at the window boundary."""


# -- lspace -----------------------------------------------------------------

class CosetViolation(LfkError):
    """Polynomial exponents are inconsistent with the linking-number lattice."""


class RegionUnstable(LfkError):
    """Values on the evaluation box boundary did not stabilize."""


# -- floer ------------------------------------------------------------------

class NotLSpaceLink(LfkError):
    """The lattice graph construction is obstructed; the input cannot be an
    L-space link."""


class HypothesisNotMet(LfkError):
    """The vanishing hypothesis for the hat-flavor identification fails."""

    def __init__(self, offset, message=None):
        self.offset = tuple(offset)
        super().__init__(message or f"vanishing fails at offset {self.offset}")
