"""Exception taxonomy. Every failure mode raised by the library lives here."""


class CapaxError(Exception):
    """Base class for all library errors."""


class InvalidSpec(CapaxError, ValueError):
    """Malformed domain input: an unknown backend, kind or curve family, or a
    JSON document of the wrong shape."""


class MixedBackend(CapaxError):
    """Arithmetic attempted between scalars of incompatible backends."""


class BackendOverflow(CapaxError):
    """Exact recursion exceeded the configured depth/denominator safety bound."""


class NonConvex(CapaxError):
    """Region fails the convexity (or convex-function) requirement."""


class NotInQuadrant(CapaxError):
    """Region leaves the closed positive quadrant."""


class AxisContactMissing(CapaxError):
    """Boundary does not meet the axes in segments [0,a] x {0} and {0} x [0,b]."""


class DegenerateEdge(CapaxError, ValueError):
    """An edge vector is zero within the tolerance of its scalars."""


class EmptyDomain(CapaxError):
    """Degenerate region (a point, a segment, or zero area)."""


class NonPositiveHead(CapaxError):
    """Initial polarisation size must be positive."""


class NotNef(CapaxError):
    """A divisor pairs negatively with a boundary curve."""

    def __init__(self, message, curve=None, value=None):
        super().__init__(message)
        self.curve = curve
        self.value = value


class TowerTooLarge(CapaxError):
    """A blowup tower needs more blowups than `tower.MAX_BLOWUPS`, the most
    that the nef search, which recurses once per blowup, takes within
    Python's default limit of 1000 frames."""


class UnknownNode(CapaxError):
    """Blowup centre is not a current boundary node."""


class SearchSpaceEmpty(CapaxError):
    """Capacity enumeration on a non-big polarisation."""


class CeilingExceeded(CapaxError):
    """Enumeration hit its configured search ceiling."""


class BelowThreshold(CapaxError):
    """c_plus evaluated below its validity threshold in k."""


class PruningBoundExceeded(CapaxError):
    """Decomposition infimum scan hit its ceiling before certifying."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class WindowOutOfRange(CapaxError):
    """Requested window extends past the computed series."""


class NotComparable(CapaxError):
    """Obstruction check between domains whose backends cannot be reconciled."""
