"""Exception types shared across the package, and the budget ScaleError guards."""

DEFAULT_BUDGET = 10**8  # estimated vertex visits a scan may run before ScaleError


class RiordanError(Exception):
    """Base class for every error this package raises on purpose."""


class PrecisionError(RiordanError):
    """A series was asked about coefficients beyond its known precision."""


class CompositionError(RiordanError):
    """Inner series of a composition has a nonzero constant term."""


class InvertibilityError(RiordanError):
    """Input lacks the invertibility (unit / proper) property an operation needs."""


class LengthError(RiordanError):
    """An A-sequence is too short to determine the requested object."""


class PatternError(RiordanError):
    """An operation restricted to io-decomposable A-sequences got a non-pattern one."""


class UsageError(RiordanError):
    """Argument outside the operation's domain (bad name, bad vertex, bad flag)."""


class ScaleError(RiordanError):
    """Requested computation exceeds the configured desk-scale budget."""


class DisconnectedError(RiordanError):
    """Diameter was requested for a disconnected graph.

    Carries one unreachable vertex pair as evidence.
    """

    def __init__(self, u: int, v: int):
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")
        self.pair = (u, v)


class IoViolationError(RiordanError):
    """The io coloring is improper on this graph.

    Carries an adjacent same-color vertex pair as evidence.
    """

    def __init__(self, u: int, v: int, color: int):
        super().__init__(f"vertices {u} and {v} are adjacent but both have color {color}")
        self.pair = (u, v)
        self.color = color
