"""Exception types shared across the package, and the one price ScaleError guards."""

from typing import Sequence

DEFAULT_BUDGET = 10**8  # estimated vertex visits a command may run before ScaleError


def _square_sum(orders: Sequence[int]) -> int:
    """Sum of n^2 over `orders`; a range in closed form, as it may be too long to walk."""
    if isinstance(orders, range):
        upto = lambda m: m * (m + 1) * (2 * m + 1) // 6  # 1^2 + ... + m^2
        return upto(orders[-1]) - upto(orders[0] - 1) if orders else 0
    return sum(n * n for n in orders)


def _guard(graphs: int, orders: Sequence[int], budget: int) -> None:
    """Refuse `graphs` graphs, each measured at every order in `orders`,
    past `budget`.  The price, graphs x sum of n^2 vertex visits, is iFUB's
    worst case (one BFS sweep per vertex), an upper bound on the work; an
    estimate past 2^64 is reported as a power-of-two lower bound."""
    visits = graphs * _square_sum(orders)
    if visits > budget:
        size = visits if visits < 1 << 64 else f"over 2^{visits.bit_length() - 1}"
        raise ScaleError(f"estimate {size} vertex-visits exceeds budget {budget}")


def _guard_exponent(e: int, budget: int) -> None:
    """Refuse an order of at least 2^e before it is formed: it costs at least
    4^e vertex visits.  Below 2^64 the price is cheap to form, and `_guard`
    reports it exactly."""
    if 2 * e >= max(budget.bit_length(), 64):
        raise ScaleError(f"estimate over 2^{2 * e} vertex-visits exceeds budget {budget}")


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
