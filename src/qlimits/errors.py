"""Exception hierarchy shared by all qlimits modules.

Every error carries a machine-readable ``kind`` and, where useful, the
offending input, so the CLI can emit structured error objects.
"""

from __future__ import annotations

import math


class QlimitsError(Exception):
    """Base class for all qlimits errors."""

    kind = "error"

    def __init__(self, message: str, offending_input=None):
        super().__init__(message)
        self.offending_input = offending_input


class ParseError(QlimitsError, ValueError):
    """Malformed textual input (durations, schedule files, ...)."""

    kind = "parse"


class UsageError(QlimitsError):
    """A required flag or flag combination is missing (CLI exit code 2)."""

    kind = "usage"


class DomainError(QlimitsError, ValueError):
    """An argument violates a documented precondition."""

    kind = "domain"


# a plain int or float passes on one set lookup; a subclass (bool, numpy's
# float64) takes the isinstance test
_REAL_TYPES = frozenset((int, float))


def checked(name: str, value, lo: float = 0.0, hi: float = math.inf, ends: str = "()"):
    """``value`` if it lies between ``lo`` and ``hi``, else a :class:`DomainError`
    carrying it.  ``ends`` is "()", "(]", "[)" or "[]": a bracket closes its
    end.  Every comparison fails for NaN, so NaN lies in no interval.

    This is the one place that decides whether a numeric argument is in
    range.  The refusal reads "<name> must be finite and > 0" (or ">= 0")
    for (0, inf) and [0, inf), "<name> must be finite" for (-inf, inf), and
    "<name> must lie in (lo, hi]" (with ``ends``) otherwise.  A value that
    is not an ``int`` or a ``float`` (text, None, a complex number, a list,
    an array, a ``Decimal``) reads "<name> must be a real number".
    """
    if type(value) not in _REAL_TYPES and not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a real number", value)
    if ends == "()":
        if lo < value < hi:
            return value
    elif ends == "(]":
        if lo < value <= hi:
            return value
    elif ends == "[)":
        if lo <= value < hi:
            return value
    elif lo <= value <= hi:
        return value
    rule = (_OPEN_ABOVE.get((lo, hi, ends))
            or f"lie in {ends[0]}{_text(lo)}, {_text(hi)}{ends[1]}")
    raise DomainError(f"{name} must {rule}", value)


def checked_int(name: str, value, lo: float, hi: float = math.inf, ends: str = "[)") -> int:
    """:func:`checked` for an argument that must be an ``int``, returned as a
    plain ``int`` (``True`` as 1, so numpy never reads it as a mask); anything
    else is refused as "<name> must be an integer"."""
    if not isinstance(value, int):
        raise DomainError(f"{name} must be an integer", value)
    return int(checked(name, value, lo, hi, ends))


_OPEN_ABOVE = {(-math.inf, math.inf, "()"): "be finite",
               (0.0, math.inf, "()"): "be finite and > 0",
               (0.0, math.inf, "[)"): "be finite and >= 0"}


def _text(bound: float) -> str:
    """A bound as written: 1 for 1.0, 6.283185307179586 for 2 pi."""
    return repr(bound).removesuffix(".0")


class InfeasibleError(QlimitsError):
    """A bound inversion has no solution for the given budget.

    ``floor`` holds the hard lower limit that the budget failed to clear.
    """

    kind = "infeasible"

    def __init__(self, message: str, floor: float, offending_input=None):
        super().__init__(message, offending_input)
        self.floor = floor


def in_double_range(value: float, name: str, offending_input) -> float:
    """A computed quantity; +inf means its true value lies past double
    range, refused as :class:`InfeasibleError` ("the <name> lies past
    double range")."""
    if value == math.inf:
        raise InfeasibleError(f"the {name} lies past double range",
                              math.inf, offending_input)
    return value


def in_positive_double_range(value: float, name: str, offending_input) -> float:
    """:func:`in_double_range` for a quantity that is positive: 0.0 means
    its true value lies below the least double, refused as
    :class:`InfeasibleError` ("the <name> lies below double range", floor
    0.0)."""
    if value == 0.0:
        raise InfeasibleError(f"the {name} lies below double range", 0.0, offending_input)
    return in_double_range(value, name, offending_input)


class CapacityError(QlimitsError):
    """A request exceeds a hard resource guard (memory, bracket, ...)."""

    kind = "capacity"


class ConsistencyError(QlimitsError):
    """An internal numerical invariant was violated (defective propagator)."""

    kind = "internal-consistency"


class ScenarioLookupError(QlimitsError, KeyError):
    """Unknown scenario name."""

    kind = "lookup"

    def __str__(self) -> str:  # the message itself, not KeyError's repr of it
        return self.args[0]
