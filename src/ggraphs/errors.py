"""Exception hierarchy shared by every module in the package, the one
search budget policy of the tau search and the necessary test, and the one
rule for an integer read from JSON."""

from __future__ import annotations

import operator
import os

# the default node budget of both searches
DEFAULT_BUDGET = 10_000_000


class GGraphError(Exception):
    """Base class for all package errors."""


class ParseError(GGraphError):
    """Malformed group spec, element spec, or serialized object."""


class NotAGroup(GGraphError):
    """A multiplication table failed the group axioms."""


class PreconditionFailed(GGraphError):
    """An operation was called on data outside its stated domain."""


class CapExceeded(GGraphError):
    """A size cap (closure size, isomorphism problem size) was exceeded."""


class BudgetExceeded(GGraphError):
    """A search ran out of node budget before reaching a decision.

    Carries the partial results found so far, when any; a budget stop is
    always reported as inconclusive, never as a negative decision.
    """

    def __init__(self, message: str, partial=None, nodes: int = 0):
        super().__init__(message)
        self.partial = partial
        self.nodes = nodes


def _index(value, what: str, below: int | None = None) -> int:
    """value as an int by operator.index, so that a count or an element
    given as a float or a string is refused with PreconditionFailed rather
    than truncated.  Integer types such as numpy ints pass.  With below,
    the value must also lie in 0..below-1 (a group element, a vertex id)."""
    try:
        out = operator.index(value)
    except TypeError:
        raise PreconditionFailed("%s must be an integer, got %r" % (what, value)) from None
    if below is not None and not 0 <= out < below:
        raise PreconditionFailed("%s %d out of range" % (what, out))
    return out


def resolve_budget(budget: int | None) -> int:
    """Explicit budget, else $GGRAPH_BUDGET, else DEFAULT_BUDGET.

    A budget that is not an integer, or is negative, is refused with
    ParseError, whichever the source."""
    if budget is not None:
        try:
            value, source = operator.index(budget), "budget"
        except TypeError:
            raise ParseError("budget must be an integer, got %r" % (budget,)) from None
    else:
        env = os.environ.get("GGRAPH_BUDGET", "")
        if not env:
            return DEFAULT_BUDGET
        try:
            value, source = int(env), "GGRAPH_BUDGET"
        except ValueError:
            raise ParseError(
                "GGRAPH_BUDGET must be an integer, got %r" % env
            ) from None
    if value < 0:
        raise ParseError("%s must be >= 0, got %d" % (source, value))
    return value


class WitnessInvalid(GGraphError):
    """A supplied witness is malformed or fails its defining conditions."""


class InternalAssertion(GGraphError):
    """A guaranteed-by-theorem property failed; indicates a bug."""


def _json_int(value, what: str) -> int:
    """The one rule for an integer read from JSON: an int that is no bool,
    or a float with an integral value (json reads 2.0 and 1e3 as floats).
    Anything else, a fractional float, inf, nan or a numeric string
    included, raises ParseError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError("%s must be an integer, got %r" % (what, value))
