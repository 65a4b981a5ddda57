"""Exception hierarchy shared by all modules, and the JSON number check."""

from fractions import Fraction


def json_number(x, field, rational=False):
    """x read from a JSON document: a JSON integer as an int or, when
    `rational`, a JSON integer or a "p/q" string as a Fraction.  Floats and
    bools are refused, not truncated: a ValueError names the field."""
    if type(x) is int:
        return Fraction(x) if rational else x
    if rational and isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("%s %r is not a rational number (%s)" % (field, x, exc)) from exc
    kind = "an integer or a rational string" if rational else "an integer"
    raise ValueError("%s %r is not %s" % (field, x, kind))


class MotiveSeriesError(Exception):
    """Base class for all library errors."""


class InvalidInput(MotiveSeriesError):
    """Malformed or out-of-contract input (bad schema, bad argument)."""


class UndefinedValuation(InvalidInput):
    """Valuation of the zero function requested."""


class NonconvergentFactor(InvalidInput):
    """A denominator factor with exponent vector 0 cannot be expanded."""


class NotUnimodular(MotiveSeriesError):
    """A given M is not -A^{-1}: A M = -I fails, or M has the wrong shape."""


class NotBlowupGraph(MotiveSeriesError):
    """No point blow-ups of (C^2, 0) give the graph: it does not blow down
    to a point, or its M is not entrywise positive and symmetric."""


class InternalInconsistency(MotiveSeriesError):
    """A half-integer appeared where an integer was certified; input corrupt."""


class PrecisionExhausted(MotiveSeriesError):
    """Jet order or blow-up step budget exceeded without stabilisation."""


class NonreducedInput(InvalidInput):
    """Two identical branches supplied to the resolution engine."""


class CenterNotFound(InvalidInput):
    """Blow-up center refers to a component/corner that does not exist."""


class CornerAmbiguous(InvalidInput):
    """Blow-up center designates a point lying on two components."""


class OutsideWindow(MotiveSeriesError):
    """A series coefficient was requested outside its exactly-known region."""


class VerificationFailure(MotiveSeriesError):
    """A cross-validation check found a mismatching coefficient."""
