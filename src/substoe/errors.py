"""Exception hierarchy shared by the whole package.

DomainError covers bad mathematical input (rejected values), CapabilityError
covers honest give-ups when a configured search bound is exhausted, and
InternalError flags broken invariants that indicate a bug upstream.
"""

from fractions import Fraction


class SubstoeError(Exception):
    pass


class DomainError(SubstoeError):
    """Input is outside the domain of the requested operation."""


class DimensionError(DomainError):
    """Shape mismatch: non-square matrix, wrong vector length, and so on."""


class RankError(DomainError):
    """A generating set failed to span the expected space."""


class SeedError(DomainError):
    """A fixed-point seed is not admissible for the substitution."""


class PathError(DomainError):
    """A finite path is inconsistent with its diagram."""


class FieldMismatchError(DomainError):
    """Two number-field values do not live in compatible fields."""


class CapabilityError(SubstoeError):
    """A search exceeded its configured cap; the answer is unknown, not 'no'."""


class InternalError(SubstoeError):
    """An internal consistency check failed; this is a bug, not bad input."""


class MalformedInputError(SubstoeError):
    """An input document could not be parsed against its schema."""


def _require_positive_int(k, what):
    """Refuse k unless it is an int >= 1 (bool excluded)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError("%s must be a positive integer" % what)


def _require_rational(q):
    """Refuse q unless it is an int (bool excluded) or a Fraction."""
    if type(q) not in (int, Fraction):
        raise DomainError("number must be an int or Fraction, got %s"
                          % type(q).__name__)


def _number_text(x):
    """str(x) for an int or Fraction x, with an int past Python's
    int-to-str digit limit shown by its bit length."""
    try:
        return str(x)
    except ValueError:
        if x.denominator != 1:
            return "%s/%s" % tuple(map(_number_text, (x.numerator, x.denominator)))
        return "%s<int of %d bits>" % ("-" * (x < 0), x.numerator.bit_length())
