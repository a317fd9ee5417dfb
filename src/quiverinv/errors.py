"""Error taxonomy shared by the library and the command line front end.

Every anticipated failure is one of four kinds, each with a fixed process
exit code so scripted callers can dispatch on it:

* ``InputError`` (2): malformed input; bad text, bad vector length, unknown id.
* ``PreconditionError`` (3): well-formed input outside an operation's domain,
  e.g. asking for the null root of a wild quiver.
* ``BudgetError`` (4): an enumeration exceeded its size bound.  The message
  names the bound that failed.
* ``InvariantError`` (5): an internal consistency check failed.  These are
  bug sentinels and should never fire.

Integral input goes through one rule, ``as_int``: a value is accepted when
``int`` takes it and gives back an equal number; anything else is an
``InputError``, never a truncation.  Every enumeration bound a caller
passes in (a budget, a box limit) goes through ``as_budget``: ``as_int``,
then ``InputError`` when negative.  Only a bound that passes can raise
``BudgetError``.
"""


class QuiverInvError(Exception):
    """Base class for all anticipated errors."""

    exit_code = 1


class InputError(QuiverInvError, ValueError):
    exit_code = 2


class PreconditionError(QuiverInvError, ValueError):
    exit_code = 3


class BudgetError(QuiverInvError, RuntimeError):
    exit_code = 4

    def __init__(self, what, bound):
        super().__init__(f"enumeration budget exceeded: {what} > {bound}")
        self.what = what
        self.bound = bound


class InvariantError(QuiverInvError, AssertionError):
    exit_code = 5


def as_int(x, what):
    """``x`` as an int when it is integral (``2``, ``2.0`` and
    ``Fraction(4, 2)`` all give ``2``).  A fractional entry, or anything
    ``int`` cannot take or would parse (``'3'``, ``None``), raises
    ``InputError`` naming ``what`` instead of being truncated."""
    if type(x) is int:
        return x
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise InputError(f"{what} {x!r} is not an integer")
    return i


def as_budget(x, what="budget"):
    """``x`` as a nonnegative int, by ``as_int``; a negative bound raises
    ``InputError`` naming ``what``."""
    x = as_int(x, what)
    if x < 0:
        raise InputError(f"{what} must be nonnegative")
    return x
