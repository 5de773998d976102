"""Exception hierarchy shared by all platevac modules, the argument predicates
they share, how an error quotes an argument, and the bases of the records."""

import math
import numbers
import sys


class PlateVacError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PlateVacError, ValueError):
    """Evaluation requested outside an operation's mathematical domain.

    Raised in particular on the plate surfaces (theta in {0, pi}), where
    the regularized sums genuinely diverge.  Returning an infinity there
    would silently poison downstream profiles, so it is an error instead.
    """


class PoleError(PlateVacError, ArithmeticError):
    """A quantity evaluated at a pole, such as the master integral where N - 1
    is a non-positive integer."""


class QuadratureError(PlateVacError, ArithmeticError):
    """An adaptive quadrature failed to converge to the requested accuracy."""


class ConsistencyError(PlateVacError, ArithmeticError):
    """An internal cross-check failed (for instance, a table of exact
    pairs that breaks a proved cancellation)."""


class InvalidConfigError(PlateVacError, ValueError):
    """A runtime configuration violates its declared invariants."""


def _quoted(value) -> str:
    """``repr(value)`` for an error message, a numpy float as a plain float.

    An int too long for Python to write out (past 4300 digits) is quoted by its size.
    """
    try:
        return repr(float(value) if isinstance(value, float) else value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _is_count(value) -> bool:
    """Whether ``value`` is a non-negative integer (a bool is not)."""
    if type(value) is int:  # the common case, without the slow abstract-class check
        return value >= 0
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite number; an int past the double range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require(ok, values, message: str) -> None:
    """DomainError quoting ``values`` unless ``ok``; on arrays, at the first failure.

    Only an array needs numpy, and none exists before numpy is imported.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(ok, np.ndarray):
        if ok.all():
            return
        values = values[ok.argmin()]
    elif ok:
        return
    raise DomainError(message.format(_quoted(values)))


class _Record:
    """Value equality and the repr ``Name(field=value, ...)`` over the fields, ``vars(self)``.

    A subclass's ``__init__`` sets each field, in order; whatever else is
    stored on an instance counts as a field too.  Unhashable, since it
    defines ``__eq__`` alone.
    """

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


# How a frozen record's __init__ stores each field.
_set_field = object.__setattr__


class _FrozenRecord(_Record):
    """A hashable :class:`_Record` whose fields cannot be assigned or deleted."""

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
