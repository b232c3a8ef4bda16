"""Exception hierarchy shared by all growthdyn modules, and the number rule.

The split mirrors how the CLI reports failures: bad inputs or parameters
(ValidationError), solver breakdowns (NumericalError), and anything wrong
with reading or writing data files (DataIOError).
"""
import functools
import math
import numbers
import typing
from dataclasses import fields


class GrowthDynError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GrowthDynError):
    """Invalid parameters, domains, or preconditions. CLI exit code 2."""


class ParameterError(ValidationError):
    """A parameter violates the number rule or its record's constraints."""


class DomainError(ValidationError):
    """An evaluation point lies outside the operation's domain."""


class LogAxisError(ValidationError):
    """A non-positive value was sent to a logarithmic plot axis."""


class NumericalError(GrowthDynError):
    """A solver failed to produce a usable result. CLI exit code 3."""


class NonConvergenceError(NumericalError):
    """An iteration did not converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class RootNotFoundError(NumericalError):
    """A bracketing root solve found no sign change."""


class StiffnessError(NumericalError):
    """Adaptive step size underflowed; the problem looks stiff."""


class RankDeficiencyError(NumericalError):
    """The data carry no information about one or more parameters."""


class DataIOError(GrowthDynError):
    """Unreadable, malformed, or unwritable data files. CLI exit code 4."""


def check_number(name, value, kind=float, sign=""):
    """value as a Python float (kind float: any finite numbers.Real but bool)
    or int (kind int: any integral one), > 0 for sign ">" and >= 0 for ">=";
    anything else raises ParameterError naming name and value."""
    if type(value) in (float, int) or (isinstance(value, numbers.Real)
                                       and not isinstance(value, bool)):
        try:
            x = float(value)
        except OverflowError:  # an int beyond float64
            x = math.nan
        if (math.isfinite(x) and (kind is float or x.is_integer())
                and (x > 0 if sign == ">" else x >= 0 if sign else True)):
            return x if kind is float else int(value)
    what = "a finite real" if kind is float else "an integer"
    raise ParameterError(f"{name} must be {f'{sign} 0 ({what})' if sign else what}, "
                         f"got {value!r}")


@functools.cache
def _number_fields(cls):
    hints = typing.get_type_hints(cls)  # the hints the CLI types its flags by
    return tuple((f.name, f"{cls.__name__}.{f.name}", hints[f.name]) for f in fields(cls)
                 if hints[f.name] in (float, int))


def check_record(record, positive=(), non_negative=()):
    """check_number on each float and int field of a frozen dataclass, > 0 if
    named positive and >= 0 if non_negative; stores the number it returns."""
    for name, label, kind in _number_fields(type(record)):
        sign = ">" if name in positive else ">=" if name in non_negative else ""
        object.__setattr__(record, name, check_number(label, getattr(record, name), kind, sign))
