"""Exception hierarchy of all growthdyn modules, and the number and array rules.

The split mirrors how the CLI reports failures: bad inputs or parameters
(ValidationError), solver breakdowns (NumericalError), and anything wrong
with reading or writing data files (DataIOError).
"""
import functools
import inspect
import math
import numbers
import typing

import numpy as np


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


def check_array(name, values, shape=None, finite=True):
    """values as a float64 array (a float64 array as given, without a copy)
    of the given shape (a None entry matches any length), all finite unless
    finite is False; bool, complex, string and non-real object values (None
    reads as NaN), another shape or a non-finite value raise ValidationError."""
    arr = values
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64):
        try:
            arr = np.asarray(values)
            if arr.dtype.kind not in "fiuO" or arr.dtype.kind == "O" and not all(
                    v is None or isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in arr.flat):
                raise TypeError(f"dtype {arr.dtype}")
            arr = arr.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{name} must be an array of reals: {exc}") from None
    if shape is not None and arr.shape != shape and (arr.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise ValidationError(f"{name} must have shape {str(shape).replace('None', 'n')}, "
                              f"got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name} must hold finite values only")
    return arr


@functools.cache
def _number_fields(source):
    """(name, label, kind, default) of each float or int parameter of a record
    class or function; default is inspect.Parameter.empty where there is none."""
    hints = typing.get_type_hints(source)
    return tuple((p.name, f"{source.__name__}.{p.name}", hints[p.name], p.default)
                 for p in inspect.signature(source).parameters.values()
                 if hints.get(p.name) in (float, int))


def check_record(record, positive=(), non_negative=()):
    """check_number on each float and int field of a frozen dataclass, > 0 if
    named positive and >= 0 if non_negative; stores the number it returns."""
    for name, label, kind, _ in _number_fields(type(record)):
        sign = ">" if name in positive else ">=" if name in non_negative else ""
        object.__setattr__(record, name, check_number(label, getattr(record, name), kind, sign))
