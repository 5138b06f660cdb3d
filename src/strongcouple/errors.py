"""Exception hierarchy of the library, and the conversion of outside numbers.

Two failure families matter downstream: bad inputs (rejected before any
numerics run) and numerical invariant violations (detected while running).
The command line tool maps them to distinct exit codes. Each number a
public function takes is converted by :func:`_as_float`,
:func:`_as_array` or :func:`_as_count`, which refuse text, ``"0.5"``,
``["0.5"]``, booleans, ``[True, 0.5]`` and an object array holding text
or a boolean too, and turn what Python or numpy raise on ``None``, a
ragged list or an integer beyond the float range into an
:class:`InputError` naming the argument. The gates and state checks
that hold values to an upper bound raise through :func:`_gate`, one
rule under which a NaN fails.
"""

import numpy as np


class StrongcoupleError(Exception):
    """Base class for all library errors."""


class InputError(StrongcoupleError, ValueError):
    """Invalid argument, configuration field, or malformed input file."""


class NumericalError(StrongcoupleError, RuntimeError):
    """A numerical invariant failed at runtime."""


class TrackingError(NumericalError):
    """Eigenbranch continuity could not be established along a trajectory."""


def _gate(values, bound, message, error=NumericalError) -> None:
    """Raise ``error(message(i))`` unless every entry of ``values``, an
    array or a scalar, is at most ``bound``.

    ``i`` is the flat index of the worst entry. ``np.argmax`` returns the
    first NaN, so a NaN entry fails the gate and is the one named. The
    comparison is the ufunc, whose result has an ``all`` method for a
    Python float too, and costs less than ``np.all``'s wrapper.
    """
    if not np.less_equal(values, bound).all():
        raise error(message(int(np.argmax(values))))


def _refuse_text(value) -> None:
    """Raise ``TypeError`` if numpy reads ``value`` as text or booleans,
    or as an object array that holds either.

    numpy reads ``[True, 0.5]`` as floats, so a list or tuple is read as
    an object array, whose elements keep their types; an array is judged
    by its dtype.
    """
    a = np.asarray(value, dtype=object if isinstance(value, (list, tuple))
                   else None)
    if a.dtype.kind in "SU" or (a.dtype.kind == "O" and any(
            isinstance(x, (str, bytes)) for x in a.flat)):
        raise TypeError("text is not a number")
    if a.dtype.kind == "b" or (a.dtype.kind == "O" and any(
            isinstance(x, (bool, np.bool_)) for x in a.flat)):
        raise TypeError("a boolean is not a number")


def _as_float(value, name: str) -> float:
    """``value`` as a float, or an :class:`InputError` naming ``name``.

    Text and booleans are refused rather than parsed, and an integer
    beyond the float range is refused rather than left to overflow later.
    A value whose type is exactly ``float`` is returned as it is.
    """
    if type(value) is float:
        return value
    try:
        _refuse_text(value)
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{name} must be a real number in the float "
                         f"range: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a real number, got "
                         f"{type(value).__name__}") from exc


def _as_array(value, what: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``; an InputError names ``what``.

    Text and booleans are refused, inside a list or an array built with
    ``dtype=object`` too; any other object array is converted as numpy
    converts it.
    """
    try:
        _refuse_text(value)
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"expected a numeric array of {what}: {exc}") from exc


def _as_count(value, name: str, minimum: int) -> int:
    """``value``, through :func:`_as_float`, as an integer of at least
    ``minimum``; ``10.0`` is an integer, NaN and inf are not."""
    count = _as_float(value, name)
    if not (count.is_integer() and count >= minimum):
        raise InputError(
            f"{name} must be an integer >= {minimum}, got {value}")
    return int(count)
