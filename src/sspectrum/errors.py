"""Exception hierarchy shared by all modules, and the JSON document readers.

The CLI maps these onto exit codes: InputError -> 2, PreconditionError
(and subclasses) -> 3, NumericError (and subclasses) -> 4.
"""

import json
from itertools import chain

import numpy as np


class CalculusError(Exception):
    """Base class for all library errors."""


class InputError(CalculusError):
    """Malformed file, schema violation or unusable configuration."""


class PreconditionError(CalculusError):
    """An operation was called outside its stated domain."""


class CommutationError(PreconditionError):
    """Operator components fail the pairwise commutation invariant."""


class IntrinsicError(PreconditionError):
    """A stem required to be intrinsic has non-real coefficients."""


class GeometryError(PreconditionError):
    """Contour geometry violates separation or enclosure requirements."""


class HypothesisError(PreconditionError):
    """Operator violates the hypotheses the requested construction needs."""


class NumericError(CalculusError):
    """Numerical linear algebra failed beyond recovery."""


class SingularMatrixError(NumericError):
    """Gaussian elimination met a pivot below the condition threshold."""

    def __init__(self, message, pivot_index=None, batch_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.batch_index = batch_index


class EigenvalueError(NumericError):
    """The dense eigenvalue iteration did not converge."""


def read_document(path, what: str):
    """The JSON value in the file at path.  Every way the file can fail to
    hold one is an InputError: an unreadable path, bytes that are not
    UTF-8, malformed JSON, a nest too deep to parse, or an integer that
    no float can hold (every numeric field becomes a float or a size)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_float_sized_int)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def read_numbers(value, what: str) -> np.ndarray:
    """A JSON number, or a nest of lists of them, as a float64 array.
    Anything else where a number belongs is an InputError: a bool, a
    string, an object, null, a non-finite value or a ragged nest."""
    level = [value]
    while level:  # one nesting level at a time
        types = set(map(type, level))
        if types <= {int, float}:
            break
        if types != {list}:
            wrong = sorted(t.__name__ for t in types - {int, float, list})
            raise InputError(f"{what} must hold JSON numbers, got "
                             f"{', '.join(wrong) or 'numbers beside lists'}")
        level = list(chain.from_iterable(level))
    try:
        arr = np.array(value, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"{what} is not a regular array of numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def _float_sized_int(text):
    value = int(text)
    float(value)  # OverflowError beyond the float range
    return value
