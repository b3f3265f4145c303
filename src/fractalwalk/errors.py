"""Exception hierarchy shared across the package.

Each class carries the CLI exit code it maps to as ``exit_code`` (a
subclass inherits its parent's unless it sets its own), so library code
should raise the most specific type that applies.
"""

from __future__ import annotations

import math


class FractalwalkError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputFileError(FractalwalkError):
    """A file is missing, unreadable, or does not match the expected schema."""

    exit_code = 3


class ShapeError(FractalwalkError):
    """Array dimensions of two inputs do not agree."""

    exit_code = 4


class DomainError(FractalwalkError):
    """A parameter value is outside its allowed domain."""

    exit_code = 5


def check_finite(**params: float) -> None:
    """DomainError naming the first of ``params`` that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


class BoundsError(DomainError):
    """An index or generation number is out of range."""


class StructuralError(FractalwalkError):
    """The input object lacks structure an operation requires.

    Example: asking for void landmarks on a regular lattice that has none.
    """

    exit_code = 6


class NumericalError(FractalwalkError):
    """A numerical routine failed to converge or violated its tolerance."""

    exit_code = 7


class NotFoundError(FractalwalkError):
    """A requested event or anchor is absent from the data.

    Detection routines signal absence by returning None; this exception is
    reserved for contexts (such as the CLI) where absence cannot be encoded
    in the result.
    """

    exit_code = 8
