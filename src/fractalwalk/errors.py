"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code (see cli.py), so library code should
raise the most specific type that applies.
"""

from __future__ import annotations

import math


class FractalwalkError(Exception):
    """Base class for all errors raised by this package."""


class InputFileError(FractalwalkError):
    """A file is missing, unreadable, or does not match the expected schema."""


class ShapeError(FractalwalkError):
    """Array dimensions of two inputs do not agree."""


class DomainError(FractalwalkError):
    """A parameter value is outside its allowed domain."""


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


class NumericalError(FractalwalkError):
    """A numerical routine failed to converge or violated its tolerance."""


class NotFoundError(FractalwalkError):
    """A requested event or anchor is absent from the data.

    Detection routines signal absence by returning None; this exception is
    reserved for contexts (such as the CLI) where absence cannot be encoded
    in the result.
    """
