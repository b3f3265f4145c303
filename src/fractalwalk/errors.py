"""Exception hierarchy shared across the package, and the checks every
module applies to its parameters.

Each class carries the CLI exit code it maps to as ``exit_code`` (a
subclass inherits its parent's unless it sets its own), so library code
should raise the most specific type that applies.  A rule that more than
one module applies is written once here: a parameter is finite
(``check_finite``) or finite and above zero (``check_positive``), and a
site id lies in range (``check_site``).
"""

from __future__ import annotations

import math


class FractalwalkError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputFileError(FractalwalkError):
    """A file is missing, unreadable, or does not match the expected schema,
    or an output file cannot be written."""

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


def check_positive(**params: float) -> None:
    """DomainError naming the first of ``params`` that is not finite, then
    the first that is not above zero."""
    check_finite(**params)
    for name, value in params.items():
        if not value > 0:
            raise DomainError(f"{name} must be positive, got {value}")


class BoundsError(DomainError):
    """An index or generation number is out of range."""


def check_site(site: int, n: int) -> int:
    """``site`` as an int; BoundsError unless it is a site id of ``n`` sites."""
    if not 0 <= site < n:
        raise BoundsError(f"site id {site} out of range 0..{n - 1}")
    return int(site)


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
