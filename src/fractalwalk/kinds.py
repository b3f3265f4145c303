"""The lattice kinds, by name.

Kept apart from ``lattice`` so that the command-line parser can offer the
kind names without loading numpy.
"""

from __future__ import annotations

from enum import Enum

from .errors import BoundsError


class LatticeKind(str, Enum):
    SG = "sg"
    SC = "sc"
    DSC = "dsc"
    TRIANGLE = "triangle"
    SQUARE = "square"

    @classmethod
    def parse(cls, name: str) -> "LatticeKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise BoundsError(
                f"unknown lattice kind {name!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None
