"""Length calibration: one detected event anchored to a length in mm.

The event times of a run are dimensionless (tau = coupling * t); one
measured propagation length fixes the scale that turns every other event
into a predicted length.  The module needs no numpy, so ``calibrate`` runs
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, check_positive

@dataclass(frozen=True)
class CalibrationConfig:
    """Anchor one detected event to a physical propagation length in mm."""

    anchor_event: str          # "first_void" or "farthest"
    anchor_mm: float

    def __post_init__(self):
        if self.anchor_event not in ("first_void", "farthest"):
            raise DomainError(
                f"anchor_event must be 'first_void' or 'farthest', got {self.anchor_event!r}"
            )
        check_positive(anchor_mm=self.anchor_mm)


@dataclass(frozen=True)
class CalibrationResult:
    """The ``calibration`` block of a report; the field order is its key order."""

    anchor_event: str
    anchor_mm: float
    anchor_tau: float
    scale_mm_per_tau: float
    events_mm: dict[str, float] = field(default_factory=dict)


def calibrate_events(events: dict[str, float], config: CalibrationConfig):
    """Map dimensionless event times to physical mm via one anchored event.

    ``events`` maps event names to taus, as ``RegimeReport.event_taus``
    returns them.  scale_mm_per_tau = anchor_mm / anchor_event_tau; every
    other event is converted to a mm prediction.  Returns None when the
    anchor event was not detected (not-found propagation).  DomainError
    naming the anchor when its tau is not positive, or when the scale or a
    predicted length is not finite (a tiny tau or a huge ``anchor_mm``
    overflows).
    """
    anchor_tau = events.get(config.anchor_event)
    if anchor_tau is None:
        return None
    anchor = f"anchor {config.anchor_event} at tau {anchor_tau:g} = {config.anchor_mm:g} mm"
    if not anchor_tau > 0.0:
        raise DomainError(f"{anchor}: only a positive tau fixes a scale")
    scale = config.anchor_mm / anchor_tau
    events_mm = {name: float(scale * tau) for name, tau in events.items()}
    if not all(map(math.isfinite, [scale, *events_mm.values()])):
        raise DomainError(f"{anchor}: the scale or a predicted length is not finite")
    return CalibrationResult(
        anchor_event=config.anchor_event,
        anchor_mm=float(config.anchor_mm),
        anchor_tau=float(anchor_tau),
        scale_mm_per_tau=float(scale),
        events_mm=events_mm,
    )
