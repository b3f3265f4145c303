"""Length calibration: a report's events anchored to a length in mm.

The event times of a run are dimensionless (tau = coupling * t); one
measured propagation length fixes the scale that turns every other event
into a predicted length.  ``calibrate`` reads a report with ``textio``,
takes its events by the report rules (``report_events``), anchors them
(``calibrate_events``) and writes the report back with the result as its
``calibration`` block.  No numpy is needed, so ``calibrate`` runs without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InputFileError, check_positive
from .geometry import FRACTAL_KINDS

#: detected events in report order; a report stores each as ``<name>_tau``
EVENT_NAMES = ("first_void", "l_f", "farthest", "saturation")


@dataclass(frozen=True)
class CalibrationResult:
    """The ``calibration`` block of a report; the field order is its key order."""

    anchor_event: str
    anchor_mm: float
    anchor_tau: float
    scale_mm_per_tau: float
    events_mm: dict[str, float]


def report_events(doc: dict, path: str) -> dict[str, float]:
    """The events a report document holds, by name, as ``RegimeReport.event_taus``
    gives them; ``null`` or a missing ``<name>_tau`` means the event is absent.
    InputFileError unless the document's ``kind`` is a fractal kind (only a
    fractal's walk has the events a report holds), and if a tau is not a
    finite, non-negative number."""
    kind = doc.get("kind")
    if kind not in FRACTAL_KINDS:
        raise InputFileError(f"{path}: kind {kind!r} is not a fractal kind; expected one of "
                             + ", ".join(k.value for k in FRACTAL_KINDS))
    events = {}
    for name in EVENT_NAMES:
        tau = doc.get(f"{name}_tau")
        if tau is None:
            continue
        # a finite JSON number: the comparison is false for NaN and infinity
        # and exact for any int, and a bool is refused
        if not (isinstance(tau, (int, float)) and not isinstance(tau, bool)
                and abs(tau) <= sys.float_info.max):
            raise InputFileError(f"{path}: malformed {name}_tau: {tau!r} is not a finite number")
        events[name] = float(tau)
        if events[name] < 0.0:
            raise InputFileError(f"{path}: {name}_tau must be non-negative, got {tau}")
    return events


def calibrate_events(events: dict[str, float], anchor_event: str, anchor_mm: float):
    """Map dimensionless event times to physical mm via one anchored event.

    ``events`` maps event names to taus, as ``RegimeReport.event_taus``
    and ``report_events`` return them.  scale_mm_per_tau = anchor_mm /
    anchor_event_tau; every other event is converted to a mm prediction.
    DomainError unless ``anchor_event`` is "first_void" or "farthest" and
    ``anchor_mm`` is finite and positive.  Returns None when the anchor
    event was not detected (not-found propagation).  DomainError naming the
    anchor when its tau is not positive, or when the scale or a predicted
    length is not finite (a tiny tau or a huge ``anchor_mm`` overflows).
    """
    if anchor_event not in ("first_void", "farthest"):
        raise DomainError(f"anchor_event must be 'first_void' or 'farthest', got {anchor_event!r}")
    check_positive(anchor_mm=anchor_mm)
    anchor_tau = events.get(anchor_event)
    if anchor_tau is None:
        return None
    anchor = f"anchor {anchor_event} at tau {anchor_tau:g} = {anchor_mm:g} mm"
    if not anchor_tau > 0.0:
        raise DomainError(f"{anchor}: only a positive tau fixes a scale")
    scale = anchor_mm / anchor_tau
    events_mm = {name: float(scale * tau) for name, tau in events.items()}
    if not all(map(math.isfinite, [scale, *events_mm.values()])):
        raise DomainError(f"{anchor}: the scale or a predicted length is not finite")
    return CalibrationResult(
        anchor_event=anchor_event,
        anchor_mm=float(anchor_mm),
        anchor_tau=float(anchor_tau),
        scale_mm_per_tau=float(scale),
        events_mm=events_mm,
    )
