"""Detector outcome records.

A record lists, for every layer that contains detectors, either the path
whose detector clicked or ``None`` for a joint no-click. A single particle
means at most one click per layer. Records serialise to a canonical string
key, ``"L<layer>:C<path>"`` or ``"L<layer>:N"`` joined by ``";"`` with
one-based layer and path numbers (matching the circuit text format); the
empty record is ``"-"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap


@dataclass(frozen=True)
class OutcomeRecord:
    """Ordered detector results: ``(layer index, clicked path or None)``."""

    events: tuple[tuple[int, int | None], ...] = ()

    def __post_init__(self):
        last = -1
        for layer, _ in self.events:
            if layer <= last:
                raise ValueError("record events must have strictly increasing layers")
            last = layer

    @property
    def key(self) -> str:
        return ";".join(starmap(event_token, self.events)) or "-"

    def result_for_layer(self, layer: int) -> int | None:
        """Clicked path at ``layer`` (None for no click). Raises KeyError if
        the layer recorded no detector event."""
        for recorded, clicked in self.events:
            if recorded == layer:
                return clicked
        raise KeyError(f"no detector event recorded for layer {layer}")

    def has_layer(self, layer: int) -> bool:
        return any(recorded == layer for recorded, _ in self.events)

    def matches(self, constraints: tuple[tuple[int, int | None], ...]) -> bool:
        """True when every ``(layer, result)`` constraint equals the recorded
        result at that layer."""
        for layer, wanted in constraints:
            if not self.has_layer(layer):
                return False
            if self.result_for_layer(layer) != wanted:
                return False
        return True


def event_token(layer: int, clicked: int | None) -> str:
    """One event's ``L<layer>:C<path>`` / ``L<layer>:N`` token (one-based);
    the inverse of :func:`parse_event_token`."""
    return f"L{layer + 1}:N" if clicked is None else f"L{layer + 1}:C{clicked + 1}"


def parse_event_token(token: str) -> tuple[int, int | None]:
    """Parse one ``L<layer>:C<path>`` / ``L<layer>:N`` token (one-based)."""
    try:
        head, tail = token.split(":")
        if not head.startswith("L"):
            raise ValueError
        layer = int(head[1:]) - 1
        if tail == "N":
            return (layer, None)
        if not tail.startswith("C"):
            raise ValueError
        return (layer, int(tail[1:]) - 1)
    except ValueError:
        raise ValueError(f"bad outcome token {token!r}") from None
