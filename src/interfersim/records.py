"""Detector outcome records.

A record lists, for every layer that contains detectors, either the path
whose detector clicked or ``None`` for a joint no-click. A single particle
means at most one click per layer. Records serialise to a canonical string
key, ``"L<layer>:C<path>"`` or ``"L<layer>:N"`` joined by ``";"`` with
one-based layer and path numbers (matching the circuit text format); the
empty record is ``"-"``. This module is the only statement of that format:
a key grows by one :func:`event_suffix` per event and ends in
:func:`record_key`, so the exact enumerator and the ensemble tally key their
tables without an :class:`OutcomeRecord`, which stays a single shot's record.

Post-selection is an agent's update on the records it has seen, so it is
one rule on record-keyed tables (:func:`postselect`), whichever engine
filled them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Mapping, TypeVar

V = TypeVar("V")


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
        return record_key("".join(starmap(event_suffix, self.events)))


def event_token(layer: int, clicked: int | None) -> str:
    """One event's ``L<layer>:C<path>`` / ``L<layer>:N`` token (one-based);
    the inverse of :func:`parse_event_token`."""
    return f"L{layer + 1}:N" if clicked is None else f"L{layer + 1}:C{clicked + 1}"


def event_suffix(layer: int, clicked: int | None) -> str:
    """What one event appends to a key prefix: ``";"`` and its token."""
    return ";" + event_token(layer, clicked)


def record_key(prefix: str) -> str:
    """The key of a record whose events' :func:`event_suffix` strings,
    concatenated in layer order, are ``prefix``."""
    return prefix[1:] or "-"


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


def postselect(table: Mapping[str, V],
               constraints: tuple[tuple[int, int | None], ...]) -> dict[str, V]:
    """The rows of a record-keyed table, in table order, whose key holds the
    token of every ``(layer, result)`` constraint. A full record has one
    token per detector layer, so this keeps exactly the records that show
    every constrained result."""
    wanted = {event_token(*c) for c in constraints}
    return {key: value for key, value in table.items()
            if wanted.issubset(key.split(";"))}
