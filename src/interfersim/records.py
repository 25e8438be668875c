"""Detector outcome records.

A record lists, for every layer that contains detectors, either the path
whose detector clicked or a joint no-click. A single particle means at most
one click per layer. Every engine returns a shot's record as its canonical
string key, and every table, report, post-selection and test compares keys:
``"L<layer>:C<path>"`` or ``"L<layer>:N"`` tokens joined by ``";"`` with
one-based layer and path numbers (matching the circuit text format); the
empty record is ``"-"``. This module is the only statement of that format:
a key grows by one :func:`event_suffix` per detector layer, in layer order,
and ends in :func:`record_key`; :func:`key_tokens` splits it back.

Post-selection is an agent's update on the records it has seen, so it is
one rule on record-keyed tables (:func:`postselect`), whichever engine
filled them.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

V = TypeVar("V")
TOKEN_METAVAR = "L<k>:N|C<j>"  # the token syntax as the command line shows it


def event_suffix(layer: int, clicked: int | None) -> str:
    """What one event appends to a key prefix: ``";"`` and its token."""
    return f";L{layer + 1}:N" if clicked is None else f";L{layer + 1}:C{clicked + 1}"


def event_token(layer: int, clicked: int | None) -> str:
    """One event's ``L<layer>:C<path>`` / ``L<layer>:N`` token (one-based);
    the inverse of :func:`parse_event_token`."""
    return event_suffix(layer, clicked)[1:]


def record_key(prefix: str) -> str:
    """The key of a record whose events' :func:`event_suffix` strings,
    concatenated in layer order, are ``prefix``."""
    return prefix[1:] or "-"


def key_tokens(key: str) -> list[str]:
    """The tokens of a key, in layer order; each is the key of its event's
    one-event record (:func:`record_key` of its :func:`event_suffix`)."""
    return [] if key == "-" else key.split(";")


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
