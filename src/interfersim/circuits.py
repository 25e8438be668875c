"""Circuit model for N-path interferometric experiments.

A circuit is a fixed number of paths plus an ordered list of layers. Each
layer is a parallel arrangement of gates: phase shifters and detectors sit on
single paths, beam splitters join two distinct paths, and every path not
covered by a gate evolves freely. A layer is its gates: building a circuit
checks that each gate's paths are in range and that no two gates of a layer
share a path, and keeps nothing else per layer.

Circuits are plain immutable data with two serialisations:

- a line-oriented text format (``.circ``)::

      paths 2
      layer BS 1 2 R=0.5
      layer S 1 w=1.5708
      layer BS 1 2 R=0.5
      layer D 1 | D 2

- a JSON mirror with the same schema:
  ``{"paths": N, "layers": [[{"gate": "BS", "args": {...}}, ...], ...]}``.

Path indices are one-based in both external formats and zero-based in the
Python API.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union


class CircuitError(ValueError):
    """Invalid circuit structure."""


# The most paths a circuit may have. A layer keeps only its gates, but the
# engines hold width-sized arrays (a field per path, and in the ensemble a
# move table per splitter), so without a cap a one-line header could ask
# for any amount of memory.
MAX_PATHS = 4096


class PathCapError(Exception):
    """A circuit wider than :data:`MAX_PATHS`: a resource cap, not a fault
    of the circuit's structure."""

    def __init__(self, width: int):
        super().__init__(f"{width} paths exceed the cap of {MAX_PATHS} "
                         f"per circuit")


class LayerConflictError(CircuitError):
    """Two gates of one layer claim the same path."""

    def __init__(self, path: int, message: str | None = None):
        self.path = path
        super().__init__(message or f"path {path + 1} appears in more than one gate of the layer")


class ParseError(CircuitError):
    """Syntax or validation error in circuit text, with source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class PhaseShifter:
    """Phase rotation by ``omega`` radians on a single path. ``cos_w`` and
    ``sin_w``, set at construction outside the fields (so equality, hash,
    repr and both formats ignore them), hold ``math.cos(omega)`` and
    ``math.sin(omega)`` for the engines."""

    path: int
    omega: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise CircuitError(f"phase {self.omega!r} is not finite")
        object.__setattr__(self, "cos_w", math.cos(self.omega))
        object.__setattr__(self, "sin_w", math.sin(self.omega))


@dataclass(frozen=True)
class BeamSplitter:
    """Two-path coupler with reflectivity ``R`` and transmissivity ``1 - R``.
    ``root_r`` and ``root_t``, set like a phase shifter's constants, hold
    ``math.sqrt(R)`` and ``math.sqrt(1 - R)``."""

    s: int
    t: int
    reflectivity: float

    def __post_init__(self):
        if self.s == self.t:
            raise CircuitError("beam splitter requires two distinct paths")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise CircuitError(f"reflectivity {self.reflectivity!r} outside [0, 1]")
        object.__setattr__(self, "root_r", math.sqrt(self.reflectivity))
        object.__setattr__(self, "root_t", math.sqrt(1.0 - self.reflectivity))


@dataclass(frozen=True)
class Detector:
    """Presence detector on a single path (Click / NoClick)."""

    path: int


Gate = Union[PhaseShifter, BeamSplitter, Detector]


def check_path(path: int, width: int) -> None:
    """Raise :class:`IndexError` unless ``path`` is a zero-based index below
    ``width``."""
    if not 0 <= path < width:
        raise IndexError(f"path {path} out of range for width {width}")


class GateFormat(NamedTuple):
    """How one gate type is written in both external formats: its name, the
    attributes holding its paths (also their JSON keys) and its real
    parameter, in constructor order, the parameter's ``.circ`` and JSON
    keys, and the ``.circ`` usage text."""

    name: str
    paths: tuple[str, ...]
    param: str | None = None
    circ_key: str | None = None
    json_key: str | None = None
    usage: str = ""


GATE_FORMATS: dict[type, GateFormat] = {
    BeamSplitter: GateFormat("BS", ("s", "t"), "reflectivity", "R", "R",
                             "BS takes two path indices and R=<value>"),
    PhaseShifter: GateFormat("S", ("path",), "omega", "w", "omega",
                             "S takes one path index and w=<value>"),
    Detector: GateFormat("D", ("path",), usage="D takes one path index"),
}
_GATE_TYPES = {fmt.name: gate_type for gate_type, fmt in GATE_FORMATS.items()}


def gate_paths(gate: Gate) -> tuple[int, ...]:
    """Paths a gate acts on."""
    return tuple([getattr(gate, attr) for attr in GATE_FORMATS[type(gate)].paths])


@dataclass(frozen=True)
class Layer:
    """One parallel configuration of gates."""

    gates: tuple[Gate, ...]

    def __init__(self, gates: Iterable[Gate] = ()):
        object.__setattr__(self, "gates", tuple(gates))

    def detector_paths(self) -> tuple[int, ...]:
        return tuple(g.path for g in self.gates if isinstance(g, Detector))

    @property
    def has_detectors(self) -> bool:
        return any(isinstance(g, Detector) for g in self.gates)


def validate_layer(layer: Layer, width: int) -> None:
    """Check one layer's gates against a circuit width, in time linear in
    the gates.

    Raises :class:`CircuitError` if a path index is out of range and
    :class:`LayerConflictError` (naming the path) if two gates overlap.
    """
    seen: set[int] = set()
    for gate in layer.gates:
        for p in gate_paths(gate):
            if not 0 <= p < width:
                raise CircuitError(
                    f"path {p + 1} out of range for a {width}-path circuit"
                )
            if p in seen:
                raise LayerConflictError(p)
            seen.add(p)


@dataclass(frozen=True)
class Circuit:
    """Validated sequence of layers over ``width`` paths."""

    width: int
    layers: tuple[Layer, ...] = ()
    name: str = ""
    description: str = ""

    def __init__(
        self,
        width: int,
        layers: Iterable[Layer] = (),
        name: str = "",
        description: str = "",
    ):
        if width < 1:
            raise CircuitError(f"circuit width must be positive, got {width}")
        if width > MAX_PATHS:
            raise PathCapError(width)
        layers = tuple(layers)
        for layer in layers:
            validate_layer(layer, width)
        self._fill(width, layers, name, description)

    def _fill(self, width: int, layers: tuple[Layer, ...], name: str,
              description: str) -> "Circuit":
        """Set the fields of a circuit whose layers were validated;
        :func:`parse_circuit` validates each layer as it reads it and
        builds its circuit here."""
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        return self

    @property
    def depth(self) -> int:
        return len(self.layers)

    def detector_layers(self) -> tuple[int, ...]:
        """Indices of layers that contain at least one detector."""
        return tuple(i for i, layer in enumerate(self.layers) if layer.has_detectors)

    def count_gates(self, kind: type) -> int:
        return sum(isinstance(g, kind) for layer in self.layers for g in layer.gates)


# --------------------------------------------------------------------------
# Text format
# --------------------------------------------------------------------------

def _gate_text(gate: Gate) -> str:
    fmt = GATE_FORMATS[type(gate)]
    words = [fmt.name, *(str(p + 1) for p in gate_paths(gate))]
    if fmt.param:  # repr round-trips doubles exactly, in the fewest digits
        words.append(f"{fmt.circ_key}={float(getattr(gate, fmt.param))!r}")
    return " ".join(words)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the ``.circ`` text format.

    ``parse_circuit(serialize_circuit(c))`` reproduces ``c`` exactly,
    including real parameters.
    """
    lines = [f"paths {circuit.width}"]
    if circuit.name:
        lines.append(f"name {circuit.name}")
    if circuit.description:
        lines.append(f"info {circuit.description}")
    for layer in circuit.layers:
        parts = [_gate_text(gate) for gate in layer.gates]
        lines.append(("layer " + " | ".join(parts)) if parts else "layer")
    return "\n".join(lines) + "\n"


def _parse_index(token: str, width: int, lineno: int, col: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected a path index, got {token!r}", lineno, col) from None
    if not 1 <= value <= width:
        raise ParseError(
            f"path index {value} out of range 1..{width}", lineno, col
        )
    return value - 1


def _parse_param(token: str, key: str, lineno: int, col: int) -> float:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(f"expected {prefix}<value>, got {token!r}", lineno, col)
    try:
        return float(token[len(prefix):])
    except ValueError:
        raise ParseError(f"bad number in {token!r}", lineno, col) from None


def _parse_gate(tokens: list[str], width: int, lineno: int, col: int) -> Gate:
    make = _GATE_TYPES.get(tokens[0])
    if make is None:
        raise ParseError(f"unknown gate name {tokens[0]!r}", lineno, col)
    fmt = GATE_FORMATS[make]
    n_paths = len(fmt.paths)
    if len(tokens) != 1 + n_paths + (fmt.param is not None):
        raise ParseError(fmt.usage, lineno, col)
    args = [_parse_index(token, width, lineno, col) for token in tokens[1:1 + n_paths]]
    if fmt.param:
        args.append(_parse_param(tokens[-1], fmt.circ_key, lineno, col))
    try:
        return make(*args)
    except CircuitError as exc:  # parameter checks of the gate constructors
        raise ParseError(str(exc), lineno, col) from None


def parse_circuit(text: str) -> Circuit:
    """Parse ``.circ`` source into a validated :class:`Circuit`.

    ``#`` starts a comment. The header line ``paths N`` is mandatory and
    may be followed by optional ``name``/``info`` lines and any number of
    ``layer`` lines with gates separated by ``|``. Raises
    :class:`ParseError` with line/column diagnostics on any failure, and
    :class:`PathCapError` on a header above :data:`MAX_PATHS`.
    """
    width: int | None = None
    header = {"name": "", "info": ""}
    layers: list[Layer] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        keyword = tokens[0]
        col = line.index(keyword) + 1
        if width is None:
            if keyword != "paths":
                raise ParseError(f"expected 'paths N' header, got {keyword!r}", lineno, col)
            if len(tokens) != 2:
                raise ParseError("header is 'paths N'", lineno, col)
            try:
                width = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad path count {tokens[1]!r}", lineno, col) from None
            if width < 1:
                raise ParseError("path count must be positive", lineno, col)
            if width > MAX_PATHS:
                raise PathCapError(width)
            continue
        body = line.split(None, 1)[1] if len(tokens) > 1 else ""
        if keyword in header:
            header[keyword] = body.strip()
            continue
        if keyword != "layer":
            raise ParseError(f"expected 'layer', got {keyword!r}", lineno, col)
        gates: list[Gate] = []
        offset = line.find(body) if body else col
        for segment in body.split("|") if body.strip() else []:
            seg_tokens = segment.split()
            seg_col = offset + 1
            if not seg_tokens:
                raise ParseError("empty gate between '|' separators", lineno, seg_col)
            gates.append(_parse_gate(seg_tokens, width, lineno, seg_col))
            offset += len(segment) + 1
        layer = Layer(gates)
        try:  # here, so a conflict is reported before any later line's fault
            validate_layer(layer, width)
        except LayerConflictError as exc:
            raise ParseError(str(exc), lineno, col) from None
        layers.append(layer)
    if width is None:
        raise ParseError("missing 'paths N' header", 1)
    return object.__new__(Circuit)._fill(width, tuple(layers), header["name"],
                                         header["info"])


def parse_circuit_file(path) -> Circuit:
    """Load a circuit from a ``.circ`` (text) or ``.json`` (mirror) file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return circuit_from_json(json.loads(text))
    return parse_circuit(text)


# --------------------------------------------------------------------------
# JSON mirror
# --------------------------------------------------------------------------

def circuit_to_json(circuit: Circuit) -> dict:
    """JSON mirror of the text format (one-based paths)."""
    layers = []
    for layer in circuit.layers:
        entry = []
        for gate in layer.gates:
            fmt = GATE_FORMATS[type(gate)]
            args = {attr: getattr(gate, attr) + 1 for attr in fmt.paths}
            if fmt.param:
                args[fmt.json_key] = getattr(gate, fmt.param)
            entry.append({"gate": fmt.name, "args": args})
        layers.append(entry)
    out = {"paths": circuit.width, "layers": layers}
    if circuit.name:
        out["name"] = circuit.name
    if circuit.description:
        out["description"] = circuit.description
    return out


_JSON_KINDS = {"integer": int, "number": (int, float), "string": str}


def _json(value, kind: str, what: str):
    """``value`` when it is a JSON ``kind`` (integer, number or string; a
    boolean is none of them), else a CircuitError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise CircuitError(f"{what} must be a JSON {kind}, not {value!r}")
    return value


def _gate_from_json(raw: dict) -> Gate:
    kind = raw.get("gate")
    make = _GATE_TYPES.get(kind) if isinstance(kind, str) else None
    if make is None:
        raise CircuitError(f"unknown gate name {kind!r} in JSON circuit")
    fmt = GATE_FORMATS[make]
    args = raw.get("args", {})
    values = [_json(args[attr], "integer", "path") - 1 for attr in fmt.paths]
    if fmt.param:
        values.append(float(_json(args[fmt.json_key], "number", fmt.json_key)))
    return make(*values)


def circuit_from_json(obj: dict) -> Circuit:
    """Build a circuit from the JSON mirror schema."""
    try:
        width = _json(obj["paths"], "integer", "paths")
        raw_layers = obj.get("layers", [])
        name = _json(obj.get("name", ""), "string", "name")
        description = _json(obj.get("description", ""), "string", "description")
    except (KeyError, TypeError) as exc:
        raise CircuitError(f"malformed circuit JSON: {exc}") from None
    try:
        layers = [Layer(_gate_from_json(raw) for raw in raw_layer)
                  for raw_layer in raw_layers]
    except CircuitError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CircuitError(f"malformed gate in JSON circuit: {exc!r}") from None
    return Circuit(width, layers, name=name, description=description)
