"""Circuit model for N-path interferometric experiments.

A circuit is a fixed number of paths plus an ordered list of layers. Each
layer is a parallel arrangement of gates: phase shifters and detectors sit on
single paths, beam splitters join two distinct paths, and every path not
covered by a gate evolves freely. A layer therefore induces a partition of
the path set into free paths, detector paths, shifter paths and splitter
pairs, which is validated when the circuit is built.

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
from typing import Iterable, Union


class CircuitError(ValueError):
    """Invalid circuit structure."""


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
    """Phase rotation by ``omega`` radians on a single path."""

    path: int
    omega: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise CircuitError(f"phase {self.omega!r} is not finite")


@dataclass(frozen=True)
class BeamSplitter:
    """Two-path coupler with reflectivity ``R`` and transmissivity ``1 - R``."""

    s: int
    t: int
    reflectivity: float

    def __post_init__(self):
        if self.s == self.t:
            raise CircuitError("beam splitter requires two distinct paths")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise CircuitError(f"reflectivity {self.reflectivity!r} outside [0, 1]")

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.reflectivity


@dataclass(frozen=True)
class Detector:
    """Presence detector on a single path (Click / NoClick)."""

    path: int


Gate = Union[PhaseShifter, BeamSplitter, Detector]


def gate_paths(gate: Gate) -> tuple[int, ...]:
    """Paths a gate acts on."""
    if isinstance(gate, BeamSplitter):
        return (gate.s, gate.t)
    return (gate.path,)


@dataclass(frozen=True)
class Partition:
    """Disjoint-exhaustive split of ``{0..N-1}`` induced by one layer."""

    free: frozenset[int]
    detectors: frozenset[int]
    shifters: frozenset[int]
    splitter_pairs: frozenset[tuple[int, int]]


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


def validate_layer(layer: Layer, width: int) -> Partition:
    """Check one layer against a circuit width and return its path partition.

    Raises :class:`CircuitError` if a path index is out of range and
    :class:`LayerConflictError` (naming the path) if two gates overlap.
    Free paths are computed as the complement of all gate paths.
    """
    detectors: set[int] = set()
    shifters: set[int] = set()
    pairs: set[tuple[int, int]] = set()
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
        if isinstance(gate, Detector):
            detectors.add(gate.path)
        elif isinstance(gate, PhaseShifter):
            shifters.add(gate.path)
        else:
            pairs.add((gate.s, gate.t))
    free = frozenset(range(width)) - seen
    return Partition(free, frozenset(detectors), frozenset(shifters), frozenset(pairs))


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
        layers = tuple(layers)
        for layer in layers:
            validate_layer(layer, width)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def partitions(self) -> tuple[Partition, ...]:
        return tuple(validate_layer(layer, self.width) for layer in self.layers)

    def detector_layers(self) -> tuple[int, ...]:
        """Indices of layers that contain at least one detector."""
        return tuple(i for i, layer in enumerate(self.layers) if layer.has_detectors)

    def count_gates(self, kind: type) -> int:
        return sum(isinstance(g, kind) for layer in self.layers for g in layer.gates)


def structurally_equal(a: Circuit, b: Circuit, tol: float = 1e-12) -> bool:
    """Structural equality with real gate parameters compared within ``tol``."""
    if a.width != b.width or a.depth != b.depth:
        return False
    if (a.name, a.description) != (b.name, b.description):
        return False
    for la, lb in zip(a.layers, b.layers):
        if len(la.gates) != len(lb.gates):
            return False
        for ga, gb in zip(la.gates, lb.gates):
            if type(ga) is not type(gb):
                return False
            if isinstance(ga, PhaseShifter):
                if ga.path != gb.path or abs(ga.omega - gb.omega) > tol:
                    return False
            elif isinstance(ga, BeamSplitter):
                if (ga.s, ga.t) != (gb.s, gb.t):
                    return False
                if abs(ga.reflectivity - gb.reflectivity) > tol:
                    return False
            else:
                if ga.path != gb.path:
                    return False
    return True


# --------------------------------------------------------------------------
# Text format
# --------------------------------------------------------------------------

def _format_float(x: float) -> str:
    # repr round-trips doubles exactly and never prints fewer significant
    # digits than the value needs.
    return repr(float(x))


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
        parts = []
        for gate in layer.gates:
            if isinstance(gate, BeamSplitter):
                parts.append(
                    f"BS {gate.s + 1} {gate.t + 1} R={_format_float(gate.reflectivity)}"
                )
            elif isinstance(gate, PhaseShifter):
                parts.append(f"S {gate.path + 1} w={_format_float(gate.omega)}")
            else:
                parts.append(f"D {gate.path + 1}")
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


# gate name -> (constructor, number of path indices, parameter key, usage)
_GATE_SYNTAX = {
    "BS": (BeamSplitter, 2, "R", "BS takes two path indices and R=<value>"),
    "S": (PhaseShifter, 1, "w", "S takes one path index and w=<value>"),
    "D": (Detector, 1, None, "D takes one path index"),
}


def _parse_gate(tokens: list[str], width: int, lineno: int, col: int) -> Gate:
    if tokens[0] not in _GATE_SYNTAX:
        raise ParseError(f"unknown gate name {tokens[0]!r}", lineno, col)
    make, n_paths, key, usage = _GATE_SYNTAX[tokens[0]]
    if len(tokens) != 1 + n_paths + (key is not None):
        raise ParseError(usage, lineno, col)
    args = [_parse_index(token, width, lineno, col) for token in tokens[1:1 + n_paths]]
    if key is not None:
        args.append(_parse_param(tokens[-1], key, lineno, col))
    try:
        return make(*args)
    except CircuitError as exc:  # parameter checks of the gate constructors
        raise ParseError(str(exc), lineno, col) from None


def parse_circuit(text: str) -> Circuit:
    """Parse ``.circ`` source into a validated :class:`Circuit`.

    ``#`` starts a comment. The header line ``paths N`` is mandatory and
    may be followed by optional ``name``/``info`` lines and any number of
    ``layer`` lines with gates separated by ``|``. Raises
    :class:`ParseError` with line/column diagnostics on any failure.
    """
    width: int | None = None
    name = ""
    description = ""
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
            continue
        if keyword == "name":
            name = line.split(None, 1)[1].strip() if len(tokens) > 1 else ""
            continue
        if keyword == "info":
            description = line.split(None, 1)[1].strip() if len(tokens) > 1 else ""
            continue
        if keyword != "layer":
            raise ParseError(f"expected 'layer', got {keyword!r}", lineno, col)
        body = line.split(None, 1)[1] if len(tokens) > 1 else ""
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
        try:
            validate_layer(layer, width)
        except LayerConflictError as exc:
            raise ParseError(str(exc), lineno, col) from None
        layers.append(layer)
    if width is None:
        raise ParseError("missing 'paths N' header", 1)
    return Circuit(width, layers, name=name, description=description)


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
            if isinstance(gate, BeamSplitter):
                entry.append({"gate": "BS", "args": {"s": gate.s + 1, "t": gate.t + 1,
                                                     "R": gate.reflectivity}})
            elif isinstance(gate, PhaseShifter):
                entry.append({"gate": "S", "args": {"path": gate.path + 1,
                                                    "omega": gate.omega}})
            else:
                entry.append({"gate": "D", "args": {"path": gate.path + 1}})
        layers.append(entry)
    out = {"paths": circuit.width, "layers": layers}
    if circuit.name:
        out["name"] = circuit.name
    if circuit.description:
        out["description"] = circuit.description
    return out


def _gate_from_json(raw: dict) -> Gate:
    kind = raw.get("gate")
    args = raw.get("args", {})
    if kind == "BS":
        return BeamSplitter(int(args["s"]) - 1, int(args["t"]) - 1, float(args["R"]))
    if kind == "S":
        return PhaseShifter(int(args["path"]) - 1, float(args["omega"]))
    if kind == "D":
        return Detector(int(args["path"]) - 1)
    raise CircuitError(f"unknown gate name {kind!r} in JSON circuit")


def circuit_from_json(obj: dict) -> Circuit:
    """Build a circuit from the JSON mirror schema."""
    try:
        width = int(obj["paths"])
        raw_layers = obj.get("layers", [])
    except (KeyError, TypeError) as exc:
        raise CircuitError(f"malformed circuit JSON: {exc}") from None
    try:
        layers = [Layer(_gate_from_json(raw) for raw in raw_layer)
                  for raw_layer in raw_layers]
    except CircuitError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CircuitError(f"malformed gate in JSON circuit: {exc!r}") from None
    return Circuit(width, layers, name=obj.get("name", ""),
                   description=obj.get("description", ""))
