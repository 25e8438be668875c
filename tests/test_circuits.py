"""Circuit model, text format and JSON mirror."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import ontic, prepare, quantum

from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    CircuitError,
    Detector,
    Layer,
    LayerConflictError,
    ParseError,
    PhaseShifter,
    circuit_from_json,
    circuit_to_json,
    parse_circuit,
    serialize_circuit,
    structurally_equal,
    validate_layer,
)

MZ_TEXT = (
    "paths 2\n"
    "layer BS 1 2 R=0.5\n"
    "layer S 1 w=1.5708\n"
    "layer BS 1 2 R=0.5\n"
    "layer D 1 | D 2\n"
)


def test_parse_mach_zehnder():
    circuit = parse_circuit(MZ_TEXT)
    assert circuit.width == 2
    assert circuit.depth == 4
    assert circuit.layers[0].gates == (BeamSplitter(0, 1, 0.5),)
    assert circuit.layers[1].gates == (PhaseShifter(0, 1.5708),)
    assert circuit.layers[2].gates == (BeamSplitter(0, 1, 0.5),)
    assert circuit.layers[3].gates == (Detector(0), Detector(1))


def test_parse_single_path_no_layers():
    circuit = parse_circuit("paths 1\n")
    assert circuit.width == 1
    assert circuit.layers == ()


def test_parse_rejects_degenerate_splitter():
    with pytest.raises(ParseError, match="distinct"):
        parse_circuit("paths 2\nlayer BS 1 1 R=0.5")


@pytest.mark.parametrize("text, match", [
    ("paths 2\nlayer XX 1", "unknown gate"),
    ("paths 2\nlayer D 3", "out of range"),
    ("paths 2\nlayer BS 1 2 R=1.5", "outside"),
    ("paths 2\nlayer S 1 w=abc", "bad number"),
    ("layer D 1", "header"),
    ("paths 2\nlayer S 1 w=0.1 | D 1", "more than one gate"),
])
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_circuit(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_circuit("paths 2\n\nlayer D 9")
    assert err.value.line == 3


def test_validate_layer_partition():
    layer = Layer([BeamSplitter(0, 1, 0.5), Detector(2)])
    part = validate_layer(layer, 4)
    assert part.free == frozenset({3})
    assert part.detectors == frozenset({2})
    assert part.shifters == frozenset()
    assert part.splitter_pairs == frozenset({(0, 1)})


def test_validate_empty_layer_is_all_free():
    part = validate_layer(Layer([]), 2)
    assert part.free == frozenset({0, 1})
    assert not part.detectors and not part.shifters and not part.splitter_pairs


def test_validate_overlap_names_path():
    with pytest.raises(LayerConflictError) as err:
        validate_layer(Layer([PhaseShifter(0, 0.3), Detector(0)]), 3)
    assert err.value.path == 0
    assert "path 1" in str(err.value)


def test_partition_covers_everything():
    layer = Layer([BeamSplitter(2, 0, 0.25), PhaseShifter(3, 1.0), Detector(1)])
    part = validate_layer(layer, 5)
    union = set(part.free) | set(part.detectors) | set(part.shifters)
    for s, t in part.splitter_pairs:
        union |= {s, t}
    assert union == set(range(5))


def test_serialize_round_trips_mach_zehnder_text():
    assert serialize_circuit(parse_circuit(MZ_TEXT)) == MZ_TEXT


def test_serialize_empty_circuit():
    assert serialize_circuit(Circuit(1)) == "paths 1\n"


def test_serialize_preserves_pi_exactly():
    circuit = Circuit(2, [Layer([PhaseShifter(0, math.pi)])])
    again = parse_circuit(serialize_circuit(circuit))
    assert again.layers[0].gates[0].omega == math.pi


def test_metadata_round_trip():
    circuit = Circuit(3, [Layer([Detector(1)])], name="probe",
                      description="one detector in the middle path")
    again = parse_circuit(serialize_circuit(circuit))
    assert again.name == "probe"
    assert again.description == "one detector in the middle path"
    assert again == circuit


def test_comments_and_blank_lines_ignored():
    text = "# a probe\npaths 2\n\nlayer D 1  # watch path one\n"
    circuit = parse_circuit(text)
    assert circuit.layers[0].gates == (Detector(0),)


def test_json_mirror_round_trip():
    circuit = parse_circuit(MZ_TEXT)
    obj = circuit_to_json(circuit)
    assert obj["paths"] == 2
    assert obj["layers"][0][0] == {"gate": "BS", "args": {"s": 1, "t": 2, "R": 0.5}}
    assert circuit_from_json(obj) == circuit


def test_json_mirror_rejects_unknown_gate():
    with pytest.raises(CircuitError, match="unknown gate"):
        circuit_from_json({"paths": 2, "layers": [[{"gate": "Q", "args": {}}]]})


def _mz_json(**changes):
    obj = circuit_to_json(parse_circuit(MZ_TEXT))
    obj.update(changes)
    return obj


def _mz_json_gate(layer, **args):
    obj = _mz_json()
    obj["layers"][layer][0]["args"].update(args)
    return obj


@pytest.mark.parametrize("obj", [
    _mz_json(paths=2.7),
    _mz_json(paths=2.0),
    _mz_json(paths=True),
    _mz_json(paths="2"),
    _mz_json_gate(0, s=1.9),
    _mz_json_gate(0, t=True),
    _mz_json_gate(0, R="0.5"),
    _mz_json_gate(1, path="1"),
    _mz_json_gate(1, omega=True),
    _mz_json_gate(3, path=2.0),
    _mz_json(name=7),
    _mz_json(description=["a"]),
], ids=["paths-fraction", "paths-float", "paths-bool", "paths-string",
        "splitter-path-fraction", "splitter-path-bool", "reflectivity-string",
        "phase-path-string", "phase-bool", "detector-path-float",
        "name-number", "description-list"])
def test_json_mirror_requires_json_types(obj):
    with pytest.raises(CircuitError, match="must be a JSON"):
        circuit_from_json(obj)


def test_json_mirror_accepts_integer_numbers():
    obj = _mz_json_gate(1, omega=0)
    obj["layers"][0][0]["args"]["R"] = 1
    circuit = circuit_from_json(obj)
    assert circuit.layers[0].gates[0].reflectivity == 1.0
    assert circuit.layers[1].gates[0].omega == 0.0


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(CircuitError, match="out of range"):
        Circuit(2, [Layer([Detector(2)])])


def test_structurally_equal_tolerance():
    a = Circuit(2, [Layer([PhaseShifter(0, 1.0)])])
    b = Circuit(2, [Layer([PhaseShifter(0, 1.0 + 5e-13)])])
    c = Circuit(2, [Layer([PhaseShifter(0, 1.0 + 5e-9)])])
    assert structurally_equal(a, b)
    assert not structurally_equal(a, c)


@st.composite
def circuits(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    depth = draw(st.integers(min_value=0, max_value=6))
    layers = []
    for _ in range(depth):
        paths = list(range(width))
        draw(st.randoms()).shuffle(paths)
        gates = []
        while paths:
            p = paths.pop()
            kind = draw(st.sampled_from(["free", "D", "S", "BS"]))
            if kind == "D":
                gates.append(Detector(p))
            elif kind == "S":
                gates.append(PhaseShifter(p, draw(st.floats(-10, 10))))
            elif kind == "BS" and paths:
                gates.append(BeamSplitter(p, paths.pop(), draw(st.floats(0, 1))))
        layers.append(Layer(gates))
    return Circuit(width, layers)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_text_round_trip_property(circuit):
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_json_round_trip_property(circuit):
    assert circuit_from_json(circuit_to_json(circuit)) == circuit


def test_partitions_are_kept_outside_the_fields():
    circuit = parse_circuit(MZ_TEXT)
    assert circuit.partitions() is circuit.partitions()
    assert circuit.partitions() == tuple(validate_layer(layer, 2)
                                         for layer in circuit.layers)
    twin = parse_circuit(MZ_TEXT)
    assert circuit == twin and hash(circuit) == hash(twin)
    assert "partition" not in repr(circuit).lower()


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_partition_property(circuit):
    for part in circuit.partitions():
        blocks = [set(part.free), set(part.detectors), set(part.shifters)]
        for s, t in part.splitter_pairs:
            blocks.append({s, t})
        union = set()
        for block in blocks:
            assert not (union & block)
            union |= block
        assert union == set(range(circuit.width))


WIDTH = 3
PATH_ENTRIES = {
    "gate_free": lambda p: ontic.gate_free(_ontic_state(), p),
    "gate_phase": lambda p: ontic.gate_phase(_ontic_state(), p, 0.5),
    "gate_detector": lambda p: ontic.gate_detector(_ontic_state(), p),
    "gate_beamsplitter": lambda p: ontic.gate_beamsplitter(
        _ontic_state(), p, 1, 0.5, np.random.default_rng(0)),
    "QuantumState.basis": lambda p: quantum.QuantumState.basis(p, WIDTH),
    "source_prepare": lambda p: prepare.source_prepare(
        p, WIDTH, np.random.default_rng(0)),
    "prepare_ensemble": lambda p: prepare.prepare_ensemble(p, WIDTH, 4, 0),
}


def _ontic_state():
    return ontic.OnticState(1, [0.0, 1.0, 0.0], (ontic.ZERO_LEVEL, 0, ontic.ZERO_LEVEL))


@pytest.mark.parametrize("path", [-1, WIDTH])
@pytest.mark.parametrize("entry", sorted(PATH_ENTRIES))
def test_path_entries_reject_out_of_range(entry, path):
    with pytest.raises(IndexError, match=f"path {path} out of range for width {WIDTH}"):
        PATH_ENTRIES[entry](path)
