"""Circuit model, text format and JSON mirror."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import ensemble, ontic, prepare, quantum

from interfersim.circuits import (
    MAX_PATHS,
    BeamSplitter,
    Circuit,
    CircuitError,
    Detector,
    Layer,
    LayerConflictError,
    ParseError,
    PathCapError,
    PhaseShifter,
    circuit_from_json,
    circuit_to_json,
    gate_paths,
    gate_paths,
    parse_circuit,
    serialize_circuit,
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


def test_parse_conflict_on_a_later_layer_names_its_position():
    text = ("paths 3\n"
            "layer BS 1 2 R=0.5\n"
            "# the conflict is on line 5, a bad gate on line 6\n"
            "layer S 3 w=0.1\n"
            "  layer D 1 | S 1 w=0.2\n"
            "layer XX 1\n")
    with pytest.raises(ParseError, match="path 1 appears in more than one gate") as err:
        parse_circuit(text)
    assert (err.value.line, err.value.column) == (5, 3)
    assert str(err.value).startswith("line 5, column 3: ")


def test_validate_layer_partition():
    # disjoint in-range gates pass; the path they leave free needs no record
    layer = Layer([BeamSplitter(0, 1, 0.5), Detector(2)])
    assert validate_layer(layer, 4) is None
    assert [gate_paths(g) for g in layer.gates] == [(0, 1), (2,)]
    assert layer.detector_paths() == (2,)


def test_detector_paths_ascend_whatever_the_gate_order():
    # every engine codes and keys a layer's clicks in path order
    layer = Layer([Detector(3), BeamSplitter(0, 4, 0.5), Detector(1), Detector(2)])
    assert layer.detector_paths() == (1, 2, 3)
    assert parse_circuit("paths 5\nlayer D 5 | D 2 | D 4\n"
                         ).layers[0].detector_paths() == (1, 3, 4)


def test_validate_empty_layer_is_all_free():
    assert validate_layer(Layer([]), 2) is None
    assert Circuit(MAX_PATHS, [Layer([])] * 3).depth == 3


def test_partition_covers_everything():
    # the gates and the free paths between them cover every path exactly once
    layer = Layer([BeamSplitter(2, 0, 0.25), PhaseShifter(3, 1.0), Detector(1)])
    assert validate_layer(layer, 5) is None
    touched = [p for g in layer.gates for p in gate_paths(g)]
    assert len(touched) == len(set(touched))
    free = set(range(5)) - set(touched)
    assert free == {4}
    assert sorted(touched + sorted(free)) == list(range(5))


def test_validate_overlap_names_path():
    with pytest.raises(LayerConflictError) as err:
        validate_layer(Layer([PhaseShifter(0, 0.3), Detector(0)]), 3)
    assert err.value.path == 0
    assert "path 1" in str(err.value)


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


def test_path_cap_checked_before_any_layer():
    # a header above the cap fails before any layer is read
    huge = 10 ** 9
    message = f"{huge} paths exceed the cap of {MAX_PATHS} per circuit"
    with pytest.raises(PathCapError, match=message):
        parse_circuit(f"paths {huge}\nlayer D 1\nlayer D 2\n")
    with pytest.raises(PathCapError, match=message):
        circuit_from_json({"paths": huge,
                           "layers": [[{"gate": "D", "args": {"path": 1}}]]})
    with pytest.raises(PathCapError, match=message):
        Circuit(huge, [Layer([Detector(0)])])
    assert parse_circuit(f"paths {MAX_PATHS}\nlayer D 1\n").width == MAX_PATHS
    assert Circuit(MAX_PATHS).width == MAX_PATHS
    with pytest.raises(PathCapError):
        parse_circuit(f"paths {MAX_PATHS + 1}\n")


def test_a_layer_costs_its_gates_not_the_width():
    # 300 empty layers at the path cap, a 1.8 KB file, keep a few KB: no
    # layer holds anything per path
    text = f"paths {MAX_PATHS}\n" + "layer\n" * 300
    tracemalloc.start()
    try:
        circuit = parse_circuit(text)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.depth == 300
    assert kept < 1_000_000


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


def _gate_constants(gate):
    if isinstance(gate, PhaseShifter):
        return {"cos_w": math.cos(gate.omega), "sin_w": math.sin(gate.omega)}
    if isinstance(gate, BeamSplitter):
        return {"root_r": math.sqrt(gate.reflectivity),
                "root_t": math.sqrt(1.0 - gate.reflectivity)}
    return {}


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_gate_constants_are_exact_and_outside_the_fields(circuit):
    """Each gate holds its rule's constants bit for bit, and they show in
    no comparison, hash, repr or serialisation: a twin whose constants are
    all NaN is indistinguishable there."""
    twin_layers = []
    for layer in circuit.layers:
        twin_gates = []
        for gate in layer.gates:
            constants = _gate_constants(gate)
            for name, value in constants.items():
                assert getattr(gate, name).hex() == value.hex()
            twin = copy.copy(gate)
            for name in constants:
                object.__setattr__(twin, name, math.nan)
            twin_gates.append(twin)
        twin_layers.append(Layer(twin_gates))
    twin = Circuit(circuit.width, twin_layers)
    assert twin == circuit and hash(twin) == hash(circuit)
    assert repr(twin) == repr(circuit)
    assert serialize_circuit(twin) == serialize_circuit(circuit)
    assert circuit_to_json(twin) == circuit_to_json(circuit)
    for kind in (PhaseShifter, BeamSplitter):
        names = {f.name for f in dataclasses.fields(kind)}
        assert names.isdisjoint({"cos_w", "sin_w", "root_r", "root_t"})


def test_circuit_keeps_no_per_layer_state():
    # validation keeps nothing: a circuit, parsed or built, holds its fields
    circuit = parse_circuit(MZ_TEXT)
    names = {field.name for field in dataclasses.fields(Circuit)}
    assert vars(circuit).keys() == names
    assert vars(Circuit(2, circuit.layers)).keys() == names
    twin = parse_circuit(MZ_TEXT)
    assert circuit == twin and hash(circuit) == hash(twin)


@settings(max_examples=100, deadline=None)
@given(circuits(), st.data())
def test_validate_layer_property(circuit, data):
    """Generated layers pass; one more gate on a path the layer already
    uses, or on a path out of range, is refused wherever it stands."""
    width = circuit.width
    for layer in circuit.layers:
        assert validate_layer(layer, width) is None
        used = [p for gate in layer.gates for p in gate_paths(gate)]
        at = data.draw(st.integers(0, len(layer.gates)), label="position")
        if used:
            p = data.draw(st.sampled_from(used), label="overlap")
            gates = list(layer.gates)
            gates.insert(at, Detector(p))
            with pytest.raises(LayerConflictError) as err:
                validate_layer(Layer(gates), width)
            assert err.value.path == p
            with pytest.raises(LayerConflictError):
                Circuit(width, [Layer(gates)])
        bad = data.draw(st.sampled_from([-1, width, width + 5]), label="bad")
        gates = list(layer.gates)
        gates.insert(at, PhaseShifter(bad, 0.0))
        with pytest.raises(CircuitError, match="out of range"):
            validate_layer(Layer(gates), width)


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
    # a prepared ensemble's path is checked where it meets the circuit
    "prepare_ensemble": lambda p: ensemble.run_ensemble(
        Circuit(WIDTH), prepare.prepare_ensemble(p, 4, 0)),
}


def _ontic_state():
    return ontic.OnticState(1, [0.0, 1.0, 0.0], (ontic.ZERO_LEVEL, 0, ontic.ZERO_LEVEL))


@pytest.mark.parametrize("path", [-1, WIDTH])
@pytest.mark.parametrize("entry", sorted(PATH_ENTRIES))
def test_path_entries_reject_out_of_range(entry, path):
    with pytest.raises(IndexError, match=f"path {path} out of range for width {WIDTH}"):
        PATH_ENTRIES[entry](path)
