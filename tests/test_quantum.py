"""Quantum engine: gates, collapse, sampling and exact enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import quantum, rng
from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
    serialize_circuit,
)
from interfersim.cli import main
from interfersim.records import event_suffix, event_token, parse_event_token, record_key
from interfersim.quantum import (
    IMPOSSIBLE_TOL,
    RAY_TOL,
    BranchCapError,
    ImpossibleOutcomeError,
    QuantumState,
    RecordTree,
    _evolve,
    _measure_layer,
    collapse,
    exact_outcome_distribution,
    project_no_click,
    ray_overlap,
    run_quantum_shot,
    unitary_part,
)
from interfersim.scenarios import (
    available_scenarios,
    build_scenario,
    mach_zehnder,
    random_circuit,
    zeno_chain,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def state(*amps):
    return QuantumState(np.array(amps, dtype=complex))


def click_probabilities(psi, *paths):
    """Born probabilities of detectors on ``paths``, by the layer rule."""
    return _measure_layer(psi, Layer([Detector(j) for j in paths]))[2]


def test_phase_on_basis_state_is_global():
    out = _evolve(state(1, 0), [PhaseShifter(0, math.pi)])
    assert ray_overlap(out.amplitudes, state(1, 0).amplitudes) >= 1.0 - RAY_TOL
    assert abs(out.amplitudes[0] + 1.0) < 1e-15


def test_phase_rotates_component():
    out = _evolve(state(INV_SQRT2, INV_SQRT2), [PhaseShifter(0, math.pi / 2)])
    assert np.allclose(out.amplitudes, [1j * INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_phase_zero_is_identity():
    psi = state(0.6, 0.8j)
    assert np.array_equal(_evolve(psi, [PhaseShifter(1, 0.0)]).amplitudes,
                          psi.amplitudes)


def test_phase_index_error():
    with pytest.raises(IndexError):
        _evolve(state(1, 0), [PhaseShifter(2, 0.1)])


def test_beamsplitter_balanced():
    out = _evolve(state(1, 0), [BeamSplitter(0, 1, 0.5)])
    assert np.allclose(out.amplitudes, [1j * INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_beamsplitter_leaves_other_paths():
    psi = state(0, 0, 1)
    out = _evolve(psi, [BeamSplitter(0, 1, 0.5)])
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_beamsplitter_full_reflection():
    out = _evolve(state(1, 0), [BeamSplitter(0, 1, 1.0)])
    assert np.allclose(out.amplitudes, [1j, 0], atol=1e-15)


@pytest.mark.parametrize("s, t, refl, message", [
    (1, 1, 0.5, "^beam splitter requires two distinct paths$"),
    (0, 1, 1.5, r"^reflectivity 1\.5 outside \[0, 1\]$"),
], ids=["same-path", "reflectivity"])
def test_beamsplitter_rejects_bad_gate(s, t, refl, message):
    with pytest.raises(ValueError, match=message):
        _evolve(state(1, 0), [BeamSplitter(s, t, refl)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitudes_and_phases_are_rejected(bad):
    with pytest.raises(ValueError, match="norm"):
        QuantumState([bad, 0])
    with pytest.raises(ValueError):
        _evolve(state(1, 0), [PhaseShifter(0, bad)])


def test_layer_step_builds_one_state(monkeypatch):
    built = []
    init = QuantumState.__init__

    def counting_init(self, amplitudes):
        built.append(self)
        init(self, amplitudes)

    layer = Layer([PhaseShifter(0, 0.3), BeamSplitter(1, 2, 0.5),
                   BeamSplitter(3, 4, 0.2)])
    z = QuantumState.basis(1, 5)
    monkeypatch.setattr(QuantumState, "__init__", counting_init)
    _measure_layer(z, layer)
    assert len(built) == 1


@pytest.mark.parametrize("seed", range(5))
def test_unitary_part_matches_layer_step(seed):
    gen = np.random.default_rng(300 + seed)
    width = int(gen.integers(2, 8))
    for layer in random_circuit(width, 10, gen).layers:
        amps = gen.standard_normal(width) + 1j * gen.standard_normal(width)
        z = QuantumState(amps / np.linalg.norm(amps))
        stepped = _measure_layer(z, layer)[0].amplitudes
        assert np.max(np.abs(unitary_part(layer, width) @ z.amplitudes
                             - stepped)) <= 1e-12


def test_click_probability():
    assert click_probabilities(state(1j * INV_SQRT2, INV_SQRT2), 0) == \
        [pytest.approx(0.5, abs=1e-15)]
    assert click_probabilities(state(0, 0, 1), 2) == [1.0]


def test_mach_zehnder_closed_form():
    # P(first detector) = sin(w/2)^2, P(second) = cos(w/2)^2
    for k in range(9):
        omega = k * math.pi / 8.0
        psi = state(1, 0)
        psi = _evolve(psi, [BeamSplitter(0, 1, 0.5)])
        psi = _evolve(psi, [PhaseShifter(0, omega)])
        psi = _evolve(psi, [BeamSplitter(0, 1, 0.5)])
        assert click_probabilities(psi, 0, 1) == \
            [pytest.approx(math.sin(omega / 2.0) ** 2, abs=1e-12),
             pytest.approx(math.cos(omega / 2.0) ** 2, abs=1e-12)]


def test_detection_click_collapses_to_basis():
    out = collapse(state(1j * INV_SQRT2, INV_SQRT2), (0,), 0)
    assert np.array_equal(out.amplitudes, [1, 0])


def test_detection_noclick_renormalizes():
    third = 1.0 / math.sqrt(3.0)
    out = collapse(state(third, third, third), (0,), None)
    assert np.allclose(out.amplitudes, [0, INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_detection_noclick_on_orthogonal_state_is_identity():
    out = collapse(state(0, 1), (0,), None)
    assert np.array_equal(out.amplitudes, [0, 1])


def test_detection_impossible_outcomes():
    # a click is impossible when the layer rule gives it probability 0
    # (every engine prunes or never samples it) ...
    assert click_probabilities(state(0, 1), 0)[0] <= IMPOSSIBLE_TOL
    # ... and conditioning on an impossible joint no-click raises
    with pytest.raises(ImpossibleOutcomeError):
        collapse(state(1, 0), (0,), None)


def test_run_shot_no_detectors():
    circuit = Circuit(2, [Layer([BeamSplitter(0, 1, 0.5)]),
                          Layer([PhaseShifter(1, 0.3)])])
    key, final = run_quantum_shot(RecordTree(circuit, state(1, 0)),
                                  np.random.default_rng(0))
    assert key == "-"
    expected = _evolve(_evolve(state(1, 0), [BeamSplitter(0, 1, 0.5)]),
                       [PhaseShifter(1, 0.3)])
    assert np.allclose(final.amplitudes, expected.amplitudes, atol=1e-15)


def test_run_shot_mach_zehnder_dark_port():
    tree = RecordTree(mach_zehnder(0.0), state(1, 0))
    gen = np.random.default_rng(1)
    for _ in range(100):
        key, final = run_quantum_shot(tree, gen)
        assert key == "L4:C2"
        assert np.array_equal(final.amplitudes, [0, 1])


def test_run_shot_frequencies_follow_born_rule():
    circuit = Circuit(2, [Layer([Detector(0), Detector(1)])])
    tree = RecordTree(circuit, state(INV_SQRT2, INV_SQRT2))
    shots = 4000
    clicks = 0
    for shot in range(shots):
        gen = rng.shot_generator(21, rng.QUANTUM_SHOTS, shot, 1)
        key, _ = run_quantum_shot(tree, gen)
        clicks += key == "L1:C1"
    sigma = math.sqrt(0.25 / shots)
    assert abs(clicks / shots - 0.5) < 5 * sigma


def test_exact_distribution_mach_zehnder():
    dist = exact_outcome_distribution(mach_zehnder(math.pi / 3.0), state(1, 0))
    probs = dist.probabilities
    assert set(probs) == {"L4:C1", "L4:C2"}
    assert probs["L4:C1"] == pytest.approx(0.25, abs=1e-12)
    assert probs["L4:C2"] == pytest.approx(0.75, abs=1e-12)


def test_exact_distribution_no_detectors_single_branch():
    circuit = Circuit(2, [Layer([BeamSplitter(0, 1, 0.3)])])
    dist = exact_outcome_distribution(circuit, state(1, 0))
    assert dist.probabilities == {"-": 1.0}


def test_exact_distribution_sequential_detector_layers():
    # second click is pinned by the collapse after the first
    circuit = Circuit(2, [Layer([Detector(0), Detector(1)]),
                          Layer([Detector(0), Detector(1)])])
    dist = exact_outcome_distribution(circuit, state(INV_SQRT2, INV_SQRT2))
    assert dist.probabilities == pytest.approx(
        {"L1:C1;L2:C1": 0.5, "L1:C2;L2:C2": 0.5}, abs=1e-12)


def test_exact_distribution_branch_cap():
    with pytest.raises(BranchCapError):
        exact_outcome_distribution(mach_zehnder(0.4), state(1, 0), branch_cap=1)


def test_deep_circuit_enumerates_without_recursion(tmp_path):
    # far deeper than Python's recursion limit; every layer surely clicks
    deep = Circuit(2, [Layer([Detector(0)])] * 1200)
    dist = exact_outcome_distribution(deep, QuantumState.basis(0, 2))
    assert list(dist.probabilities.values()) == [1.0]
    path = tmp_path / "deep.circ"
    path.write_text(serialize_circuit(deep))
    assert main(["compare", str(path), "--shots", "200",
                 "--out", str(tmp_path)]) == 0


def test_branch_cap_trips_on_the_frontier(tmp_path, capsys):
    zeno = zeno_chain(1500)
    with pytest.raises(BranchCapError):
        exact_outcome_distribution(zeno, QuantumState.basis(0, 2), branch_cap=100)
    path = tmp_path / "zeno.circ"
    path.write_text(serialize_circuit(zeno))
    assert main(["compare", str(path), "--shots", "200", "--branch-cap", "100",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_branch_cap_counts_leaves():
    # the cap trips for exactly the circuits with more leaves than the cap
    circuit = random_circuit(4, 8, np.random.default_rng(8), p_detector=0.3)
    leaves = len(exact_outcome_distribution(circuit, QuantumState.basis(0, 4))
                 .probabilities)
    assert leaves > 10
    exact_outcome_distribution(circuit, QuantumState.basis(0, 4), branch_cap=leaves)
    with pytest.raises(BranchCapError):
        exact_outcome_distribution(circuit, QuantumState.basis(0, 4),
                                   branch_cap=leaves - 1)


@pytest.mark.parametrize("seed", range(4))
def test_leaf_order_clicks_then_no_click_layer_by_layer(seed):
    width = 3 + seed % 3
    circuit = random_circuit(width, 10, np.random.default_rng(200 + seed),
                             p_detector=0.3)
    keys = list(exact_outcome_distribution(
        circuit, QuantumState.basis(0, width)).probabilities)
    assert len(keys) >= 13

    def rank(key):  # a click at path j sorts as j, no-click after all
        return [(layer, width if j is None else j)
                for layer, j in map(parse_event_token, key.split(";"))]

    assert keys == sorted(keys, key=rank)


@pytest.mark.parametrize("seed", range(6))
def test_branch_completeness_random_circuits(seed):
    gen = np.random.default_rng(seed)
    width = int(gen.integers(2, 6))
    circuit = random_circuit(width, int(gen.integers(2, 9)), gen)
    dist = exact_outcome_distribution(circuit, QuantumState.basis(0, width))
    assert abs(sum(dist.probabilities.values()) - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_unitary_layers_preserve_norm_and_locality(seed):
    gen = np.random.default_rng(100 + seed)
    width = int(gen.integers(2, 6))
    circuit = random_circuit(width, 6, gen, p_detector=0.0)
    circuit = Circuit(width, circuit.layers[:-1])  # drop terminal detectors
    amps = gen.standard_normal(width) + 1j * gen.standard_normal(width)
    psi = QuantumState(amps / np.linalg.norm(amps))
    for layer in circuit.layers:
        touched = set()
        for gate in layer.gates:
            if isinstance(gate, BeamSplitter):
                touched |= {gate.s, gate.t}
            elif isinstance(gate, PhaseShifter):
                touched.add(gate.path)
        out = psi
        for gate in layer.gates:
            out = _evolve(out, [gate])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
        for j in range(width):
            if j not in touched:
                assert out.amplitudes[j] == psi.amplitudes[j]
        psi = out


def test_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0]))


def test_ray_equality_ignores_global_phase():
    psi = state(INV_SQRT2, 1j * INV_SQRT2)
    rotated = QuantumState(psi.amplitudes * np.exp(0.7j))
    assert ray_overlap(psi.amplitudes, rotated.amplitudes) >= 1.0 - RAY_TOL


# -- record-prefix tree -------------------------------------------------------

def _tree_circuits():
    circuits = [build_scenario(name) for name in available_scenarios()]
    gen = np.random.default_rng(515)
    for width in range(2, 9):
        for _ in range(3):
            circuits.append(random_circuit(width, int(gen.integers(2, 30)), gen,
                                           p_detector=0.25))
    return circuits


def _stepwise_shot(circuit, init, gen):
    # the sampler stated shot by shot, without a tree: one layer step, one
    # uniform through the cumulative (clicks..., no-click) and one collapse
    # per layer; also returns every layer's thresholds
    state, prefix, thresholds = init, "", []
    for layer_idx, layer in enumerate(circuit.layers):
        state, detectors, probs, no_click = _measure_layer(state, layer)
        if not detectors:
            continue
        total = sum(probs) + no_click
        acc, cumulative, clicked = 0.0, [], None
        for j, p in zip(detectors, probs):
            acc += p / total
            cumulative.append((j, acc))
        thresholds.append(tuple(cumulative))
        u = float(gen.random())
        clicked = next((j for j, a in cumulative if u < a), None)
        state = collapse(state, detectors, clicked)
        prefix += event_suffix(layer_idx, clicked)
    return record_key(prefix), state, thresholds


def _shared_and_fresh(circuit, init, shots, seed):
    # the same per-shot streams through one shared tree and a tree per shot
    tree = RecordTree(circuit, init)
    draws = len(circuit.detector_layers())
    shared, fresh = [], []
    for shot in range(shots):
        shared.append(run_quantum_shot(tree, rng.shot_generator(
            seed, rng.QUANTUM_SHOTS, shot, draws)))
        fresh.append(run_quantum_shot(RecordTree(circuit, init),
                                      rng.shot_generator(
                                          seed, rng.QUANTUM_SHOTS, shot, draws)))
    return shared, fresh


@pytest.mark.parametrize("circuit", _tree_circuits(), ids=lambda c: c.name or
                         f"random{c.width}x{c.depth}")
def test_shared_tree_sampler_is_bit_identical(circuit):
    init = QuantumState.basis(0, circuit.width)
    shared, fresh = _shared_and_fresh(circuit, init, 150, circuit.depth)
    draws = len(circuit.detector_layers())
    tree = RecordTree(circuit, init)
    for shot, ((key_a, final_a), (key_b, final_b)) in enumerate(zip(shared, fresh)):
        assert key_a == key_b
        assert final_a.amplitudes.tobytes() == final_b.amplitudes.tobytes()
        key, final, thresholds = _stepwise_shot(circuit, init, rng.shot_generator(
            circuit.depth, rng.QUANTUM_SHOTS, shot, draws))
        assert key == key_a
        assert final.amplitudes.tobytes() == final_a.amplitudes.tobytes()
        node, walked, clicks = tree.root, [], tree.clicks(key)
        for layer_idx in range(circuit.depth):
            event = tree.event(node, layer_idx)
            if event.detectors:
                walked.append(event.thresholds)
            node = tree.child(node, layer_idx, clicks[layer_idx])
        assert [[a.hex() for _, a in c] for c in walked] == \
            [[a.hex() for _, a in c] for c in thresholds]


def test_record_tree_node_bound_and_saturation():
    circuit = random_circuit(8, 36, np.random.default_rng(36))
    detectors = circuit.count_gates(Detector)
    init = QuantumState.basis(0, 8)
    tree = RecordTree(circuit, init)
    gen = np.random.default_rng(1)
    for _ in range(10_000):
        run_quantum_shot(tree, gen)
    saturated = tree.nodes
    assert saturated <= circuit.depth * (1 + detectors)
    for _ in range(10_000):
        run_quantum_shot(tree, gen)
    assert tree.nodes == saturated


def test_record_tree_belongs_to_its_circuit_and_state():
    # a shot reads the circuit and the initial state from the tree alone
    circuit, init = mach_zehnder(0.4), state(1, 0)
    tree = RecordTree(circuit, init)
    assert tree.circuit is circuit and tree.root.state is init
    key, _ = run_quantum_shot(tree, np.random.default_rng(0))
    assert [parse_event_token(token)[0] for token in key.split(";")] == \
        [circuit.depth - 1]
    with pytest.raises(ValueError, match="width"):
        RecordTree(circuit, state(1, 0, 0))


def test_record_tree_keeps_impossible_no_click():
    # a no-click on a certain detector raises on every walk, never cached
    circuit = Circuit(2, [Layer([Detector(0)])])
    tree = RecordTree(circuit, state(1, 0))
    for _ in range(2):
        with pytest.raises(ImpossibleOutcomeError):
            tree.child(tree.root, 0, None)
    with pytest.raises(ValueError, match="no detector"):
        tree.child(tree.root, 0, 1)
    assert tree.nodes == 1


@settings(max_examples=100, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 20),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16))
def test_shared_tree_sampler_property(width, depth, circuit_seed, seed):
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))
    init = QuantumState.basis(int(circuit_seed % width), width)
    shared, fresh = _shared_and_fresh(circuit, init, 20, seed)
    probs = _frontier_distribution(circuit, init)
    for (key_a, final_a), (key_b, final_b) in zip(shared, fresh):
        assert key_a == key_b
        assert final_a.amplitudes.tobytes() == final_b.amplitudes.tobytes()
        assert probs.get(key_a, 0.0) > 0.0


# -- exact enumeration on the tree --------------------------------------------

def _frontier_distribution(circuit, init):
    # the enumerator stated without a tree: a state per live branch, one
    # layer step per branch per layer; clicks in path order, then no-click
    basis = [QuantumState.basis(j, circuit.width) for j in range(circuit.width)]
    branches = [(init, 1.0, "")]
    for layer_idx, layer in enumerate(circuit.layers):
        grown = []
        for branch_state, prob, prefix in branches:
            branch_state, detectors, probs, no_click = _measure_layer(
                branch_state, layer)
            if not detectors:
                grown.append((branch_state, prob, prefix))
                continue
            for j, p in zip(detectors, probs):
                if p > IMPOSSIBLE_TOL:
                    grown.append((basis[j], prob * p,
                                  prefix + event_suffix(layer_idx, j)))
            if no_click > IMPOSSIBLE_TOL:
                grown.append((project_no_click(branch_state, detectors),
                              prob * no_click,
                              prefix + event_suffix(layer_idx, None)))
        branches = grown
    return {record_key(prefix): prob for _, prob, prefix in branches}


@settings(max_examples=100, deadline=None)
@given(width=st.integers(2, 11), depth=st.integers(1, 20),
       circuit_seed=st.integers(0, 2 ** 32 - 1),
       p_detector=st.sampled_from([0.15, 0.3]))
def test_tree_enumerator_matches_frontier_property(width, depth, circuit_seed,
                                                   p_detector):
    # widths past 9 give two-digit path tokens (L3:C10)
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed),
                             p_detector=p_detector)
    init = QuantumState.basis(int(circuit_seed % width), width)
    dist = exact_outcome_distribution(circuit, init).probabilities
    reference = _frontier_distribution(circuit, init)
    assert [(key, p.hex()) for key, p in dist.items()] == \
        [(key, p.hex()) for key, p in reference.items()]


def test_enumeration_measures_each_tree_node_once(monkeypatch):
    trees, measured = [], []
    real_tree, real_measure = quantum.RecordTree, quantum._measure_layer

    def recording_tree(*args):
        trees.append(real_tree(*args))
        return trees[-1]

    def counting_measure(*args):
        measured.append(args[0])
        return real_measure(*args)

    monkeypatch.setattr(quantum, "RecordTree", recording_tree)
    monkeypatch.setattr(quantum, "_measure_layer", counting_measure)
    circuit = zeno_chain(16)
    dist = exact_outcome_distribution(circuit, QuantumState.basis(0, 2))
    (tree,) = trees
    assert len(dist.probabilities) == 2 ** 16
    assert len(measured) <= tree.nodes
    assert tree.nodes <= 1 + circuit.depth * (1 + circuit.count_gates(Detector))


@pytest.mark.parametrize("depth", [250, 1000])
def test_enumeration_memory_does_not_grow_with_depth(depth):
    # the enumeration keeps its live branches and the current layer's click
    # nodes, not every node from the root: a state of 4,096 paths is 64 KB,
    # and 1,000 splitter layers used to keep one each (66 MB)
    width = 4096
    circuit = Circuit(width, [Layer([BeamSplitter(0, 1, 0.5)])] * depth
                      + [Layer([Detector(j) for j in range(width)])])
    init = QuantumState.basis(0, width)
    tracemalloc.start()
    try:
        dist = exact_outcome_distribution(circuit, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # each pair of 50/50 splitters swaps the paths
    assert list(dist.probabilities) == [event_token(depth, depth // 2 % 2)]
    assert dist.probabilities[event_token(depth, depth // 2 % 2)] == \
        pytest.approx(1.0, abs=1e-12)


def test_enumeration_builds_no_state_after_the_last_layer():
    # nothing reads a state after the last layer, so its clicks build none:
    # a basis state of 1,024 paths is 16 KB, and each click used to build one
    width = 1024
    layers = [Layer([BeamSplitter(j, j | 1 << k, 0.5) for j in range(width)
                     if not j >> k & 1]) for k in range(width.bit_length() - 1)]
    circuit = Circuit(width, layers + [Layer([Detector(j) for j in range(width)])])
    init = QuantumState.basis(0, width)
    tracemalloc.start()
    try:
        dist = exact_outcome_distribution(circuit, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # the 50/50 butterfly spreads path 0 evenly over every path
    assert list(dist.probabilities) == [event_token(len(layers), j)
                                        for j in range(width)]
    assert list(dist.probabilities.values()) == \
        pytest.approx([1 / width] * width, rel=1e-9)
