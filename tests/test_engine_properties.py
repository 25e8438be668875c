"""Property tests tying the two statements of the stochastic-engine rules
together: the scalar gate helpers in :mod:`interfersim.ontic` and the
vectorised layer loop in :mod:`interfersim.ensemble`; the one record
encoding that every engine returns; and the one post-selection rule on
outcome tables against per-shot tallies."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import rng
from interfersim.circuits import (
    BeamSplitter,
    Detector,
    Layer,
    PhaseShifter,
    gate_paths,
)
from interfersim.ensemble import run_ensemble
from interfersim.harness import ExperimentConfig, PreparationSpec, traced_shots
from interfersim.ontic import (
    ZERO_LEVEL,
    OnticState,
    ShotDiagnostics,
    gate_beamsplitter,
    gate_detector,
    gate_free,
    gate_phase,
    step_layer,
)
from interfersim.prepare import prepare_ensemble, quantum_init
from interfersim.quantum import (
    RecordTree,
    exact_outcome_distribution,
    run_quantum_shot,
)
from interfersim.records import event_token, parse_event_token, postselect
from interfersim.scenarios import random_circuit

SHOTS = 16


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 12),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       junk=st.sampled_from(["zero", "disk"]), data=st.data())
def test_scalar_replay_matches_ensemble_rows(width, depth, circuit_seed, seed,
                                             junk, data):
    """Every shot of a prepared ensemble replays through the scalar engine,
    on its slice of the stream and from its row of the materialised
    preparation, to the same record, position and levels, and to the same
    bits on the live paths; the ensemble's field is zero on the dead ones."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))
    path = data.draw(st.integers(0, width - 1), label="path")
    config = ExperimentConfig(circuit=circuit,
                              prepare=PreparationSpec("source", path, junk),
                              shots=SHOTS, seed=seed, mode="ontic-only")
    result = run_ensemble(circuit, prepare_ensemble(path, SHOTS, seed, junk))
    live = result.final_levels != ZERO_LEVEL
    assert (result.final_u[~live] == 0).all()
    diagnostics = ShotDiagnostics()
    for shot, key, trajectory in traced_shots(config, diagnostics):
        final = trajectory[-1]
        assert len(trajectory) == depth + 1
        assert key == result.record_for_shot(shot)
        assert final.q == result.final_q[shot]
        assert final.tau == tuple(result.final_levels[shot])
        assert same_bits(np.array(final.u)[live[shot]],
                         result.final_u[shot][live[shot]])
    assert diagnostics.degenerate_relocations == result.degenerate_relocations


def _events(key):
    """``(layer, result)`` of every token of a record key, in key order."""
    return [] if key == "-" else [parse_event_token(token)
                                  for token in key.split(";")]


def _shows(key, constraints):
    events = dict(_events(key))
    return all(layer in events and events[layer] == wanted
               for layer, wanted in constraints)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 12), depth=st.integers(1, 14),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       p_detector=st.sampled_from([0.15, 0.35]))
def test_every_engine_writes_one_token_per_detector_layer(
        width, depth, circuit_seed, seed, p_detector):
    """The keys of ``run_ontic_shot``, ``run_quantum_shot`` and
    ``record_for_shot`` split into exactly one canonical token per detector
    layer, in layer order, each a result the layer can show; the replayed
    key is the ensemble's. Widths past 9 and depths past 9 give two-digit
    tokens (``L10:C11``)."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed),
                             p_detector=p_detector)
    layers = circuit.detector_layers()

    def check(key):
        events = _events(key)
        assert [layer for layer, _ in events] == list(layers)
        for (layer, clicked), token in zip(events, key.split(";")):
            assert clicked is None or clicked in circuit.layers[layer].detector_paths()
            assert event_token(layer, clicked) == token

    config = ExperimentConfig(circuit=circuit, shots=SHOTS, seed=seed,
                              mode="ontic-only")
    result = run_ensemble(circuit, prepare_ensemble(0, SHOTS, seed))
    tree = RecordTree(circuit, quantum_init(0, width))
    for shot, key, _ in traced_shots(config):
        check(key)
        assert key == result.record_for_shot(shot)
        sampled = run_quantum_shot(tree, rng.shot_generator(
            seed, rng.QUANTUM_SHOTS, shot, len(layers)))
        check(sampled)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 12),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_postselect_keeps_the_records_that_show_every_constraint(
        width, depth, circuit_seed, seed, data):
    """Post-selecting the ensemble's counts gives the tally of the shots
    whose events show every constraint, and post-selecting the exact
    distribution keeps the records that show them, both in table order;
    constraint sets may repeat or contradict each other."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))
    results = [(layer, clicked) for layer in circuit.detector_layers()
               for clicked in (None, *circuit.layers[layer].detector_paths())]
    constraints = tuple(data.draw(st.lists(st.sampled_from(results), max_size=4),
                                  label="constraints"))
    shots = 200
    result = run_ensemble(circuit, prepare_ensemble(0, shots, seed))
    tally = Counter()
    for shot in range(shots):
        key = result.record_for_shot(shot)
        if _shows(key, constraints):
            tally[key] += 1
    counts = result.counts()
    kept = postselect(counts, constraints)
    assert kept == tally
    assert list(kept) == [key for key in counts if key in tally]
    dist = exact_outcome_distribution(circuit, quantum_init(0, width))
    assert list(postselect(dist.probabilities, constraints)) == [
        key for key in dist.probabilities
        if _shows(key, constraints)]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(2, 14),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_counts_are_the_tally_of_group_ids(width, depth, circuit_seed, seed,
                                           data):
    """The shot counts that the detector splits carry equal a tally of the
    shots' group ids, whole and post-selected, on circuits with several
    detector layers."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed),
                             p_detector=0.35)
    results = [(layer, clicked) for layer in circuit.detector_layers()
               for clicked in (None, *circuit.layers[layer].detector_paths())]
    constraints = tuple(data.draw(st.lists(st.sampled_from(results), max_size=3),
                                  label="constraints"))
    path = data.draw(st.integers(0, width - 1), label="path")
    result = run_ensemble(circuit, prepare_ensemble(path, 300, seed, "disk"))
    group, keys = result.group, result.keys
    assert [result.record_for_shot(shot) for shot in range(300)] == \
        [keys[g] for g in group]
    tally = np.bincount(group, minlength=result.groups)
    counts = result.counts()
    assert counts == {key: int(n) for key, n in zip(keys, tally)}
    shows = np.array([_shows(key, constraints) for key in keys], dtype=bool)
    assert sum(postselect(counts, constraints).values()) == \
        int(np.count_nonzero(shows[group]))


@st.composite
def states_and_layers(draw):
    width = draw(st.integers(1, 6))
    parts = st.floats(-2.0, 2.0)
    u = [complex(draw(parts), draw(parts)) for _ in range(width)]
    tau = [draw(st.one_of(st.just(ZERO_LEVEL), st.integers(0, 8)))
           for _ in range(width)]
    state = OnticState(draw(st.integers(0, width - 1)), u, tau)
    paths = draw(st.permutations(range(width)))
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
    return state, Layer(gates)


@settings(max_examples=300, deadline=None)
@given(states_and_layers(), st.integers(0, 2 ** 32 - 1))
def test_step_layer_equals_gates_one_at_a_time(state_and_layer, seed):
    state, layer = state_and_layer
    gen_layer, gen_gates = np.random.default_rng(seed), np.random.default_rng(seed)
    diag_layer, diag_gates = ShotDiagnostics(), ShotDiagnostics()
    results, stepped = step_layer(state, layer, gen_layer, diag_layer)

    covered = {p for gate in layer.gates for p in gate_paths(gate)}
    one_by_one = state
    for path in range(state.width):
        if path not in covered:
            one_by_one = gate_free(one_by_one, path)
    clicks = []
    for gate in layer.gates:
        if isinstance(gate, PhaseShifter):
            one_by_one = gate_phase(one_by_one, gate.path, gate.omega)
        elif isinstance(gate, Detector):
            clicked, one_by_one = gate_detector(one_by_one, gate.path)
            clicks.append((gate.path, clicked))
        else:
            one_by_one = gate_beamsplitter(one_by_one, gate.s, gate.t,
                                           gate.reflectivity, gen_gates, diag_gates)

    assert results == tuple(clicks)
    assert stepped.q == one_by_one.q
    assert same_bits(np.array(stepped.u), np.array(one_by_one.u))
    assert stepped.tau == one_by_one.tau
    assert diag_layer == diag_gates
    assert gen_layer.random() == gen_gates.random()  # same number of draws
