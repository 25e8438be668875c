"""Property tests tying the two statements of the stochastic-engine rules
together: the scalar gate helpers in :mod:`interfersim.ontic` and the
vectorised layer loop in :mod:`interfersim.ensemble`; and the one
post-selection rule on outcome tables against per-shot tallies."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from interfersim.quantum import exact_outcome_distribution
from interfersim.records import parse_event_token, postselect
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
    for shot, record, trajectory in traced_shots(config, diagnostics):
        final = trajectory[-1]
        assert len(trajectory) == depth + 1
        assert record == result.record_for_shot(shot)
        assert final.q == result.final_q[shot]
        assert final.tau == tuple(result.final_levels[shot])
        assert same_bits(np.array(final.u)[live[shot]],
                         result.final_u[shot][live[shot]])
    assert diagnostics.degenerate_relocations == result.degenerate_relocations


def _shows(events, constraints):
    return all(layer in events and events[layer] == wanted
               for layer, wanted in constraints)


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
        record = result.record_for_shot(shot)
        if _shows(dict(record.events), constraints):
            tally[record.key] += 1
    counts = result.counts()
    kept = postselect(counts, constraints)
    assert kept == tally
    assert list(kept) == [key for key in counts if key in tally]
    dist = exact_outcome_distribution(circuit, quantum_init(0, width))
    assert list(postselect(dist.probabilities, constraints)) == [
        key for key in dist.probabilities
        if _shows(dict(map(parse_event_token, key.split(";"))), constraints)]


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
