"""Property tests tying the two statements of the stochastic-engine rules
together: the scalar gate helpers in :mod:`interfersim.ontic` and the
vectorised layer loop in :mod:`interfersim.ensemble`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import rng
from interfersim.circuits import (
    BeamSplitter,
    Circuit,
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
    run_ontic_shot,
    ShotDiagnostics,
    gate_beamsplitter,
    gate_detector,
    gate_free,
    gate_phase,
    step_layer,
)
from interfersim.prepare import prepare_ensemble
from interfersim.scenarios import random_circuit

SHOTS = 16


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_replay_matches_ensemble(circuit, q, u, levels, seed):
    """Every shot of the ensemble run from ``(q, u, levels)`` replays through
    the scalar engine, on its slice of the stream, to the same record and
    final state bit for bit; returns the ensemble result."""
    result = run_ensemble(circuit, q, u, levels, seed)
    draws = circuit.count_gates(BeamSplitter)
    diagnostics = ShotDiagnostics()
    for shot in range(len(q)):
        init = OnticState(int(q[shot]), u[shot], levels[shot])
        gen = rng.shot_generator(seed, rng.ONTIC_SHOTS, shot, draws)
        record, trajectory = run_ontic_shot(circuit, init, gen,
                                            diagnostics=diagnostics)
        final = trajectory[-1]
        assert record == result.record_for_shot(shot)
        assert final.q == result.final_q[shot]
        assert same_bits(final.u, result.final_u[shot])
        assert final.tau == tuple(result.final_levels[shot])
    assert diagnostics.degenerate_relocations == result.degenerate_relocations
    return result


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 12),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       junk=st.sampled_from(["zero", "disk"]), data=st.data())
def test_scalar_replay_matches_ensemble_rows(width, depth, circuit_seed, seed,
                                             junk, data):
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))
    path = data.draw(st.integers(0, width - 1), label="path")
    config = ExperimentConfig(circuit=circuit,
                              prepare=PreparationSpec("source", path, junk),
                              shots=SHOTS, seed=seed, mode="ontic-only")
    q, u, levels = prepare_ensemble("source", path, width, SHOTS, seed, junk).arrays()
    result = run_ensemble(circuit, q, u, levels, seed)
    diagnostics = ShotDiagnostics()
    for shot, record, trajectory in traced_shots(config, diagnostics):
        final = trajectory[-1]
        assert len(trajectory) == depth + 1
        assert record == result.record_for_shot(shot)
        assert final.q == result.final_q[shot]
        assert same_bits(final.u, result.final_u[shot])
        assert final.tau == tuple(result.final_levels[shot])
    assert diagnostics.degenerate_relocations == result.degenerate_relocations


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 12),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_scalar_replay_matches_ensemble_rows_from_any_state(width, depth,
                                                            circuit_seed, seed, data):
    """Drawn positions, amplitudes and levels (``ZERO_LEVEL`` or 0..8), so
    every shot starts at its own strengths rather than a preparation's."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))

    def per_shot(elements, label):
        return data.draw(st.lists(elements, min_size=SHOTS, max_size=SHOTS),
                         label=label)

    def row(elements):
        return st.lists(elements, min_size=width, max_size=width)

    q = np.array(per_shot(st.integers(0, width - 1), "q"), dtype=np.int64)
    levels = np.array(per_shot(row(st.one_of(st.just(ZERO_LEVEL),
                                             st.integers(0, 8))), "levels"),
                      dtype=np.int64)
    parts = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    u = np.array(per_shot(row(st.builds(complex, parts, parts)), "u"),
                 dtype=np.complex128)
    assert_replay_matches_ensemble(circuit, q, u, levels, seed)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 12),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_scalar_replay_matches_ensemble_rows_sharing_fields(width, depth,
                                                            circuit_seed, seed, data):
    """A few tiled rows, so shots share levels and live amplitudes (a field
    group of several members), while each shot draws its own junk on the
    dead paths and its own position, on a live or a dead path."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed))
    parts = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    amplitude = st.builds(complex, parts, parts)

    def rows(elements, n, label):
        return data.draw(st.lists(st.lists(elements, min_size=width, max_size=width),
                                  min_size=n, max_size=n), label=label)

    n_rows = data.draw(st.integers(1, 3), label="rows")
    tile = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=SHOTS,
                                       max_size=SHOTS), label="tile"))
    levels = np.array(rows(st.one_of(st.just(ZERO_LEVEL), st.integers(0, 8)),
                           n_rows, "levels"), dtype=np.int64)[tile]
    live_u = np.array(rows(amplitude, n_rows, "live u"), dtype=np.complex128)[tile]
    junk = np.array(rows(amplitude, SHOTS, "junk"), dtype=np.complex128)
    u = np.where(levels == ZERO_LEVEL, junk, live_u)
    q = np.array(data.draw(st.lists(st.integers(0, width - 1), min_size=SHOTS,
                                    max_size=SHOTS), label="q"), dtype=np.int64)
    assert_replay_matches_ensemble(circuit, q, u, levels, seed)


def test_scalar_replay_matches_one_shared_field_with_strays():
    """One tiled level row and live field, so the ensemble is one group of
    many shots, each with its own junk on the dead paths and particles on
    live and dead paths: a splitter between the two dead paths mixes every
    shot's junk and moves the strays on it."""
    circuit = Circuit(5, [Layer([BeamSplitter(3, 4, 0.3), PhaseShifter(2, 0.4)]),
                          Layer([BeamSplitter(1, 3, 0.5), PhaseShifter(4, 1.1)])]
                      + list(random_circuit(5, 10, np.random.default_rng(5)).layers))
    g = np.random.default_rng(6)
    shots = 64
    levels = np.tile([0, 2, 0, ZERO_LEVEL, ZERO_LEVEL], (shots, 1))
    u = np.tile([0.6, 0.0, 0.8j, 0.0, 0.0], (shots, 1))
    u[:, 3:] = g.uniform(-1, 1, (shots, 2)) + 1j * g.uniform(-1, 1, (shots, 2))
    q = g.integers(0, 5, shots)
    assert {0, 2, 3, 4} <= set(q.tolist())
    result = assert_replay_matches_ensemble(circuit, q, u, levels, 6)
    assert result.groups == len(result.counts())  # one group at the start


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
    assert same_bits(stepped.u, one_by_one.u)
    assert stepped.tau == one_by_one.tau
    assert diag_layer == diag_gates
    assert gen_layer.random() == gen_gates.random()  # same number of draws
