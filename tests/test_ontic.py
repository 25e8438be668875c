"""Stochastic engine: strength levels, gate rules, shots and the
vectorised/single-shot equivalence."""

import math

import numpy as np
import pytest

from interfersim import ensemble, ontic, rng
from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
)
from interfersim.compiler import haar_unitary, reck_decompose
from interfersim.ensemble import run_ensemble
from interfersim.ontic import (
    ZERO_LEVEL,
    OnticState,
    ShotDiagnostics,
    gate_beamsplitter,
    gate_detector,
    gate_free,
    gate_phase,
    mix_amplitudes,
    run_ontic_shot,
    step_layer,
    trace_json_object,
)
from interfersim.prepare import prepare_ensemble, source_prepare
from interfersim.records import OutcomeRecord, postselect
from interfersim.scenarios import (
    available_scenarios,
    mach_zehnder,
    random_circuit,
    scenario,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def make_state(q, u, tau):
    return OnticState(q, np.array(u, dtype=complex), tau)


# -- strength levels ---------------------------------------------------------

def test_strength_rejects_bad_exponent():
    for tau in [(-1, 0), (0, ZERO_LEVEL + 1), (0, 1.0), (0, None)]:
        with pytest.raises(ValueError):
            make_state(0, [1, 0], tau)


def test_level_codes_round_trip():
    # an ensemble row enters a state as Python ints and comes back unchanged
    row = np.array([ZERO_LEVEL, 0, 9], dtype=np.int64)
    state = make_state(1, [0, 1, 0], row)
    assert all(type(level) is int for level in state.tau)
    assert np.array_equal(np.array(state.tau, dtype=np.int64), row)


# -- single gates -----------------------------------------------------------

def test_free_ages_strength_only():
    state = make_state(1, [0.3 + 0.4j, 0.1], (1, 2))
    out = gate_free(state, 0)
    assert out.u[0] == 0.3 + 0.4j
    assert out.tau == (2, 2)
    assert out.q == 1


def test_free_zero_strength_absorbing():
    state = make_state(0, [1, 0], (ZERO_LEVEL, 0))
    assert gate_free(state, 0).tau[0] == ZERO_LEVEL


def test_free_never_moves_particle():
    state = make_state(0, [1, 0], (0, 0))
    assert gate_free(state, 0).q == 0
    assert gate_free(state, 1).q == 0


def test_phase_rotates_and_ages():
    state = make_state(0, [1, 0], (0, ZERO_LEVEL))
    out = gate_phase(state, 0, math.pi / 2)
    assert out.u[0] == pytest.approx(1j, abs=1e-15)
    assert out.tau[0] == 1


def test_phase_zero_still_ages():
    state = make_state(0, [0.5, 0], (2, ZERO_LEVEL))
    out = gate_phase(state, 0, 0.0)
    assert out.u[0] == 0.5
    assert out.tau[0] == 3


def test_phase_on_zero_amplitude():
    state = make_state(1, [0, 1], (0, 0))
    assert gate_phase(state, 0, 1.0).u[0] == 0


def test_detector_no_click():
    state = make_state(1, [0.2j, 1], (1, 0))
    clicked, out = gate_detector(state, 0)
    assert not clicked
    assert out.u[0] == 0.2j
    assert out.tau[0] == ZERO_LEVEL
    assert out.q == 1


def test_detector_click_resets_field():
    state = make_state(0, [0.2j, 0.5], (3, 1))
    clicked, out = gate_detector(state, 0)
    assert clicked
    assert out.u[0] == 1.0
    assert out.tau[0] == 0
    assert out.q == 0
    # untouched path keeps its field
    assert out.u[1] == 0.5 and out.tau[1] == 1


def test_splitter_suppresses_weaker_field():
    state = make_state(2, [1, 0.7, 0], (1, 2, 0))
    out = gate_beamsplitter(state, 0, 1, 0.5, np.random.default_rng(0))
    assert out.u[0] == 1j * math.sqrt(0.5)  # the 0.7 never contributes
    assert out.u[1] == math.sqrt(0.5)
    assert out.tau[0] == out.tau[1] == 2
    assert out.q == 2


def test_splitter_relocation_balanced():
    gen = np.random.default_rng(7)
    hits = 0
    shots = 4000
    for _ in range(shots):
        state = make_state(0, [1, 0], (0, 0))
        out = gate_beamsplitter(state, 0, 1, 0.5, gen)
        assert out.u[0] == 1j * math.sqrt(0.5)
        assert out.u[1] == math.sqrt(0.5)
        hits += out.q == 0
    sigma = math.sqrt(0.25 / shots)
    assert abs(hits / shots - 0.5) < 5 * sigma


def test_splitter_full_reflection_keeps_particle():
    gen = np.random.default_rng(3)
    for _ in range(50):
        state = make_state(0, [1, 0], (0, 0))
        out = gate_beamsplitter(state, 0, 1, 1.0, gen)
        assert out.u[0] == 1j and out.u[1] == 0
        assert out.q == 0


def test_splitter_degenerate_relocation_counted():
    diag = ShotDiagnostics()
    gen = np.random.default_rng(0)
    state = make_state(0, [0, 0, 1], (0, 0, 1))
    out = gate_beamsplitter(state, 0, 1, 0.5, gen, diagnostics=diag)
    assert diag.degenerate_relocations == 1
    assert out.q in (0, 1)


def test_splitter_ties_keep_both_fields():
    state = make_state(2, [0.5, 0.5j, 0], (1, 1, 0))
    out = gate_beamsplitter(state, 0, 1, 0.5, np.random.default_rng(0))
    # both inputs survive the tie
    expected_0 = 1j * math.sqrt(0.5) * 0.5 + math.sqrt(0.5) * 0.5j
    assert out.u[0] == pytest.approx(expected_0, abs=1e-15)


def test_gate_locality_bitwise():
    gen = np.random.default_rng(42)
    for _ in range(100):
        width = int(gen.integers(3, 7))
        u = gen.random(width) * np.exp(2j * math.pi * gen.random(width))
        tau = tuple(ZERO_LEVEL if k == 4 else int(k)
                    for k in gen.integers(0, 5, size=width))
        q = int(gen.integers(width))
        state = OnticState(q, u, tau)
        j, k = gen.choice(width, size=2, replace=False)
        j, k = int(j), int(k)
        outs = [
            (gate_free(state, j), {j}),
            (gate_phase(state, j, float(gen.uniform(-3, 3))), {j}),
            (gate_detector(state, j)[1], {j}),
            (gate_beamsplitter(state, j, k, float(gen.random()), gen), {j, k}),
        ]
        for out, touched in outs:
            for p in range(width):
                if p not in touched:
                    assert out.u[p] == state.u[p]
                    assert out.tau[p] == state.tau[p]
            if q not in touched:
                assert out.q == q


# -- layers and shots -------------------------------------------------------

def test_step_layer_detector_pair():
    state = make_state(0, [1, 1], (0, 0))
    results, out = step_layer(state, Layer([Detector(0), Detector(1)]),
                              np.random.default_rng(0))
    assert results == ((0, True), (1, False))
    assert out.tau == (0, ZERO_LEVEL)


def test_step_empty_layer_ages_everything():
    state = make_state(0, [0.5, 0.5], (0, 0))
    results, out = step_layer(state, Layer([]), np.random.default_rng(0))
    assert results == ()
    assert out.tau == (1, 1)
    assert np.array_equal(out.u, state.u)


def test_step_layer_disjoint_supports():
    state = make_state(0, [1, 0, 0.5], (0, 0, 0))
    layer = Layer([BeamSplitter(0, 1, 0.5), PhaseShifter(2, math.pi)])
    _, out = step_layer(state, layer, np.random.default_rng(0))
    assert out.u[2] == pytest.approx(-0.5, abs=1e-15)
    assert out.u[0] == 1j * math.sqrt(0.5)


def test_run_shot_replays_the_validated_layers(monkeypatch):
    # the circuit validated its layers once; a shot or an ensemble replays
    # them unchecked
    circuit = random_circuit(5, 12, np.random.default_rng(12))
    state = source_prepare(0, 5, np.random.default_rng(0), junk="disk")
    expected = run_ontic_shot(circuit, state, np.random.default_rng(1), trace=True)
    prepared = prepare_ensemble(0, 100, 1)
    expected_counts = run_ensemble(circuit, prepared).counts()

    def refuse(layer, width):
        raise AssertionError("layer validated again")

    monkeypatch.setattr(ontic, "validate_layer", refuse)
    monkeypatch.setattr(ensemble, "validate_layer", refuse, raising=False)
    assert run_ensemble(circuit, prepared).counts() == expected_counts
    record, trajectory = run_ontic_shot(circuit, state, np.random.default_rng(1),
                                        trace=True)
    assert record == expected[0]
    assert [np.array(s.u).tobytes() for s in trajectory] == \
        [np.array(s.u).tobytes() for s in expected[1]]
    with pytest.raises(AssertionError, match="validated again"):
        step_layer(state, circuit.layers[0], np.random.default_rng(1))


def test_states_compare_and_hash_by_value():
    a = make_state(1, [0.6, 0.8j, 0], (1, 1, ZERO_LEVEL))
    b = make_state(1, [0.6, 0.8j, -0.0], (1, 1, ZERO_LEVEL))
    assert a == b and hash(a) == hash(b)  # by value: -0.0 == 0.0
    assert a != make_state(1, [0.6, 0.8j, 0.5], (1, 1, ZERO_LEVEL))
    assert a != make_state(0, [0.6, 0.8j, 0], (1, 1, ZERO_LEVEL))
    assert b in {a} and len({a, b, gate_free(a, 0)}) == 2


def test_run_shot_zero_layers():
    state = make_state(0, [1], (0,))
    record, trajectory = run_ontic_shot(Circuit(1), state,
                                        np.random.default_rng(0), trace=True)
    assert record.events == ()
    assert trajectory == [state]


def test_run_shot_mach_zehnder_dark_port():
    circuit = mach_zehnder(0.0)
    gen = np.random.default_rng(5)
    for _ in range(300):
        init = source_prepare(0, 2, gen, junk="disk")
        record, _ = run_ontic_shot(circuit, init, gen)
        assert record.key == "L4:C2"


def test_determinism_modulo_relocation():
    # same outcome record and same initial fields => identical field history
    circuit = mach_zehnder(0.0)
    gen = np.random.default_rng(6)
    init = source_prepare(0, 2, gen, junk="zero")
    trajectories = []
    for shot in range(10):
        g = rng.shot_generator(17, rng.ONTIC_SHOTS, shot, 2)
        record, traj = run_ontic_shot(circuit, init, g, trace=True)
        assert record.key == "L4:C2"
        trajectories.append(traj)
    for traj in trajectories[1:]:
        for a, b in zip(trajectories[0], traj):
            assert np.array_equal(a.u, b.u)
            assert a.tau == b.tau


def test_dyadic_closure_along_random_shots():
    gen = np.random.default_rng(8)
    for name in ("random3-a", "random3-b", "random3-c"):
        circuit = scenario(name)
        init = source_prepare(0, circuit.width, gen, junk="disk")
        _, traj = run_ontic_shot(circuit, init, gen, trace=True)
        for state in traj:
            for level in state.tau:
                assert level == ZERO_LEVEL or 0 <= level <= circuit.depth + 1


def test_amplitude_bound_on_reachable_states():
    # amplitudes carried at the dominant strength stay within modulus 1;
    # suppressed leftovers have no uniform bound (equal-strength junk paths
    # mix norm-preservingly), so only finiteness holds for them
    gen = np.random.default_rng(9)
    for name in available_scenarios():
        circuit = scenario(name)
        for _ in range(20):
            init = source_prepare(0, circuit.width, gen, junk="disk")
            _, traj = run_ontic_shot(circuit, init, gen, trace=True)
            for state in traj:
                assert np.isfinite(state.u).all()
                top = min(state.tau)  # lowest level = strongest field
                if top == ZERO_LEVEL:
                    continue
                for j in range(state.width):
                    if state.tau[j] == top:
                        assert abs(state.u[j]) <= 1.0 + 1e-12


def test_amplitude_finiteness_enforced():
    with pytest.raises(ValueError, match="finite"):
        make_state(0, [float("nan"), 0], (0, 0))


def test_trace_json_object_shape():
    state = make_state(1, [0.5j, 1], (2, ZERO_LEVEL))
    obj = trace_json_object(3, 1, state)
    assert obj == {"shot": 3, "layer": 1, "q": 1,
                   "u": [[0.0, 0.5], [1.0, 0.0]], "tau": [2, None]}


# -- ensemble equivalence ---------------------------------------------------

@pytest.mark.parametrize("name", ["mz-3", "elitzur-vaidman", "zeno-8",
                                  "random3-a", "random3-c"])
def test_ensemble_matches_single_shots_bitwise(name):
    circuit = scenario(name)
    shots = 200
    seed = 31
    prepared = prepare_ensemble(0, shots, seed, "disk")
    result = run_ensemble(circuit, prepared)
    u = prepared.amplitudes(circuit.width)
    levels = [ZERO_LEVEL] * circuit.width
    levels[0] = 0
    draws = circuit.count_gates(BeamSplitter)
    for shot in range(shots):
        init = OnticState(0, u[shot], levels)
        gen = rng.shot_generator(seed, rng.ONTIC_SHOTS, shot, draws)
        record, traj = run_ontic_shot(circuit, init, gen)
        final = traj[-1]
        live = result.final_levels[shot] != ZERO_LEVEL
        assert record == result.record_for_shot(shot)
        assert (np.array(final.u)[live].tobytes()
                == result.final_u[shot][live].tobytes())
        assert final.q == result.final_q[shot]
        assert final.tau == tuple(result.final_levels[shot])


def test_ensemble_counts_sum_to_shots():
    circuit = scenario("mz-2")
    result = run_ensemble(circuit, prepare_ensemble(0, 5000, 3))
    counts = result.counts()
    assert sum(counts.values()) == 5000
    assert set(counts) <= {"L4:C1", "L4:C2"}


def reference_counts(result, post=()):
    """The row-sort tally: ``np.unique`` over the whole record rows that
    hold every ``(layer, result)`` constraint of ``post``."""
    if result.records.shape[1] == 0:
        return {"-": result.shots}
    column = {layer: i for i, layer in enumerate(result.detector_layers)}
    keep = np.ones(result.shots, dtype=bool)
    for layer, wanted in post:
        keep &= result.records[:, column[layer]] == (-1 if wanted is None else wanted)
    rows, counts = np.unique(result.records[keep], axis=0, return_counts=True)
    out = {}
    for row, n in zip(rows, counts):
        events = tuple((layer, None if value == -1 else int(value))
                       for layer, value in zip(result.detector_layers, row))
        out[OutcomeRecord(events).key] = int(n)
    return out


def _tally_case(name):
    if name == "no-detectors":
        circuit = Circuit(2, [Layer([BeamSplitter(0, 1, 0.5)])], name=name)
    elif name == "wide":
        circuit = random_circuit(8, 36, np.random.default_rng(11), p_detector=0.4)
    else:
        circuit = scenario("zeno-8")
    result = run_ensemble(circuit, prepare_ensemble(0, 20000, 6, "disk"))
    return circuit, result, ((1, None), (3, None)) if name == "postselected" else ()


@pytest.mark.parametrize("name", ["no-detectors", "zeno-8", "postselected", "wide"])
def test_ensemble_counts_match_row_sort_tally(name):
    circuit, result, post = _tally_case(name)
    if name == "wide":  # mixed-radix codes of these rows overflow int64
        assert len(result.detector_layers) >= 25
        assert (circuit.width + 1) ** len(result.detector_layers) > 2 ** 63
        assert len(np.unique(result.records, axis=0)) > 1000
    assert list(postselect(result.counts(), post).items()) == \
        list(reference_counts(result, post).items())
    assert sum(result.counts().values()) == result.shots


def test_ensemble_no_degenerate_relocations_from_valid_preparations():
    for name in available_scenarios():
        circuit = scenario(name)
        result = run_ensemble(circuit, prepare_ensemble(0, 2000, 5, "disk"))
        assert result.degenerate_relocations == 0


@pytest.mark.parametrize("path", [0, 1])
def test_ensemble_flags_amplitude_overflow(monkeypatch, path):
    # a rotation that overflows on the live path, where the group field is
    def overflowing(re, im, cos_w, sin_w):
        return np.full_like(re, np.inf), im

    monkeypatch.setattr(ensemble, "rotate_amplitude", overflowing)
    circuit = Circuit(2, [Layer([PhaseShifter(path, math.pi / 4)])])
    with pytest.raises(AssertionError, match="non-finite amplitude after layer 0"):
        run_ensemble(circuit, prepare_ensemble(path, 10, 3))


def test_ensemble_asserts_splitter_expansion(monkeypatch):
    def expanding(*args):
        return tuple(2.0 * part for part in mix_amplitudes(*args))

    monkeypatch.setattr(ensemble, "mix_amplitudes", expanding)
    with pytest.raises(AssertionError, match="expanded the pair intensity"):
        run_ensemble(scenario("mz-2"), prepare_ensemble(0, 10, 3))


def test_ensemble_asserts_dyadic_range(monkeypatch):
    # a circuit that under-reports its depth by one: the prepared path's
    # level outgrows the bound at the last layer
    monkeypatch.setattr(Circuit, "depth",
                        property(lambda self: len(self.layers) - 1))
    circuit = Circuit(2, [Layer([PhaseShifter(0, 0.3)]),
                          Layer([PhaseShifter(1, 0.3)])])
    with pytest.raises(AssertionError, match="left the dyadic range"):
        run_ensemble(circuit, prepare_ensemble(0, 10, 3))


def test_ensemble_groups_are_record_prefixes():
    # a prepared ensemble is one field group; each detector layer splits it
    # by outcome, so a mesh with terminal detectors ends with a group per
    # outcome record
    n = 6
    mesh = reck_decompose(haar_unitary(n, np.random.default_rng(8)))
    circuit = Circuit(n, list(mesh.layers) + [Layer([Detector(j) for j in range(n)])])
    result = run_ensemble(circuit, prepare_ensemble(2, 20000, 8, "disk"))
    assert result.groups == len(result.counts()) == n


@pytest.mark.parametrize("name, post", [
    *((name, None) for name in available_scenarios()),
    ("zeno-8", tuple((layer, None) for layer in range(1, 15, 2))),
])
def test_ensemble_has_a_record_row_per_group(name, post):
    # every present group has a record row of its own, which counts()
    # relies on; a post-selection keeps some of those rows
    circuit = scenario(name)
    result = run_ensemble(circuit, prepare_ensemble(0, 20000, 8, "disk"))
    assert result.groups == len(result.counts())
    assert len(np.unique(result.records, axis=0)) == result.groups
    if post:
        kept = postselect(result.counts(), post)
        assert 0 < sum(kept.values()) < 20000
        assert 0 < len(kept) < result.groups


def test_counts_refuses_groups_that_share_a_record():
    # two groups with one record row: a broken split, never merged
    fields = ensemble._Fields(
        group=np.array([0, 1, 1]), size=np.array([1, 2]),
        records=np.full((1, 2), -1, dtype=np.int16),
        levels=np.zeros((2, 2), dtype=np.int64), u_re=np.zeros((2, 2)),
        u_im=np.zeros((2, 2)))
    result = ensemble.EnsembleResult((0,), np.zeros(3, dtype=np.int64), 0, fields)
    assert result.groups == 2
    with pytest.raises(AssertionError, match="share a record"):
        result.counts()


@pytest.mark.parametrize("name, constraints, expected", [
    ("elitzur-vaidman", ((1, None),), {"L2:N;L4:C1": 1236, "L2:N;L4:C2": 1280}),
    ("zeno-8", tuple((layer, None) for layer in range(1, 15, 2)),
     {"L2:N;L4:N;L6:N;L8:N;L10:N;L12:N;L14:N;L16:N;L17:C1": 3667,
      "L2:N;L4:N;L6:N;L8:N;L10:N;L12:N;L14:N;L16:C2;L17:C2": 153}),
])
def test_ensemble_postselected_counts(name, constraints, expected):
    # counts recorded before the ensemble computed its fields per group
    circuit = scenario(name)
    result = run_ensemble(circuit, prepare_ensemble(0, 5000, 4, "disk"))
    assert postselect(result.counts(), constraints) == expected
    assert len(expected) < result.groups
