"""Label extraction, class membership, predicted updates, congruence, and
the projection/update commutation identity."""

import math

import numpy as np
import pytest

from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
)
from interfersim.labels import (
    PROJECTION_TOL,
    _judge,
    _project,
    check_delta_commutation,
    dominant_strength,
    extract_label,
    predicted_label_update,
    verify_congruence,
)
from interfersim.ontic import ZERO_LEVEL, OnticState, run_ontic_shot
from interfersim.prepare import source_prepare
from interfersim.quantum import (
    RAY_TOL,
    ImpossibleOutcomeError,
    QuantumState,
    RecordTree,
    exact_outcome_distribution,
    ray_overlap,
    run_quantum_shot,
)
from interfersim.records import parse_event_token, record_key
from interfersim.scenarios import (
    available_scenarios,
    build_scenario,
    mach_zehnder,
    random_circuit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def make_state(q, u, tau):
    return OnticState(q, np.array(u, dtype=complex), tau)


def post_click_state(j, width):
    u = np.zeros(width, dtype=complex)
    u[j] = 1.0
    tau = [ZERO_LEVEL] * width
    tau[j] = 0
    return OnticState(j, u, tau)


def ray_equal(a, b):
    """Whether two states span one ray."""
    return ray_overlap(a.amplitudes, b.amplitudes) >= 1.0 - RAY_TOL


def first_failure(report):
    """The first layer check of a congruence report that fails."""
    return next(c for c in report.checks
                if not (c.deviation <= RAY_TOL and c.member))


# -- dominant strength and projection ---------------------------------------

def test_dominant_strength_examples():
    # the strongest field is the smallest level
    assert dominant_strength(make_state(0, [0, 0, 0], (1, 3, ZERO_LEVEL))) == 1
    assert dominant_strength(make_state(0, [0, 0, 0], (ZERO_LEVEL, 3, 1))) == 1
    assert dominant_strength(make_state(0, [0, 0],
                                        (ZERO_LEVEL, ZERO_LEVEL))) == ZERO_LEVEL
    assert dominant_strength(make_state(0, [0, 0], (2, 2))) == 2


def test_delta_projection_keeps_strongest():
    state = make_state(0, [0.5, 0.8j], (1, 2))
    assert np.array_equal(_project(state, dominant_strength(state)), [0.5, 0])
    state = make_state(0, [0.5, 0.8j], (2, 1))
    assert np.array_equal(_project(state, dominant_strength(state)), [0, 0.8j])


def test_delta_projection_tie_keeps_both():
    state = make_state(0, [0.5, 0.8j], (1, 1))
    assert np.array_equal(_project(state, dominant_strength(state)), [0.5, 0.8j])


def test_delta_projection_can_be_zero_vector():
    state = make_state(1, [0, 1], (1, 3))
    assert np.array_equal(_project(state, dominant_strength(state)), [0, 0])
    assert extract_label(state) is None


def test_delta_projection_rejects_all_zero():
    # with every strength zero there is nothing to project: no label, the
    # full deviation, and no class membership
    state = make_state(0, [1, 0], (ZERO_LEVEL, ZERO_LEVEL))
    assert extract_label(state) is None
    assert _judge(state, QuantumState.basis(0, 2)) == (1.0, False)


# -- label extraction and membership ----------------------------------------

def test_extract_label_post_click():
    label = extract_label(post_click_state(1, 3))
    assert ray_equal(label, QuantumState.basis(1, 3))


def test_extract_label_scale_invariant():
    state = make_state(0, [1j * INV_SQRT2 * 0.5, INV_SQRT2 * 0.5],
                       (1, 1))
    label = extract_label(state)
    assert ray_equal(label, QuantumState([1j * INV_SQRT2, INV_SQRT2]))


# Membership in a labelled class is judged at the class anchored at the
# particle's position: ``_judge(state, z)[1]``.

def test_in_class_post_click():
    state = post_click_state(2, 4)
    assert _judge(state, QuantumState.basis(2, 4))[1]
    moved = OnticState(1, state.u, state.tau)
    assert not _judge(moved, QuantumState.basis(2, 4))[1]


def test_in_class_requires_dominant_strength_at_anchor():
    # particle parked on a weaker-strength path fails the membership test
    state = make_state(0, [0.5, 1], (2, 1))
    z = extract_label(state)
    assert z is not None
    assert not _judge(state, z)[1]
    state2 = make_state(1, [0.5, 1], (2, 1))
    assert _judge(state2, z)[1]


def test_class_disjointness():
    gen = np.random.default_rng(12)
    for _ in range(200):
        width = int(gen.integers(2, 6))
        u = gen.random(width) * np.exp(2j * math.pi * gen.random(width))
        tau = tuple(ZERO_LEVEL if k == 3 else int(k)
                    for k in gen.integers(0, 4, size=width))
        state = OnticState(int(gen.integers(width)), u, tau)
        z = extract_label(state)
        if z is None:
            continue
        # the anchor is the particle's path, so a state has at most one
        if _judge(state, z)[1]:
            other = QuantumState(np.roll(z.amplitudes, 1)) if width > 1 else z
            if not ray_equal(other, z):
                assert not _judge(state, other)[1]


# -- predicted label updates -------------------------------------------------

def test_update_through_splitter():
    layer = Layer([BeamSplitter(0, 1, 0.5)])
    out = predicted_label_update(QuantumState.basis(0, 2), layer, None)
    assert ray_equal(out, QuantumState([1j * INV_SQRT2, INV_SQRT2]))


def test_update_click_resets_to_basis():
    layer = Layer([Detector(1)])
    z = QuantumState([0.6, 0.8j])
    assert ray_equal(predicted_label_update(z, layer, 1),
                     QuantumState.basis(1, 2))


def test_update_click_requires_detector():
    with pytest.raises(ValueError, match="no detector"):
        predicted_label_update(QuantumState.basis(0, 2), Layer([Detector(1)]), 0)


def test_update_noclick_matches_quantum_collapse():
    third = 1.0 / math.sqrt(3.0)
    layer = Layer([Detector(0)])
    out = predicted_label_update(QuantumState([third, third, third]), layer, None)
    assert ray_equal(out, QuantumState([0, INV_SQRT2, INV_SQRT2]))


def test_update_noclick_impossible():
    with pytest.raises(ImpossibleOutcomeError):
        predicted_label_update(QuantumState.basis(0, 2), Layer([Detector(0)]), None)


def test_label_chain_is_sampler_state():
    # the predicted label is the quantum engine's state: chained along the
    # record the sampler drew, it ends on the sampler's state bit for bit
    gen = np.random.default_rng(2024)
    for _ in range(30):
        width = int(gen.integers(2, 9))
        full = random_circuit(width, int(gen.integers(2, 16)), gen,
                              p_detector=0.25)
        circuit = Circuit(width, full.layers[:-1])  # keep the final state live
        init = QuantumState.basis(int(gen.integers(width)), width)
        tree = RecordTree(circuit, init)
        for _ in range(20):
            key = run_quantum_shot(tree, gen)
            node = _walk(tree, key)  # the sampler's final state
            label, events = init, _clicks(key)
            for idx, layer in enumerate(circuit.layers):
                label = predicted_label_update(label, layer, events.get(idx))
            assert np.array_equal(label.amplitudes, node.state.amplitudes)


# -- congruence ---------------------------------------------------------------

def traced_shot(circuit, seed, junk="disk"):
    gen = np.random.default_rng(seed)
    init = source_prepare(0, circuit.width, gen, junk=junk)
    return run_ontic_shot(circuit, init, gen)


def _clicks(key):
    """Layer -> result of every token of a record key."""
    return {} if key == "-" else dict(map(parse_event_token, key.split(";")))


def _walk(tree, key):
    """The node of ``tree`` after the last layer of the record ``key``."""
    node, clicks = tree.root, _clicks(key)
    for k in range(tree.circuit.depth):
        node = tree.child(node, k, clicks.get(k))
    return node


@pytest.mark.parametrize("omega", [0.0, math.pi / 3, math.pi / 2, math.pi])
def test_congruence_on_mach_zehnder(omega):
    circuit = mach_zehnder(omega)
    for seed in range(40):
        _, trajectory = traced_shot(circuit, seed)
        report = verify_congruence(trajectory,
                                   RecordTree(circuit, QuantumState.basis(0, 2)))
        assert report.passed
        assert report.max_deviation < 1e-12


def test_congruence_zero_layer_circuit_vacuous():
    circuit = Circuit(2)
    state = post_click_state(0, 2)
    report = verify_congruence([state],
                               RecordTree(circuit, QuantumState.basis(0, 2)))
    assert report.passed
    assert report.checks == ()


def _read_record(trajectory, tree):
    """The record key a traced shot shows: layer ``k`` clicked where the
    particle ends it on one of the layer's outcomes, and gave the no-click
    otherwise."""
    return record_key("".join(
        suffix.get(state.q, suffix[None])
        for suffix, state in zip(tree.suffixes, trajectory[1:])))


@pytest.mark.parametrize("key", [
    "-",                   # no outcome of the detector layer
    "L2:N;L4:C1",          # a key of the bomb tester, a layer too many
    "L3:C1",               # a layer without detectors
    "L4:C3",               # a path outside the circuit
    "L4:C1;L4:C2",         # the detector layer twice
    "L4:C1;L5:N",          # a layer past the circuit
    "L4:c1",               # not a token
])
def test_congruence_rejects_a_key_of_another_circuit(key):
    # the check takes no key: it reads the record off the trajectory, which
    # is always a record of the tree's circuit and never the foreign key
    circuit = mach_zehnder(math.pi / 3)
    init = QuantumState.basis(0, 2)
    records = exact_outcome_distribution(circuit, init).probabilities
    assert key not in records
    good, trajectory = traced_shot(circuit, 3)
    tree = RecordTree(circuit, init)
    assert _read_record(trajectory, tree) == good
    assert good in records
    assert verify_congruence(trajectory, tree).passed
    # a particle moved onto the other detector after the last layer shows
    # the other click, which disagrees with the field it carries, and the
    # check fails there
    final = trajectory[-1]
    trajectory[-1] = OnticState(1 - final.q, final.u, final.tau)
    other = _read_record(trajectory, tree)
    assert other in records and other not in (good, key)
    report = verify_congruence(trajectory, tree)
    assert not report.passed
    assert first_failure(report).layer == circuit.depth - 1
    assert report.checks[-1].deviation == 1.0


def test_congruence_rejects_label_of_other_width():
    # the labels come from a record tree, which checks the width once
    with pytest.raises(ValueError, match="width"):
        RecordTree(mach_zehnder(math.pi / 3), QuantumState.basis(0, 3))


def test_congruence_detects_corruption():
    circuit = mach_zehnder(math.pi / 3)
    _, trajectory = traced_shot(circuit, 3)
    broken = trajectory[2]
    u = list(broken.u)
    u[0] *= np.exp(0.25j)  # corrupt a dominant-strength amplitude
    trajectory[2] = OnticState(broken.q, u, broken.tau)
    tree = RecordTree(circuit, QuantumState.basis(0, 2))
    report = verify_congruence(trajectory, tree)
    assert not report.passed
    assert any(c.layer == 1 and c.deviation > 1e-9 for c in report.checks)
    assert first_failure(report).layer == 1


def test_congruence_membership_is_in_class():
    # verify_congruence judges membership from one extraction per state;
    # it must agree with the uncached judgement on members and on
    # corrupted non-members
    circuit = mach_zehnder(math.pi / 3)
    members = set()
    for seed in range(30):
        key, trajectory = traced_shot(circuit, seed)
        if seed % 3 == 1:
            # the label still matches; the anchor loses the dominant strength
            state = trajectory[-1]
            trajectory[-1] = OnticState(1 - state.q, state.u, state.tau)
        elif seed % 3 == 2:
            # the anchor keeps the dominant strength; the label turns
            state = trajectory[2]
            u = state.u * np.array([np.exp(0.25j), 1.0])
            trajectory[2] = OnticState(state.q, u, state.tau)
        report = verify_congruence(trajectory,
                                   RecordTree(circuit, QuantumState.basis(0, 2)))
        label, events = QuantumState.basis(0, 2), _clicks(key)
        for check, layer in zip(report.checks, circuit.layers):
            idx = check.layer
            label = predicted_label_update(label, layer, events.get(idx))
            state = trajectory[idx + 1]
            assert check.member == _judge(state, label)[1]
            members.add(check.member)
    assert members == {True, False}


def test_congruence_report_json_shape():
    circuit = mach_zehnder(0.5)
    _, trajectory = traced_shot(circuit, 8)
    report = verify_congruence(trajectory,
                               RecordTree(circuit, QuantumState.basis(0, 2)))
    obj = report.to_json_dict(shot=5)
    assert obj["shot"] == 5 and obj["pass"] is True
    assert len(obj["layers"]) == circuit.depth


# -- commutation identity -----------------------------------------------------

def test_commutation_splitter_tie():
    layer = Layer([BeamSplitter(0, 1, 0.5)])
    assert check_delta_commutation(layer, (0, 0), 2)


def test_commutation_splitter_one_weaker():
    layer = Layer([BeamSplitter(0, 1, 0.5)])
    assert check_delta_commutation(layer, (1, 0), 2)


def test_commutation_splitter_both_weaker():
    layer = Layer([BeamSplitter(0, 1, 0.3), PhaseShifter(2, 0.9)])
    assert check_delta_commutation(layer, (2, 3, 0), 3)


def test_commutation_diagonal_blocks():
    # detector path holds the maximum together with an unmeasured path
    layer = Layer([Detector(0), PhaseShifter(1, 1.1)])
    assert check_delta_commutation(layer, (0, 0, 2), 3)


def test_commutation_fails_outside_domain():
    # when only a detector path attains the maximum strength the two sides
    # genuinely differ: the left keeps the new maximum, the right keeps nothing
    layer = Layer([Detector(0), PhaseShifter(1, 1.1)])
    assert not check_delta_commutation(layer, (0, 1, 2), 3)


def test_commutation_randomized():
    gen = np.random.default_rng(77)
    tried = 0
    while tried < 500:
        width = int(gen.integers(2, 7))
        layer, taus = _random_config(width, gen)
        if not _in_identity_domain(layer, taus, width):
            continue
        tried += 1
        assert check_delta_commutation(layer, taus, width)


def _random_config(width, gen):
    paths = list(gen.permutation(width))
    gates = []
    while paths:
        p = int(paths.pop())
        roll = gen.random()
        if roll < 0.4 and paths:
            gates.append(BeamSplitter(p, int(paths.pop()), float(gen.random())))
        elif roll < 0.6:
            gates.append(Detector(p))
        elif roll < 0.8:
            gates.append(PhaseShifter(p, float(gen.uniform(-math.pi, math.pi))))
    taus = tuple(ZERO_LEVEL if k == 4 else int(k)
                 for k in gen.integers(0, 5, size=width))
    return Layer(gates), taus


def _in_identity_domain(layer, taus, width):
    # the identity needs the pre-layer maximum to be non-zero and attained
    # on at least one path without a detector
    top = min(taus)  # lowest level = strongest field
    if top == ZERO_LEVEL:
        return False
    detectors = {g.path for g in layer.gates if isinstance(g, Detector)}
    return any(taus[j] == top for j in range(width) if j not in detectors)


# -- congruence through a shared record-prefix tree ---------------------------

def _tree_cases():
    cases = [build_scenario(name) for name in available_scenarios()]
    gen = np.random.default_rng(326)
    for width in range(2, 9):
        cases.append(random_circuit(width, int(gen.integers(2, 20)), gen))
    return cases


def _report_bits(report):
    return [(c.layer, c.deviation.hex(), c.member) for c in report.checks], \
        report.max_deviation.hex(), report.passed


def _cache_entries(tree):
    """Overlap-cache entries over every node of ``tree``."""
    nodes, stack = [], [tree.root, *tree._clicks.values()]
    while stack:
        node = stack.pop()
        if node is not None and all(node is not seen for seen in nodes):
            nodes.append(node)
            stack.append(node.no_click)
    return sum(len(node.overlaps) for node in nodes)


def _dead_junk_swapped(state):
    """``state`` with other junk on every path below the dominant strength."""
    top = min(state.tau)
    u = [x if level == top else complex(7.0, -3.0 - j)
         for j, (x, level) in enumerate(zip(state.u, state.tau))]
    return OnticState(state.q, u, state.tau)


def _flip_zero(x):
    return -x if x == 0.0 else x


def _zeros_flipped(state):
    """``state`` with the sign of every zero component flipped on its
    dominant paths (``1+0j`` becomes ``complex(1.0, -0.0)``)."""
    top = min(state.tau)
    u = [complex(_flip_zero(x.real), _flip_zero(x.imag)) if level == top else x
         for x, level in zip(state.u, state.tau)]
    return OnticState(state.q, u, state.tau)


@pytest.mark.parametrize("circuit", _tree_cases(), ids=lambda c: c.name or
                         f"random{c.width}x{c.depth}")
def test_congruence_through_shared_tree_is_bit_identical(circuit):
    label0 = QuantumState.basis(0, circuit.width)
    tree = RecordTree(circuit, label0)
    for seed in range(25):
        key, trajectory = traced_shot(circuit, seed)
        shared = verify_congruence(trajectory, tree)
        alone = verify_congruence(trajectory, RecordTree(circuit, label0))
        assert shared == alone
        assert _report_bits(shared) == _report_bits(alone)
        # Shots that differ only in dead-path junk or in the sign of a zero
        # on a dominant path share the cache entries of this one.
        entries = _cache_entries(tree)
        for variant in (_dead_junk_swapped, _zeros_flipped):
            twin = [variant(state) for state in trajectory]
            assert repr(twin) != repr(trajectory)  # some bits did change
            again = verify_congruence(twin, tree)
            assert _cache_entries(tree) == entries
            assert _report_bits(again) == _report_bits(shared)
            fresh = verify_congruence(twin, RecordTree(circuit, label0))
            assert _report_bits(fresh) == _report_bits(shared)
    # States whose dominant paths differ, in amplitude or in which paths
    # they are, get entries of their own at the node of the last layer.
    final = trajectory[-1]
    top = min(final.tau)
    assert top < ZERO_LEVEL  # the last layer's detectors clicked
    j = final.tau.index(top)
    turned = list(final.u)
    turned[j] = turned[j] * complex(math.cos(0.25), math.sin(0.25)) + 0.5
    raised = list(final.tau)
    raised[j] = top + 1
    node = _walk(tree, key)
    for other in (OnticState(final.q, turned, final.tau),
                  OnticState(final.q, final.u, raised)):
        before = len(node.overlaps)
        _judge(other, node.state, node.overlaps)
        assert len(node.overlaps) == before + 1


def test_congruence_through_shared_tree_keeps_errors():
    circuit = mach_zehnder(math.pi / 3)
    label0 = QuantumState.basis(0, 2)
    tree = RecordTree(circuit, label0)
    _, trajectory = traced_shot(circuit, 3)
    verify_congruence(trajectory, tree)
    broken = trajectory[2]
    trajectory[2] = OnticState(broken.q, broken.u * np.array([np.exp(0.25j), 1.0]),
                               broken.tau)
    failures = []
    for shared in (tree, RecordTree(circuit, label0)):
        report = verify_congruence(trajectory, shared)
        assert not report.passed
        failures.append(first_failure(report))
    assert [check.layer for check in failures] == [1, 1]
    assert failures[0].deviation == failures[1].deviation > RAY_TOL
    # a particle that misses a certain detector shows an impossible no-click
    certain = Circuit(2, [Layer([Detector(0)])])
    tree = RecordTree(certain, label0)
    for _ in range(2):
        with pytest.raises(ImpossibleOutcomeError):
            verify_congruence([post_click_state(0, 2), post_click_state(1, 2)],
                              tree)


# -- deviations keep the bits of a plain reference ----------------------------

def _reference_deviation(state, label):
    """``1 - |overlap|`` as written with ``np.linalg.norm`` throughout."""
    top = min(state.tau)
    if top == ZERO_LEVEL:
        return 1.0
    projected = np.where(np.array(state.tau) == top, state.u, 0.0j)
    norm = float(np.linalg.norm(projected))
    if norm <= PROJECTION_TOL:
        return 1.0
    unit = projected / norm
    na = float(np.linalg.norm(unit))
    nb = float(np.linalg.norm(label.amplitudes))
    overlap = float(abs(np.vdot(unit, label.amplitudes)) / (na * nb))
    assert ray_overlap(unit, label.amplitudes).hex() == overlap.hex()
    return 1.0 - overlap


@pytest.mark.parametrize("circuit", _tree_cases(), ids=lambda c: c.name or
                         f"random{c.width}x{c.depth}")
def test_congruence_deviations_match_reference_bits(circuit):
    label0 = QuantumState.basis(0, circuit.width)
    tree = RecordTree(circuit, label0)
    skew = np.exp(0.25j * np.arange(circuit.width))  # off-label fields too
    for seed in range(12):
        key, trajectory = traced_shot(circuit, seed)
        if seed % 3 == 2:
            trajectory = [OnticState(s.q, s.u * skew, s.tau) for s in trajectory]
        report = verify_congruence(trajectory, tree)
        label, clicks = label0, _clicks(key)
        expected = []
        for layer_idx, layer in enumerate(circuit.layers):
            label = predicted_label_update(label, layer, clicks.get(layer_idx))
            expected.append(_reference_deviation(trajectory[layer_idx + 1],
                                                 label).hex())
        assert [c.deviation.hex() for c in report.checks] == expected
