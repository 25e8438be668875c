"""Reference quantum engine: state vector, gate unitaries, Born sampling.

States are normalized complex vectors over the circuit paths, equal up to a
global phase. Phase shifters and beam splitters act unitarily on their own
components; a detector layer is a single projective measurement event with
click probability ``|psi_j|**2`` per detector and a joint no-click branch
that projects out every detector path at once.

Each gate rule is written once, in ``_apply_gates``, which acts on the rows
of an array: the entries of a state vector, or the rows of the identity for
``unitary_part``. The layer rule is written once, in ``_measure_layer``: it
applies a layer's gates and returns the detector paths, their click
probabilities and the no-click probability; ``collapse`` then conditions
the state on one outcome.

The state after a layer is a function of the outcome record so far, so
``RecordTree`` computes it once per record prefix: each node runs
``_measure_layer`` once and each edge ``collapse`` once, however many shots
or branches pass through. The tree holds its circuit and initial state, so
the sampler and the label check are handed the tree alone, and it states
each layer's record text once (``RecordTree.suffixes``). It serves three
consumers.
``run_quantum_shot`` walks it, picking one outcome per detector layer from a
single uniform draw against the node's cached thresholds;
``interfersim.labels`` walks a given record key through it to predict the
stochastic engine's labels; and ``exact_outcome_distribution`` walks every
outcome of it, multiplying the node's cached probabilities. Sharing a tree
changes no bit: every node holds exactly the state that a shot stepping
alone would compute. The enumeration walks the layers with a frontier of
live branches (no recursion, so circuit depth is not limited by Python's
stack) and grows each branch in place into its clicks in ascending path
order and then its no-click, so the result lists outcomes in depth-first
order. Every live branch ends in at least one leaf, so the branch cap trips
for exactly the circuits with more leaves than the cap, as soon as the
frontier passes it. The enumeration never walks back, so its tree lets go
of each layer's nodes once the next layer's are grown: memory is bounded by
the cap and the width, not the depth, at most about ``branch_cap`` live
branches, each a node, a probability and its record key so far, and the
current layer's click nodes. The last layer grows no nodes, since no final
state is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .circuits import BeamSplitter, Circuit, Gate, Layer, PhaseShifter, check_path
from .records import event_suffix, key_tokens, record_key

# Norm drift below RENORM_TOL is ignored, between the two it is silently
# renormalized, beyond FAIL_TOL it is treated as an internal error.
RENORM_TOL = 1e-9
FAIL_TOL = 1e-6

# Two unit vectors whose ray overlap is at least 1 - RAY_TOL span one ray.
RAY_TOL = 1e-9

# Outcome branches with probability at or below this are impossible.
IMPOSSIBLE_TOL = 1e-12

# Default budget of live branches for the exact enumeration.
BRANCH_CAP = 10 ** 6


class ImpossibleOutcomeError(ValueError):
    """Conditioning on an outcome whose probability is zero."""


class BranchCapError(RuntimeError):
    """Exact outcome enumeration exceeded its branch budget."""


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector, bit for bit: the same
    two dot products and square root, without the general function's
    dispatch."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector; two states are one physical state when their
    :func:`ray_overlap` is at least ``1 - RAY_TOL``."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes: Iterable[complex]):
        # a private copy either way; only a non-array needs the tuple
        psi = np.array(amplitudes if isinstance(amplitudes, np.ndarray)
                       else tuple(amplitudes), dtype=np.complex128)
        if psi.ndim != 1 or psi.size == 0:
            raise ValueError("state must be a non-empty vector")
        norm = _norm(psi)
        if not abs(norm - 1.0) <= FAIL_TOL:  # also rejects NaN
            raise ValueError(f"state norm {norm} too far from 1")
        if abs(norm - 1.0) > RENORM_TOL:
            psi = psi / norm
        psi.setflags(write=False)
        object.__setattr__(self, "amplitudes", psi)

    @property
    def width(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis(cls, path: int, width: int) -> "QuantumState":
        check_path(path, width)
        psi = np.zeros(width, dtype=np.complex128)
        psi[path] = 1.0
        psi.setflags(write=False)
        state = object.__new__(cls)  # a unit vector: the checks pass as is
        object.__setattr__(state, "amplitudes", psi)
        return state


def ray_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """``|<a|b>| / (|a||b|)``; 1 means the vectors span the same ray."""
    na = _norm(a)
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(abs(np.vdot(a, b)) / (na * nb))


def beamsplitter_matrix(reflectivity: float) -> np.ndarray:
    """2x2 coupler block ``[[i sqrt(R), sqrt(T)], [sqrt(T), i sqrt(R)]]``."""
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity!r} outside [0, 1]")
    r = math.sqrt(reflectivity)
    t = math.sqrt(1.0 - reflectivity)
    return np.array([[1j * r, t], [t, 1j * r]], dtype=np.complex128)


def _apply_gates(rows: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply the phase shifters and beam splitters among ``gates`` in place
    to the rows of ``rows`` (entries of a state vector, or rows of a matrix
    it left-multiplies); detectors act as identity. Returns ``rows``."""
    for gate in gates:
        if isinstance(gate, PhaseShifter):
            rows[gate.path] *= np.exp(1j * gate.omega)
        elif isinstance(gate, BeamSplitter):
            # the entries of beamsplitter_matrix, from the gate's constants
            i_root_r, root_t = 1j * gate.root_r, complex(gate.root_t)
            s, t = gate.s, gate.t
            rows[s], rows[t] = (i_root_r * rows[s] + root_t * rows[t],
                                root_t * rows[s] + i_root_r * rows[t])
    return rows


def _evolve(state: QuantumState, gates: Sequence[Gate]) -> QuantumState:
    return QuantumState(_apply_gates(state.amplitudes.copy(), gates))


def project_no_click(state: QuantumState, paths: Iterable[int]) -> QuantumState:
    """Joint no-click collapse: zero every listed component, renormalize once."""
    psi = state.amplitudes.copy()
    for path in paths:
        check_path(path, state.width)
        psi[path] = 0.0
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq <= IMPOSSIBLE_TOL:
        raise ImpossibleOutcomeError("joint no-click has probability 0")
    return QuantumState(psi / math.sqrt(norm_sq))


def collapse(state: QuantumState, detectors: tuple[int, ...],
             click: int | None) -> QuantumState:
    """The state after a layer's measurement event: a click at path
    ``click`` resets it to that basis state, a joint no-click projects out
    every detector path (:func:`project_no_click`), and a layer without
    detectors leaves it unchanged."""
    if click is not None:
        if click not in detectors:
            raise ValueError(f"path {click} has no detector in this layer")
        return QuantumState.basis(click, state.width)
    if not detectors:
        return state
    return project_no_click(state, detectors)


def unitary_part(layer: Layer, width: int) -> np.ndarray:
    """Matrix of the layer's phase shifters and beam splitters (detectors and
    free paths contribute identity)."""
    return _apply_gates(np.eye(width, dtype=np.complex128), layer.gates)


def _detectors(layer: Layer) -> tuple[int, ...]:
    return tuple(sorted(layer.detector_paths()))


def sum_in_order(values: Iterable[float]) -> float:
    """Add ``values`` left to right from 0, one rounded addition each: the
    bits of the built-in ``sum`` up to Python 3.11. From 3.12 ``sum``
    compensates float rounding (Neumaier), so its bits depend on the
    interpreter."""
    total = 0
    for value in values:
        total += value
    return total


def _measure_layer(state: QuantumState, layer: Layer,
                   detectors: tuple[int, ...] | None = None,
                   ) -> tuple[QuantumState, tuple[int, ...], list[float], float]:
    """One layer step: apply the layer's phase shifters and beam splitters,
    then give the measurement event of its detectors.

    Returns the state before collapse, the sorted detector paths
    (``detectors`` when the caller already holds them), their click
    probabilities, and the joint no-click probability
    ``max(0, 1 - sum(probs))``. A layer without detectors has no event.
    """
    if detectors is None:
        detectors = _detectors(layer)
    if len(detectors) < len(layer.gates):  # a phase shifter or splitter
        state = _evolve(state, layer.gates)
    probs = [float(abs(state.amplitudes[j]) ** 2) for j in detectors]
    return state, detectors, probs, max(0.0, 1.0 - sum_in_order(probs))


class LayerEvent(NamedTuple):
    """A node's measurement event at one layer: the state before collapse,
    the sorted detector paths, their click probabilities, the joint
    no-click probability, and the ``(path, threshold)`` pairs of cumulative
    click probabilities over ``(clicks..., no-click)`` in detector order."""

    state: QuantumState
    detectors: tuple[int, ...]
    probs: list[float]
    no_click: float
    thresholds: tuple[tuple[int, float], ...]


class _Node:
    """A record prefix: the state before layer ``k``, its measurement event
    at layer ``k`` and its no-click child, each filled in on first use, and
    the ray overlaps that ``interfersim.labels`` judged against the state,
    by the judged state's levels and dominant amplitudes."""

    __slots__ = ("state", "event", "no_click", "overlaps")

    def __init__(self, state: QuantumState):
        self.state = state
        self.event = None
        self.no_click = None
        self.overlaps: dict[tuple, float] = {}


class RecordTree:
    """The quantum state as a function of the outcome record prefix, built
    lazily and shared by every shot of one circuit and initial state (the
    module docstring names its consumers). A node holds the state before
    layer ``k``. :meth:`event` runs :func:`_measure_layer` once per node and
    keeps its :class:`LayerEvent`: the click and no-click probabilities and
    the cumulative click thresholds; :meth:`child` runs :func:`collapse`
    once per edge. A click resets the state to a basis vector, so the click
    child at ``(k, j)`` is one node for the whole tree; a no-click child
    belongs to its parent. The tree therefore holds at most ``1 + depth * (1
    + detectors)`` nodes, whatever the number of shots or branches walked
    through it. ``suffixes[k]``, the one table that writes and reads record
    keys, maps each outcome of layer ``k`` (a detector path, or ``None`` for
    the no-click) to its :func:`~interfersim.records.event_suffix`; a layer
    without detectors has the one outcome ``None``, which adds nothing.
    """

    def __init__(self, circuit: Circuit, init: QuantumState):
        if init.width != circuit.width:
            raise ValueError("initial state width does not match circuit")
        self.circuit = circuit
        self.root = _Node(init)
        self.nodes = 1
        self._detector_paths = [_detectors(layer) for layer in circuit.layers]
        self._clicks: dict[tuple[int, int], _Node] = {}
        silent = {None: ""}  # shared by every layer without detectors
        self.suffixes = [
            {click: event_suffix(k, click) for click in (*paths, None)}
            if paths else silent for k, paths in enumerate(self._detector_paths)]
        self._read = None  # token -> outcome per detector layer, on first read

    def clicks(self, key: str) -> list[int | None]:
        """Each layer's outcome in the record ``key`` (``None`` for a no-click
        or no detectors), read through :attr:`suffixes`; a key that does not
        fit the circuit raises ``ValueError``."""
        if self._read is None:  # a token is the key of a one-event record
            self._read = [(k, {record_key(text): c for c, text in table.items()})
                          for k, table in enumerate(self.suffixes)
                          if self._detector_paths[k]]
        clicks = [None] * self.circuit.depth
        try:  # a token per detector layer, each one of the layer's outcomes
            for (k, outcomes), token in zip(self._read, key_tokens(key),
                                            strict=True):
                clicks[k] = outcomes[token]
        except (KeyError, ValueError):
            raise ValueError(f"record {key!r} does not fit the circuit") from None
        return clicks

    def event(self, node: _Node, k: int) -> LayerEvent:
        """Layer ``k`` from ``node``, measured on first use."""
        if node.event is None:
            state, detectors, probs, no_click = _measure_layer(
                node.state, self.circuit.layers[k], self._detector_paths[k])
            total = sum_in_order(probs) + no_click
            acc = 0.0
            thresholds = []
            for j, p in zip(detectors, probs):
                acc += p / total
                thresholds.append((j, acc))
            node.event = LayerEvent(state, detectors, probs, no_click,
                                    tuple(thresholds))
        return node.event

    def child(self, node: _Node, k: int, click: int | None) -> _Node:
        """The node after layer ``k`` from ``node`` with outcome ``click``
        (``None`` for a joint no-click or a layer without detectors)."""
        if click is None:
            if node.no_click is None:
                event = self.event(node, k)
                node.no_click = self._new(
                    collapse(event.state, event.detectors, None))
            return node.no_click
        key = (k, click)
        found = self._clicks.get(key)
        if found is None:  # a click forgets the state: one node per (k, j)
            found = self._clicks[key] = self._new(
                collapse(node.state, self._detector_paths[k], click))
        return found

    def _new(self, state: QuantumState) -> _Node:
        self.nodes += 1
        return _Node(state)


def run_quantum_shot(tree: RecordTree, rng: np.random.Generator,
                     ) -> tuple[str, QuantumState]:
    """Execute one sampled run of the tree's circuit from its root state;
    returns the shot's record key and final state.

    Per layer: apply the unitary gates, then treat the layer's detectors as a
    single measurement event (at most one click, else joint no-click) and
    collapse accordingly. Consumes exactly one uniform draw per detector
    layer, so a shot's stream use is a function of the circuit alone. The
    shot walks ``tree``, which every shot of one circuit and initial state
    shares, and writes its key from the tree's suffixes.
    """
    node = tree.root
    measure, child, suffixes = tree.event, tree.child, tree.suffixes
    prefix = ""
    for layer_idx in range(tree.circuit.depth):
        event = node.event or measure(node, layer_idx)
        clicked = None
        if event.detectors:
            # One uniform draw through the cumulative (clicks..., no-click).
            u = rng.random()
            for j, threshold in event.thresholds:
                if u < threshold:
                    clicked = j
                    break
            prefix += suffixes[layer_idx][clicked]
        # a cached no-click child is read without the call
        node = (clicked is None and node.no_click) or child(node, layer_idx,
                                                            clicked)
    return record_key(prefix), node.state


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact probability for every reachable full outcome record, keyed by
    its record key (:mod:`interfersim.records`), in depth-first order."""

    probabilities: Mapping[str, float]

    def __post_init__(self):
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"branch probabilities sum to {total}, not 1")


def exact_outcome_distribution(circuit: Circuit, init: QuantumState,
                               branch_cap: int = BRANCH_CAP) -> OutcomeDistribution:
    """Enumerate the full outcome tree with exact branch probabilities.

    Live branches are ``(node, probability, key)`` on a :class:`RecordTree`
    of ``circuit`` and ``init``, grown layer by layer as the module
    docstring describes; each click or no-click appends the tree's suffix
    of its outcome to the key prefix. Outcomes with probability at most
    ``IMPOSSIBLE_TOL`` are pruned, so a recorded outcome absent from the
    result is an impossible event. Raises :class:`BranchCapError` as soon as
    more than ``branch_cap`` branches are live.
    """
    tree = RecordTree(circuit, init)
    # the tree keeps neither the root nor a finished layer's click nodes
    branches, tree.root = [(tree.root, 1.0, "")], None
    for layer_idx, suffix in enumerate(tree.suffixes):
        tree._clicks.clear()
        leaf = layer_idx == circuit.depth - 1  # no state after it is read
        grown = []
        for node, prob, key in branches:
            event = tree.event(node, layer_idx)  # no detectors: a certain no-click
            for j, p in zip(event.detectors, event.probs):
                if p > IMPOSSIBLE_TOL:
                    grown.append((None if leaf else tree.child(node, layer_idx, j),
                                  prob * p, key + suffix[j]))
            if event.no_click > IMPOSSIBLE_TOL:
                grown.append((None if leaf else tree.child(node, layer_idx, None),
                              prob * event.no_click, key + suffix[None]))
            if len(grown) > branch_cap:
                raise BranchCapError(
                    f"outcome enumeration exceeded {branch_cap} branches"
                )
        branches = grown
    return OutcomeDistribution({record_key(key): prob
                                for _, prob, key in branches})
