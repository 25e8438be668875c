"""Hidden-label analysis for the stochastic engine.

The amplitudes carried at the highest field strength encode a unit ray, the
state's *label*. A label is a :class:`~interfersim.quantum.QuantumState`, and
the predicted label *is* the quantum engine's state conditioned on the same
outcome record: :func:`predicted_label_update` is the quantum engine's own
layer step (``_measure_layer`` and ``collapse``), and
:func:`verify_congruence` reads each predicted label from the walk of the
record through a :class:`~interfersim.quantum.RecordTree`, the same walk the
sampler takes, so a traced run computes each layer step once per record
prefix rather than once per shot. The record is read off the trajectory,
since a detector clicks exactly when the particle is on its path, and the
tree holds the circuit and the initial label, so a check is handed the
trajectory and the tree alone. The shots through one prefix carry the same
levels and dominant-strength amplitudes, so each node also keeps the
overlap of every state judged there, keyed by ``(tau, *amplitudes at the
dominant strength)`` (``_judge``): a shot whose entry equals one already
judged reuses its overlap, whatever junk its dead paths carry. This module
extracts labels from engine states, tests membership in the family of
labelled state classes, and verifies that traced trajectories stay
congruent with the quantum state at every step. It also materialises both
sides of the projection/update commutation identity that underlies the
congruence, for randomized checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import BeamSplitter, Layer, validate_layer
from .ontic import ZERO_LEVEL, OnticState, _age
from .quantum import (
    RAY_TOL,
    QuantumState,
    RecordTree,
    _measure_layer,
    _norm,
    collapse,
    ray_overlap,
    unitary_part,
)

PROJECTION_TOL = 1e-12
COMMUTATION_TOL = 1e-12  # entrywise, between the identity's two sides


def dominant_strength(state: OnticState) -> int:
    """Level of the strongest field, the smallest level; ``ZERO_LEVEL`` iff
    all strengths are zero."""
    return min(state.tau)


def _project(state: OnticState, top: int) -> np.ndarray:
    return np.array([u if level == top else 0j
                     for u, level in zip(state.u, state.tau)])


def _unit(projected: np.ndarray) -> np.ndarray | None:
    norm = _norm(projected)
    return None if norm <= PROJECTION_TOL else projected / norm


def extract_label(state: OnticState) -> QuantumState | None:
    """Unit ray of the dominant-strength amplitudes, or None when the
    dominant strength is zero or the projected vector vanishes."""
    top = dominant_strength(state)
    unit = None if top == ZERO_LEVEL else _unit(_project(state, top))
    return None if unit is None else QuantumState(unit)


def _overlap(projected: np.ndarray, z: QuantumState) -> float:
    unit = _unit(projected)
    return 0.0 if unit is None else ray_overlap(unit, z.amplitudes)


def _judge(state: OnticState, z: QuantumState,
           overlaps: dict | None = None) -> tuple[float, bool]:
    """The state's label deviation ``1 - |overlap|`` from ``z`` (1 without
    a label), and whether the state is in the class labelled ``z`` anchored
    at its particle: the particle's path carries the dominant strength and
    the label ray-equals ``z``. Only the ray comparison uses a tolerance.

    The overlap depends on the dominant-strength paths and their amplitudes
    alone. With ``overlaps`` (a record-tree node's, for the node holding
    ``z``), it is computed once per distinct key ``(tau, *amplitudes at the
    dominant strength)`` and kept there: the levels fix which paths are
    dominant, and the shots through one node share them. Keys are told
    apart by value, so ``-0.0`` and ``0.0`` share an entry; that changes no
    overlap bit, since a signed zero adds nothing to a non-zero sum and
    ``abs`` drops the sign of a zero one.
    """
    tau = state.tau
    top = min(tau)  # the dominant strength
    if top == ZERO_LEVEL:
        overlap = 0.0
    elif overlaps is None:
        overlap = _overlap(_project(state, top), z)
    else:
        key = (tau, *compress(state.u, map(top.__eq__, tau)))
        overlap = overlaps.get(key)
        if overlap is None:
            overlap = overlaps[key] = _overlap(_project(state, top), z)
    return 1.0 - overlap, tau[state.q] == top and overlap >= 1.0 - RAY_TOL


def predicted_label_update(z: QuantumState, layer: Layer,
                           click: int | None) -> QuantumState:
    """Label after one layer, given the layer's measurement outcome: the
    quantum engine's layer step from ``z``.

    The layer's phase shifters and beam splitters act on ``z`` as in
    :func:`interfersim.quantum.run_quantum_shot`; then a click at path ``j``
    resets the label to the basis ray at ``j``, and a joint no-click projects
    out the detector paths (an impossible no-click raises
    :class:`~interfersim.quantum.ImpossibleOutcomeError`).
    """
    validate_layer(layer, z.width)
    state, detectors, _, _ = _measure_layer(z, layer)
    return collapse(state, detectors, click)


class LayerCheck(NamedTuple):
    """Congruence evidence for one layer of a traced shot."""

    layer: int
    deviation: float
    member: bool


# A LayerCheck from its field tuple, without the Python-level constructor.
_layer_check = partial(tuple.__new__, LayerCheck)


@dataclass(frozen=True)
class CongruenceReport:
    """Per-layer deviations of a traced trajectory from its predicted labels."""

    checks: tuple[LayerCheck, ...]
    max_deviation: float
    passed: bool

    def to_json_dict(self, shot: int = 0) -> dict:
        return {
            "shot": shot,
            "layers": [{"deviation": c.deviation} for c in self.checks],
            "pass": self.passed,
        }


def verify_congruence(trajectory: Sequence[OnticState],
                      tree: RecordTree) -> CongruenceReport:
    """Check a traced shot against the quantum engine, layer by layer.

    ``trajectory`` must hold the initial state followed by the state after
    every layer of the tree's circuit (``run_ontic_shot``). At each boundary
    the extracted label must ray-equal the quantum state evolved from the
    tree's root state under the shot's outcomes so far, and the state must
    belong to the labelled class anchored at its particle position.
    Deviations are ``1 - |overlap|``. The outcomes are read off the
    trajectory: a detector clicks exactly when the particle is on its path,
    and no splitter of a layer touches its detector paths, so layer ``k``
    clicked at ``q`` when the particle ends it on one of the layer's
    outcomes in ``tree.suffixes[k]``, and gave the no-click otherwise. The
    predicted labels are the nodes of those outcomes in ``tree``. The report
    carries every layer's deviation; a layer fails when its deviation
    exceeds ``RAY_TOL`` or its state is not a member.
    """
    if len(trajectory) != tree.circuit.depth + 1:
        raise ValueError("trajectory must contain the state after every layer")
    node = tree.root
    child, judge, outcomes = tree.child, _judge, tree.suffixes
    checks: list[LayerCheck] = []  # from layer -1, the initial state
    append = checks.append
    max_dev, passed = 0.0, True
    for layer_idx, state in enumerate(trajectory, -1):
        if layer_idx >= 0:  # a cached no-click child is read without the call
            click = state.q if state.q in outcomes[layer_idx] else None
            node = (click is None and node.no_click) or child(node, layer_idx,
                                                              click)
        deviation, member = judge(state, node.state, node.overlaps)
        append(_layer_check((layer_idx, deviation, member)))
        if deviation > max_dev:
            max_dev = deviation
        if not (deviation <= RAY_TOL and member):
            passed = False
    return CongruenceReport(tuple(checks[1:]), max_dev, passed)


def check_delta_commutation(layer: Layer, tau_before: Sequence[int],
                            width: int) -> bool:
    """Materialise both sides of the projection/update commutation identity
    for one layer and strength pattern and compare them entrywise.

    Left side: project onto the post-layer dominant strengths after applying
    the layer's unitary gates with per-splitter suppression. Right side:
    project onto the pre-layer dominant strengths first, then apply the
    unitary gates and zero the detector paths. The identity holds whenever
    the pre-layer maximum strength is non-zero and attained on at least one
    path without a detector; outside that domain the two sides genuinely
    differ and this check returns False.
    """
    validate_layer(layer, width)
    pairs = [(g.s, g.t) for g in layer.gates if isinstance(g, BeamSplitter)]
    detectors = list(layer.detector_paths())
    tau_before = tuple(tau_before)
    if len(tau_before) != width:
        raise ValueError("strength vector does not match width")

    top = min(tau_before)
    delta_before = np.diag([1.0 if t == top else 0.0 for t in tau_before]
                           ).astype(np.complex128)

    # Strengths after the layer, by the engine's rules: every level ages, a
    # no-click zeroes the detector paths, and a splitter levels its pair.
    after = [_age(level) for level in tau_before]
    for path in detectors:
        after[path] = ZERO_LEVEL
    for s, t in pairs:
        after[s] = after[t] = _age(min(tau_before[s], tau_before[t]))
    top_after = min(after)
    delta_after = np.diag([1.0 if t == top_after else 0.0 for t in after]
                          ).astype(np.complex128)

    # Per-splitter suppression of the weaker incoming field.
    suppress = np.eye(width, dtype=np.complex128)
    for s, t in pairs:
        pair_top = min(tau_before[s], tau_before[t])
        suppress[s, s] = 1.0 if tau_before[s] == pair_top else 0.0
        suppress[t, t] = 1.0 if tau_before[t] == pair_top else 0.0

    unitaries = unitary_part(layer, width)
    left = delta_after @ unitaries @ suppress
    right = unitaries @ delta_before
    right[detectors] = 0.0  # no-click: detector paths zeroed
    return bool(np.max(np.abs(left - right)) <= COMMUTATION_TOL)
