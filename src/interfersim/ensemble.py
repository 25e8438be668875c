"""Vectorised execution of many independent stochastic-engine runs.

Holds the whole ensemble as arrays (one row per shot) and applies each layer
elementwise, which is what makes the 1e5-shot experiments in the comparison
harness cheap. The layer loop of :func:`run_ensemble` is the vector
statement of the gate rules; the scalar statement is the helpers behind
:func:`interfersim.ontic.step_layer`. Routing single shots through this loop
as one-row arrays would leave one statement, but costs several times the
scalar engine per layer, so both stay. They share the strength encoding
(integer levels: ``k`` is strength ``2**-k``, ``ZERO_LEVEL`` is zero, the
strongest field has the smallest level; Python ints in an
:class:`interfersim.ontic.OnticState`, an int64 column per path here), the
uniform draw schedule and the separated real-arithmetic kernels, so a shot
extracted from an ensemble and replayed through
:func:`interfersim.ontic.run_ontic_shot` with its slice of the stream
reproduces the same record and final state bit for bit; the property
tests in ``tests/test_engine_properties.py`` check this on random circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .circuits import BeamSplitter, Circuit, Detector, PhaseShifter, validate_layer
from .ontic import ZERO_LEVEL, mix_amplitudes, rotate_amplitude
from .records import OutcomeRecord

NO_CLICK = np.int16(-1)


@dataclass
class EnsembleResult:
    """Outcome records and final fields of a vectorised run."""

    detector_layers: tuple[int, ...]
    records: np.ndarray     # (shots, len(detector_layers)) int16, -1 = no click
    final_q: np.ndarray     # (shots,)
    final_u: np.ndarray     # (shots, width) complex
    final_levels: np.ndarray  # (shots, width) int64 strength levels
    degenerate_relocations: int

    @property
    def shots(self) -> int:
        return self.records.shape[0]

    def record_for_shot(self, shot: int) -> OutcomeRecord:
        events = []
        for layer, value in zip(self.detector_layers, self.records[shot]):
            events.append((layer, None if value == NO_CLICK else int(value)))
        return OutcomeRecord(tuple(events))

    def counts(self) -> dict[str, int]:
        """Empirical outcome counts keyed by canonical record string."""
        if self.records.shape[1] == 0:
            return {"-": self.shots}
        rows, counts = np.unique(self.records, axis=0, return_counts=True)
        out: dict[str, int] = {}
        for row, n in zip(rows, counts):
            events = tuple(
                (layer, None if value == NO_CLICK else int(value))
                for layer, value in zip(self.detector_layers, row)
            )
            out[OutcomeRecord(events).key] = int(n)
        return out

    def select(self, mask: np.ndarray) -> "EnsembleResult":
        """Restrict to the shots where ``mask`` is true."""
        return EnsembleResult(
            self.detector_layers,
            self.records[mask],
            self.final_q[mask],
            self.final_u[mask],
            self.final_levels[mask],
            self.degenerate_relocations,
        )

    def match_mask(self, constraints: tuple[tuple[int, int | None], ...]
                   ) -> np.ndarray:
        """Boolean mask of shots whose record satisfies every
        ``(layer, result)`` constraint."""
        mask = np.ones(self.shots, dtype=bool)
        column = {layer: i for i, layer in enumerate(self.detector_layers)}
        for layer, wanted in constraints:
            if layer not in column:
                raise ValueError(f"layer {layer} has no detectors to condition on")
            want = NO_CLICK if wanted is None else np.int16(wanted)
            mask &= self.records[:, column[layer]] == want
        return mask


def _age(levels: np.ndarray) -> np.ndarray:
    return np.where(levels >= ZERO_LEVEL, ZERO_LEVEL, levels + 1)


def run_ensemble(circuit: Circuit, init_q: np.ndarray, init_u: np.ndarray,
                 init_levels: np.ndarray, seed: int) -> EnsembleResult:
    """Run every shot of an ensemble through the circuit.

    ``init_q``, ``init_u`` and ``init_levels`` are per-shot arrays of particle
    positions, field amplitudes and strength levels. Uniform draws come from
    the shot-sliced stream of purpose :data:`interfersim.rng.ONTIC_SHOTS`
    under ``seed``, one column per beam splitter in circuit order.

    Every splitter asserts that it never expands its pair's intensity, and
    every layer that amplitudes stay finite and levels stay in the dyadic
    range.
    """
    shots = init_q.shape[0]
    width = circuit.width
    if init_u.shape != (shots, width) or init_levels.shape != (shots, width):
        raise ValueError("ensemble arrays disagree on shots or width")

    q = init_q.astype(np.int64).copy()
    u_re = np.ascontiguousarray(init_u.real, dtype=np.float64)
    u_im = np.ascontiguousarray(init_u.imag, dtype=np.float64)
    levels = init_levels.astype(np.int64).copy()

    n_splitters = circuit.count_gates(BeamSplitter)
    uniforms = rng.ensemble_uniforms(seed, rng.ONTIC_SHOTS, shots, n_splitters)
    draw_idx = 0

    detector_layers = circuit.detector_layers()
    records = np.full((shots, len(detector_layers)), NO_CLICK, dtype=np.int16)
    record_col = {layer: i for i, layer in enumerate(detector_layers)}
    degenerate = 0
    nonzero_init = levels[levels < ZERO_LEVEL]
    level_bound = (int(nonzero_init.max()) if nonzero_init.size else 0) + circuit.depth

    for layer_idx, layer in enumerate(circuit.layers):
        partition = validate_layer(layer, width)
        for path in partition.free:
            levels[:, path] = _age(levels[:, path])
        for gate in layer.gates:
            if isinstance(gate, PhaseShifter):
                j = gate.path
                re, im = rotate_amplitude(u_re[:, j], u_im[:, j],
                                          math.cos(gate.omega),
                                          math.sin(gate.omega))
                u_re[:, j] = re
                u_im[:, j] = im
                levels[:, j] = _age(levels[:, j])
            elif isinstance(gate, Detector):
                j = gate.path
                clicked = q == j
                u_re[:, j] = np.where(clicked, 1.0, u_re[:, j])
                u_im[:, j] = np.where(clicked, 0.0, u_im[:, j])
                levels[:, j] = np.where(clicked, 0, ZERO_LEVEL)
                col = record_col[layer_idx]
                records[:, col] = np.where(clicked, np.int16(j), records[:, col])
            else:
                s, t = gate.s, gate.t
                ls, lt = levels[:, s], levels[:, t]
                lmin = np.minimum(ls, lt)  # lowest level = strongest field
                keep_s = ls == lmin
                keep_t = lt == lmin
                re_s = np.where(keep_s, u_re[:, s], 0.0)
                im_s = np.where(keep_s, u_im[:, s], 0.0)
                re_t = np.where(keep_t, u_re[:, t], 0.0)
                im_t = np.where(keep_t, u_im[:, t], 0.0)
                root_r = math.sqrt(gate.reflectivity)
                root_t = math.sqrt(1.0 - gate.reflectivity)
                s_re, s_im, t_re, t_im = mix_amplitudes(
                    re_s, im_s, re_t, im_t, root_r, root_t)
                into = re_s * re_s + im_s * im_s + re_t * re_t + im_t * im_t
                out = s_re * s_re + s_im * s_im + t_re * t_re + t_im * t_im
                if (out > into + 1e-9 * np.maximum(into, 1.0)).any():
                    raise AssertionError(
                        f"splitter expanded the pair intensity at layer "
                        f"{layer_idx}"
                    )
                u_re[:, s] = s_re
                u_im[:, s] = s_im
                u_re[:, t] = t_re
                u_im[:, t] = t_im
                levels[:, s] = levels[:, t] = _age(lmin)
                on_splitter = (q == s) | (q == t)
                p_s = s_re * s_re + s_im * s_im
                total = p_s + (t_re * t_re + t_im * t_im)
                stuck = on_splitter & (total == 0.0)
                if stuck.any():
                    degenerate += int(stuck.sum())
                prob_s = np.divide(p_s, total, out=np.full(shots, 0.5),
                                   where=total > 0.0)
                draw = uniforms[:, draw_idx]
                draw_idx += 1
                q = np.where(on_splitter, np.where(draw < prob_s, s, t), q)
        if not np.isfinite(u_re).all() or not np.isfinite(u_im).all():
            raise AssertionError(f"non-finite amplitude after layer {layer_idx}")
        bad = (levels < 0) | ((levels > level_bound) & (levels != ZERO_LEVEL))
        if bad.any():
            raise AssertionError("strength level left the dyadic range")

    final_u = np.empty((shots, width), dtype=np.complex128)
    final_u.real = u_re
    final_u.imag = u_im
    return EnsembleResult(detector_layers, records, q, final_u, levels, degenerate)
