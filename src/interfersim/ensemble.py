"""Vectorised execution of many independent stochastic-engine runs.

Holds the whole ensemble as arrays and applies each layer elementwise,
which is what makes the 1e5-shot experiments in the comparison harness
cheap. The layer loop of :func:`run_ensemble` is the vector statement of
the gate rules; the scalar statement is the helpers behind
:func:`interfersim.ontic.step_layer`. Routing single shots through this loop
as one-row arrays would leave one statement, but costs several times the
scalar engine per layer, so both stay. They share the strength encoding
(integer levels: ``k`` is strength ``2**-k``, ``ZERO_LEVEL`` is zero, the
strongest field has the smallest level; Python ints in an
:class:`interfersim.ontic.OnticState`, int64 arrays here), the uniform draw
schedule and the separated real-arithmetic kernels, so a shot extracted
from an ensemble and replayed through :func:`interfersim.ontic.run_ontic_shot`
with its slice of the stream reproduces the same record and final state bit
for bit; the property tests in ``tests/test_engine_properties.py`` check
this on random circuits, from prepared and from arbitrary initial states.

Inside the loop the working arrays are path-major, ``(width, shots)``, so a
gate reads and writes contiguous rows, and a level is stored relative to
the layer clock, as ``level - layers_done``: every field ages by one level
per layer unless a gate resets it, so ageing costs nothing. A splitter sets
both paths to the smaller relative level (which ages with the clock as the
absolute rule does), a click sets ``-(layer + 1)`` (absolute level 0 once
its layer is done), and ``ZERO_LEVEL`` stays a sentinel that no clock
moves. :class:`EnsembleResult` holds shot-major arrays and absolute levels.

:meth:`EnsembleResult.counts` tallies records as one mixed-radix integer per
shot (a digit per detector layer), whose numeric order is the lexicographic
order of the record rows.
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
_CODE_MAX = int(np.iinfo(np.int64).max)


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
        """Empirical outcome counts keyed by canonical record string, in
        lexicographic record order (no click before path 0, 1, ...)."""
        if self.records.shape[1] == 0:
            return {"-": self.shots}
        # One mixed-radix code per row, a digit per detector layer; numeric
        # code order is row order. Re-ranking the codes (order-preserving)
        # before a digit would overflow int64 keeps wide records exact.
        radix = self.final_u.shape[1] + 1
        codes = np.zeros(self.shots, dtype=np.int64)
        top = 0  # largest code the digits so far can spell
        for column in self.records.T:
            if top * radix + radix - 1 > _CODE_MAX:
                ranks, codes = np.unique(codes, return_inverse=True)
                top = len(ranks) - 1
            codes *= radix
            codes += column
            codes += 1  # digit: NO_CLICK -> 0, path p -> p + 1
            top = top * radix + radix - 1
        _, first, n = np.unique(codes, return_index=True, return_counts=True)
        return {self.record_for_shot(shot).key: int(k)
                for shot, k in zip(first, n)}

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


def run_ensemble(circuit: Circuit, init_q: np.ndarray, init_u: np.ndarray,
                 init_levels: np.ndarray, seed: int) -> EnsembleResult:
    """Run every shot of an ensemble through the circuit.

    ``init_q``, ``init_u`` and ``init_levels`` are per-shot arrays of particle
    positions, field amplitudes and strength levels (each in ``[0,
    ZERO_LEVEL]``). Uniform draws come from the shot-sliced stream of purpose
    :data:`interfersim.rng.ONTIC_SHOTS` under ``seed``, one column per beam
    splitter in circuit order.

    Every splitter asserts that it never expands its pair's intensity, and
    every layer that amplitudes stay finite and levels stay in the dyadic
    range.
    """
    shots = init_q.shape[0]
    width = circuit.width
    if init_u.shape != (shots, width) or init_levels.shape != (shots, width):
        raise ValueError("ensemble arrays disagree on shots or width")
    if init_levels.size and (init_levels.min() < 0
                             or init_levels.max() > ZERO_LEVEL):
        raise ValueError(f"strength levels must lie in [0, {ZERO_LEVEL}]")

    # Path-major working arrays: row j holds path j of every shot.
    q = init_q.astype(np.int64)
    u_re = np.array(init_u.real.T, dtype=np.float64, order="C")
    u_im = np.array(init_u.imag.T, dtype=np.float64, order="C")
    # Levels relative to the layer clock (see the module docstring).
    levels = np.array(init_levels.T, dtype=np.int64, order="C")

    n_splitters = circuit.count_gates(BeamSplitter)
    uniforms = rng.ensemble_uniforms(seed, rng.ONTIC_SHOTS, shots, n_splitters)
    draw_idx = 0

    detector_layers = circuit.detector_layers()
    records = np.full((len(detector_layers), shots), NO_CLICK, dtype=np.int16)
    record_row = {layer: i for i, layer in enumerate(detector_layers)}
    degenerate = 0
    nonzero_init = init_levels[init_levels < ZERO_LEVEL]
    level_bound = (int(nonzero_init.max()) if nonzero_init.size else 0) + circuit.depth

    for layer_idx, layer in enumerate(circuit.layers):
        validate_layer(layer, width)
        clock = layer_idx + 1  # layers done once this one is applied
        for gate in layer.gates:
            if isinstance(gate, PhaseShifter):
                j = gate.path
                u_re[j], u_im[j] = rotate_amplitude(u_re[j], u_im[j],
                                                    math.cos(gate.omega),
                                                    math.sin(gate.omega))
            elif isinstance(gate, Detector):
                j = gate.path
                clicked = q == j
                np.copyto(u_re[j], 1.0, where=clicked)
                np.copyto(u_im[j], 0.0, where=clicked)
                levels[j] = np.where(clicked, -clock, ZERO_LEVEL)
                np.copyto(records[record_row[layer_idx]], j, where=clicked)
            else:
                s, t = gate.s, gate.t
                ls, lt = levels[s], levels[t]
                lmin = np.minimum(ls, lt)  # lowest level = strongest field
                keep_s = ls == lmin
                keep_t = lt == lmin
                re_s = np.where(keep_s, u_re[s], 0.0)
                im_s = np.where(keep_s, u_im[s], 0.0)
                re_t = np.where(keep_t, u_re[t], 0.0)
                im_t = np.where(keep_t, u_im[t], 0.0)
                root_r = math.sqrt(gate.reflectivity)
                root_t = math.sqrt(1.0 - gate.reflectivity)
                s_re, s_im, t_re, t_im = mix_amplitudes(
                    re_s, im_s, re_t, im_t, root_r, root_t)
                into = re_s * re_s + im_s * im_s + re_t * re_t + im_t * im_t
                # The output squares serve the check and the relocation.
                p_s = s_re * s_re + s_im * s_im
                t_re2, t_im2 = t_re * t_re, t_im * t_im
                out = p_s + t_re2 + t_im2
                if (out > into + 1e-9 * np.maximum(into, 1.0)).any():
                    raise AssertionError(
                        f"splitter expanded the pair intensity at layer "
                        f"{layer_idx}"
                    )
                u_re[s], u_im[s], u_re[t], u_im[t] = s_re, s_im, t_re, t_im
                levels[s] = levels[t] = lmin
                on_splitter = (q == s) | (q == t)
                total = p_s + (t_re2 + t_im2)
                stuck = on_splitter & (total == 0.0)
                if stuck.any():
                    degenerate += int(stuck.sum())
                prob_s = np.divide(p_s, total, out=np.full(shots, 0.5),
                                   where=total > 0.0)
                draw = uniforms[:, draw_idx]
                draw_idx += 1
                # Shots on the pair move to s if the draw falls under
                # prob_s, else to t; in integer arithmetic, as np.where
                # on these random masks costs several times more.
                q += on_splitter * (t + (s - t) * (draw < prob_s) - q)
        if not np.isfinite(u_re).all() or not np.isfinite(u_im).all():
            raise AssertionError(f"non-finite amplitude after layer {layer_idx}")
        # Absolute levels in [0, level_bound] or ZERO_LEVEL, as reductions.
        if (levels.min() < -clock
                or levels.max(where=levels != ZERO_LEVEL, initial=-clock)
                > level_bound - clock):
            raise AssertionError("strength level left the dyadic range")

    # The last splitter's shot-length temporaries go before the result is
    # built. Freed per splitter instead, they cost a re-fault of their pages
    # at the next splitter of every later run in the process.
    if n_splitters:
        del (lmin, keep_s, keep_t, re_s, im_s, re_t, im_t, s_re, s_im, t_re,
             t_im, into, p_s, t_re2, t_im2, out, on_splitter, total, stuck,
             prob_s)
    np.add(levels, circuit.depth, out=levels, where=levels != ZERO_LEVEL)
    final_u = np.empty((shots, width), dtype=np.complex128)
    final_u.real = u_re.T
    final_u.imag = u_im.T
    return EnsembleResult(detector_layers, records.T, q, final_u, levels.T,
                          degenerate)
