"""Vectorised execution of many independent stochastic-engine runs.

The layer loop of :func:`run_ensemble` is the vector statement of the gate
rules; the scalar statement is the helpers behind
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

The model keeps a field per shot, but the loop computes each distinct field
once. Shots that share a field form a *group*: a prepared ensemble, whose
shots all start with the same level row and the same bits on their live
paths (those below ``ZERO_LEVEL``), is one group, and any other input
starts with one group per shot. Every gate does the same arithmetic on a
group's live paths and sets the same levels, wherever its particles are,
until a detector layer splits the group by outcome: the live field and the
level row are functions of the record prefix, the paper's point that the
label depends only on what the agent has seen. So they are held once per
group, in ``(width, groups)`` arrays, with a group id per shot. Only the
particle position ``q`` and the amplitudes on dead paths (the *junk*) are
per shot. A splitter suppresses a dead path whose partner lives, so junk
enters the arithmetic only where both paths of a pair are dead, and a
particle reads junk only there, that is, only if it started on a dead path
(a particle on a live path never moves onto a dead one). Junk rows are
rotated and mixed for the shots whose group has the path (or pair) dead,
and a no-click turns the group's live value on its path into junk.

A prepared ensemble (:class:`interfersim.prepare.PreparedEnsemble`) has no
particle on a dead path, so nothing in its run reads the junk: its
records, positions and levels are functions of the circuit, the target
path and the seed alone. It runs as one group field with no junk at all.
Its junk is evolved only when :attr:`EnsembleResult.final_u` is read, by
running the materialised per-shot arrays through the same loop, which
keeps the junk's bits and its checks. Per-shot arrays (a traced run's
materialised preparation, or arbitrary states) carry their junk from the
start.

Inside the loop a level is stored relative to the layer clock, as ``level -
layers_done``: every field ages by one level per layer unless a gate resets
it, so ageing costs nothing. A splitter sets both paths to the smaller
relative level (which ages with the clock as the absolute rule does), a
click sets ``-(layer + 1)`` (absolute level 0 once its layer is done), and
``ZERO_LEVEL`` stays a sentinel that no clock moves.

:class:`EnsembleResult` keeps the particle positions, the group of every
shot and a record row per group. It builds the per-shot ``records``,
``final_u`` and ``final_levels`` from the group rows (and the junk) on first
access; :meth:`EnsembleResult.counts`, :meth:`~EnsembleResult.match_mask`
and :meth:`~EnsembleResult.select` work on the group rows and never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import rng
from .circuits import BeamSplitter, Circuit, Detector, PhaseShifter, validate_layer
from .ontic import ZERO_LEVEL, mix_amplitudes, rotate_amplitude
from .records import OutcomeRecord

NO_CLICK = np.int16(-1)


@dataclass(frozen=True)
class _Fields:
    """What a run ends with: a column per group for the records and the
    live paths, and a junk column per shot for the dead paths, the latter
    behind a call so that a prepared run can evolve it on demand."""

    group: np.ndarray    # (shots,) group of each shot
    records: np.ndarray  # (detector_layers, groups) int16, -1 = no click
    levels: np.ndarray   # (width, groups) absolute int64 levels
    u_re: np.ndarray     # (width, groups), zero on dead paths
    u_im: np.ndarray
    # () -> (junk_re, junk_im), each (width, shots), meaningful on dead paths
    junk: Callable[[], tuple[np.ndarray, np.ndarray]]


@dataclass
class EnsembleResult:
    """Outcome records and final fields of a vectorised run."""

    detector_layers: tuple[int, ...]
    final_q: np.ndarray     # (shots,)
    degenerate_relocations: int
    _fields: _Fields = field(repr=False)

    @property
    def shots(self) -> int:
        return self.final_q.shape[0]

    @property
    def groups(self) -> int:
        """Number of field groups among the shots; for a prepared ensemble,
        one per distinct outcome record."""
        return int(np.count_nonzero(np.bincount(self._fields.group)))

    @cached_property
    def records(self) -> np.ndarray:
        """(shots, len(detector_layers)) int16, -1 = no click."""
        return self._fields.records[:, self._fields.group].T

    @cached_property
    def final_u(self) -> np.ndarray:
        """(shots, width) complex amplitudes; for a prepared run the first
        read draws and evolves the junk (module docstring)."""
        f = self._fields
        junk_re, junk_im = f.junk()
        live = f.levels[:, f.group] != ZERO_LEVEL
        final_u = np.empty((self.shots, f.levels.shape[0]), dtype=np.complex128)
        final_u.real = np.where(live, f.u_re[:, f.group], junk_re).T
        final_u.imag = np.where(live, f.u_im[:, f.group], junk_im).T
        return final_u

    @cached_property
    def final_levels(self) -> np.ndarray:
        """(shots, width) int64 strength levels."""
        return self._fields.levels[:, self._fields.group].T

    def _record(self, row: np.ndarray) -> OutcomeRecord:
        return OutcomeRecord(tuple(
            (layer, None if value == NO_CLICK else value)
            for layer, value in zip(self.detector_layers, row.tolist())))

    def record_for_shot(self, shot: int) -> OutcomeRecord:
        return self._record(self._fields.records[:, self._fields.group[shot]])

    def counts(self) -> dict[str, int]:
        """Empirical outcome counts keyed by canonical record string, in
        lexicographic record order (no click before path 0, 1, ...)."""
        f = self._fields
        if f.records.shape[0] == 0:
            return {"-": self.shots}
        members = np.bincount(f.group, minlength=f.records.shape[1])
        present = members > 0
        # Groups from different initial fields can share a record row.
        rows, row = np.unique(f.records.T[present], axis=0, return_inverse=True)
        n = np.bincount(row.ravel(), weights=members[present],
                        minlength=len(rows))
        return {self._record(r).key: int(k) for r, k in zip(rows, n)}

    def select(self, mask: np.ndarray) -> "EnsembleResult":
        """Restrict to the shots where ``mask`` is true."""
        f = self._fields
        return EnsembleResult(
            self.detector_layers,
            self.final_q[mask],
            self.degenerate_relocations,
            replace(f, group=f.group[mask],
                    junk=lambda: tuple(a[:, mask] for a in f.junk())),
        )

    def match_mask(self, constraints: tuple[tuple[int, int | None], ...]
                   ) -> np.ndarray:
        """Boolean mask of shots whose record satisfies every
        ``(layer, result)`` constraint."""
        records = self._fields.records
        mask = np.ones(records.shape[1], dtype=bool)
        column = {layer: i for i, layer in enumerate(self.detector_layers)}
        for layer, wanted in constraints:
            if layer not in column:
                raise ValueError(f"layer {layer} has no detectors to condition on")
            want = NO_CLICK if wanted is None else np.int16(wanted)
            mask &= records[column[layer]] == want
        return mask[self._fields.group]


def _path_major(a: np.ndarray, dtype) -> np.ndarray:
    """C-ordered transpose of a ``(shots, k)`` array, copied a block of
    shots at a time (one strided copy of a narrow array is several times
    slower)."""
    out = np.empty(a.shape[::-1], dtype=dtype)
    for start in range(0, a.shape[0], 2048):
        out[:, start:start + 2048] = a[start:start + 2048].T
    return out


def _initial_groups(u_re: np.ndarray, u_im: np.ndarray, levels: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Group of every shot and the first shot of each group, from
    path-major arrays: one group when every shot has the same level row and
    the same bits on its live paths (a prepared ensemble), else one group
    per shot."""
    shots = levels.shape[1]
    if shots and (levels == levels[:, :1]).all():
        live = levels[:, 0] != ZERO_LEVEL
        bits = (b.view(np.int64)[live] for b in (u_re, u_im))
        if all((b == b[:, :1]).all() for b in bits):
            return np.zeros(shots, dtype=np.intp), np.zeros(1, dtype=np.intp)
    return np.arange(shots), np.arange(shots)


def _members(flagged: np.ndarray, group: np.ndarray) -> slice | np.ndarray:
    """Index of the shots whose group is flagged; all of them as a slice."""
    return slice(None) if flagged.all() else np.flatnonzero(flagged[group])


def _split_pair(re_s, im_s, re_t, im_t, root_r: float, root_t: float,
                layer_idx: int):
    """Mix a splitter's surviving amplitudes (arrays over groups or shots)
    and assert that the pair intensity does not grow. Returns the mixed
    amplitudes, the outgoing intensity on ``s`` and the total."""
    s_re, s_im, t_re, t_im = mix_amplitudes(re_s, im_s, re_t, im_t,
                                            root_r, root_t)
    into = re_s * re_s + im_s * im_s + re_t * re_t + im_t * im_t
    p_s = s_re * s_re + s_im * s_im
    t_re2, t_im2 = t_re * t_re, t_im * t_im
    if (p_s + t_re2 + t_im2 > into + 1e-9 * np.maximum(into, 1.0)).any():
        raise AssertionError(
            f"splitter expanded the pair intensity at layer {layer_idx}")
    return (s_re, s_im, t_re, t_im), p_s, p_s + (t_re2 + t_im2)


def _chance_s(p_s: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Relocation chance to ``s``; 50/50 where both outputs vanish."""
    return np.divide(p_s, total, out=np.full(total.shape, 0.5),
                     where=total > 0.0)


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def run_ensemble(circuit: Circuit, *init_and_seed) -> EnsembleResult:
    """Run every shot of an ensemble through the circuit.

    Called as ``run_ensemble(circuit, prepared, seed)`` on a
    :class:`~interfersim.prepare.PreparedEnsemble`, which runs as one group
    with no junk (module docstring), or as ``run_ensemble(circuit, q, u,
    levels, seed)`` on per-shot arrays of particle positions, field
    amplitudes (finite) and strength levels (each in ``[0, ZERO_LEVEL]``).
    Uniform draws come from the shot-sliced stream of purpose
    :data:`interfersim.rng.ONTIC_SHOTS` under ``seed``, one column per beam
    splitter in circuit order.

    Each distinct field is computed once, for a group of shots (module
    docstring). A splitter mixes the group columns, computes one relocation
    chance per group and moves the particles with one gather; a detector
    layer splits every group into its no-click and click-at-``j`` children.
    This is exact: a live path's arithmetic reads only its group's live
    values, which depend on the record prefix alone, and junk is mixed, and
    read by a particle, per shot, with the same element operations.

    Every splitter asserts that it never expands its pair's intensity, on
    the group columns and on the junk it mixes, and every layer that the
    group amplitudes and the junk it wrote stay finite and the group levels
    stay in the dyadic range.
    """
    *init, seed = init_and_seed
    width = circuit.width
    if len(init) == 1:
        (prepared,) = init
        if prepared.width != width:
            raise ValueError("prepared ensemble width differs from the circuit's")
        shots = prepared.shots
        q = np.full(shots, prepared.path, dtype=np.int64)
        group = np.zeros(shots, dtype=np.intp)
        # The one group field, dead off the target path.
        levels = np.full((width, 1), ZERO_LEVEL, dtype=np.int64)
        levels[prepared.path] = 0
        u_re, u_im = np.zeros((width, 1)), np.zeros((width, 1))
        u_re[prepared.path] = 1.0
        junk_re = junk_im = None
        strays = False
        level_bound = circuit.depth
    else:
        init_q, init_u, init_levels = init
        shots = init_q.shape[0]
        if init_u.shape != (shots, width) or init_levels.shape != (shots, width):
            raise ValueError("ensemble arrays disagree on shots or width")
        if init_levels.size and (init_levels.min() < 0
                                 or init_levels.max() > ZERO_LEVEL):
            raise ValueError(f"strength levels must lie in [0, {ZERO_LEVEL}]")
        if not np.isfinite(init_u).all():
            raise ValueError("field amplitudes must be finite")
        if shots and (init_q.min() < 0 or init_q.max() >= width):
            raise ValueError(f"particle positions must lie in [0, {width})")

        q = init_q.astype(np.int64)
        # Path-major per-shot amplitudes; on dead paths they are the junk.
        junk_re = _path_major(init_u.real, np.float64)
        junk_im = _path_major(init_u.imag, np.float64)
        shot_levels = _path_major(init_levels, np.int64)
        group, first = _initial_groups(junk_re, junk_im, shot_levels)
        # Group rows, levels relative to the layer clock (module docstring).
        levels = shot_levels[:, first]
        dead = levels == ZERO_LEVEL
        u_re = np.where(dead, 0.0, junk_re[:, first])
        u_im = np.where(dead, 0.0, junk_im[:, first])
        strays = bool((shot_levels[q, np.arange(shots)] == ZERO_LEVEL).any())
        del shot_levels, dead
        nonzero_init = init_levels[init_levels < ZERO_LEVEL]
        level_bound = ((int(nonzero_init.max()) if nonzero_init.size else 0)
                       + circuit.depth)

    n_splitters = circuit.count_gates(BeamSplitter)
    uniforms = rng.ensemble_uniforms(seed, rng.ONTIC_SHOTS, shots, n_splitters)
    draw_idx = 0

    detector_layers = circuit.detector_layers()
    records = np.full((len(detector_layers), levels.shape[1]), NO_CLICK,
                      dtype=np.int16)
    record_row = {layer: i for i, layer in enumerate(detector_layers)}
    degenerate = 0

    for layer_idx, layer in enumerate(circuit.layers):
        validate_layer(layer, width)
        clock = layer_idx + 1  # layers done once this one is applied
        junk_finite = True
        detectors = []
        for gate in layer.gates:
            if isinstance(gate, PhaseShifter):
                j = gate.path
                cos_w, sin_w = math.cos(gate.omega), math.sin(gate.omega)
                u_re[j], u_im[j] = rotate_amplitude(u_re[j], u_im[j], cos_w, sin_w)
                dead_j = levels[j] == ZERO_LEVEL
                if junk_re is not None and dead_j.any():
                    sel = _members(dead_j, group)
                    re, im = rotate_amplitude(junk_re[j, sel], junk_im[j, sel],
                                              cos_w, sin_w)
                    junk_re[j, sel], junk_im[j, sel] = re, im
                    junk_finite &= _finite(re, im)
            elif isinstance(gate, Detector):
                detectors.append(gate.path)
            else:
                s, t = gate.s, gate.t
                root_r = math.sqrt(gate.reflectivity)
                root_t = math.sqrt(1.0 - gate.reflectivity)
                ls, lt = levels[s], levels[t]
                lmin = np.minimum(ls, lt)  # lowest level = strongest field
                keep_s = ls == lmin
                keep_t = lt == lmin
                mixed, p_s, total = _split_pair(
                    np.where(keep_s, u_re[s], 0.0), np.where(keep_s, u_im[s], 0.0),
                    np.where(keep_t, u_re[t], 0.0), np.where(keep_t, u_im[t], 0.0),
                    root_r, root_t, layer_idx)
                u_re[s], u_im[s], u_re[t], u_im[t] = mixed
                levels[s] = levels[t] = lmin
                draw = uniforms[:, draw_idx]
                draw_idx += 1
                move = draw < _chance_s(p_s, total)[group]
                junk = lmin == ZERO_LEVEL  # both dead: the shots mix junk
                stuck = (total == 0.0) & ~junk
                if junk_re is not None and junk.any():
                    sel = _members(junk, group)
                    mixed, p_s, total = _split_pair(
                        junk_re[s, sel], junk_im[s, sel],
                        junk_re[t, sel], junk_im[t, sel], root_r, root_t, layer_idx)
                    junk_re[s, sel], junk_im[s, sel], junk_re[t, sel], junk_im[t, sel] = mixed
                    junk_finite &= _finite(*mixed)
                    if strays:
                        on_pair = (q[sel] == s) | (q[sel] == t)
                        degenerate += int(np.count_nonzero(on_pair & (total == 0.0)))
                        move[sel] = draw[sel] < _chance_s(p_s, total)
                if stuck.any():
                    degenerate += int(np.count_nonzero(stuck[group]
                                                       & ((q == s) | (q == t))))
                # A particle on the pair moves to s if its draw falls under
                # the chance, else to t; any other stays. Entry 2p + move of
                # ``to`` is where a particle at p goes.
                to = np.arange(width).repeat(2)
                to[[2 * s, 2 * t]] = t
                to[[2 * s + 1, 2 * t + 1]] = s
                q = to[2 * q + move]
        if detectors:
            # A no-click leaves the path's amplitude as junk.
            for j in detectors if junk_re is not None else ():
                live_j = levels[j] != ZERO_LEVEL
                if live_j.any():
                    sel = _members(live_j, group)
                    junk_re[j, sel] = u_re[j][group[sel]]
                    junk_im[j, sel] = u_im[j][group[sel]]
            # Children: group * n + c, where c is 0 for no click and k for a
            # click at the layer's k-th detector.
            n = len(detectors) + 1
            click_code = np.zeros(width, dtype=np.intp)
            click_code[detectors] = np.arange(1, n)
            child = group * n + click_code[q]
            present = np.bincount(child)
            parent, click = np.divmod(np.flatnonzero(present), n)
            group = (np.cumsum(present > 0) - 1)[child]
            levels, u_re, u_im, records = (
                levels[:, parent], u_re[:, parent], u_im[:, parent],
                records[:, parent])
            for k, j in enumerate(detectors, 1):
                hit = click == k
                levels[j] = np.where(hit, -clock, ZERO_LEVEL)
                u_re[j] = np.where(hit, 1.0, 0.0)
                u_im[j] = 0.0
            records[record_row[layer_idx]] = np.array([NO_CLICK] + detectors,
                                                      dtype=np.int16)[click]
        if not (junk_finite and _finite(u_re, u_im)):
            raise AssertionError(f"non-finite amplitude after layer {layer_idx}")
        # Absolute levels in [0, level_bound] or ZERO_LEVEL, as reductions.
        if (levels.min(initial=-clock) < -clock
                or levels.max(where=levels != ZERO_LEVEL, initial=-clock)
                > level_bound - clock):
            raise AssertionError("strength level left the dyadic range")

    np.add(levels, circuit.depth, out=levels, where=levels != ZERO_LEVEL)
    # A prepared run's junk is evolved, and checked, on demand by the run of
    # its materialised arrays, with the same element operations.
    junk = ((lambda: run_ensemble(circuit, *prepared.arrays(), seed)._fields.junk())
            if junk_re is None else lambda: (junk_re, junk_im))
    return EnsembleResult(detector_layers, q, degenerate,
                          _Fields(group, records, levels, u_re, u_im, junk))
