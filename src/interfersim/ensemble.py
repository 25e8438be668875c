"""Vectorised execution of a prepared ensemble of stochastic-engine runs.

The layer loop of :func:`run_ensemble` is the vector statement of the gate
rules; the scalar statement is the helpers behind
:func:`interfersim.ontic.step_layer`. Routing single shots through this loop
as one-row arrays would leave one statement, but costs several times the
scalar engine per layer, so both stay. They share the strength encoding
(integer levels: ``k`` is strength ``2**-k``, ``ZERO_LEVEL`` is zero, the
strongest field has the smallest level; Python ints in an
:class:`interfersim.ontic.OnticState`, whose amplitudes are a tuple of
Python complex numbers, and int64 arrays here), the uniform draw
schedule and the separated real-arithmetic kernels, so a shot extracted
from an ensemble and replayed through :func:`interfersim.ontic.run_ontic_shot`
with its slice of the stream reproduces the same record, position, levels
and live amplitudes bit for bit; the property tests in
``tests/test_engine_properties.py`` check this on random circuits.

The model keeps a field per shot, but the loop computes each distinct field
once. A prepared ensemble (:class:`interfersim.prepare.PreparedEnsemble`,
which also holds the seed the run draws under) starts every shot with the
particle on the one live path and the same field, so it is one *group*.
Every gate does the same arithmetic on a group's live paths and sets the
same levels, wherever its particles are, until a detector layer splits the
group by outcome: the field and the level row are functions of the record
prefix, the paper's point that the label depends only on what the agent
has seen. So they are held once per group, in ``(width, groups)`` arrays,
with a group id per shot; only the particle position ``q`` is per shot.

The amplitudes a preparation leaves on its dead paths are not carried. A
splitter suppresses a dead path whose partner lives, so a particle could
read such a leftover only from a dead path, and no particle of a prepared
ensemble ever stands on one: nothing the loop computes depends on them.
The scalar replay carries them, for the trace lines print them.

Inside the loop a level is stored relative to the layer clock, as ``level -
layers_done``: every field ages by one level per layer unless a gate resets
it, so ageing costs nothing. A splitter sets both paths to the smaller
relative level (which ages with the clock as the absolute rule does), a
click sets ``-(layer + 1)`` (absolute level 0 once its layer is done), and
``ZERO_LEVEL`` stays a sentinel that no clock moves.

The particles move after their fields. A splitter computes its group
arithmetic at once and queues its pair and relocation chances; at each
detector layer, whose split reads the positions, and after the last layer,
the particles walk through the queued splitters a block of shots at a
time, so a block's draws are read from cache by every splitter of the
segment instead of from memory once per splitter.

The walk runs on every core the process may use. A particle reads only its
own field's group values and its own slice of the stream, so disjoint
ranges of shots can move at the same time: each walk splits the shots into
contiguous stripes, one per core but no more than there are blocks, and
each stripe draws and walks its own blocks on its own thread (the first on
the caller). The stripes write disjoint rows, and every shot reads the
same words in the same order as in one stripe, so no output depends on
the stripe count. numpy releases the GIL in the draw, the compares and the
gathers that make most of a walk's time.

The draws stay the stream's raw 64-bit words. A queued splitter holds one
word threshold per group (:func:`interfersim.rng.word_thresholds`), and a
particle moves when its word is below its group's: exactly the test ``u <
chance`` on the uniform that the scalar engine reads from the same word.

No run holds the whole ``(shots, splitters)`` word matrix. A shot's draws
are a fixed slice of its counter-based stream, so the first walk draws each
block's rows (:func:`interfersim.rng.ensemble_uniforms` with ``first``)
when it reaches the block, and drops them after its splitters. Only the
columns of splitters queued after that walk, which the later walks read,
are copied into one ``(shots, later splitters)`` store; a circuit whose
splitters all precede its first detector layer, such as a compiled mesh
with terminal detectors, stores none.

A group's record key grows at the detector splits as every engine's key
grows, one :func:`~interfersim.records.event_suffix` per detector layer,
and :func:`~interfersim.records.record_key` closes it after the last
layer. A split codes the no-click as 0 and the layer's detectors by
ascending path, so the children of groups in lexicographic record order
come out in that order. :class:`EnsembleResult` keeps the particle
positions, the group of every shot, and per group its key and the shot
count that the split counted, which :meth:`EnsembleResult.counts` (an
entry per group, in group order) and :meth:`EnsembleResult.record_for_shot`
read; it gathers the per-shot ``final_u`` and ``final_levels`` from the
group columns on first access.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .circuits import BeamSplitter, Circuit, Detector, PhaseShifter, check_path
from .ontic import ZERO_LEVEL, mix_amplitudes, rotate_amplitude
from .prepare import PreparedEnsemble
from .records import event_suffix, record_key

# Shots per block of the particle walk: a block's rows of the uniform
# matrix stay in cache across the splitters it moves through.
_BLOCK = 8192
# Cores this process may run on: a walk splits its shots into at most this
# many stripes, each walked on its own thread.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


@dataclass(frozen=True)
class _Fields:
    """What a run ends with: per group its record key and a column of the
    field."""

    group: np.ndarray    # (shots,) group of each shot
    size: np.ndarray     # (groups,) shots in each group
    keys: list[str]      # (groups,) record keys, in lexicographic record order
    levels: np.ndarray   # (width, groups) absolute int64 levels
    u_re: np.ndarray     # (width, groups), zero on dead paths
    u_im: np.ndarray


@dataclass
class EnsembleResult:
    """Outcome records and final fields of a vectorised run."""

    final_q: np.ndarray     # (shots,)
    degenerate_relocations: int
    _fields: _Fields = field(repr=False)

    @property
    def shots(self) -> int:
        return self.final_q.shape[0]

    @property
    def groups(self) -> int:
        """Number of field groups: one per record key, the keys distinct
        and each held by at least one shot."""
        return len(self._fields.keys)

    @cached_property
    def final_u(self) -> np.ndarray:
        """(shots, width) complex amplitudes of each shot's group field:
        zero on dead paths (module docstring)."""
        f = self._fields
        final_u = np.empty((self.shots, f.levels.shape[0]), dtype=np.complex128)
        final_u.real = f.u_re[:, f.group].T
        final_u.imag = f.u_im[:, f.group].T
        return final_u

    @cached_property
    def final_levels(self) -> np.ndarray:
        """(shots, width) int64 strength levels."""
        return self._fields.levels[:, self._fields.group].T

    def record_for_shot(self, shot: int) -> str:
        """The record key of one shot."""
        return self._fields.keys[self._fields.group[shot]]

    def counts(self) -> dict[str, int]:
        """Empirical outcome counts keyed by record key, one entry per
        group, in group order: the detector splits make that lexicographic
        record order (no click before path 0, 1, ...). Groups are distinct
        records: two with one key raise ``AssertionError``."""
        f = self._fields
        counts = dict(zip(f.keys, f.size.tolist()))
        if len(counts) != len(f.keys):
            raise AssertionError("two outcome groups share a record")
        return counts


def _split_pair(re_s, im_s, re_t, im_t, root_r: float, root_t: float,
                layer_idx: int):
    """Mix a splitter's surviving amplitudes (arrays over groups) and assert
    that the pair intensity does not grow. Returns the mixed amplitudes,
    the outgoing intensity on ``s`` and the total."""
    s_re, s_im, t_re, t_im = mix_amplitudes(re_s, im_s, re_t, im_t,
                                            root_r, root_t)
    into = re_s * re_s + im_s * im_s + re_t * re_t + im_t * im_t
    p_s = s_re * s_re + s_im * s_im
    t_re2, t_im2 = t_re * t_re, t_im * t_im
    if (p_s + t_re2 + t_im2 > into + 1e-9 * np.maximum(into, 1.0)).any():
        raise AssertionError(
            f"splitter expanded the pair intensity at layer {layer_idx}")
    return (s_re, s_im, t_re, t_im), p_s, p_s + (t_re2 + t_im2)


def _walk(q: np.ndarray, group: np.ndarray, pending: list, seed: int,
          n_splitters: int, later: np.ndarray | None, width: int
          ) -> tuple[int, np.ndarray | None]:
    """Move the particles through the ``pending`` splitters and empty the
    list. ``q`` is updated in place; returns the degenerate relocations
    among the moves and the later-column store.

    The shots are split into contiguous stripes of about equal size, one
    per core (:data:`_CORES`) but no more than there are blocks; the first
    stripe runs on the caller and each other on its own thread. A stripe
    walks its shots a block of :data:`_BLOCK` at a time, writes only its
    own rows of ``q`` and of the store, and keeps its own move table: a
    splitter sets its pair's four entries of the identity table for its
    gather and resets them after.

    The first walk with splitters to pass (``later`` is None) draws each
    block's rows of words of the ontic stream as it reaches the block, and
    copies the columns of the splitters not yet queued into a new ``(shots,
    n_splitters - queued)`` store; every later walk reads its words there.
    """
    if not pending:
        return 0, later
    shots, queued = q.shape[0], len(pending)
    drawing = later is None
    if drawing:
        later = np.empty((shots, n_splitters - queued), dtype=np.uint64)
    # stream column of ``ub[:, 0]``: drawn rows hold every column
    offset = 0 if drawing else n_splitters - later.shape[1]

    def stripe(lo: int, hi: int) -> int:
        # Entry 2p + move is where a particle at p goes: p itself off the
        # splitter's pair; on it, s if its draw falls under the chance,
        # else t.
        to = np.arange(width).repeat(2)
        degenerate = 0
        for first in range(lo, hi, _BLOCK):
            last = min(first + _BLOCK, hi)
            qb, gb = q[first:last], group[first:last]
            if drawing:
                ub = rng.ensemble_uniforms(seed, rng.ONTIC_SHOTS, last - first,
                                           n_splitters, first=first)
                later[first:last] = ub[:, queued:]
            else:
                ub = later[first:last]
            for column, s, t, below, always, stuck in pending:
                move = ub[:, column - offset] < (
                    below[0] if below.shape[0] == 1 else below[gb])
                if always is not None:
                    move |= always[gb]
                if stuck is not None:
                    degenerate += int(np.count_nonzero(
                        stuck[gb] & ((qb == s) | (qb == t))))
                to[2 * s] = to[2 * t] = t
                to[2 * s + 1] = to[2 * t + 1] = s
                # indices are in range; "clip" skips the buffered checked take
                np.take(to, 2 * qb + move, out=qb, mode="clip")
                to[2 * s] = to[2 * s + 1] = s
                to[2 * t] = to[2 * t + 1] = t
            del ub  # freed before the next block is drawn, not after
        return degenerate

    k = min(_CORES, -(-shots // _BLOCK))
    degenerate = _in_stripes(stripe, [shots * i // k for i in range(k + 1)])
    pending.clear()
    return degenerate, later


def _in_stripes(stripe, bounds: list[int]) -> int:
    """Sum of ``stripe(lo, hi)`` over consecutive ``bounds``: the first
    stripe on the caller, each other on its own thread. Every thread is
    joined before this returns or raises; a thread's exception is raised
    here."""
    totals = [0] * (len(bounds) - 1)
    errors = []

    def work(i: int) -> None:
        try:
            totals[i] = stripe(bounds[i], bounds[i + 1])
        except BaseException as exc:
            errors.append(exc)

    workers = []
    try:
        for i in range(1, len(totals)):
            worker = threading.Thread(target=work, args=(i,))
            worker.start()
            workers.append(worker)
        totals[0] = stripe(bounds[0], bounds[1])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return sum(totals)


def run_ensemble(circuit: Circuit, prepared: PreparedEnsemble) -> EnsembleResult:
    """Run every shot of a prepared ensemble through the circuit.

    Draws are the words of the shot-sliced stream of purpose
    :data:`interfersim.rng.ONTIC_SHOTS` under ``prepared.seed``, one column
    per beam splitter in circuit order. They are drawn a block of shots at
    a time by the first walk, which keeps only the columns of the splitters
    queued after it, for the later walks (module docstring).

    Each distinct field is computed once, for a group of shots (module
    docstring). A splitter mixes the group columns, computes one relocation
    chance per group, turns it into a word threshold and queues its pair;
    before a detector layer, and after the last layer, the particles walk
    through the queued splitters in stripes of shots, one per core, and
    blocks within a stripe, one gather per splitter and block. A detector
    layer splits every group into its no-click and click-at-``j``
    children. This is exact: a live path's arithmetic reads only its
    group's values, which depend on the record prefix alone.

    The prepared path is checked against the circuit's width before any
    draw. Every splitter asserts that it never expands its pair's
    intensity, and every layer that the group amplitudes stay finite and
    the group levels stay in the dyadic range.
    """
    width = circuit.width
    check_path(prepared.path, width)
    shots, seed = prepared.shots, prepared.seed
    q = np.full(shots, prepared.path, dtype=np.int64)
    group = np.zeros(shots, dtype=np.intp)
    size = np.array([shots])
    # The one group field, dead off the target path; levels relative to the
    # layer clock (module docstring).
    levels = np.full((width, 1), ZERO_LEVEL, dtype=np.int64)
    levels[prepared.path] = 0
    u_re, u_im = np.zeros((width, 1)), np.zeros((width, 1))
    u_re[prepared.path] = 1.0

    n_splitters = circuit.count_gates(BeamSplitter)
    draw_idx = 0

    keys = [""]  # each group's record key prefix
    degenerate = 0
    pending = []  # splitters whose particle moves are not yet made
    later = None  # draws of the splitters queued after the first walk

    for layer_idx, layer in enumerate(circuit.layers):
        clock = layer_idx + 1  # layers done once this one is applied
        detectors = []
        for gate in layer.gates:
            if isinstance(gate, PhaseShifter):
                j = gate.path
                u_re[j], u_im[j] = rotate_amplitude(u_re[j], u_im[j],
                                                    gate.cos_w, gate.sin_w)
            elif isinstance(gate, Detector):
                detectors.append(gate.path)
            else:
                s, t = gate.s, gate.t
                ls, lt = levels[s], levels[t]
                lmin = np.minimum(ls, lt)  # lowest level = strongest field
                keep_s = ls == lmin
                keep_t = lt == lmin
                mixed, p_s, total = _split_pair(
                    np.where(keep_s, u_re[s], 0.0), np.where(keep_s, u_im[s], 0.0),
                    np.where(keep_t, u_re[t], 0.0), np.where(keep_t, u_im[t], 0.0),
                    gate.root_r, gate.root_t, layer_idx)
                u_re[s], u_im[s], u_re[t], u_im[t] = mixed
                levels[s] = levels[t] = lmin
                # Relocation chance to s; 50/50 where both outputs vanish.
                chance_s = np.divide(p_s, total, out=np.full(total.shape, 0.5),
                                     where=total > 0.0)
                stuck = (total == 0.0) & (lmin != ZERO_LEVEL)
                below, always = rng.word_thresholds(chance_s)
                pending.append((draw_idx, s, t, below,
                                always if always.any() else None,
                                stuck if stuck.any() else None))
                draw_idx += 1
        if detectors:
            moved, later = _walk(q, group, pending, seed, n_splitters, later,
                                 width)
            degenerate += moved
            # Children: group * n + c, where c is 0 for no click and k for a
            # click at the layer's k-th detector in path order, so children
            # of groups in record order come out in record order.
            detectors.sort()
            n = len(detectors) + 1
            click_code = np.zeros(width, dtype=np.intp)
            click_code[detectors] = np.arange(1, n)
            child = group * n + click_code[q]
            present = np.bincount(child)
            children = np.flatnonzero(present)
            size = present[children]
            parent, click = np.divmod(children, n)
            group = (np.cumsum(present > 0) - 1)[child]
            levels, u_re, u_im = (
                levels[:, parent], u_re[:, parent], u_im[:, parent])
            for k, j in enumerate(detectors, 1):
                hit = click == k
                levels[j] = np.where(hit, -clock, ZERO_LEVEL)
                u_re[j] = np.where(hit, 1.0, 0.0)
                u_im[j] = 0.0
            suffix = [event_suffix(layer_idx, j) for j in [None, *detectors]]
            keys = [keys[p] + suffix[c]
                    for p, c in zip(parent.tolist(), click.tolist())]
        if not (np.isfinite(u_re).all() and np.isfinite(u_im).all()):
            raise AssertionError(f"non-finite amplitude after layer {layer_idx}")
        # Absolute levels in [0, depth] or ZERO_LEVEL, as reductions.
        if (levels.min(initial=-clock) < -clock
                or levels.max(where=levels != ZERO_LEVEL, initial=-clock)
                > circuit.depth - clock):
            raise AssertionError("strength level left the dyadic range")

    moved, _ = _walk(q, group, pending, seed, n_splitters, later, width)
    degenerate += moved
    np.add(levels, circuit.depth, out=levels, where=levels != ZERO_LEVEL)
    return EnsembleResult(q, degenerate, _Fields(
        group, size, [record_key(key) for key in keys], levels, u_re, u_im))
