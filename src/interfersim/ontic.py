"""Stochastic particle-plus-field engine.

The complete state of one run is a definite particle position together with
a classical field per path, described by a complex amplitude and a dyadic
strength. Every field ages by one step per layer, and a gate resets only the
paths it sits on:

- ageing leaves the amplitude alone and halves the strength; this is all
  that happens to a free path, and a phase shifter additionally rotates the
  amplitude;
- a detector reports the particle deterministically (it clicks exactly when
  the particle is in its path), resets its path's field to amplitude 1 and
  full strength on a click, and kills the strength on a no-click;
- a beam splitter suppresses whichever incoming field has the weaker
  strength, mixes the surviving amplitudes through the unitary coupler
  block, levels both strengths to half the pre-layer maximum, and, when the
  particle sits on one of its paths, relocates it in proportion to the
  outgoing field intensities.

Strengths are restricted to exact powers of two (or zero): every strength
the gates can produce is a halving, a reset to 1, or a reset to 0. Both
engines therefore carry a strength as an integer *level*, the one encoding
in the package: level ``k`` is strength ``2**-k`` and :data:`ZERO_LEVEL` is
strength zero. The strongest field has the smallest level, halving adds 1,
and the comparisons that decide field suppression are exact integer
operations, never floating-point ones.

A beam splitter consumes exactly one uniform draw every time it is applied,
whether or not the particle is present. This fixed schedule makes a shot's
stream consumption a function of the circuit alone, so vectorised ensemble
runs and isolated single-shot replays are bit-identical.

The rules are stated twice, once per representation. Here, the scalar
statement, a state holds Python values (a tuple of complex amplitudes and a
tuple of int levels) and each gate rule is one private helper (``_age``,
``_rotate``, ``_detect``, ``_split``) on working lists, shared by the public
``gate_*`` functions and by ``_step``, the body of :func:`step_layer` that
:func:`run_ontic_shot` calls on each layer of a validated circuit. ``_step``
ages every level first, as the layer clock of the vector statement does,
and then lets each gate reset its own paths;
:func:`interfersim.ensemble.run_ensemble` is the vector statement on numpy
arrays, one column per group of shots that share a field. Amplitude
updates in both are written in explicitly separated
real arithmetic (:func:`rotate_amplitude`, :func:`mix_amplitudes`): every
step is a single exactly-rounded IEEE multiply or add, never a fused
complex kernel, so the two produce bit-identical trajectories. The
property tests in ``tests/test_engine_properties.py`` hold them together on
random circuits.

The constants of the rules live on the gates: a
:class:`~interfersim.circuits.PhaseShifter` holds ``cos_w``/``sin_w`` and a
:class:`~interfersim.circuits.BeamSplitter` ``root_r``/``root_t``, computed
once when the gate is built. ``_phase`` and ``_split`` take them, and so
does the ensemble's loop, so no shot recomputes a cosine, sine or square
root; only the public ``gate_phase``/``gate_beamsplitter``, which take raw
parameters, compute them per call.
"""

from __future__ import annotations

import math
import operator
from cmath import isfinite
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import (
    BeamSplitter,
    Circuit,
    Layer,
    PhaseShifter,
    check_path,
    validate_layer,
)
from .records import OutcomeRecord

# Amplitudes carried at the dominant strength stay within modulus 1 for
# states reachable from valid preparations (a sampled property, see tests).
# Suppressed leftovers have no uniform bound: ties between equal-strength
# junk paths mix unitarily and k of them can pile up to modulus sqrt(k).
# The engine therefore hard-asserts only finiteness plus, per splitter,
# that the outgoing pair intensity never exceeds the surviving incoming one.

# Level of strength zero; a level k below it is strength 2**-k. Ageing adds
# 1 below ZERO_LEVEL and never reaches it on reachable states.
ZERO_LEVEL = 2 ** 31


def rotate_amplitude(re, im, cos_w, sin_w):
    """Rotate ``re + i im`` by the unit phasor ``cos_w + i sin_w``.

    Works on scalars and arrays alike; each operation is exactly rounded, so
    the two evaluations agree bit for bit.
    """
    return re * cos_w - im * sin_w, re * sin_w + im * cos_w


def mix_amplitudes(re_s, im_s, re_t, im_t, root_r, root_t):
    """Coupler block ``[[i root_r, root_t], [root_t, i root_r]]`` on the
    amplitude pair, in separated real arithmetic (scalar/vector agnostic)."""
    new_s_re = -root_r * im_s + root_t * re_t
    new_s_im = root_r * re_s + root_t * im_t
    new_t_re = root_t * re_s - root_r * im_t
    new_t_im = root_t * im_s + root_r * re_t
    return new_s_re, new_s_im, new_t_re, new_t_im


@dataclass(frozen=True)
class OnticState:
    """One point of the model: particle position plus per-path fields, held
    as Python values (the scalar statement): the amplitudes a tuple of
    complex numbers, the strengths a tuple of levels (see
    :data:`ZERO_LEVEL`). Equality and hashing are by value, so states that
    differ only in the sign of a zero compare equal (``-0.0 == 0.0``)."""

    q: int
    u: tuple[complex, ...]
    tau: tuple[int, ...]

    def __init__(self, q: int, u: Iterable[complex], tau: Iterable[int]):
        try:
            u_t = tuple(map(complex, u))
        except (TypeError, ValueError):
            raise ValueError("field amplitudes must be numbers") from None
        try:
            tau_t = tuple(map(operator.index, tau))  # numpy rows become ints
        except TypeError:
            raise ValueError("strength levels must be ints") from None
        if not u_t:
            raise ValueError("field amplitudes must form a non-empty vector")
        if len(tau_t) != len(u_t):
            raise ValueError("amplitude and strength vectors differ in length")
        if not 0 <= q < len(u_t):
            raise IndexError(f"particle position {q} out of range")
        if min(tau_t) < 0 or max(tau_t) > ZERO_LEVEL:
            raise ValueError(f"strength levels {tau_t} outside [0, ZERO_LEVEL]")
        if not all(map(isfinite, u_t)):
            raise ValueError("field amplitudes must be finite")
        _fill(self, int(q), u_t, tau_t)

    @property
    def width(self) -> int:
        return len(self.u)


def _fill(state: OnticState, q: int, u: tuple[complex, ...],
          tau: tuple[int, ...]) -> OnticState:
    """Fill ``state`` with values already checked, its fields set in one
    call rather than one per field."""
    object.__setattr__(state, "__dict__", {"q": q, "u": u, "tau": tau})
    return state


def initial_states(q: int, u: np.ndarray,
                   tau: Iterable[int]) -> Iterator[OnticState]:
    """One state per row of the ``(shots, width)`` amplitudes ``u``, each
    with particle ``q`` and levels ``tau``. The checks of
    :class:`OnticState` run once for the block: in full on the first row,
    then finiteness on the whole block."""
    first = OnticState(q, u[0].tolist(), tau)
    if not np.isfinite(u).all():
        raise ValueError("field amplitudes must be finite")
    for row in u:
        yield _fill(object.__new__(OnticState), first.q, tuple(row.tolist()),
                    first.tau)


@dataclass
class ShotDiagnostics:
    """Counters for events that signal misuse or bugs on valid runs."""

    degenerate_relocations: int = 0


# The gate rules, each stated once. ``_age`` maps a level to its aged level;
# the others update a working amplitude list ``u`` (and level list ``tau``)
# in place and touch only their own paths, so the gates of one layer can be
# applied one after another to levels that have already aged.

def _age(level: int) -> int:
    return ZERO_LEVEL if level >= ZERO_LEVEL else level + 1


def _rotate(u: list, path: int, cos_w: float, sin_w: float) -> None:
    re, im = rotate_amplitude(u[path].real, u[path].imag, cos_w, sin_w)
    u[path] = complex(re, im)


def _detect(u: list, tau: list, q: int, path: int) -> bool:
    clicked = q == path
    if clicked:
        u[path] = 1.0 + 0.0j
        tau[path] = 0
    else:
        tau[path] = ZERO_LEVEL
    return clicked


def _split(u: list, tau: list, before: Sequence[int], q: int, s: int, t: int,
           root_r: float, root_t: float, draw: float,
           diagnostics: ShotDiagnostics | None) -> int:
    """Splitter rule with coupler roots ``sqrt(R)``, ``sqrt(1 - R)``, which
    suppresses by the pre-layer levels ``before``; returns the new particle
    position."""
    level_s, level_t = before[s], before[t]
    lmin = level_s if level_s <= level_t else level_t  # strongest field
    u_s = u[s] if level_s == lmin else 0.0j
    u_t = u[t] if level_t == lmin else 0.0j
    s_re, s_im, t_re, t_im = mix_amplitudes(u_s.real, u_s.imag,
                                            u_t.real, u_t.imag, root_r, root_t)
    u[s] = complex(s_re, s_im)
    u[t] = complex(t_re, t_im)
    tau[s] = tau[t] = _age(lmin)
    if q not in (s, t):
        return q
    p_s = s_re * s_re + s_im * s_im
    total = p_s + (t_re * t_re + t_im * t_im)
    if total > 0.0:
        prob_s = p_s / total
    else:
        prob_s = 0.5
        if diagnostics is not None:
            diagnostics.degenerate_relocations += 1
    return s if draw < prob_s else t


def _working(state: OnticState) -> tuple[list, list]:
    return list(state.u), list(state.tau)


def gate_free(state: OnticState, path: int) -> OnticState:
    """Ageing: strength halves, amplitude and particle stay put."""
    check_path(path, state.width)
    tau = list(state.tau)
    tau[path] = _age(tau[path])
    return OnticState(state.q, state.u, tau)


def gate_phase(state: OnticState, path: int, omega: float) -> OnticState:
    """Rotate the path's amplitude by ``exp(i omega)``; strength ages."""
    check_path(path, state.width)
    u, tau = _working(state)
    _rotate(u, path, math.cos(omega), math.sin(omega))
    tau[path] = _age(tau[path])
    return OnticState(state.q, u, tau)


def gate_detector(state: OnticState, path: int) -> tuple[bool, OnticState]:
    """Deterministic presence check: clicks exactly when the particle is
    in ``path``. A click resets that path's field to amplitude 1, strength
    1; a no-click leaves the amplitude and zeroes the strength."""
    check_path(path, state.width)
    u, tau = _working(state)
    clicked = _detect(u, tau, state.q, path)
    return clicked, OnticState(state.q, u, tau)


def gate_beamsplitter(state: OnticState, s: int, t: int, reflectivity: float,
                      rng: np.random.Generator,
                      diagnostics: ShotDiagnostics | None = None) -> OnticState:
    """Suppress the weaker field, mix amplitudes, level strengths, relocate.

    Always consumes one uniform draw from ``rng`` (see module docstring).
    If the particle sits on the splitter and both outgoing intensities are
    zero it relocates 50/50 and bumps the diagnostics counter; any such
    event on a run started from a valid preparation indicates a bug.
    """
    check_path(s, state.width)
    check_path(t, state.width)
    if s == t:
        raise ValueError("beam splitter requires two distinct paths")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity!r} outside [0, 1]")
    u, tau = _working(state)
    q = _split(u, tau, state.tau, state.q, s, t, math.sqrt(reflectivity),
               math.sqrt(1.0 - reflectivity), float(rng.random()), diagnostics)
    return OnticState(q, u, tau)


def step_layer(state: OnticState, layer: Layer, rng: np.random.Generator,
               diagnostics: ShotDiagnostics | None = None,
               ) -> tuple[tuple[tuple[int, bool], ...], OnticState]:
    """Apply one parallel gate configuration.

    Every field ages one step; the layer's gates sit on disjoint paths and
    each resets its own, so applying them in turn gives what each would
    give reading only pre-layer values. Uniform draws are consumed by beam
    splitters in their order of appearance in the layer. Returns the
    per-detector results in layer order and the new state; at most one
    detector can click because the particle has a single position.
    """
    validate_layer(layer, state.width)
    return _step(state, layer, rng, diagnostics)


def _step(state: OnticState, layer: Layer, rng: np.random.Generator,
          diagnostics: ShotDiagnostics | None,
          ) -> tuple[tuple[tuple[int, bool], ...], OnticState]:
    """:func:`step_layer` on a validated layer: the one scalar layer loop.
    Every level ages inline (``_age``, the layer clock); then each gate
    applies its rule with the constants it holds. A phase shifter only
    rotates, since its path has aged; a splitter suppresses by the
    pre-layer levels, which it alone reads."""
    before, u, q = state.tau, list(state.u), state.q
    tau = [level + 1 if level < ZERO_LEVEL else level for level in before]
    results: list[tuple[int, bool]] = []
    for gate in layer.gates:
        kind = type(gate)
        if kind is BeamSplitter:
            q = _split(u, tau, before, q, gate.s, gate.t, gate.root_r,
                       gate.root_t, rng.random(), diagnostics)
        elif kind is PhaseShifter:
            _rotate(u, gate.path, gate.cos_w, gate.sin_w)
        else:
            results.append((gate.path, _detect(u, tau, q, gate.path)))
    assert len(results) < 2 or sum(hit for _, hit in results) <= 1
    # The one check left for a state the gate rules made from a valid one:
    # they keep the particle in range and one level in [0, ZERO_LEVEL] per
    # amplitude.
    u = tuple(u)
    if not all(map(isfinite, u)):
        raise ValueError("field amplitudes must be finite")
    return tuple(results), _fill(object.__new__(OnticState), int(q), u,
                                 tuple(tau))


def run_ontic_shot(circuit: Circuit, init: OnticState, rng: np.random.Generator,
                   trace: bool = False,
                   diagnostics: ShotDiagnostics | None = None,
                   ) -> tuple[OutcomeRecord, list[OnticState]]:
    """Run all layers of a circuit on one initial state.

    Returns the outcome record and a trajectory: with ``trace`` the state
    after every layer (the initial state first), otherwise just the final
    state. Draw consumption matches the vectorised ensemble runner
    shot-for-shot. The circuit's layers were validated when it was built,
    so each is stepped unchecked.
    """
    if init.width != circuit.width:
        raise ValueError("initial state width does not match circuit")
    state = init
    trajectory = [state]
    events: list[tuple[int, int | None]] = []
    for layer_idx, layer in enumerate(circuit.layers):
        results, state = _step(state, layer, rng, diagnostics)
        if results:
            clicked = [path for path, hit in results if hit]
            events.append((layer_idx, clicked[0] if clicked else None))
        if trace:
            trajectory.append(state)
        else:
            trajectory[0] = state
    return OutcomeRecord(tuple(events)), trajectory


def trace_json_object(shot: int, layer: int, state: OnticState) -> dict:
    """One trace line: ``{shot, layer, q, u: [[re, im], ...], tau: [...]}``
    with strength levels (``null`` for zero) and zero-based indices."""
    return {
        "shot": shot,
        "layer": layer,
        "q": state.q,
        "u": [[c.real, c.imag] for c in state.u],
        "tau": [None if t == ZERO_LEVEL else t for t in state.tau],
    }
