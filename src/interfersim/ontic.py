"""Stochastic particle-plus-field engine.

The complete state of one run is a definite particle position together with
a classical field per path, described by a complex amplitude and a dyadic
strength. Gates touch only the paths they sit on:

- free evolution leaves the amplitude alone and halves the strength
  ("ageing"); a phase shifter additionally rotates the amplitude;
- a detector reports the particle deterministically (it clicks exactly when
  the particle is in its path), resets its path's field to amplitude 1 and
  full strength on a click, and kills the strength on a no-click;
- a beam splitter suppresses whichever incoming field has the weaker
  strength, mixes the surviving amplitudes through the unitary coupler
  block, levels both strengths to half the pre-layer maximum, and, when the
  particle sits on one of its paths, relocates it in proportion to the
  outgoing field intensities.

Strengths are restricted to exact powers of two (or zero): every strength
the gates can produce is a halving, a reset to 1, or a reset to 0, so the
equality comparisons that decide field suppression are exact integer
operations, never floating-point ones.

A beam splitter consumes exactly one uniform draw every time it is applied,
whether or not the particle is present. This fixed schedule makes a shot's
stream consumption a function of the circuit alone, so vectorised ensemble
runs and isolated single-shot replays are bit-identical.

The rules are stated twice, once per representation. Here each gate rule
is one private helper (``_age``, ``_phase``, ``_detect``, ``_split``)
shared by the public ``gate_*`` functions and by :func:`step_layer`;
:func:`interfersim.ensemble.run_ensemble` is the vector statement, one row
per shot. Amplitude updates in both are written in explicitly separated
real arithmetic (:func:`rotate_amplitude`, :func:`mix_amplitudes`): every
step is a single exactly-rounded IEEE multiply or add, never a fused
complex kernel, so the two produce bit-identical trajectories. The
property tests in ``tests/test_engine_properties.py`` hold them together on
random circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable

import numpy as np

from .circuits import (
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
    validate_layer,
)
from .records import OutcomeRecord

# Amplitudes carried at the dominant strength stay within modulus 1 for
# states reachable from valid preparations (a sampled property, see tests).
# Suppressed leftovers have no uniform bound: ties between equal-strength
# junk paths mix unitarily and k of them can pile up to modulus sqrt(k).
# The engine therefore hard-asserts only finiteness plus, per splitter,
# that the outgoing pair intensity never exceeds the surviving incoming one.

# Integer code for strength zero in vectorised runs. Any level below it is
# an exponent k meaning strength 2**-k; ageing adds 1 and can never reach it.
ZERO_LEVEL = np.int64(2 ** 31)


@total_ordering
@dataclass(frozen=True)
class DyadicStrength:
    """Field strength, either zero or ``2**-exponent`` with integer exponent.

    Comparisons, ``max`` and halving are exact: no floating point enters.
    """

    exponent: int | None = None  # None encodes strength zero

    def __post_init__(self):
        if self.exponent is not None:
            if not isinstance(self.exponent, int) or self.exponent < 0:
                raise ValueError(f"dyadic exponent must be a non-negative int, "
                                 f"got {self.exponent!r}")

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def value(self) -> float:
        return 0.0 if self.exponent is None else 2.0 ** -self.exponent

    def halved(self) -> "DyadicStrength":
        if self.exponent is None:
            return self
        return DyadicStrength(self.exponent + 1)

    def __lt__(self, other: "DyadicStrength") -> bool:
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def __repr__(self) -> str:
        if self.exponent is None:
            return "DyadicStrength(zero)"
        return f"DyadicStrength(2**-{self.exponent})"


ZERO_STRENGTH = DyadicStrength(None)
FULL_STRENGTH = DyadicStrength(0)


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


def strength_to_level(tau: DyadicStrength) -> np.int64:
    return ZERO_LEVEL if tau.is_zero else np.int64(tau.exponent)


def level_to_strength(level: int) -> DyadicStrength:
    return ZERO_STRENGTH if level >= ZERO_LEVEL else DyadicStrength(int(level))


def strengths_to_levels(taus: Iterable[DyadicStrength]) -> np.ndarray:
    return np.array([strength_to_level(t) for t in taus], dtype=np.int64)


def levels_to_strengths(levels: Iterable[int]) -> tuple[DyadicStrength, ...]:
    return tuple(level_to_strength(int(v)) for v in levels)


@dataclass(frozen=True)
class OnticState:
    """One point of the model: particle position plus per-path fields."""

    q: int
    u: np.ndarray
    tau: tuple[DyadicStrength, ...]

    def __init__(self, q: int, u: Iterable[complex], tau: Iterable[DyadicStrength]):
        u_arr = np.array(tuple(u), dtype=np.complex128)
        tau_t = tuple(tau)
        if u_arr.ndim != 1 or u_arr.size == 0:
            raise ValueError("field amplitudes must form a non-empty vector")
        if len(tau_t) != u_arr.size:
            raise ValueError("amplitude and strength vectors differ in length")
        if not 0 <= q < u_arr.size:
            raise IndexError(f"particle position {q} out of range")
        for t in tau_t:
            if not isinstance(t, DyadicStrength):
                raise TypeError(f"strengths must be DyadicStrength, got {t!r}")
        if not np.isfinite(u_arr.view(np.float64)).all():
            raise ValueError("field amplitudes must be finite")
        u_arr.setflags(write=False)
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "u", u_arr)
        object.__setattr__(self, "tau", tau_t)

    @property
    def width(self) -> int:
        return self.u.size


@dataclass
class ShotDiagnostics:
    """Counters for events that signal misuse or bugs on valid runs."""

    degenerate_relocations: int = 0


def _check_path(path: int, width: int) -> None:
    if not 0 <= path < width:
        raise IndexError(f"path {path} out of range for width {width}")


# The gate rules, each stated once. They update a working amplitude list
# ``u`` and strength list ``tau`` in place and touch only their own paths,
# so the gates of one layer can be applied one after another.

def _age(tau: list, path: int) -> None:
    tau[path] = tau[path].halved()


def _phase(u: list, tau: list, path: int, omega: float) -> None:
    re, im = rotate_amplitude(u[path].real, u[path].imag,
                              math.cos(omega), math.sin(omega))
    u[path] = complex(re, im)
    _age(tau, path)


def _detect(u: list, tau: list, q: int, path: int) -> bool:
    clicked = q == path
    if clicked:
        u[path] = 1.0 + 0.0j
        tau[path] = FULL_STRENGTH
    else:
        tau[path] = ZERO_STRENGTH
    return clicked


def _split(u: list, tau: list, q: int, s: int, t: int, reflectivity: float,
           draw: float, diagnostics: ShotDiagnostics | None) -> int:
    """Splitter rule; returns the new particle position."""
    tau_st = max(tau[s], tau[t])
    u_s = u[s] if tau[s] == tau_st else 0.0j
    u_t = u[t] if tau[t] == tau_st else 0.0j
    root_r = math.sqrt(reflectivity)
    root_t = math.sqrt(1.0 - reflectivity)
    s_re, s_im, t_re, t_im = mix_amplitudes(u_s.real, u_s.imag,
                                            u_t.real, u_t.imag, root_r, root_t)
    u[s] = complex(s_re, s_im)
    u[t] = complex(t_re, t_im)
    tau[s] = tau[t] = tau_st.halved()
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
    return state.u.tolist(), list(state.tau)


def gate_free(state: OnticState, path: int) -> OnticState:
    """Ageing: strength halves, amplitude and particle stay put."""
    _check_path(path, state.width)
    tau = list(state.tau)
    _age(tau, path)
    return OnticState(state.q, state.u, tau)


def gate_phase(state: OnticState, path: int, omega: float) -> OnticState:
    """Rotate the path's amplitude by ``exp(i omega)``; strength ages."""
    _check_path(path, state.width)
    u, tau = _working(state)
    _phase(u, tau, path, omega)
    return OnticState(state.q, u, tau)


def gate_detector(state: OnticState, path: int) -> tuple[bool, OnticState]:
    """Deterministic presence check: clicks exactly when the particle is
    in ``path``. A click resets that path's field to amplitude 1, strength
    1; a no-click leaves the amplitude and zeroes the strength."""
    _check_path(path, state.width)
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
    _check_path(s, state.width)
    _check_path(t, state.width)
    if s == t:
        raise ValueError("beam splitter requires two distinct paths")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity!r} outside [0, 1]")
    u, tau = _working(state)
    q = _split(u, tau, state.q, s, t, reflectivity, float(rng.random()),
               diagnostics)
    return OnticState(q, u, tau)


def step_layer(state: OnticState, layer: Layer, rng: np.random.Generator,
               diagnostics: ShotDiagnostics | None = None,
               ) -> tuple[tuple[tuple[int, bool], ...], OnticState]:
    """Apply one parallel gate configuration.

    The layer's gates sit on disjoint paths, so applying them in turn gives
    what each would give reading only pre-layer values; paths under no gate
    age freely. Uniform draws are consumed by beam splitters in their order
    of appearance in the layer. Returns the per-detector results in layer
    order and the new state; at most one detector can click because the
    particle has a single position.
    """
    partition = validate_layer(layer, state.width)
    u, tau = _working(state)
    q = state.q
    results: list[tuple[int, bool]] = []
    for path in partition.free:
        _age(tau, path)
    for gate in layer.gates:
        if isinstance(gate, PhaseShifter):
            _phase(u, tau, gate.path, gate.omega)
        elif isinstance(gate, Detector):
            results.append((gate.path, _detect(u, tau, q, gate.path)))
        else:
            q = _split(u, tau, q, gate.s, gate.t, gate.reflectivity,
                       float(rng.random()), diagnostics)
    assert sum(clicked for _, clicked in results) <= 1
    return tuple(results), OnticState(q, u, tau)


def run_ontic_shot(circuit: Circuit, init: OnticState, rng: np.random.Generator,
                   trace: bool = False,
                   diagnostics: ShotDiagnostics | None = None,
                   ) -> tuple[OutcomeRecord, list[OnticState]]:
    """Run all layers of a circuit on one initial state.

    Returns the outcome record and a trajectory: with ``trace`` the state
    after every layer (the initial state first), otherwise just the final
    state. Draw consumption matches the vectorised ensemble runner
    shot-for-shot.
    """
    if init.width != circuit.width:
        raise ValueError("initial state width does not match circuit")
    state = init
    trajectory = [state]
    events: list[tuple[int, int | None]] = []
    for layer_idx, layer in enumerate(circuit.layers):
        results, state = step_layer(state, layer, rng, diagnostics)
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
    with strength exponents (``null`` for zero) and zero-based indices."""
    return {
        "shot": shot,
        "layer": layer,
        "q": state.q,
        "u": [[float(c.real), float(c.imag)] for c in state.u],
        "tau": [None if t.is_zero else t.exponent for t in state.tau],
    }
