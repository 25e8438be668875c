"""Initial ensemble preparation for both engines.

Two routes to a single-particle start in a chosen path:

- *sieve*: push states from an arbitrary raw source through a full array of
  detectors and keep the runs where exactly the target path clicked;
- *source*: inject the particle directly with full field strength in its
  path while every other path carries zero strength and an arbitrary "junk"
  amplitude from a pluggable sampler.

Either way the prepared state has the particle at the target path with
amplitude 1 and strength 1 there, zero strength elsewhere, and unknown
leftover amplitudes elsewhere. No particle of such an ensemble ever reads
those leftovers, so :func:`prepare_ensemble` keeps them as a recipe that is
drawn only where something reads them; tests check that swapping junk
samplers changes no record. A junk sampler is named by its key in
:data:`JUNK_SAMPLERS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as streams
from .circuits import Detector, Layer, check_path
from .ontic import ZERO_LEVEL, OnticState, step_layer
from .quantum import QuantumState

JunkSampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


class PreparationError(RuntimeError):
    """The sieve could not reach its target acceptance."""


def junk_zero(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.complex128)


def junk_disk(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform modulus in [0, 1] and uniform phase, independently per entry."""
    modulus = gen.random(shape)
    phase = gen.random(shape) * (2.0 * math.pi)
    return modulus * np.exp(1j * phase)


JUNK_SAMPLERS: dict[str, JunkSampler] = {
    "zero": junk_zero,
    "disk": junk_disk,
}


def resolve_junk(junk: str) -> JunkSampler:
    """The sampler of :data:`JUNK_SAMPLERS` named ``junk``."""
    try:
        return JUNK_SAMPLERS[junk]
    except KeyError:
        raise ValueError(f"unknown junk sampler {junk!r}; "
                         f"expected one of {sorted(JUNK_SAMPLERS)}") from None


def quantum_init(path: int, width: int) -> QuantumState:
    """Basis state: the particle definitely in ``path``."""
    return QuantumState.basis(path, width)


def source_prepare(path: int, width: int, gen: np.random.Generator,
                   junk: str = "zero") -> OnticState:
    """Blocked-path source: particle injected into ``path`` with a full-
    strength unit field there; all other paths get zero strength and a junk
    amplitude."""
    check_path(path, width)
    u = resolve_junk(junk)(gen, (width,))
    u[path] = 1.0
    tau = [ZERO_LEVEL] * width
    tau[path] = 0
    return OnticState(path, u, tau)


def sieve_prepare(raw_sampler: Callable[[np.random.Generator], OnticState],
                  target: int, gen: np.random.Generator,
                  floor: float = 1e-6) -> OnticState:
    """Rejection-sample raw states through a full detector array.

    Each draw is pushed through one layer of detectors on every path; the
    state is kept when exactly the target path clicked. Gives up with a
    diagnostic once enough draws have failed that an acceptance probability
    of at least ``floor`` is implausible.
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError("acceptance floor must be in (0, 1]")
    max_attempts = max(1000, int(math.ceil(20.0 / floor)))
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        raw = raw_sampler(gen)
        sieve = Layer([Detector(j) for j in range(raw.width)])
        results, sieved = step_layer(raw, sieve, gen)
        clicked = [p for p, hit in results if hit]
        assert len(clicked) == 1  # one particle, one click
        if clicked[0] == target:
            return sieved
    raise PreparationError(
        f"sieve got no click at path {target} in {attempts} draws "
        f"(acceptance floor {floor})"
    )


def default_raw_sampler(width: int, junk: str = "disk",
                        ) -> Callable[[np.random.Generator], OnticState]:
    """An intentionally messy unknown source: uniform particle position,
    junk amplitudes everywhere, assorted field strengths."""
    sampler = resolve_junk(junk)

    def draw(gen: np.random.Generator) -> OnticState:
        q = int(gen.integers(width))
        u = sampler(gen, (width,))
        tau = []
        for _ in range(width):
            k = int(gen.integers(5))
            tau.append(ZERO_LEVEL if k == 4 else k)
        return OnticState(q, u, tau)

    return draw


# --------------------------------------------------------------------------
# Vectorised preparation for the harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedEnsemble:
    """An ensemble prepared for a vectorised run, stored as what it is.

    Every shot starts with the particle at ``path`` and the same field:
    amplitude 1 at level 0 there, and zero strength on every other path.
    The amplitudes left on those dead paths (the junk) are unobservable, so
    only their recipe is kept: ``sampler`` draws them, ``(shots, width)`` at
    once, from the :data:`interfersim.rng.PREPARE_FIELDS` stream of
    ``seed``. :func:`interfersim.ensemble.run_ensemble` runs the one field
    under ``seed`` and draws no junk; :meth:`amplitudes` materialises the
    per-shot amplitudes for the scalar replay, whose trace lines print the
    junk.
    """

    path: int
    width: int
    shots: int
    seed: int
    sampler: JunkSampler

    def amplitudes(self) -> np.ndarray:
        """Per-shot ``(shots, width)`` amplitudes: 1 on the path and the
        junk, freshly drawn, on the dead paths (the only per-shot part)."""
        gen = streams.generator(self.seed, streams.PREPARE_FIELDS)
        u = self.sampler(gen, (self.shots, self.width))
        u[:, self.path] = 1.0
        return u


def prepare_ensemble(path: int, width: int, shots: int, seed: int,
                     junk: str = "zero") -> PreparedEnsemble:
    """The initial ensemble of ``shots`` runs, as a :class:`PreparedEnsemble`.

    It takes no mode: both produce the same distribution by construction.
    The sieve's detector array leaves the non-target amplitudes untouched
    and zeroes their strengths, and the raw source's amplitude marginal is
    the junk distribution independently of the particle position, so
    conditioning on the target click is equivalent to direct injection.
    ``sieve_prepare`` implements the literal rejection procedure for single
    states; here either mode's accepted ensemble is built directly. The
    arguments are checked here; no junk is drawn.
    """
    check_path(path, width)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return PreparedEnsemble(path, width, shots, seed, resolve_junk(junk))
