"""Initial ensemble preparation for both engines.

The stochastic engine starts a single particle in a chosen path by direct
injection (:func:`source_prepare`): full field strength in its path, zero
strength on every other path, and there an arbitrary "junk" amplitude from
a pluggable sampler, named by its key in :data:`JUNK_SAMPLERS`. The quantum
engine starts from the basis state (:func:`quantum_init`).

No particle of such an ensemble ever reads the leftover amplitudes, so
:func:`prepare_ensemble` keeps them as a recipe that is drawn only where
something reads them; tests check that swapping junk samplers changes no
record. The ``sieve`` mode, which filters an arbitrary raw source through a
full detector array, prepares the same ensemble (:func:`prepare_ensemble`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as streams
from .circuits import check_path
from .ontic import ZERO_LEVEL, OnticState
from .quantum import QuantumState

JunkSampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


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
    ``seed``. The width is the circuit's, read where the ensemble meets it:
    :func:`interfersim.ensemble.run_ensemble` runs the one field under
    ``seed`` and draws no junk; :meth:`amplitudes` materialises the
    per-shot amplitudes for the scalar replay, whose trace lines print the
    junk. Both check the path against the width before any draw.
    """

    path: int
    shots: int
    seed: int
    sampler: JunkSampler

    def amplitudes(self, width: int) -> np.ndarray:
        """Per-shot ``(shots, width)`` amplitudes: 1 on the path and the
        junk, freshly drawn, on the dead paths (the only per-shot part)."""
        check_path(self.path, width)
        gen = streams.generator(self.seed, streams.PREPARE_FIELDS)
        u = self.sampler(gen, (self.shots, width))
        u[:, self.path] = 1.0
        return u


def prepare_ensemble(path: int, shots: int, seed: int,
                     junk: str = "zero") -> PreparedEnsemble:
    """The initial ensemble of ``shots`` runs, as a :class:`PreparedEnsemble`.

    It takes no mode: both produce the same distribution by construction.
    The sieve's detector array leaves the non-target amplitudes untouched
    and zeroes their strengths, and the raw source's amplitude marginal is
    the junk distribution independently of the particle position, so
    conditioning on the target click is equivalent to direct injection.
    ``tests/test_prepare.py`` keeps the literal rejection procedure for
    single states as a reference; here either mode's accepted ensemble is
    built directly. The shots and the junk are checked here, the path where
    the ensemble meets its circuit; no junk is drawn.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return PreparedEnsemble(path, shots, seed, resolve_junk(junk))
