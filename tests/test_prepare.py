"""Initial preparation: source, junk samplers, ensemble arrays, and the
literal sieve as a reference for the ``sieve`` mode's direct construction."""

import math

import numpy as np
import pytest

from interfersim.circuits import Circuit, Detector, Layer
from interfersim.ensemble import run_ensemble
from interfersim.harness import ExperimentConfig, PreparationSpec, _prepare
from interfersim.labels import _judge
from interfersim.ontic import ZERO_LEVEL, OnticState, step_layer
from interfersim.prepare import (
    junk_disk,
    junk_zero,
    prepare_ensemble,
    quantum_init,
    resolve_junk,
    source_prepare,
)
from interfersim.quantum import QuantumState
from interfersim.scenarios import scenario


class PreparationError(RuntimeError):
    """The sieve could not reach its target acceptance."""


def sieve_prepare(raw_sampler, target, gen, floor=1e-6):
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


def default_raw_sampler(width, junk="disk"):
    """An intentionally messy unknown source: uniform particle position,
    junk amplitudes everywhere, assorted field strengths."""
    sampler = resolve_junk(junk)

    def draw(gen):
        q = int(gen.integers(width))
        u = sampler(gen, (width,))
        tau = []
        for _ in range(width):
            k = int(gen.integers(5))
            tau.append(ZERO_LEVEL if k == 4 else k)
        return OnticState(q, u, tau)

    return draw


def test_quantum_init_basis_states():
    assert np.array_equal(quantum_init(0, 2).amplitudes, [1, 0])
    assert np.array_equal(quantum_init(2, 3).amplitudes, [0, 0, 1])
    with pytest.raises(IndexError):
        quantum_init(3, 2)


def test_source_prepare_zero_junk():
    state = source_prepare(0, 3, np.random.default_rng(0), junk="zero")
    assert state.q == 0
    assert np.array_equal(state.u, [1, 0, 0])
    assert state.tau[0] == 0
    assert state.tau[1] == state.tau[2] == ZERO_LEVEL


def test_source_prepare_disk_junk_stays_in_class():
    gen = np.random.default_rng(1)
    for _ in range(50):
        state = source_prepare(1, 4, gen, junk="disk")
        assert state.q == 1 and _judge(state, QuantumState.basis(1, 4))[1]
        assert float(np.abs(state.u).max()) <= 1.0


def test_junk_samplers():
    gen = np.random.default_rng(2)
    assert np.array_equal(junk_zero(gen, (3,)), np.zeros(3))
    draws = junk_disk(gen, (1000,))
    assert float(np.abs(draws).max()) <= 1.0
    assert resolve_junk("disk") is junk_disk
    with pytest.raises(ValueError, match="unknown junk"):
        resolve_junk("noise")


def test_sieve_certain_acceptance():
    gen = np.random.default_rng(3)

    def raw(g):
        return source_prepare(0, 2, g, junk="disk")

    state = sieve_prepare(raw, 0, gen)
    assert state.q == 0 and _judge(state, QuantumState.basis(0, 2))[1]
    assert state.u[0] == 1.0


def test_sieve_uniform_acceptance_rate():
    gen = np.random.default_rng(4)
    raw = default_raw_sampler(4)
    kept = 0
    trials = 400
    for _ in range(trials):
        state = sieve_prepare(raw, 1, gen)
        assert state.q == 1 and _judge(state, QuantumState.basis(1, 4))[1]
        kept += 1
    assert kept == trials  # each call rejects internally until success


def test_sieve_preserves_raw_junk_amplitudes():
    gen = np.random.default_rng(5)

    def raw(g):
        return OnticState(0, np.array([0.25j, 0.5 + 0.25j]),
                          (0, 0))

    state = sieve_prepare(raw, 0, gen)
    assert state.u[1] == 0.5 + 0.25j  # untouched by its no-click detector
    assert state.tau[1] == ZERO_LEVEL


def test_sieve_gives_up_on_unreachable_target():
    gen = np.random.default_rng(6)

    def raw(g):
        return source_prepare(0, 3, g, junk="zero")  # never at path 2

    with pytest.raises(PreparationError, match="floor"):
        sieve_prepare(raw, 2, gen, floor=1e-2)


def test_prepare_ensemble_shapes_and_class():
    # one amplitude row per shot: 1 on the path, junk on the dead paths;
    # the position and the levels are the same for every shot
    prepared = prepare_ensemble(1, 100, 9, "disk")
    u = prepared.amplitudes(3)
    assert u.shape == (100, 3) and (u[:, 1] == 1.0).all()
    assert (np.abs(u[:, [0, 2]]) <= 1.0).all() and (u[:, [0, 2]] != 0.0).all()
    assert (prepared.path, prepared.shots) == (1, 100)


def test_prepare_ensemble_sieve_equals_source_distribution():
    # both modes build the accepted ensemble directly: a config differing
    # only in the mode prepares the same ensemble
    circuit = scenario("mz-2")
    a, b = (_prepare(ExperimentConfig(circuit, PreparationSpec(mode, 0, "disk"),
                                      shots=50, seed=11))
            for mode in ("sieve", "source"))
    assert a == b
    assert np.array_equal(a.amplitudes(2), b.amplitudes(2))


def test_prepare_ensemble_deterministic():
    a = prepare_ensemble(0, 50, 12, "disk")
    b = prepare_ensemble(0, 50, 12, "disk")
    assert np.array_equal(a.amplitudes(2), b.amplitudes(2))


def test_prepare_ensemble_validates():
    # the path is checked against the width of the circuit it meets
    prepared = prepare_ensemble(5, 10, 0)
    with pytest.raises(IndexError):
        run_ensemble(Circuit(2), prepared)
    with pytest.raises(IndexError):
        prepared.amplitudes(2)
    with pytest.raises(ValueError):
        prepare_ensemble(0, 0, 0)
    # junk is named, never passed as a sampler
    with pytest.raises(ValueError, match="unknown junk"):
        prepare_ensemble(0, 10, 0, junk_disk)
    # the mode is checked by the spec that reads it
    with pytest.raises(ValueError, match="unknown preparation mode"):
        PreparationSpec(mode="magic")
