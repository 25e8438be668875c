"""Prepared ensembles run as one field plus a junk recipe: nothing that a
run reports depends on the junk, and the junk is drawn, evolved and checked
only where something reads it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from interfersim import ensemble, prepare
from interfersim.circuits import BeamSplitter, Circuit, Layer, PhaseShifter
from interfersim.ensemble import run_ensemble
from interfersim.harness import (
    ExperimentConfig,
    PreparationSpec,
    run_experiment,
    run_traced,
)
from interfersim.ontic import mix_amplitudes
from interfersim.prepare import prepare_ensemble
from interfersim.scenarios import available_scenarios, random_circuit, scenario

SHOTS = 2000


def eager(circuit, path, seed, junk):
    """The run of the materialised per-shot arrays, junk evolved."""
    arrays = prepare_ensemble("source", path, circuit.width, SHOTS, seed,
                              junk).arrays()
    return run_ensemble(circuit, *arrays, seed)


def lazy(circuit, path, seed, junk):
    """The run of the prepared ensemble, junk on demand."""
    prepared = prepare_ensemble("source", path, circuit.width, SHOTS, seed, junk)
    return run_ensemble(circuit, prepared, seed)


def observables(result):
    return (result.records.tobytes(), result.final_q.tobytes(),
            result.final_levels.tobytes(), result.degenerate_relocations,
            list(result.counts().items()))


def _cases():
    for name in available_scenarios():
        yield pytest.param(scenario(name), 0, None, id=name)
    yield pytest.param(scenario("elitzur-vaidman"), 1, ((1, None),),
                       id="elitzur-vaidman-postselected")
    for width in range(2, 9):
        for k in range(2):
            gen = np.random.default_rng(100 * width + k)
            circuit = random_circuit(width, 8 + 6 * k, gen, p_detector=0.35)
            yield pytest.param(circuit, (width + k) % width, None,
                               id=f"random-{width}-{k}")


@pytest.mark.parametrize("circuit, path, post", _cases())
def test_outputs_independent_of_junk_bit_for_bit(circuit, path, post):
    seed = 60
    runs = [eager(circuit, path, seed, "zero"), eager(circuit, path, seed, "disk"),
            lazy(circuit, path, seed, "disk")]
    if post:
        runs = [r.select(r.match_mask(post)) for r in runs]
        assert 0 < runs[0].shots < SHOTS
    reference = observables(runs[0])
    for result in runs[1:]:
        assert observables(result) == reference
    # the lazy final amplitudes are the eager ones, on demand
    assert runs[2].final_u.tobytes() == runs[1].final_u.tobytes()


def huge(gen, shape):
    return np.full(shape, complex(1.7e308, 1.7e308))


def forbidden(gen, shape):
    raise AssertionError("junk drawn")


# a phase shifter on the dead path 1 of a path-0 preparation
DEAD_ROTATION = Circuit(2, [Layer([PhaseShifter(1, math.pi / 4)])])


def test_prepared_run_draws_no_junk():
    result = run_ensemble(DEAD_ROTATION,
                          prepare_ensemble("source", 0, 2, 10, 3, forbidden), 3)
    assert result.counts() == {"-": 10}
    with pytest.raises(AssertionError, match="junk drawn"):
        result.final_u


def test_compare_draws_no_junk(monkeypatch):
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "forbidden", forbidden)
    config = ExperimentConfig(circuit=scenario("mz-3"), shots=500, seed=4,
                              prepare=PreparationSpec(path=0, junk="forbidden"))
    assert run_experiment(config).passed
    with pytest.raises(AssertionError, match="junk drawn"):
        run_experiment(replace(config, mode="ontic-only", trace=True))


def test_deferred_junk_overflow_raises_on_final_u():
    result = run_ensemble(DEAD_ROTATION,
                          prepare_ensemble("source", 0, 2, 10, 3, huge), 3)
    assert result.final_q.tolist() == [0] * 10
    with (np.errstate(over="ignore"),
          pytest.raises(AssertionError, match="non-finite amplitude after layer 0")):
        result.final_u


def test_deferred_junk_overflow_raises_in_traced_run(monkeypatch):
    # the ensemble runs without junk; the traced replay reads the junk and
    # stops at its overflow
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "huge", huge)
    config = ExperimentConfig(circuit=DEAD_ROTATION, shots=10, seed=3,
                              prepare=PreparationSpec(path=0, junk="huge"),
                              mode="ontic-only", trace=True)
    with (np.errstate(over="ignore"),
          pytest.raises(ValueError, match="amplitudes must be finite")):
        run_experiment(config)
    assert run_experiment(replace(config, trace=False)).kept_shots == 10


def test_junk_overflow_raises_in_single_shot_replay(monkeypatch):
    # the replay's engine-made states still check finiteness: the huge junk
    # is finite on entry and overflows when the dead path rotates
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "huge", huge)
    config = ExperimentConfig(circuit=DEAD_ROTATION, shots=3, seed=3,
                              prepare=PreparationSpec(path=0, junk="huge"))
    with (np.errstate(over="ignore"),
          pytest.raises(ValueError, match="amplitudes must be finite")):
        run_traced(config)


def test_deferred_junk_splitter_expansion_raises_on_final_u(monkeypatch):
    # paths 1 and 2 are dead in every shot, so only the junk meets the
    # expanding splitter; the group columns there are zero and stay so
    def expanding(*args):
        return tuple(2.0 * part for part in mix_amplitudes(*args))

    monkeypatch.setattr(ensemble, "mix_amplitudes", expanding)
    circuit = Circuit(3, [Layer([BeamSplitter(1, 2, 0.5)])])
    result = run_ensemble(circuit,
                          prepare_ensemble("source", 0, 3, 10, 3, "disk"), 3)
    with pytest.raises(AssertionError, match="expanded the pair intensity"):
        result.final_u


def test_select_keeps_final_u_of_the_kept_shots():
    circuit = scenario("elitzur-vaidman")
    full = lazy(circuit, 0, 9, "disk")
    mask = full.match_mask(((1, None),))
    kept = full.select(mask)
    assert kept.final_u.tobytes() == full.final_u[mask].tobytes()


def test_prepared_ensemble_checks_width():
    with pytest.raises(ValueError, match="width differs from the circuit's"):
        run_ensemble(scenario("mz-3"),
                     prepare_ensemble("source", 0, 3, 10, 3), 3)
