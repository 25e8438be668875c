"""Prepared ensembles run as one field plus a junk recipe: nothing that a
run reports depends on the junk, and the junk is drawn, evolved and checked
only by the scalar replay, whose trace lines print it."""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from interfersim import prepare, rng
from interfersim.circuits import Circuit, Layer, PhaseShifter
from interfersim.ensemble import run_ensemble
from interfersim.harness import (
    ExperimentConfig,
    PreparationSpec,
    run_experiment,
    run_traced,
    traced_shots,
)
from interfersim.ontic import ZERO_LEVEL
from interfersim.prepare import prepare_ensemble
from interfersim.records import postselect
from interfersim.scenarios import available_scenarios, random_circuit, scenario

SHOTS = 2000
REPLAYED = 200  # shots replayed through the scalar engine per junk sampler


def prepared_run(circuit, path, seed):
    prepared = prepare_ensemble(path, SHOTS, seed)
    return run_ensemble(circuit, prepared)


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
    # the scalar replay carries the junk; from zero and from disk junk it
    # gives each shot the prepared ensemble's record, position, levels and
    # live amplitudes
    seed = 60
    result = prepared_run(circuit, path, seed)
    live = result.final_levels != ZERO_LEVEL
    if post:  # the post-selection splits the replayed shots
        replayed = Counter(result.record_for_shot(shot)
                           for shot in range(REPLAYED))
        assert 0 < sum(postselect(replayed, post).values()) < REPLAYED
    for junk in ("zero", "disk"):
        config = ExperimentConfig(circuit=circuit, shots=SHOTS, seed=seed,
                                  prepare=PreparationSpec("source", path, junk))
        for shot, key, trajectory in itertools.islice(traced_shots(config),
                                                      REPLAYED):
            final = trajectory[-1]
            assert key == result.record_for_shot(shot)
            assert final.q == result.final_q[shot]
            assert final.tau == tuple(result.final_levels[shot])
            assert (np.array(final.u)[live[shot]].tobytes()
                    == result.final_u[shot][live[shot]].tobytes())


def huge(gen, shape):
    return np.full(shape, complex(1.7e308, 1.7e308))


def forbidden(gen, shape):
    raise AssertionError("junk drawn")


# a phase shifter on the dead path 1 of a path-0 preparation
DEAD_ROTATION = Circuit(2, [Layer([PhaseShifter(1, math.pi / 4)])])


def test_prepared_run_draws_no_junk(monkeypatch):
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "forbidden", forbidden)
    result = run_ensemble(DEAD_ROTATION,
                          prepare_ensemble(0, 10, 3, "forbidden"))
    assert result.counts() == {"-": 10}
    assert result.final_u.tolist() == [[1.0, 0.0]] * 10


def test_compare_draws_no_junk(monkeypatch):
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "forbidden", forbidden)
    config = ExperimentConfig(circuit=scenario("mz-3"), shots=500, seed=4,
                              prepare=PreparationSpec(path=0, junk="forbidden"))
    assert run_experiment(config).passed
    with pytest.raises(AssertionError, match="junk drawn"):
        run_experiment(replace(config, mode="ontic-only", trace=True))


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


def test_prepared_ensemble_checks_width():
    # the ensemble holds no width: its path meets the circuit's width here
    with pytest.raises(IndexError, match="path 2 out of range for width 2"):
        run_ensemble(scenario("mz-3"), prepare_ensemble(2, 10, 3))


def forbidden_draw(*args, **kwargs):
    raise AssertionError("uniforms drawn")


@pytest.mark.parametrize("path", [-1, 2])
def test_out_of_range_path_raises_before_any_draw(monkeypatch, path):
    # both places where a prepared ensemble meets its circuit check the
    # path first; the ensemble's config check is bypassed to reach them
    monkeypatch.setitem(prepare.JUNK_SAMPLERS, "forbidden", forbidden)
    monkeypatch.setattr(rng, "ensemble_uniforms", forbidden_draw)
    monkeypatch.setattr(rng, "shot_generator", forbidden_draw)
    monkeypatch.setattr(rng, "generator", forbidden_draw)
    message = f"path {path} out of range for width 2"
    with pytest.raises(IndexError, match=message):
        run_ensemble(scenario("mz-3"), prepare_ensemble(path, 10, 3, "forbidden"))
    config = ExperimentConfig(circuit=scenario("mz-3"), shots=10, seed=3,
                              prepare=PreparationSpec(path=0, junk="forbidden"))
    object.__setattr__(config, "prepare",
                       PreparationSpec(path=path, junk="forbidden"))
    with pytest.raises(IndexError, match=message):
        next(traced_shots(config))
