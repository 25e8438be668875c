"""The particle walk of :func:`interfersim.ensemble.run_ensemble` moves shots
in blocks of ``ensemble._BLOCK`` and draws their uniforms a block at a time;
nothing a run reports may depend on the block size. Each block size runs at
one shot under, one over and just past two whole blocks, against the same
run walked and drawn as one block. Pinned ``compare`` bytes and the draw
calls of one ``compare`` hold the walk's words to those of the stream."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from interfersim import ensemble, ontic, rng
from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
    serialize_circuit,
)
from interfersim.cli import main
from interfersim.compiler import haar_unitary, reck_decompose
from interfersim.ensemble import run_ensemble
from interfersim.harness import ExperimentConfig, PreparationSpec, traced_shots
from interfersim.ontic import ZERO_LEVEL, ShotDiagnostics
from interfersim.prepare import prepare_ensemble
from interfersim.records import postselect
from interfersim.scenarios import (
    available_scenarios,
    export_scenario,
    random_circuit,
    scenario,
)

BLOCKS = (1, 7, ensemble._BLOCK)


def _layers(*gates):
    return [Layer(g if isinstance(g, tuple) else (g,)) for g in gates]


def _shot_counts(block):
    return [n for n in (block - 1, block + 1, 2 * block + 3) if n > 0]


def _cases():
    for name in available_scenarios():
        yield pytest.param(scenario(name), 0, None, id=name)
    zeno = scenario("zeno-8")
    # no click at the last stage that can go either way (about 90%)
    yield pytest.param(zeno, 0, ((zeno.detector_layers()[-2], None),),
                       id="zeno-8-postselected")
    for width in (4, 6, 8):
        circuit = random_circuit(width, 16, np.random.default_rng(40 + width),
                                 p_detector=0.35)
        assert len(circuit.detector_layers()) > 2
        yield pytest.param(circuit, width // 2, None, id=f"random-{width}")
    # the first walk has no splitters to pass; a later walk reads the store
    yield pytest.param(Circuit(3, _layers(
        Detector(2), BeamSplitter(0, 1, 0.3), BeamSplitter(1, 2, 0.6),
        Detector(1), BeamSplitter(0, 1, 0.5),
        (Detector(0), Detector(1), Detector(2)))), 1, None,
        id="detectors-first")
    yield pytest.param(Circuit(2, _layers(
        PhaseShifter(0, 0.4), Detector(1), (Detector(0), Detector(1)))),
        0, None, id="no-splitters")
    # splitters in three walks, post-selected on the first detector layer
    walks3 = Circuit(3, _layers(
        BeamSplitter(0, 1, 0.5), BeamSplitter(1, 2, 0.4), Detector(2),
        (BeamSplitter(0, 1, 0.3), PhaseShifter(2, 0.7)),
        BeamSplitter(1, 2, 0.6), Detector(0), BeamSplitter(1, 2, 0.45),
        (Detector(0), Detector(1), Detector(2))))
    yield pytest.param(walks3, 0, ((2, None),), id="three-walks-postselected")


def _run(monkeypatch, circuit, path, shots, block):
    monkeypatch.setattr(ensemble, "_BLOCK", block)
    prepared = prepare_ensemble(path, shots, 11, "disk")
    return run_ensemble(circuit, prepared)


def _observed(result, post=None):
    live = result.final_levels != ZERO_LEVEL
    table = postselect(result.counts(), post) if post else result.counts()
    return (result.final_q.tobytes(), result.records.tobytes(),
            result.final_levels.tobytes(), result.final_u[live].tobytes(),
            list(table.items()), result.groups, result.degenerate_relocations)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("circuit, path, post", _cases())
def test_walk_is_independent_of_block_size(monkeypatch, circuit, path, post,
                                           block):
    for shots in _shot_counts(block):
        blocked = _run(monkeypatch, circuit, path, shots, block)
        whole = _run(monkeypatch, circuit, path, shots, shots)
        if post and shots > 100:
            assert 0 < sum(postselect(blocked.counts(), post).values()) < shots
        assert _observed(blocked, post) == _observed(whole, post)


def _vanishing(re_s, im_s, re_t, im_t, root_r, root_t):
    return re_s * 0.0, im_s * 0.0, re_t * 0.0, im_t * 0.0


@pytest.mark.parametrize("block", BLOCKS[:2])
@pytest.mark.parametrize("name", ["random3-a", "zeno-8"])
def test_walk_counts_degenerate_relocations_in_every_block(monkeypatch, name,
                                                           block):
    # splitters that leave no amplitude: every particle on a live pair
    # relocates 50/50, counted where its move is made
    monkeypatch.setattr(ensemble, "mix_amplitudes", _vanishing)
    monkeypatch.setattr(ontic, "mix_amplitudes", _vanishing)
    circuit = scenario(name)
    for shots in _shot_counts(block):
        blocked = _run(monkeypatch, circuit, 0, shots, block)
        assert blocked.degenerate_relocations > 0
        assert _observed(blocked) == _observed(
            _run(monkeypatch, circuit, 0, shots, shots))
        diagnostics = ShotDiagnostics()
        config = ExperimentConfig(circuit=circuit, shots=shots, seed=11,
                                  prepare=PreparationSpec("source", 0, "disk"))
        for shot, record, trajectory in traced_shots(config, diagnostics):
            assert record == blocked.record_for_shot(shot)
            assert trajectory[-1].q == blocked.final_q[shot]
        assert diagnostics.degenerate_relocations == \
            blocked.degenerate_relocations


def test_run_never_holds_the_whole_uniform_matrix():
    # a compiled mesh with terminal detectors has one walk, which passes
    # every splitter, so nothing of the stream outlives its block
    mesh = reck_decompose(haar_unitary(6, np.random.default_rng(6)))
    circuit = Circuit(6, list(mesh.layers) + [Layer([Detector(j)
                                                     for j in range(6)])])
    shots = 100_000
    prepared = prepare_ensemble(2, shots, 5, "disk")
    matrix_bytes = shots * rng.padded_width(mesh.count_gates(BeamSplitter)) * 8
    tracemalloc.start()
    try:
        result = run_ensemble(circuit, prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.shots == shots
    assert peak < matrix_bytes / 2


# sha256 of (report.json, summary.csv) of ``compare`` at 20,000 shots (three
# blocks) under seed 7. ``zeno-8`` walks once per detector layer and reads
# the later-column store; ``random8x28`` ends in 599 groups after 17
# detector layers, with per-group chances; ``unit-chances`` has splitters whose chance is exactly
# 0 or 1 in one group and 0.5 in the other.
COMPARE_DIGESTS = {
    "zeno-8": (
        "4d3583553ed6091c7cd74c0ef031887f592c320261c87744197bda2f118dcca6",
        "10dc1369434f8d88e33734c6a6632d148cb055cda8df2a6dd3498de28d35e42c"),
    "random8x28": (
        "67b8aea171469e469d9dac3ee089c2bdf3867e1ee84c934effb39a6e5a7ca1b1",
        "33e13a3745c468859f413b76050b0346765a933f5e8a8f089c9254c9c70d9ee7"),
    "unit-chances": (
        "8f43c63c719c2eba7db8894e35d839869a30480bd7a1efa629a7e6b9081b3587",
        "3cb306f96a5628542d70a5acc90713d020578c5af044f2735beb3f276d5f6072"),
}


def _compare_case(name, tmp_path):
    path = tmp_path / f"{name}.circ"
    if name == "zeno-8":
        export_scenario(name, path)
        return str(path)
    if name == "random8x28":
        circuit = random_circuit(8, 28, np.random.default_rng(28), name=name)
    else:
        circuit = Circuit(3, _layers(
            BeamSplitter(0, 1, 0.5), Detector(1), BeamSplitter(1, 2, 1.0),
            BeamSplitter(2, 0, 1.0), (BeamSplitter(0, 1, 0.0), PhaseShifter(2, 0.3)),
            Detector(2), BeamSplitter(1, 2, 0.7),
            (Detector(0), Detector(1), Detector(2))), name=name)
    path.write_text(serialize_circuit(circuit))
    return str(path)


@pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
def test_multi_walk_compare_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "out"
    assert main(["compare", _compare_case(name, tmp_path), "--shots", "20000",
                 "--seed", "7", "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("report.json", "summary.csv"))
    assert digests == COMPARE_DIGESTS[name]


def test_compare_draws_each_block_once(monkeypatch, tmp_path):
    # one ensemble_uniforms call per block, positional (seed, purpose, shots,
    # draws) as the benchmark's byte counter reads them, and never a
    # shot_generator, which serves the per-shot engines alone
    calls = []
    draw = rng.ensemble_uniforms

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return draw(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("compare positioned a per-shot generator")

    monkeypatch.setattr(rng, "ensemble_uniforms", recording)
    monkeypatch.setattr(rng, "shot_generator", forbidden)
    shots, block = 20000, ensemble._BLOCK
    assert main(["compare", _compare_case("zeno-8", tmp_path), "--shots",
                 str(shots), "--seed", "7", "--out", str(tmp_path / "out")]) == 0
    assert calls == [((7, rng.ONTIC_SHOTS, min(block, shots - lo), 8),
                      {"first": lo}) for lo in range(0, shots, block)]
