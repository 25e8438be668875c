"""The particle walk of :func:`interfersim.ensemble.run_ensemble` splits the
shots into up to ``ensemble._CORES`` stripes walked at the same time, and
each stripe moves its shots in blocks of ``ensemble._BLOCK`` and draws their
uniforms a block at a time; nothing a run reports may depend on the block
size or the stripe count. Each block size and stripe count runs at one and
two shots, one shot under, one over and just past two whole blocks, against
the same run walked and drawn as one block. Pinned ``compare`` bytes and the
draw calls of one ``compare`` hold the walk's words to those of the
stream."""

import hashlib
import sys
import threading
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
CORES = (1, 2, 3)


def _layers(*gates):
    return [Layer(g if isinstance(g, tuple) else (g,)) for g in gates]


def _shot_counts(block):
    return sorted({1, 2, block + 1, 2 * block + 3} | ({block - 1} - {0}))


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


def _run(monkeypatch, circuit, path, shots, block, cores=1):
    monkeypatch.setattr(ensemble, "_BLOCK", block)
    monkeypatch.setattr(ensemble, "_CORES", cores)
    prepared = prepare_ensemble(path, shots, 11, "disk")
    return run_ensemble(circuit, prepared)


def _observed(result, post=None):
    live = result.final_levels != ZERO_LEVEL
    table = postselect(result.counts(), post) if post else result.counts()
    keys = [result._fields.keys[g] for g in result._fields.group]  # per shot
    return (result.final_q.tobytes(), keys,
            result.final_levels.tobytes(), result.final_u[live].tobytes(),
            list(table.items()), result.groups, result.degenerate_relocations)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("circuit, path, post", _cases())
def test_walk_is_independent_of_block_size(monkeypatch, circuit, path, post,
                                           block):
    for shots in _shot_counts(block):
        whole = _observed(_run(monkeypatch, circuit, path, shots, shots), post)
        for cores in CORES:
            blocked = _run(monkeypatch, circuit, path, shots, block, cores)
            if post and shots > 100:
                assert 0 < sum(postselect(blocked.counts(),
                                          post).values()) < shots
            assert _observed(blocked, post) == whole, cores


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
        whole = _run(monkeypatch, circuit, 0, shots, shots)
        assert whole.degenerate_relocations > 0
        diagnostics = ShotDiagnostics()
        config = ExperimentConfig(circuit=circuit, shots=shots, seed=11,
                                  prepare=PreparationSpec("source", 0, "disk"))
        for shot, key, trajectory in traced_shots(config, diagnostics):
            assert key == whole.record_for_shot(shot)
            assert trajectory[-1].q == whole.final_q[shot]
        assert diagnostics.degenerate_relocations == \
            whole.degenerate_relocations
        for cores in CORES:
            blocked = _run(monkeypatch, circuit, 0, shots, block, cores)
            assert _observed(blocked) == _observed(whole), cores


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
    # ensemble_uniforms calls positional (seed, purpose, shots, draws) as the
    # benchmark's byte counter reads them, none longer than a block, whose
    # row ranges tile the shots once; the stripes' calls arrive interleaved.
    # Never a shot_generator, which serves the per-shot engines alone.
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
    circ = _compare_case("zeno-8", tmp_path)
    for cores in CORES:
        monkeypatch.setattr(ensemble, "_CORES", cores)
        calls.clear()
        assert main(["compare", circ, "--shots", str(shots), "--seed", "7",
                     "--out", str(tmp_path / f"out{cores}")]) == 0
        rows = []
        for args, kwargs in calls:
            assert args[:2] + args[3:] == (7, rng.ONTIC_SHOTS, 8)
            assert list(kwargs) == ["first"] and 0 < args[2] <= block
            rows.append((kwargs["first"], kwargs["first"] + args[2]))
        rows.sort()
        assert [lo for lo, _ in rows] == [0] + [hi for _, hi in rows[:-1]]
        assert rows[-1][1] == shots


@pytest.mark.parametrize("failing", range(3))
def test_a_failing_stripe_raises_once_every_thread_is_joined(monkeypatch,
                                                             failing):
    draw = rng.ensemble_uniforms

    def failing_draw(*args, first):
        if first == 100 * failing:
            raise ValueError(f"no words at shot {first}")
        return draw(*args, first=first)

    monkeypatch.setattr(ensemble, "_BLOCK", 50)
    monkeypatch.setattr(ensemble, "_CORES", 3)
    monkeypatch.setattr(rng, "ensemble_uniforms", failing_draw)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"no words at shot {100 * failing}$"):
        run_ensemble(scenario("zeno-8"), prepare_ensemble(0, 300, 11, "disk"))
    assert threading.active_count() == threads


def test_move_tables_do_not_grow_with_the_splitters(monkeypatch):
    # a splitter queues its pair, not a 16 B x width move table; each
    # stripe keeps one table for the walk. The counts are those of the
    # walk that queued a table per splitter.
    width, splitters, shots = 4096, 300, 200
    circuit = Circuit(width, _layers(
        *[BeamSplitter(1, 2, 0.3)] * splitters, (Detector(1), Detector(2))))
    table_bytes = 16 * width
    monkeypatch.setattr(ensemble, "_BLOCK", 50)
    monkeypatch.setattr(ensemble, "_CORES", 2)
    prepared = prepare_ensemble(1, shots, 5, "disk")
    tracemalloc.start()
    try:
        result = run_ensemble(circuit, prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.counts() == {"L301:C2": 42, "L301:C3": 158}
    assert peak < 20 * table_bytes, peak


def test_many_stripes_under_fast_thread_switching_match_one_stripe(
        monkeypatch):
    # more stripes than cores, switching threads every few microseconds: a
    # lost write to the positions or the store, or a lost degenerate count,
    # would show as a difference from the one-stripe run
    monkeypatch.setattr(ensemble, "mix_amplitudes", _vanishing)
    circuit = scenario("zeno-8")
    whole = _observed(_run(monkeypatch, circuit, 0, 997, 997))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        striped = _run(monkeypatch, circuit, 0, 997, 13, 8)
    finally:
        sys.setswitchinterval(interval)
    assert _observed(striped) == whole
