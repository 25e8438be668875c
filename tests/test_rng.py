"""Counter-sliced random streams."""

import numpy as np
import pytest

from interfersim import rng


def test_padded_width_block_multiple():
    assert rng.padded_width(0) == 0
    assert rng.padded_width(1) == 4
    assert rng.padded_width(4) == 4
    assert rng.padded_width(5) == 8
    assert rng.padded_width(13) == 16


@pytest.mark.parametrize("draws", [1, 3, 4, 7, 13])
def test_shot_slices_match_ensemble_rows(draws):
    mat = rng.ensemble_uniforms(123, rng.ONTIC_SHOTS, 50, draws)
    assert mat.shape == (50, draws)
    for shot in (0, 1, 7, 49):
        row = rng.ensemble_uniforms(123, rng.ONTIC_SHOTS, 1, draws,
                                    first=shot)[0]
        assert np.array_equal(mat[shot], row)


@pytest.mark.parametrize("draws", [0, 1, 4, 5, 15])
def test_offset_rows_match_whole_draw(draws):
    whole = rng.ensemble_uniforms(41, rng.ONTIC_SHOTS, 30, draws)
    for first, shots in ((0, 30), (1, 29), (7, 5), (29, 1), (30, 0)):
        rows = rng.ensemble_uniforms(41, rng.ONTIC_SHOTS, shots, draws,
                                     first=first)
        assert rows.shape == (shots, draws)
        assert rows.tobytes() == whole[first:first + shots].tobytes()


def test_shot_generator_stream_matches():
    mat = rng.ensemble_uniforms(9, rng.QUANTUM_SHOTS, 20, 6)
    gen = rng.shot_generator(9, rng.QUANTUM_SHOTS, 11, 6)
    drawn = np.array([gen.random() for _ in range(6)])
    assert np.array_equal(mat[11], drawn)


def test_purposes_are_independent():
    a = rng.ensemble_uniforms(5, rng.ONTIC_SHOTS, 4, 8)
    b = rng.ensemble_uniforms(5, rng.QUANTUM_SHOTS, 4, 8)
    assert not np.array_equal(a, b)


def test_seeds_are_independent():
    a = rng.ensemble_uniforms(5, rng.ONTIC_SHOTS, 4, 8)
    b = rng.ensemble_uniforms(6, rng.ONTIC_SHOTS, 4, 8)
    assert not np.array_equal(a, b)


def test_deterministic_under_fixed_seed():
    a = rng.ensemble_uniforms(77, rng.PREPARE_FIELDS, 10, 5)
    b = rng.ensemble_uniforms(77, rng.PREPARE_FIELDS, 10, 5)
    assert np.array_equal(a, b)


def test_zero_draws():
    assert rng.ensemble_uniforms(1, rng.ONTIC_SHOTS, 9, 0).shape == (9, 0)
    assert rng.ensemble_uniforms(1, rng.ONTIC_SHOTS, 1, 0, first=3).size == 0


def _read(stream, draws):
    return np.array([stream.random() for _ in range(draws)])


@pytest.mark.parametrize("draws", [0, 1, 3, 4, 5, 15])
@pytest.mark.parametrize("shots", [1, 7, 4095, 4096, 4097, 3 * 4096 + 5])
def test_shot_streams_rows_are_shot_uniforms(draws, shots):
    assert rng._STREAM_SHOTS == 4096  # the shot counts straddle its blocks
    streams = list(rng.shot_streams(31, rng.ONTIC_SHOTS, shots, draws))
    assert len(streams) == shots
    rows = np.array([_read(s, draws) for s in streams]).reshape(shots, draws)
    # every row, bit for bit, against the whole-ensemble draw ...
    assert rows.tobytes() == rng.ensemble_uniforms(
        31, rng.ONTIC_SHOTS, shots, draws).tobytes()
    # ... and against each shot drawn alone, at both ends of every block
    edges = {0, 1, shots - 1} | {b + d for b in range(4096, shots, 4096)
                                 for d in (-1, 0, 1)}
    for shot in sorted(edges & set(range(shots))):
        assert rows[shot].tobytes() == rng.ensemble_uniforms(
            31, rng.ONTIC_SHOTS, 1, draws, first=shot).tobytes()
    for stream in (streams[0], streams[-1]):
        with pytest.raises(IndexError, match="exhausted"):
            stream.random()


def test_shot_streams_match_per_shot_generators():
    for shot, stream in enumerate(rng.shot_streams(9, rng.QUANTUM_SHOTS, 20, 6)):
        gen = rng.shot_generator(9, rng.QUANTUM_SHOTS, shot, 6)
        assert [stream.random() for _ in range(6)] == \
            [gen.random() for _ in range(6)]
