"""Counter-sliced random streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim import rng


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms that words of the stream stand for: numpy's Philox
    double ``(w >> 11) * 2**-53``, exact in float64."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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
    assert mat.dtype == np.uint64
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
    assert _uniforms(mat[11]).tobytes() == drawn.tobytes()


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
    assert rng.ensemble_uniforms(1, rng.ONTIC_SHOTS, 9, 0).dtype == np.uint64
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
    assert rows.tobytes() == _uniforms(rng.ensemble_uniforms(
        31, rng.ONTIC_SHOTS, shots, draws)).tobytes()
    # ... and against each shot drawn alone, at both ends of every block
    edges = {0, 1, shots - 1} | {b + d for b in range(4096, shots, 4096)
                                 for d in (-1, 0, 1)}
    for shot in sorted(edges & set(range(shots))):
        assert rows[shot].tobytes() == _uniforms(rng.ensemble_uniforms(
            31, rng.ONTIC_SHOTS, 1, draws, first=shot)).tobytes()
    for stream in (streams[0], streams[-1]):
        with pytest.raises(IndexError, match="exhausted"):
            stream.random()


def test_shot_streams_match_per_shot_generators():
    for shot, stream in enumerate(rng.shot_streams(9, rng.QUANTUM_SHOTS, 20, 6)):
        gen = rng.shot_generator(9, rng.QUANTUM_SHOTS, shot, 6)
        assert [stream.random() for _ in range(6)] == \
            [gen.random() for _ in range(6)]


# Chances where the threshold is at an end of its range or of the float
# grid, with their neighbours in [0, 1].
EDGE_CHANCES = sorted({float(x) for c in (0.0, 5e-324, 2.0 ** -53, 0.5,
                                          1 - 2.0 ** -53, 1.0)
                       for x in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))
                       if 0.0 <= x <= 1.0})


def _decide_alike(chance: float, words: list[int]) -> None:
    """``rng.word_thresholds`` moves on exactly the words whose uniform is
    below the chance, as a scalar chance and as one chance per word."""
    w = np.array(words, dtype=np.uint64)
    expected = _uniforms(w) < chance
    below, always = rng.word_thresholds(np.array([chance]))
    assert ((w < below[0]) | always[0]).tolist() == expected.tolist()
    below, always = rng.word_thresholds(np.full(w.shape, chance))
    assert ((w < below) | always).tolist() == expected.tolist()


def _edge_words(chance: float) -> list[int]:
    """The ends of the word range and of the 2**11 words that share the
    threshold's uniform and the one below it."""
    k = math.ceil(chance * 2 ** 53)  # exact: a power-of-two scaling
    words = {0, 2 ** 11 - 1, k * 2 ** 11 - 1, k * 2 ** 11, 2 ** 64 - 1}
    return sorted(w for w in words if 0 <= w < 2 ** 64)


@pytest.mark.parametrize("chance", EDGE_CHANCES)
def test_word_thresholds_exact_at_the_edges(chance):
    _decide_alike(chance, _edge_words(chance))


@settings(max_examples=300, deadline=None)
@given(chance=st.one_of(st.sampled_from(EDGE_CHANCES), st.floats(0.0, 1.0)),
       words=st.lists(st.integers(0, 2 ** 64 - 1), max_size=8))
def test_word_thresholds_decide_as_the_uniforms(chance, words):
    _decide_alike(chance, _edge_words(chance) + words)
