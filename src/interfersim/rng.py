"""Deterministic random streams for reproducible parallel shot execution.

Everything random derives from one 64-bit experiment seed. Each consumer
("purpose") owns an independent counter-based Philox stream keyed by
``(seed, purpose)``, and within a purpose each shot owns a fixed slice of
the counter space, padded to the generator's four-word block size. Any
run of consecutive shots, from one shot to the whole ensemble, is then one
vectorised draw that starts by advancing the counter to the first shot's
slice, so :func:`ensemble_uniforms` can draw an ensemble a block of shots
at a time and any shot replays in isolation from the same bits. Read
sequentially, the stream is the concatenation of the padded slices, so
:func:`shot_streams` serves every shot of a per-shot run from one
generator.

A word ``w`` of the stream stands for numpy's Philox double ``(w >> 11) *
2**-53``: the per-shot engines draw the doubles, and the vectorised
ensemble keeps the words and compares them with exact integer thresholds
(:func:`word_thresholds`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Purpose tags; each gets an independent stream for the same seed.
ONTIC_SHOTS = 0x01
QUANTUM_SHOTS = 0x02
PREPARE_FIELDS = 0x03

_BLOCK = 4  # Philox emits four 64-bit words per counter increment
_STREAM_SHOTS = 4096  # shots per read of :func:`shot_streams`


def _bit_generator(seed: int, purpose: int) -> np.random.Philox:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(purpose)],
                   dtype=np.uint64)
    return np.random.Philox(key=key)


def generator(seed: int, purpose: int) -> np.random.Generator:
    """Fresh generator for unstructured draws under one purpose."""
    return np.random.Generator(_bit_generator(seed, purpose))


def padded_width(draws_per_shot: int) -> int:
    """Per-shot slice width: ``draws_per_shot`` rounded up to a whole block."""
    if draws_per_shot <= 0:
        return 0
    return _BLOCK * ((draws_per_shot + _BLOCK - 1) // _BLOCK)


def _positioned(seed: int, purpose: int, shot: int,
                width: int) -> np.random.Philox:
    """Bit generator of the purpose stream at the start of shot ``shot``'s
    slice of ``width`` words."""
    bg = _bit_generator(seed, purpose)
    if shot and width:
        # advance() counts whole counter blocks of four 64-bit draws
        bg = bg.advance(shot * width // _BLOCK)
    return bg


def ensemble_uniforms(seed: int, purpose: int, shots: int,
                      draws_per_shot: int, *, first: int = 0) -> np.ndarray:
    """Raw ``uint64`` words of shots ``first .. first + shots``, shape
    ``(shots, draws_per_shot)``.

    Row ``i``, each word ``w`` read as ``(w >> 11) * 2**-53``, equals the
    stream of :func:`shot_generator` for shot ``first + i`` bit for bit, so
    consecutive blocks of rows concatenate to the rows drawn in one call.
    """
    width = padded_width(draws_per_shot)
    if width == 0:
        return np.zeros((shots, 0), dtype=np.uint64)
    words = _positioned(seed, purpose, first, width).random_raw(shots * width)
    return words.reshape(shots, width)[:, :draws_per_shot]


def word_thresholds(chances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer thresholds ``(below, always)`` of chances in ``[0, 1]``: for
    every word ``w``, ``(w >> 11) * 2**-53 < chance`` exactly when ``w <
    below`` or ``always``.

    Scaling by ``2**53`` is exact, so the test is ``w >> 11 < ceil(chance *
    2**53)``, that is ``w < ceil(chance * 2**53) << 11``. Only a chance of 1
    has the threshold ``2**64``, which wraps to 0; ``always`` marks it.
    """
    below = np.ceil(chances * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    return below, chances == 1.0


def shot_generator(seed: int, purpose: int, shot: int,
                   draws_per_shot: int) -> np.random.Generator:
    """Generator positioned at shot ``shot``'s slice of the purpose stream.

    The first ``draws_per_shot`` doubles drawn from it are the words of row
    ``shot`` of :func:`ensemble_uniforms`, read as uniforms, bit for bit;
    consumers must not draw more.
    """
    return np.random.Generator(
        _positioned(seed, purpose, shot, padded_width(draws_per_shot)))


class ShotStream:
    """One shot's uniforms, handed out in order by :meth:`random` as a
    generator would; reading past them raises :class:`IndexError`."""

    __slots__ = ("_row", "_next")

    def __init__(self, row: list[float]):
        self._row = row
        self._next = 0

    def random(self) -> float:
        try:
            value = self._row[self._next]
        except IndexError:
            raise IndexError(f"shot stream of {len(self._row)} draws "
                             f"exhausted") from None
        self._next += 1
        return value


def shot_streams(seed: int, purpose: int, shots: int,
                 draws_per_shot: int) -> Iterator[ShotStream]:
    """One :class:`ShotStream` per shot, in shot order: stream ``i`` holds
    the words of row ``i`` of :func:`ensemble_uniforms`, read as uniforms,
    bit for bit.

    The rows are one sequential read of the purpose stream, from a single
    :func:`shot_generator`, in blocks of ``_STREAM_SHOTS`` shots so memory
    stays bounded whatever the shot count.
    """
    width = padded_width(draws_per_shot)
    gen = shot_generator(seed, purpose, 0, draws_per_shot)
    for start in range(0, shots, _STREAM_SHOTS):
        n = min(_STREAM_SHOTS, shots - start)
        block = gen.random(n * width).reshape(n, width)[:, :draws_per_shot]
        yield from map(ShotStream, block.tolist())
