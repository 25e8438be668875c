"""Built-in scenario circuits, shipped as ``.circ`` files.

The library covers the standard single-particle set pieces:

- ``mz-0`` .. ``mz-8``: Mach-Zehnder sweep, internal phase ``k*pi/8``;
- ``elitzur-vaidman``: interaction-free bomb test, a mid-circuit detector in
  one arm followed by the recombining splitter (post-select on the bomb
  staying silent);
- ``zeno-8``: repeated weak-coupling splitters each followed by a detector
  on the leak path, freezing the particle in place;
- ``random3-a/b/c``: seeded random 3-path circuits with mixed gates and
  mid-circuit detectors.

Factories build the same circuits programmatically, and a test pins the
shipped files to them. :func:`scenario` loads a shipped file and
:func:`export_scenario` copies one to disk; :func:`random_circuit` also
generates fresh circuits of any width and depth.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import Callable

import numpy as np

from .circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
    parse_circuit,
)
from .harness import overwrite
from .records import event_token


def mach_zehnder(omega: float, reflectivity: float = 0.5,
                 name: str = "") -> Circuit:
    """Splitter, phase ``omega`` on the first path, splitter, detectors on
    both outputs. Click probability at the first detector is
    ``sin(omega/2)**2`` for a particle entering the first path."""
    return Circuit(
        2,
        [
            Layer([BeamSplitter(0, 1, reflectivity)]),
            Layer([PhaseShifter(0, omega)]),
            Layer([BeamSplitter(0, 1, reflectivity)]),
            Layer([Detector(0), Detector(1)]),
        ],
        name=name or f"mach-zehnder omega={omega!r}",
    )


def elitzur_vaidman() -> Circuit:
    """Bomb tester: the detector in the second arm fires half the time; the
    runs where it stays silent still interfere at the output pair."""
    return Circuit(
        2,
        [
            Layer([BeamSplitter(0, 1, 0.5)]),
            Layer([Detector(1)]),
            Layer([BeamSplitter(0, 1, 0.5)]),
            Layer([Detector(0), Detector(1)]),
        ],
        name="elitzur-vaidman",
        description=f"post-select on {event_token(1, None)} for the "
                    "interaction-free branch",
    )


def zeno_chain(stages: int = 8) -> Circuit:
    """Repeatedly leak a little amplitude into the second path and measure it.

    Reflectivity ``cos(pi/(2*stages))**2`` makes the unmeasured chain a full
    swap into the second path, while with the detectors the particle stays
    in the first path with probability ``R**stages``.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    reflectivity = math.cos(math.pi / (2.0 * stages)) ** 2
    layers = []
    for _ in range(stages):
        layers.append(Layer([BeamSplitter(0, 1, reflectivity)]))
        layers.append(Layer([Detector(1)]))
    layers.append(Layer([Detector(0), Detector(1)]))
    return Circuit(2, layers, name=f"zeno-{stages}")


# Chances of a splitter and of a phase shifter on a path of a random circuit.
P_SPLITTER, P_PHASE = 0.45, 0.25


def random_circuit(width: int, depth: int, gen: np.random.Generator,
                   p_detector: float = 0.15, name: str = "") -> Circuit:
    """Seeded random circuit with a terminal all-path detector layer."""
    layers = []
    for _ in range(depth - 1):
        unassigned = list(gen.permutation(width))
        gates = []
        while unassigned:
            path = int(unassigned.pop())
            roll = gen.random()
            if roll < P_SPLITTER and unassigned:
                other = int(unassigned.pop())
                gates.append(BeamSplitter(path, other, float(gen.random())))
            elif roll < P_SPLITTER + p_detector:
                gates.append(Detector(path))
            elif roll < P_SPLITTER + p_detector + P_PHASE:
                omega = float(gen.uniform(-math.pi, math.pi))
                gates.append(PhaseShifter(path, omega))
        layers.append(Layer(gates))
    layers.append(Layer([Detector(j) for j in range(width)]))
    return Circuit(width, layers, name=name)


def _factories() -> dict[str, Callable[[], Circuit]]:
    out: dict[str, Callable[[], Circuit]] = {}
    for k in range(9):
        out[f"mz-{k}"] = (lambda kk=k: mach_zehnder(kk * math.pi / 8.0,
                                                    name=f"mz-{kk}"))
    out["elitzur-vaidman"] = elitzur_vaidman
    out["zeno-8"] = lambda: zeno_chain(8)
    for idx, tag in enumerate("abc"):
        seed = 9000 + idx
        out[f"random3-{tag}"] = (lambda s=seed, t=tag: random_circuit(
            3, 8, np.random.Generator(np.random.Philox(key=np.uint64(s))),
            name=f"random3-{t}"))
    return out


def available_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_factories()))


def build_scenario(name: str) -> Circuit:
    """Construct a library circuit from its factory."""
    try:
        return _factories()[name]()
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {', '.join(available_scenarios())}") from None


def _shipped_text(name: str) -> str:
    """The shipped ``.circ`` source of a library circuit; an unknown name
    raises ``KeyError`` listing the available ones."""
    if name not in _factories():
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {', '.join(available_scenarios())}")
    return resources.files(__package__).joinpath(f"data/{name}.circ").read_text()


def scenario(name: str) -> Circuit:
    """Load a library circuit from its shipped ``.circ`` file."""
    return parse_circuit(_shipped_text(name))


def export_scenario(name: str, path) -> None:
    """Copy a scenario's ``.circ`` source to a file on disk."""
    text = _shipped_text(name)
    with overwrite(path) as fh:
        fh.write(text)
