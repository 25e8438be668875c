"""Workload inputs, generated from the workload seed before any timing.

Every workload is a fixed list of commands (one *round*); the timed phase
repeats whole rounds. Circuit structure is fixed per workload, so a round
costs about the same for every seed; the seed draws the numbers inside it
(Haar unitaries, splitter reflectivities, phase angles) and the ``--seed``
passed to the CLI.

Every workload draws from a pool of ``POOL`` entries (``seed % POOL``).
``compare`` ends in a statistical verdict that fails by chance at roughly
the chi-square threshold (1e-3) for each distinct input and seed; the
pool's verdicts are all known to pass, so a new seed adds no chance
failure. The pool also bounds the inputs, so ``expected.json`` can hold
the report digests and exact counts of every input a run can meet.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Layer,
    PhaseShifter,
    serialize_circuit,
)
from interfersim.compiler import haar_unitary
from interfersim.scenarios import available_scenarios, export_scenario, random_circuit

from commands import Command

POOL = 16
COMPARE_SHOTS = 100_000

MESH_SIZES = (2, 3, 4, 5, 6)
# (depth, structure key) of the random_circuit(8, depth) set
BRANCHING = ((28, 3), (28, 5), (32, 4), (36, 1))
REPLAY_WIDTHS = (4, 5, 6)
REPLAY_DEPTH = 12
TRACE_SHOTS = 32
SAMPLE_SHOTS = 64

_MESH, _BRANCH, _REPLAY = 0x6D657368, 0x6272616E, 0x7265706C


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(key)


def reparametrise(circuit: Circuit, gen: np.random.Generator) -> Circuit:
    """Same gates on the same paths, with fresh reflectivities and phases."""
    layers = []
    for layer in circuit.layers:
        gates = []
        for gate in layer.gates:
            if isinstance(gate, BeamSplitter):
                gate = BeamSplitter(gate.s, gate.t, float(gen.random()))
            elif isinstance(gate, PhaseShifter):
                gate = PhaseShifter(gate.path, float(gen.uniform(-math.pi, math.pi)))
            gates.append(gate)
        layers.append(Layer(gates))
    return Circuit(circuit.width, layers, name=circuit.name)


def _write_circuit(circuit: Circuit, path: Path) -> str:
    path.write_text(serialize_circuit(circuit), encoding="utf-8")
    return str(path)


def _mesh(seed: int, inputs: Path, outputs: Path) -> list[Command]:
    entry = seed % POOL
    commands = []
    for n in MESH_SIZES:
        matrix = haar_unitary(n, _rng(_MESH, n, entry))
        unitary = inputs / f"haar{n}.json"
        unitary.write_text(json.dumps(
            [[[z.real, z.imag] for z in row] for row in matrix.tolist()]),
            encoding="utf-8")
        compiled = inputs / f"haar{n}.circ"
        measured = inputs / f"haar{n}-detected.circ"
        commands.append(Command(
            label=f"haar{n}",
            compile_argv=("compile", str(unitary), "-o", str(compiled), "--verify"),
            width=n,
            argv=("compare", str(measured), "--shots", str(COMPARE_SHOTS),
                  "--seed", str(entry), "--prepare", f"path={1 + entry % n},junk=disk",
                  "--out", str(outputs / f"haar{n}")),
            shots=COMPARE_SHOTS,
        ))
    return commands


def _branching(seed: int, inputs: Path, outputs: Path) -> list[Command]:
    entry = seed % POOL
    commands = []
    for depth, key in BRANCHING:
        name = f"random8x{depth}-{key}"
        shape = random_circuit(8, depth, _rng(_BRANCH, depth, key), name=name)
        path = _write_circuit(reparametrise(shape, _rng(_BRANCH, depth, key, entry)),
                              inputs / f"{name}.circ")
        commands.append(Command(
            label=name,
            argv=("compare", path, "--shots", str(COMPARE_SHOTS), "--seed", str(entry),
                  "--prepare", "path=1,junk=disk", "--out", str(outputs / name)),
            shots=COMPARE_SHOTS,
        ))
    return commands


def _replay(seed: int, inputs: Path, outputs: Path) -> list[Command]:
    entry = seed % POOL
    circuits = []
    for name in available_scenarios():
        export_scenario(name, inputs / f"{name}.circ")
        circuits.append((name, str(inputs / f"{name}.circ")))
    for width in REPLAY_WIDTHS:
        name = f"random{width}x{REPLAY_DEPTH}"
        shape = random_circuit(width, REPLAY_DEPTH, _rng(_REPLAY, width), name=name)
        circuits.append((name, _write_circuit(
            reparametrise(shape, _rng(_REPLAY, width, entry)), inputs / f"{name}.circ")))
    commands = []
    for name, path in circuits:
        commands.append(Command(
            label=f"trace:{name}",
            argv=("trace", path, "--shots", str(TRACE_SHOTS), "--seed", str(entry),
                  "--prepare", "path=1,junk=disk"),
            shots=TRACE_SHOTS,
        ))
        commands.append(Command(
            label=f"sample:{name}",
            argv=("run", path, "--engine", "quantum", "--shots", str(SAMPLE_SHOTS),
                  "--seed", str(entry), "--out", str(outputs / name)),
            shots=SAMPLE_SHOTS,
        ))
    return commands


def generate(workload: str, seed: int, work) -> list[Command]:
    """Write the workload's input files under ``work`` and return one round
    of commands."""
    inputs, outputs = Path(work) / "in", Path(work) / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    build = {"mesh-compare": _mesh, "branching-compare": _branching,
             "per-shot-replay": _replay}[workload]
    return build(seed, inputs, outputs)
