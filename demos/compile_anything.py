"""Compile an arbitrary unitary into hardware-style layers and run it.

Draws a Haar-random 4x4 unitary, factors it into phase shifters and beam
splitters, verifies the factorisation by multiplying the circuit back
together, then appends detectors and checks that the stochastic engine's
click distribution matches the unitary's column intensities.

Run:  python demos/compile_anything.py  [--paths 4] [--shots 50000]
"""

import argparse

import numpy as np

from interfersim.circuits import Circuit, Detector, Layer, serialize_circuit
from interfersim.compiler import (
    haar_unitary,
    ray_deviation,
    reck_decompose,
    reconstruct_unitary,
)
from interfersim.harness import ExperimentConfig, PreparationSpec, run_experiment
from interfersim.records import event_token


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=4)
    parser.add_argument("--shots", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()

    n = args.paths
    gen = np.random.default_rng(args.seed)
    unitary = haar_unitary(n, gen)
    circuit = reck_decompose(unitary, name=f"haar-{n}")

    splitters = sum(1 for layer in circuit.layers for g in layer.gates
                    if type(g).__name__ == "BeamSplitter")
    print(f"compiled a random {n}x{n} unitary into {circuit.depth} layers "
          f"({splitters} beam splitters; bound {n * (n - 1) // 2})")
    deviation = ray_deviation(reconstruct_unitary(circuit), unitary)
    print(f"reconstruction deviation (global phase aligned): {deviation:.2e}\n")
    print(serialize_circuit(circuit))

    source = 0
    measured = Circuit(n, circuit.layers + (Layer([Detector(j) for j in range(n)]),))
    config = ExperimentConfig(circuit=measured,
                              prepare=PreparationSpec(path=source, junk="disk"),
                              shots=args.shots, seed=args.seed)
    report = run_experiment(config)
    print(f"feeding path {source + 1}: verdict {report.verdict}, "
          f"total variation {report.total_variation:.4f}")
    print(f"{'output':>7} {'clicks':>9} {'|U_jk|^2':>9}")
    column = np.abs(unitary[:, source]) ** 2
    freqs = {o.key: o.frequency for o in report.outcomes}
    for j in range(n):
        key = event_token(measured.depth - 1, j)  # a one-event record
        print(f"{j + 1:>7} {freqs.get(key, 0.0):>9.4f} {column[j]:>9.4f}")


if __name__ == "__main__":
    main()
