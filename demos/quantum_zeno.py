"""Measurement-induced freezing.

A chain of weak couplers would swap the particle into the second path with
certainty if nothing watched it. Put a detector after every coupler and the
particle mostly stays put: the survival probability is R^M and approaches 1
as the chain is subdivided further. Both engines agree stage for stage.

Run:  python demos/quantum_zeno.py  [--shots 30000]
"""

import argparse

from interfersim.circuits import Circuit
from interfersim.harness import ExperimentConfig, PreparationSpec, run_experiment
from interfersim.prepare import quantum_init
from interfersim.quantum import exact_outcome_distribution
from interfersim.records import event_suffix, event_token, record_key
from interfersim.scenarios import zeno_chain


def survival_key(circuit: Circuit) -> str:
    # every watch stays silent, then the terminal detector finds path 1
    *watches, last = circuit.detector_layers()
    return record_key("".join(event_suffix(layer, None) for layer in watches)
                      + event_suffix(last, 0))


def unwatched_transfer(stages: int) -> float:
    circuit = zeno_chain(stages)
    bare = Circuit(2, [layer for layer in circuit.layers
                       if not layer.has_detectors])
    dist = exact_outcome_distribution(
        Circuit(2, bare.layers + (circuit.layers[-1],)), quantum_init(0, 2))
    return dist.probabilities.get(event_token(bare.depth, 1), 0.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=30000)
    args = parser.parse_args()

    print(f"{'stages':>6} {'R':>8} {'stay (stochastic)':>18} "
          f"{'stay (exact)':>13} {'R^M':>8} {'no-watch transfer':>18}")
    for stages in (2, 4, 8, 16):
        circuit = zeno_chain(stages)
        config = ExperimentConfig(circuit=circuit,
                                  prepare=PreparationSpec(path=0, junk="disk"),
                                  shots=args.shots, seed=40 + stages)
        report = run_experiment(config)
        key = survival_key(circuit)
        freq = {o.key: o.frequency for o in report.outcomes}.get(key, 0.0)
        exact = {o.key: o.probability for o in report.outcomes}.get(key, 0.0)
        refl = circuit.layers[0].gates[0].reflectivity
        print(f"{stages:6d} {refl:8.4f} {freq:18.4f} {exact:13.4f} "
              f"{refl ** stages:8.4f} {unwatched_transfer(stages):18.4f}")

    print("\nwatched: the particle stays in its path with probability -> 1")
    print("unwatched: the same couplers move it across with certainty")


if __name__ == "__main__":
    main()
