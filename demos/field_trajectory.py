"""Watch the hidden state of a single run, layer by layer.

Traces one stochastic shot through an interferometer and prints, after every
layer, the particle position, the per-path field amplitudes and strengths,
and the unit ray extracted from the strongest fields. That extracted ray is
compared against the quantum engine's state conditioned on the same
detector outcomes: the deviation stays at machine precision. This
per-run agreement is the mechanism behind the two engines' statistical
indistinguishability.

Run:  python demos/field_trajectory.py  [--omega 1.0471975511965976] [--seed 5]
"""

import argparse
import math

import numpy as np

from interfersim.labels import (
    extract_label,
    predicted_label_update,
    verify_congruence,
)
from interfersim.ontic import ZERO_LEVEL, run_ontic_shot
from interfersim.prepare import source_prepare
from interfersim.quantum import QuantumState, RecordTree, ray_overlap
from interfersim.scenarios import mach_zehnder


def fmt_amp(z):
    return f"{z.real:+.3f}{z.imag:+.3f}i"


def fmt_tau(level):
    return "0" if level == ZERO_LEVEL else f"2^-{level}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--omega", type=float, default=math.pi / 3.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    circuit = mach_zehnder(args.omega)
    gen = np.random.default_rng(args.seed)
    init = source_prepare(0, 2, gen, junk="disk")
    key, trajectory = run_ontic_shot(circuit, init, gen)
    tree = RecordTree(circuit, QuantumState.basis(0, 2))

    print(f"interferometer with internal phase {args.omega:.4f}; "
          f"outcome record {key}\n")
    label = QuantumState.basis(0, 2)
    print(f"{'layer':<6} {'q':>2}  {'u (per path)':<24} {'tau':<12} "
          f"{'label deviation':>16}")
    state = trajectory[0]
    print(f"{'start':<6} {state.q:>2}  "
          f"{' '.join(fmt_amp(z) for z in state.u):<24} "
          f"{' '.join(fmt_tau(t) for t in state.tau):<12} {'-':>16}")
    for idx, layer in enumerate(circuit.layers):
        state = trajectory[idx + 1]
        # a detector clicks exactly when the particle is on its path
        click = state.q if state.q in layer.detector_paths() else None
        label = predicted_label_update(label, layer, click)
        extracted = extract_label(state)
        deviation = 1.0 - ray_overlap(extracted.amplitudes, label.amplitudes)
        print(f"{idx:<6} {state.q:>2}  "
              f"{' '.join(fmt_amp(z) for z in state.u):<24} "
              f"{' '.join(fmt_tau(t) for t in state.tau):<12} "
              f"{deviation:>16.2e}")

    report = verify_congruence(trajectory, tree)
    print(f"\ncongruence over the whole run: max deviation "
          f"{report.max_deviation:.2e}, pass={report.passed}")


if __name__ == "__main__":
    main()
