"""Interaction-free measurement: detect a blocking detector without a click.

A detector sits in one arm between the two splitters. Half the runs trigger
it. Among the silent runs, the interference is broken: a quarter of all runs
end at the detector that never fires in the empty interferometer, announcing
the obstruction without touching it. The stochastic engine reproduces both
the unconditional and the post-selected statistics, because its no-click
zeroes the field strength in the watched arm - the local mark that stands in
for wave-function collapse.

Run:  python demos/bomb_tester.py  [--shots 50000]
"""

import argparse

from interfersim.harness import (
    ExperimentConfig,
    PreparationSpec,
    run_experiment,
)
from interfersim.records import parse_event_token
from interfersim.scenarios import elitzur_vaidman


def show(title, report):
    print(f"\n{title}")
    print(f"  verdict: {report.verdict}   total variation: "
          f"{report.total_variation:.4f}")
    for o in report.outcomes:
        bar = "#" * int(50 * (o.frequency or 0.0))
        print(f"  {o.key:<16} freq {o.frequency:7.4f}  exact {o.probability:7.4f}  {bar}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=50000)
    args = parser.parse_args()

    base = dict(circuit=elitzur_vaidman(),
                prepare=PreparationSpec(path=0, junk="disk"),
                shots=args.shots, seed=12)

    unconditional = run_experiment(ExperimentConfig(**base))
    show("all runs (bomb present)", unconditional)

    conditional = run_experiment(ExperimentConfig(
        postselect=(parse_event_token("L2:N"),), **base))
    show("post-selected on the bomb staying silent (L2:N)", conditional)
    kept = conditional.kept_shots / conditional.preselection_shots
    print(f"\n  kept {conditional.kept_shots} of {conditional.preselection_shots} "
          f"runs ({kept:.1%}); among them the once-dark port now fires half "
          f"the time")


if __name__ == "__main__":
    main()
