"""Benchmark of the interfersim command line, run from a source checkout.

    python3 perfbench/run.py --workload mesh-compare --seed 3 --seconds 20 --trace 0

Drives ``interfersim.cli.main`` in-process on inputs generated from
``--seed`` (see ``workloads.py``), checks every command's output (see
``commands.py``) and prints each metric by name with its unit; the last
line of stdout is one JSON object ``{correct, attempted, failed, metrics}``.

``--trace 0`` times whole rounds of the workload until ``--seconds`` have
passed and reports the end-to-end metrics from each command's fastest
repeat. ``--trace 1`` runs one round untraced, then the same round twice
with spans recorded (``spans.py``), and reports per-layer self times and
exact counts; the counts of both traced rounds must equal those stored in
``expected.json`` for the same inputs. Exit status is 0 only when every
check held.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import commands
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
WORKLOADS = ("mesh-compare", "branching-compare", "per-shot-replay")

# Layers whose self time should dominate each workload's traced round.
PREDICTED_LARGEST = {
    "mesh-compare": ("ensemble.run_s",),
    "branching-compare": ("quantum.enumerate_s", "harness.stats_s", "harness.save_s"),
    "per-shot-replay": ("ontic.replay_s", "labels.verify_s"),
}

_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5])")


def probe_setup(workload: str, seed: int, dest: Path) -> float:
    """Wall time of a fresh interpreter that imports interfersim and writes
    the workload's inputs."""
    # No timeout: with one, subprocess polls the child in 50 ms steps.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE, str(BENCH), str(SRC),
                    workload, str(seed), str(dest)], check=True)
    return time.perf_counter() - start


def environment(load: float) -> dict:
    import numpy
    import scipy
    tasks = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": load,
        "threads": len(os.listdir(tasks)) if tasks.is_dir() else None,
    }


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, cmd, main, digests) -> float:
        calls, seconds = commands.execute(cmd, main)
        self.attempted += 1
        reason = commands.judge(cmd, calls, digests)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{cmd.label}: {reason}")
        return seconds


def timed_phase(args, round_, main, tally, digests) -> tuple[dict, dict]:
    """Whole rounds until ``args.seconds`` have passed."""
    by_label: dict[str, list[float]] = {cmd.label: [] for cmd in round_}
    round_s: list[float] = []
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        seconds = 0.0
        for cmd in round_:
            by_label[cmd.label].append(tally.run(cmd, main, digests))
            seconds += by_label[cmd.label][-1]
        round_s.append(seconds)
    times = [t for ts in by_label.values() for t in ts]
    round_shots = sum(cmd.shots for cmd in round_)
    # Each command's fastest repeat. On a shared host the speed of the
    # whole machine swings by up to 2x for tens of seconds at a time, which
    # moves medians over the timed phase by 20-30% from run to run; the
    # fastest repeat moves by under 10%. A slower program is slower in every
    # repeat, so it still shows.
    best = [min(ts) for ts in by_label.values()]
    metrics = {
        "experiment_s.p50": (statistics.median(best), "s"),
        "shots_per_s": (round_shots / sum(best), "1/s"),
    }
    detail = {"commands": len(times), "rounds": len(round_s),
              "median_command_s": statistics.median(times),
              "median_round_s": statistics.median(round_s),
              "shots_per_round": round_shots, "round_s": round_s,
              "phase_wall_s": time.perf_counter() - start,
              "command_s": by_label}
    tail = commands.tail(times)
    if tail is not None:
        detail["experiment_s.tail"] = {"value": tail[1], "unit": "s",
                                       "percentile": tail[0], "samples": len(times)}
    return metrics, detail


def traced_phase(args, round_, main, tally, digests) -> tuple[dict, dict]:
    start = time.perf_counter()
    for cmd in round_:
        tally.run(cmd, main, digests)
    untraced = time.perf_counter() - start
    passes = []
    for index in range(2):
        recorder = spans.SpanRecorder()
        traced_main = recorder.wrap("cli.main", main)
        start = time.perf_counter()
        with spans.instrument(recorder):
            for command_id, cmd in enumerate(round_):
                recorder.command = command_id
                tally.run(cmd, traced_main, digests)
        passes.append((recorder, time.perf_counter() - start))
        recorder.dump(args.work / f"spans-{index}.jsonl")
    counts = [spans.layer_counts(rec.spans) for rec, _ in passes]
    seconds = [spans.layer_seconds(rec.spans) for rec, _ in passes]
    stored = args.expected["counts"].get(commands.round_key(round_))
    drift = spans.count_drift(counts, stored)
    metrics = {name: ((seconds[0][name] + seconds[1][name]) / 2, "s")
               for name in spans.SELF_SECONDS}
    metrics.update({name: (value, "bytes" if name.endswith("bytes") else "count")
                    for name, value in counts[0].items()})
    run_s = metrics["ensemble.run_s"][0]
    metrics["ensemble.shot_layers_per_s"] = (
        counts[0]["ensemble.shot_layers"] / run_s if run_s else 0.0, "1/s")
    overhead = (passes[0][1] + passes[1][1]) / 2 / untraced
    metrics["trace.overhead"] = (overhead, "ratio")

    layer_s = {name: metrics[name][0] for name in spans.SELF_SECONDS}
    predicted = PREDICTED_LARGEST[args.workload]
    others = {k: v for k, v in layer_s.items() if k not in predicted}
    top_other = max(others, key=others.get)
    detail = {
        "count_drift": drift,
        "counts_reference": "stored" if stored is not None else
                            "first traced round (no stored counts for these inputs)",
        "untraced_round_s": untraced,
        "traced_round_s": [wall for _, wall in passes],
        "attribution": {
            "predicted": "+".join(predicted),
            "predicted_s": sum(layer_s[k] for k in predicted),
            "largest_other": top_other,
            "largest_other_s": others[top_other],
            "as_predicted": sum(layer_s[k] for k in predicted) > others[top_other],
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "interfersim" / "__init__.py").is_file():
        print(f"error: no interfersim sources at {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    load = os.getloadavg()[0]
    args.work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)

    setup = [] if args.trace else [
        probe_setup(args.workload, args.seed, args.work / f"setup{i}")
        for i in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("interfersim.cli")
    import_s = time.perf_counter() - start
    import workloads
    start = time.perf_counter()
    round_ = workloads.generate(args.workload, args.seed, args.work / "main")
    generate_s = time.perf_counter() - start

    args.expected = commands.load_expected(args.workload)
    tally = Tally()
    digests = commands.DigestBook(args.expected["reports"])
    tally.run(round_[0], cli.main, digests)  # untimed warm-up
    phase = traced_phase if args.trace else timed_phase
    metrics, detail = phase(args, round_, cli.main, tally, digests)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    correct = tally.failed == 0 and not detail.get("count_drift")
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_frac": {"value": tally.failed / tally.attempted,
                      "failed": tally.failed, "attempted": tally.attempted},
        "failures": tally.reasons,
        "reports_without_stored_digest": digests.new_keys(),
        "setup_samples_s": setup, "import_s": import_s, "generate_s": generate_s,
        "environment": environment(load),
    })
    (args.work / "result.json").write_text(
        json.dumps({"metrics": metrics, "detail": detail}, indent=2) + "\n",
        encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} commands, {tally.failed} failed")
    notes = {} if args.trace else {
        "experiment_s.p50": f"median over {len(round_)} commands of the fastest "
                            f"of {detail['rounds']} repeats",
        "shots_per_s": f"fastest of {detail['rounds']} repeats, {detail['shots_per_round']} "
                       f"shots in {len(round_)} commands",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
    }
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    if "experiment_s.tail" in detail:
        t = detail["experiment_s.tail"]
        print(f"  {'experiment_s.tail':32s} {t['value']:14.6g} s "
              f"(p{t['percentile']:.1f} of {t['samples']})")
    print(f"  {'fail_frac':32s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    if detail.get("count_drift"):
        print(f"  COUNT DRIFT from the {detail['counts_reference']}: "
              f"{detail['count_drift']}")
    if "attribution" in detail:
        a = detail["attribution"]
        verdict = "as predicted" if a["as_predicted"] else "MISMATCH"
        print(f"  attribution {verdict}: {a['predicted']} = {a['predicted_s']:.4g} s, "
              f"largest other {a['largest_other']} = {a['largest_other_s']:.4g} s")
    print("  detail " + json.dumps({k: v for k, v in detail.items() if k != "command_s"},
                                   sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
