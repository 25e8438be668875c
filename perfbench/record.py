"""Record the report digests and exact counts that benchmark runs must repeat.

    python3 perfbench/record.py                      # every workload
    python3 perfbench/record.py --workload per-shot-replay

For every pool entry of a workload, runs one round of its commands with
spans recorded and stores in ``expected.json`` (next to this file) the
sha256 of each ``report.json`` / ``summary.csv`` under its command key
(subcommand, input sha256, options) and the round's per-layer counts under
its round key. Any failed command stops the recording. Re-record a
workload only in a change that means to alter its reports or counts for
identical inputs, and say so there.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # caps BLAS threads before numpy loads
import commands
import spans


def record(workload: str) -> dict:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from interfersim import cli

    reports: dict[str, list[str]] = {}
    counts: dict[str, dict[str, int]] = {}
    for entry in range(workloads.POOL):
        round_ = workloads.generate(workload, entry,
                                    run.WORK / "record" / f"{workload}-{entry}")
        book = commands.DigestBook()
        recorder = spans.SpanRecorder()
        traced_main = recorder.wrap("cli.main", cli.main)
        with spans.instrument(recorder):
            for cmd in round_:
                calls, _ = commands.execute(cmd, traced_main)
                reason = commands.judge(cmd, calls, book)
                if reason is not None:
                    raise SystemExit(f"{workload} entry {entry} {cmd.label}: {reason}")
        reports.update({key: list(d) for key, d in book.seen.items()})
        counts[commands.round_key(round_)] = spans.layer_counts(recorder.spans)
        print(f"{workload} entry {entry}: {len(round_)} commands recorded", flush=True)
    return {"reports": reports, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    path = commands.EXPECTED
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for workload in args.workload or run.WORKLOADS:
        table[workload] = record(workload)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
