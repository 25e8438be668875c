"""The benchmark's exact per-layer counts, checked in tier 1.

``perfbench/run.py --trace 1`` fails when a traced round's counts drift from
those stored in ``perfbench/expected.json``. A change that moves work to
another function can shift a count without touching any output; this runs
one traced round of each gated workload through the benchmark's own span
instrumentation and fails on the same drift.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import commands  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from interfersim import cli  # noqa: E402


@pytest.mark.parametrize("workload", ["per-shot-replay", "mesh-compare"])
def test_traced_round_counts_match_stored(workload, tmp_path):
    round_ = workloads.generate(workload, 3, tmp_path)
    expected = commands.load_expected(workload)
    digests = commands.DigestBook(expected["reports"])
    recorder = spans.SpanRecorder()
    traced_main = recorder.wrap("cli.main", cli.main)
    with spans.instrument(recorder):
        for command_id, cmd in enumerate(round_):
            recorder.command = command_id
            calls, _ = commands.execute(cmd, traced_main)
            assert commands.judge(cmd, calls, digests) is None, cmd.label
    stored = expected["counts"].get(commands.round_key(round_))
    assert stored is not None
    assert spans.count_drift([spans.layer_counts(recorder.spans)], stored) == []
