"""Self-tests for the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import commands  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_children_and_clips_them():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("ensemble.run", 1.0, 4.0, 0, 0),
        Span("rng.uniforms", 2.0, 3.0, 1, 0),
        Span("harness.save", 5.0, 9.0, 0, 0),
        Span("harness.save", 9.5, 11.0, 0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 4.0, 1.5]
    seconds = spans.layer_seconds(tree)
    assert seconds["cli.self_s"] == 2.5
    assert seconds["ensemble.run_s"] == 2.0  # excludes the rng child
    assert seconds["rng.uniforms_s"] == 1.0
    assert seconds["harness.save_s"] == 5.5


def test_counts_sum_over_spans():
    tree = [Span("quantum.sample", 0, 1, None, 0, {"quantum.sampled_shots": 1}),
            Span("quantum.sample", 1, 2, None, 1, {"quantum.sampled_shots": 1})]
    counts = spans.layer_counts(tree)
    assert counts["quantum.sampled_shots"] == 2
    assert counts["quantum.leaves"] == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert commands.tail([1.0] * 19) is None
    samples = [float(i) for i in range(100, 0, -1)]
    percentile, value = commands.tail(samples)
    assert (percentile, value) == (90.0, 90.0)
    assert sum(s > value for s in samples) == 10
    assert commands.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def _fake_cli(tmp_path: Path):
    """A stand-in for ``cli.main`` whose reports change on every call."""
    calls = []

    def main(argv):
        calls.append(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(
            {"verdict": "pass", "call": len(calls)}))
        (out / "summary.csv").write_text("outcome,count\n")
        return 0

    circuit = tmp_path / "c.circ"
    circuit.write_text("paths 1\n")
    cmd = commands.Command("fake", ("compare", str(circuit), "--shots", "10",
                                    "--out", str(tmp_path / "out")), shots=10)
    return main, cmd


def test_digest_mismatch_counts_as_failed_command(tmp_path):
    main, cmd = _fake_cli(tmp_path)
    tally = run.Tally()
    digests = commands.DigestBook()
    tally.run(cmd, main, digests)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.run(cmd, main, digests)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons[0] == ("fake: compare: report.json differs from the"
                                " earlier run of identical input")


def test_stored_digest_mismatch_fails_the_first_call(tmp_path):
    main, cmd = _fake_cli(tmp_path)
    key = commands.command_key(cmd.argv)
    assert key.split()[0] == "compare" and "--out" not in key
    calls, _ = commands.execute(cmd, main)
    assert commands.judge(cmd, calls, commands.DigestBook({key: ["0" * 64, "0" * 64]})
                          ) == ("compare: report.json and summary.csv differ"
                                " from the stored digest of identical input")
    digest = [commands._sha256(tmp_path / "out" / name)
              for name in ("report.json", "summary.csv")]
    assert commands.judge(cmd, calls, commands.DigestBook({key: digest})) is None


def test_count_drift_against_stored_counts():
    rounds = [dict.fromkeys(spans.COUNTS, 3), dict.fromkeys(spans.COUNTS, 3)]
    assert spans.count_drift(rounds, dict.fromkeys(spans.COUNTS, 3)) == []
    stored = dict.fromkeys(spans.COUNTS, 3)
    stored["harness.report_bytes"] = 5
    assert spans.count_drift(rounds, stored) == ["harness.report_bytes"]
    rounds[1]["quantum.leaves"] = 4  # no stored counts: rounds must agree
    assert spans.count_drift(rounds, None) == ["quantum.leaves"]


def test_new_input_bytes_record_a_new_digest(tmp_path):
    main, cmd = _fake_cli(tmp_path)
    digests = commands.DigestBook()
    calls, _ = commands.execute(cmd, main)
    assert commands.judge(cmd, calls, digests) is None
    Path(cmd.argv[1]).write_text("paths 2\n")  # e.g. a compiler emitting another circuit
    calls, _ = commands.execute(cmd, main)
    assert commands.judge(cmd, calls, digests) is None


def test_exceptions_and_exit_codes_fail(tmp_path):
    _, cmd = _fake_cli(tmp_path)

    def raises(argv):
        raise RuntimeError("boom")

    calls, _ = commands.execute(cmd, raises)
    assert "boom" in commands.judge(cmd, calls, commands.DigestBook())
    calls, _ = commands.execute(cmd, lambda argv: 1)
    assert commands.judge(cmd, calls, commands.DigestBook()) == "compare: exit 1"


def test_instrument_records_layers_and_restores(tmp_path):
    from interfersim import cli, harness

    circuit = tmp_path / "mz.circ"
    circuit.write_text("paths 2\nlayer BS 1 2 R=0.5\nlayer D 1 | D 2\n")
    original = harness.run_ensemble
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        code = recorder.wrap("cli.main", cli.main)(
            ["compare", str(circuit), "--shots", "200", "--out", str(tmp_path)])
    assert code == 0
    assert harness.run_ensemble is original
    names = {s.name for s in recorder.spans}
    assert {"cli.main", "circuits.parse", "harness.experiment", "ensemble.run",
            "rng.uniforms", "ensemble.counts", "quantum.enumerate",
            "harness.save"} <= names
    counts = spans.layer_counts(recorder.spans)
    assert counts["ensemble.shot_layers"] == 200 * 2
    assert counts["rng.bytes"] == 200 * 4 * 8
    assert counts["quantum.leaves"] == 2
