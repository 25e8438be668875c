"""Running one CLI command in-process and judging its output.

A command goes through ``interfersim.cli.main`` with captured stdout and
stderr. It counts as failed on a non-zero exit, an uncaught exception, a
``compare`` verdict other than ``pass``, a ``trace`` with any congruence
violation, a ``compile --verify`` deviation above 1e-9, or a
``report.json`` / ``summary.csv`` whose sha256 differs from the digest
stored in ``expected.json`` (written by ``record.py``) for the same input
bytes and options. Inputs with no stored digest, such as a circuit that a
changed compiler emits, must repeat their first digest within the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected.json"
REPORT_FILES = ("report.json", "summary.csv")
MAX_COMPILE_DEVIATION = 1e-9
TAIL_BEYOND = 10

_DEVIATION = re.compile(r"max reconstruction deviation: (\S+)")
_VIOLATIONS = re.compile(r"(\d+) violation\(s\)")


@dataclass(frozen=True)
class Command:
    """One timed unit. ``compile_argv`` (mesh workload only) runs first and
    its output circuit gets a terminal detector on each of ``width`` paths
    before ``argv`` runs on it; the pair counts as one command."""

    label: str
    argv: tuple[str, ...]
    shots: int
    compile_argv: tuple[str, ...] = ()
    width: int = 0


@dataclass
class Call:
    argv: tuple[str, ...]
    code: int | None = None
    stdout: str = ""
    error: str = ""


def call_cli(main: Callable, argv: tuple[str, ...]) -> Call:
    call = Call(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call.code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        call.code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        call.error = traceback.format_exc()
    call.stdout = out.getvalue()
    if not call.error and call.code:
        call.error = err.getvalue().strip()
    return call


def append_detectors(src: str, dst: str, width: int) -> None:
    """Copy a circuit file and add a final layer measuring every path."""
    text = Path(src).read_text(encoding="utf-8")
    layer = " | ".join(f"D {j}" for j in range(1, width + 1))
    Path(dst).write_text(text.rstrip("\n") + f"\nlayer {layer}\n",
                         encoding="utf-8")


def execute(cmd: Command, main: Callable) -> tuple[list[Call], float]:
    """Run the command; returns its calls and wall seconds."""
    start = time.perf_counter()
    calls = []
    if cmd.compile_argv:
        calls.append(call_cli(main, cmd.compile_argv))
        if calls[-1].code != 0 or calls[-1].error:
            return calls, time.perf_counter() - start
        append_detectors(_option(cmd.compile_argv, "-o"), cmd.argv[1], cmd.width)
    calls.append(call_cli(main, cmd.argv))
    return calls, time.perf_counter() - start


def _option(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def command_key(argv: tuple[str, ...]) -> str:
    """``subcommand input-sha256 options``: what a command's reports may
    depend on. The output directory is left out."""
    options = list(argv[2:])
    if "--out" in options:
        at = options.index("--out")
        del options[at:at + 2]
    return " ".join([argv[0], _sha256(argv[1]), *options])


def round_key(round_: list[Command]) -> str:
    """sha256 over the command keys of a round that has run (a mesh
    round's compare inputs exist only once its compile steps ran)."""
    text = "\n".join(command_key(cmd.argv) for cmd in round_)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(workload: str) -> dict:
    """Stored report digests and exact counts of one workload."""
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(workload, {"reports": {}, "counts": {}})


class DigestBook:
    """Report digests per command key. A key in ``stored`` must reproduce
    the stored digests byte for byte; any other key is a new input, whose
    first digest in the run is kept and must repeat within the run."""

    def __init__(self, stored: dict | None = None) -> None:
        self.stored = {key: tuple(d) for key, d in (stored or {}).items()}
        self.seen: dict[str, tuple[str, ...]] = {}

    def check(self, key: str, digest: tuple[str, ...]) -> str | None:
        if key in self.stored:
            reference, source = self.stored[key], "the stored digest"
        else:
            reference, source = self.seen.setdefault(key, digest), "the earlier run"
        differ = [name for name, a, b in zip(REPORT_FILES, reference, digest) if a != b]
        if differ:
            verb = "differs" if len(differ) == 1 else "differ"
            return f"{' and '.join(differ)} {verb} from {source} of identical input"
        return None

    def new_keys(self) -> int:
        return len(self.seen)


def judge(cmd: Command, calls: list[Call], digests: DigestBook) -> str | None:
    """Reason the command failed, or None when every check holds."""
    for call in calls:
        if call.error:
            return f"{call.argv[0]}: {call.error.splitlines()[-1]}"
        if call.code != 0:
            return f"{call.argv[0]}: exit {call.code}"
    if cmd.compile_argv:
        match = _DEVIATION.search(calls[0].stdout)
        if match is None or not float(match.group(1)) <= MAX_COMPILE_DEVIATION:
            return "compile: reconstruction deviation missing or above 1e-9"
    call = calls[-1]
    sub = call.argv[0]
    if sub == "trace":
        match = _VIOLATIONS.search(call.stdout)
        if match is None or int(match.group(1)) != 0:
            return "trace: congruence violation"
        return None
    out = Path(_option(call.argv, "--out"))
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        digest = tuple(_sha256(out / name) for name in REPORT_FILES)
    except (OSError, ValueError) as exc:
        return f"{sub}: unreadable report: {exc}"
    if sub == "compare" and report["verdict"] != "pass":
        return f"compare: verdict {report['verdict']}"
    if sub == "run":
        counted = sum(o["count"] for o in report["outcomes"])
        if report["kept_shots"] != cmd.shots or counted != cmd.shots:
            return "run: outcome counts do not add up to the shots"
    reason = digests.check(command_key(call.argv), digest)
    return None if reason is None else f"{sub}: {reason}"


def tail(samples: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it, as
    ``(percentile, value)``; None with fewer than ``2 * beyond`` samples."""
    n = len(samples)
    if n < 2 * beyond:
        return None
    rank = n - beyond  # 1-based nearest rank
    return 100.0 * rank / n, sorted(samples)[rank - 1]
