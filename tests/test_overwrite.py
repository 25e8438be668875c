"""Output files: every writer goes through ``harness.overwrite``, which
rewrites a file in place and leaves exactly the bytes written."""

import ast
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from interfersim import harness
from interfersim.cli import main
from interfersim.compiler import haar_unitary
from interfersim.scenarios import export_scenario

SRC = Path(harness.__file__).resolve().parent


@pytest.fixture()
def inputs(tmp_path):
    """A circuit and a unitary to compile, outside the output folders."""
    folder = tmp_path / "inputs"
    folder.mkdir()
    export_scenario("mz-3", folder / "mz.circ")
    matrix = haar_unitary(3, np.random.default_rng(11))
    (folder / "u.json").write_text(json.dumps(
        [[[z.real, z.imag] for z in row] for row in matrix.tolist()]))
    return folder


# target -> (file name, argv writing it to the file at {path} in {dir})
TARGETS = {
    "report.json": ("report.json", ["run", "{mz}", "--shots", "300", "--seed",
                                    "3", "--out", "{dir}"]),
    "summary.csv": ("summary.csv", ["run", "{mz}", "--shots", "300", "--seed",
                                    "3", "--out", "{dir}"]),
    "compile-o": ("u.circ", ["compile", "{u}", "-o", "{path}"]),
    "trace-jsonl": ("t.jsonl", ["trace", "{mz}", "--shots", "20", "--seed",
                                "3", "--jsonl", "{path}"]),
    "trace-report": ("c.json", ["trace", "{mz}", "--shots", "20", "--seed",
                                "3", "--report", "{path}"]),
}


def write_target(target, folder, inputs, capsys):
    """Run the command of ``target`` with its output in ``folder``; returns
    the output path."""
    name, argv = TARGETS[target]
    path = folder / name
    argv = [a.format(mz=inputs / "mz.circ", u=inputs / "u.json", dir=folder,
                     path=path) for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    return path


def fresh_bytes(target, tmp_path, inputs, capsys):
    folder = tmp_path / "fresh"
    folder.mkdir()
    return write_target(target, folder, inputs, capsys).read_bytes()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_overwrite_leaves_fresh_bytes(tmp_path, inputs, capsys, target, old):
    """A rerun into an existing file, longer or shorter than the new one,
    leaves the bytes of a fresh write in the same inode and mode."""
    fresh = fresh_bytes(target, tmp_path, inputs, capsys)
    folder = tmp_path / "again"
    folder.mkdir()
    path = folder / TARGETS[target][0]
    path.write_bytes(fresh + b"~" * 5000 if old == "longer"
                     else fresh[:len(fresh) // 3])
    path.chmod(0o640)
    inode = path.stat().st_ino
    assert write_target(target, folder, inputs, capsys) == path
    assert path.read_bytes() == fresh
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("target", TARGETS)
def test_overwrite_writes_through_a_symlink(tmp_path, inputs, capsys, target):
    fresh = fresh_bytes(target, tmp_path, inputs, capsys)
    folder = tmp_path / "linked"
    folder.mkdir()
    real = tmp_path / "real-file"
    real.write_bytes(fresh * 2)
    path = folder / TARGETS[target][0]
    path.symlink_to(real)
    write_target(target, folder, inputs, capsys)
    assert path.is_symlink() and path.resolve() == real.resolve()
    assert real.read_bytes() == fresh


@pytest.mark.parametrize("argv", [
    ["trace", "{mz}", "--shots", "20", "--jsonl", os.devnull],
    ["trace", "{mz}", "--shots", "20", "--report", os.devnull],
    ["run", "{mz}", "--shots", "200", "--trace", os.devnull, "--out", "{out}"],
], ids=["trace-jsonl", "trace-report", "run-trace"])
def test_output_to_a_device_is_not_cut(tmp_path, inputs, capsys, argv):
    """A file that is not a regular file takes the output without being
    truncated, which a device such as the null device refuses."""
    argv = [a.format(mz=inputs / "mz.circ", out=tmp_path) for a in argv]
    assert main(argv) == 0
    assert not capsys.readouterr().err


def test_fault_mid_report_leaves_the_bytes_written(tmp_path, inputs, capsys,
                                                   monkeypatch):
    """An internal fault at shot 3 of ``trace --report`` over a longer file
    leaves the report written so far, a prefix of the fresh one, and none of
    the old file's tail."""
    fresh = fresh_bytes("trace-report", tmp_path, inputs, capsys)
    path = tmp_path / "c.json"
    path.write_bytes(b"~" * (2 * len(fresh)))
    real = harness.verify_congruence
    calls = []

    def faulty(*args):
        calls.append(None)
        if len(calls) == 4:
            raise AssertionError("injected fault at shot 3")
        return real(*args)

    monkeypatch.setattr(harness, "verify_congruence", faulty)
    assert main(["trace", str(inputs / "mz.circ"), "--shots", "20", "--seed",
                 "3", "--report", str(path)]) == 4
    assert "injected fault at shot 3" in capsys.readouterr().err
    left = path.read_bytes()
    assert b"~" not in left
    assert fresh.startswith(left)
    # shots 0, 1 and 2 are whole; the separator before shot 3 is not written
    assert left.count(b'"shot": ') == 3 and left.endswith(b"}")


def _writers(tree: ast.Module, exempt: str | None = None):
    """``(line, text)`` of every call that opens a file for writing outside
    the function named ``exempt``: ``open``/``fdopen`` with a write mode (or
    one not given as a literal), ``Path.open`` likewise, ``os.open``, and
    ``write_text`` / ``write_bytes``; and of every ``json.dump`` /
    ``json.dumps`` given an ``indent``, whose pure-Python encoder leaves a
    reference cycle on every call."""
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == exempt
               for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if method else None
        if name in ("write_text", "write_bytes") or (name, owner) == ("open", "os"):
            yield node.lineno, ast.unparse(node)
            continue
        if name in ("dump", "dumps") and any(
                kw.arg == "indent" and not (isinstance(kw.value, ast.Constant)
                                            and kw.value.value is None)
                for kw in node.keywords):
            yield node.lineno, ast.unparse(node)
            continue
        if name not in ("open", "fdopen"):
            continue
        # open(file, mode), io.open(file, mode), os.fdopen(fd, mode), but
        # path.open(mode)
        index = 0 if name == "open" and method and owner != "io" else 1
        mode = node.args[index] if len(node.args) > index else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if mode is None:
            continue  # the default mode reads
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or set("wax") & set(mode.value):
            yield node.lineno, ast.unparse(node)


def test_every_writer_goes_through_overwrite():
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _writers(
                 ast.parse(path.read_text(encoding="utf-8")),
                 "overwrite" if path.name == "harness.py" else None)]
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ("open(p, 'w')", True),
    ("open(p, mode='a', encoding='utf-8')", True),
    ("open(p, 'rb')", False),
    ("open(p)", False),
    ("open(p, m)", True),
    ("io.open(p, 'x')", True),
    ("p.open('w')", True),
    ("p.open()", False),
    ("p.open('r', encoding='utf-8')", False),
    ("os.open(p, os.O_WRONLY)", True),
    ("os.fdopen(fd, 'w')", True),
    ("p.write_text('')", True),
    ("p.write_bytes(b'')", True),
    ("json.dumps(x, sort_keys=True, indent=2)", True),
    ("json.dump(x, fh, indent=n)", True),
    ("dumps(x, indent=0)", True),
    ("json.dumps(x, sort_keys=True)", False),
    ("json.dumps(x, indent=None)", False),
])
def test_writer_scan_flags_write_calls(source, flagged):
    assert bool(list(_writers(ast.parse(source)))) is flagged


def test_writer_scan_exempts_only_the_named_function():
    source = ("def overwrite(p):\n    return os.fdopen(os.open(p, 0), 'w')\n"
              "def other(p):\n    return open(p, 'w')\n")
    assert [line for line, _ in _writers(ast.parse(source), "overwrite")] == [4]
