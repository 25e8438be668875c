"""Command-line interface: commands, exit codes, file outputs."""

import json

import numpy as np
import pytest

from interfersim.cli import main
from interfersim.compiler import haar_unitary
from interfersim.scenarios import export_scenario


@pytest.fixture()
def mz_file(tmp_path):
    path = tmp_path / "mz.circ"
    export_scenario("mz-3", path)
    return str(path)


def write_unitary(path, matrix):
    data = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    path.write_text(json.dumps(data))
    return str(path)


def test_run_writes_report(mz_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", mz_file, "--shots", "2000", "--seed", "7",
                 "--prepare", "path=1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "ontic-only"
    assert report["seed"] == 7
    assert (out / "summary.csv").exists()
    assert str(out / "report.json") in capsys.readouterr().out


def test_run_quantum_engine(mz_file, tmp_path):
    out = tmp_path / "outq"
    code = main(["run", mz_file, "--shots", "500", "--seed", "3",
                 "--engine", "quantum", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "quantum-sample"
    assert sum(o["count"] for o in report["outcomes"]) == 500


def test_run_trace_jsonl(mz_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main(["run", mz_file, "--shots", "5", "--seed", "1",
                 "--trace", str(trace), "--out", str(tmp_path)])
    assert code == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == 5 * 4  # shots x layers
    assert set(lines[0]) == {"shot", "layer", "q", "u", "tau"}


def test_run_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.circ")]) == 2


MZ_TEXT = "paths 2\nlayer BS 1 2 R=0.5\nlayer S 1 w={w}\nlayer BS 1 2 R=0.5\nlayer D 1 | D 2\n"
MALFORMED = {
    "nan-phase.circ": MZ_TEXT.format(w="nan"),
    "inf-phase.circ": MZ_TEXT.format(w="inf"),
    "splitter-without-t.json": json.dumps(
        {"paths": 2, "layers": [[{"gate": "BS", "args": {"s": 1, "R": 0.5}}]]}),
    "non-object-gate.json": json.dumps({"paths": 2, "layers": [[["D", 1]]]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_circuit_usage_error(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(MALFORMED[name])
    code = main(["compare", str(path), "--shots", "200", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_zero_shots_usage_error(mz_file):
    with pytest.raises(SystemExit) as err:
        main(["run", mz_file, "--shots", "0"])
    assert err.value.code == 2


def test_compare_passes(mz_file, tmp_path, capsys):
    code = main(["compare", mz_file, "--shots", "20000", "--seed", "11",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_compare_branch_cap_exceeded(mz_file, tmp_path):
    code = main(["compare", mz_file, "--shots", "100", "--seed", "1",
                 "--branch-cap", "1", "--out", str(tmp_path)])
    assert code == 3


def test_compare_reports_bit_identical(mz_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", mz_file, "--shots", "5000", "--seed", "21",
                 "--out", str(out_a)]) == 0
    assert main(["compare", mz_file, "--shots", "5000", "--seed", "21",
                 "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()


def test_seed_env_fallback(mz_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QM_SEED", "33")
    out = tmp_path / "env"
    main(["run", mz_file, "--shots", "100", "--out", str(out)])
    assert json.loads((out / "report.json").read_text())["seed"] == 33


def test_config_file_and_flag_precedence(mz_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 123, "seed": 5,
                               "prepare": {"path": 2}}))
    out = tmp_path / "cfgout"
    code = main(["run", mz_file, "--config", str(cfg), "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["shots"] == 123       # from config
    assert report["seed"] == 9          # flag wins
    assert report["prepare"]["path"] == 2


def test_compile_identity(tmp_path, capsys):
    src = write_unitary(tmp_path / "eye.json", np.eye(3, dtype=complex))
    out = tmp_path / "eye.circ"
    code = main(["compile", src, "-o", str(out)])
    assert code == 0
    assert out.read_text() == "paths 3\nname eye\n"


def test_compile_verify_random_unitary(tmp_path, capsys):
    u = haar_unitary(4, np.random.default_rng(2))
    src = write_unitary(tmp_path / "u4.json", u)
    code = main(["compile", src, "-o", str(tmp_path / "u4.circ"), "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "deviation" in out
    deviation = float(out.strip().splitlines()[-1].split()[-1])
    assert deviation < 1e-9


def test_compile_ragged_matrix(tmp_path):
    (tmp_path / "bad.json").write_text("[[[1,0],[0,0]],[[0,0]]]")
    assert main(["compile", str(tmp_path / "bad.json")]) == 2


def test_compile_nan_matrix(tmp_path):
    (tmp_path / "nan.json").write_text("[[[NaN,0],[NaN,0]],[[NaN,0],[NaN,0]]]")
    assert main(["compile", str(tmp_path / "nan.json")]) == 2


def test_compile_non_unitary(tmp_path):
    src = write_unitary(tmp_path / "m.json",
                        np.array([[1, 0], [1, 1]], dtype=complex))
    assert main(["compile", src]) == 2


def test_trace_command(mz_file, tmp_path, capsys):
    report_path = tmp_path / "congruence.json"
    code = main(["trace", mz_file, "--shots", "50", "--seed", "2",
                 "--report", str(report_path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "max label deviation" in out
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["violations"] == 0
    assert payload["summary"]["shots"] == 50
    assert len(payload["shots"]) == 50
    assert set(payload["shots"][0]) == {"shot", "layers", "pass"}


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
