"""Command-line interface: commands, exit codes, file outputs."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import interfersim
from interfersim import cli, ensemble, harness
from interfersim.circuits import MAX_PATHS, serialize_circuit
from interfersim.cli import main
from interfersim.compiler import haar_unitary
from interfersim.labels import CongruenceReport
from interfersim.quantum import BranchCapError, ImpossibleOutcomeError
from interfersim.scenarios import export_scenario, random_circuit


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


def test_run_quantum_engine_postselected(tmp_path):
    circuit = tmp_path / "ev.circ"
    export_scenario("elitzur-vaidman", circuit)
    out = tmp_path / "outq"
    code = main(["run", str(circuit), "--shots", "2000", "--seed", "3",
                 "--engine", "quantum", "--postselect", "L2:N",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "quantum-sample"
    assert report["postselect"] == ["L2:N"]
    assert report["preselection_shots"] == 2000
    kept = report["kept_shots"]
    assert 800 < kept < 1200  # the bomb absorbs half the shots
    rows = report["outcomes"]
    assert {o["outcome"] for o in rows} == {"L2:N;L4:C1", "L2:N;L4:C2"}
    assert sum(o["count"] for o in rows) == kept
    for o in rows:
        assert o["frequency"] == o["count"] / kept
        assert o["probability"] is None and o["sigma"] is None
        assert o["within_ci"] is None and o["impossible"] is False
    assert report["total_variation"] is None and report["chi_square"] is None
    assert report["verdict"] == "no-verdict"


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
    "fractional-paths.json": json.dumps(
        {"paths": 2.7, "layers": [[{"gate": "D", "args": {"path": 1}}]]}),
    "boolean-paths.json": json.dumps({"paths": True, "layers": []}),
    "fractional-path.json": json.dumps(
        {"paths": 2, "layers": [[{"gate": "D", "args": {"path": 1.9}}]]}),
    "string-reflectivity.json": json.dumps(
        {"paths": 2, "layers": [[{"gate": "BS", "args": {"s": 1, "t": 2,
                                                         "R": "0.5"}}]]}),
    "number-name.json": json.dumps({"paths": 2, "name": 7, "layers": []}),
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


@pytest.mark.parametrize("argv", [
    ["compare", "--out", "{blocked}"],
    ["run", "--out", "{blocked}"],
    ["run", "--trace", "{missing}/trace.jsonl"],
    ["trace", "--jsonl", "{missing}/trace.jsonl"],
    ["trace", "--report", "{missing}/congruence.json"],
], ids=["compare-out", "run-out", "run-trace", "trace-jsonl", "trace-report"])
def test_unwritable_output_usage_error(mz_file, tmp_path, capsys, argv):
    blocked = tmp_path / "file"
    blocked.write_text("")  # a file where a directory is needed
    argv = [arg.format(blocked=blocked / "out", missing=tmp_path / "missing")
            for arg in argv]
    code = main(argv[:1] + [mz_file, "--shots", "200", "--out", str(tmp_path)]
                + argv[1:])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_branch_cap_flag_must_be_positive(mz_file, cap):
    with pytest.raises(SystemExit) as err:
        main(["compare", mz_file, "--branch-cap", cap])
    assert err.value.code == 2


def test_branch_cap_config_must_be_positive(mz_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"branch_cap": 0}))
    code = main(["compare", mz_file, "--shots", "200", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "branch_cap" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"shots": 2.7}, {"seed": 1.9}, {"shots": True}, {"seed": False},
    {"branch_cap": 2.5}, {"shots": "10"}, {"prepare": {"path": 1.9}},
    {"prepare": {"path": True}},
], ids=["shots-fraction", "seed-fraction", "shots-bool", "seed-bool",
        "branch_cap-fraction", "shots-string", "path-fraction", "path-bool"])
def test_config_numbers_must_be_integers(mz_file, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["run", mz_file, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["run", "--prepare", "junk=foo"], None),
    (["run", "--engine", "quantum", "--prepare", "junk=foo"], None),
    (["compare", "--prepare", "junk=foo"], None),
    (["trace", "--prepare", "junk=foo"], None),
    (["run"], {"prepare": {"junk": 5}}),
    (["run"], {"prepare": 5}),
    (["run"], {"postselect": 7}),
    (["run"], {"postselect": [2]}),
    (["run"], {"trace": "false"}),
    (["run", "--prepare", "pth=2"], None),
    (["run"], {"prepare": {"paht": 2}}),
    # a config value is checked even where a flag overrides it
    (["run", "--seed", "3"], {"seed": None}),
    (["run"], {"shots": 2.5}),
    (["run", "--branch-cap", "10"], {"branch_cap": "10"}),
], ids=["run-junk-flag", "quantum-junk-flag", "compare-junk-flag",
        "trace-junk-flag", "junk-number", "prepare-number", "postselect-number",
        "postselect-number-list", "trace-string", "prepare-flag-unknown-key",
        "prepare-config-unknown-key", "seed-under-flag", "shots-under-flag",
        "branch_cap-under-flag"])
def test_malformed_config_values_usage_error(mz_file, tmp_path, capsys,
                                             argv, config):
    out = tmp_path / "out"
    argv = argv[:1] + [mz_file, "--shots", "10", "--out", str(out)] + argv[1:]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["--prepare", "pth=2"], None),
    (["--prepare", "path=1,paht=2"], None),
    ([], {"prepare": {"paht": 2}}),
], ids=["flag", "flag-after-known-key", "config"])
def test_unknown_prepare_key_is_named(mz_file, tmp_path, capsys, argv, config):
    out = tmp_path / "out"
    argv = ["run", mz_file, "--shots", "10", "--out", str(out)] + argv
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown prepare key ")
    assert ("'pth'" if "pth=2" in argv else "'paht'") in err
    assert not out.exists()


def test_malformed_json_names_its_file(mz_file, tmp_path, capsys):
    # a JSON syntax error says whether the circuit or the config holds it
    bad = tmp_path / "bad.json"
    bad.write_text('{"paths": 2 "layers": []}')
    out = tmp_path / "out"
    for argv, kind in ((["run", str(bad)], "circuit"),
                       (["run", mz_file, "--config", str(bad)], "config")):
        assert main(argv + ["--shots", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} file {bad}: Expecting ',' delimiter")
    assert not out.exists()


@pytest.mark.parametrize("token", ["L2:C0", "L2:C9", "L2:C-1", "L2:C1"])
@pytest.mark.parametrize("command", [["run"], ["run", "--engine", "quantum"],
                                     ["compare"]],
                         ids=["run", "run-quantum", "compare"])
def test_postselect_click_needs_a_detector(tmp_path, capsys, command, token):
    """Layer 2 of the bomb tester has one detector, on path 2: a click
    anywhere else (path 0 would read as the ensemble's no-click code) is a
    usage error on every engine, not an empty or wrong selection."""
    circuit = tmp_path / "ev.circ"
    export_scenario("elitzur-vaidman", circuit)
    out = tmp_path / "out"
    code = main(command[:1] + [str(circuit), "--shots", "1000", "--seed", "3",
                               "--postselect", token, "--out", str(out)]
                + command[1:])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot post-select a click on path ")
    assert not out.exists()


def test_trace_refuses_postselect(mz_file, tmp_path, capsys):
    report = tmp_path / "congruence.json"
    code = main(["trace", mz_file, "--shots", "10", "--postselect", "L4:C1",
                 "--report", str(report), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --postselect ")
    assert not report.exists()


def test_trace_refuses_config_postselect(tmp_path, capsys):
    circuit = tmp_path / "ev.circ"
    export_scenario("elitzur-vaidman", circuit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselect": ["L2:N"]}))
    report = tmp_path / "congruence.json"
    code = main(["trace", str(circuit), "--shots", "5", "--config", str(cfg),
                 "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config 'postselect' ")
    assert not report.exists()


def test_prepare_path_must_be_an_integer(mz_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", mz_file, "--prepare", "path=x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: --prepare path must be an integer, not 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["quantum-exact", "bogus"])
def test_config_mode_is_not_read(mz_file, tmp_path, mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode}))
    assert main(["run", mz_file, "--shots", "200", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["mode"] == "ontic-only"


def test_compare_passes(mz_file, tmp_path, capsys):
    code = main(["compare", mz_file, "--shots", "20000", "--seed", "11",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize("counts, probs, worst", [
    ({"A": 500, "B": 250, "C": 250}, {"A": 0.5, "B": 0.25, "C": 0.25}, None),
    ({"A": 560, "B": 240, "C": 200}, {"A": 0.5, "B": 0.25, "C": 0.25},
     "worst outcome: A  count=560  probability=0.5  pull=+3.79  "
     "chi2 p=0.000150733"),
    ({"A": 500, "B": 499, "X": 1}, {"A": 0.5, "B": 0.5},
     "worst outcome: X  count=1  probability=0  pull=+inf  chi2 p=0.964329"),
], ids=["pass", "largest-pull", "impossible-first"])
def test_compare_failure_names_worst_outcome(mz_file, tmp_path, capsys,
                                             monkeypatch, counts, probs, worst):
    """A failed verdict adds one line after the verdict naming the outcome
    that failed it; a passing one prints nothing more."""
    def forced(config):
        return harness.outcome_report(config, "compare", counts, probs)

    monkeypatch.setattr(cli, "run_experiment", forced)
    code = main(["compare", mz_file, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == str(tmp_path / "report.json")
    assert lines[1].startswith("verdict: " + ("fail" if worst else "pass"))
    assert lines[2:] == ([worst] if worst else [])
    assert code == (cli.EXIT_FAIL if worst else cli.EXIT_PASS)


_COLD_START = """
import json, sys
from interfersim import cli
circuit, out = sys.argv[1:3]
assert cli.main(["trace", circuit, "--shots", "50", "--out", out]) == 0
assert cli.main(["run", circuit, "--shots", "50", "--out", out]) == 0
assert cli.main(["run", circuit, "--shots", "50", "--engine", "quantum",
                 "--out", out]) == 0
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert cli.main(["compare", circuit, "--shots", "2000", "--seed", "3",
                 "--out", out]) == 0
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "special": "scipy.special" in sys.modules,
                  "stats": "scipy.stats" in sys.modules}))
"""


def test_cold_start_loads_scipy_only_for_statistics(tmp_path):
    """A fresh process runs ``trace`` and ``run`` on either engine without
    SciPy, whose import is most of the package's start-up time; the first
    verdict loads ``scipy.special`` and never ``scipy.stats``, whose import
    costs several times as much. The test process itself already holds
    SciPy."""
    src = str(Path(interfersim.__file__).resolve().parents[1])
    circuit = Path(interfersim.__file__).parent / "data" / "mz-3.circ"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(circuit),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"before": [], "after": True, "special": True,
                      "stats": False}
    assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "pass"


# Names that only tests used, removed from the package; they must not come
# back as exports or module attributes.
_REMOVED = """
import importlib, json
gone = []
for module, name in [("interfersim", "structurally_equal"),
                     ("interfersim", "CongruenceError"),
                     ("interfersim", "PreparationError"),
                     ("interfersim", "sieve_prepare"),
                     ("interfersim.circuits", "structurally_equal"),
                     ("interfersim.circuits", "PARAM_TOL"),
                     ("interfersim.labels", "CongruenceError"),
                     ("interfersim.rng", "PREPARE_SIEVE"),
                     ("interfersim.prepare", "sieve_prepare"),
                     ("interfersim.prepare", "default_raw_sampler"),
                     ("interfersim.prepare", "PreparationError"),
                     ("interfersim.scenarios", "compare_suite")]:
    try:
        exec(f"from {module} import {name}", {})
    except ImportError:
        gone.append(name)
from interfersim.quantum import QuantumState
print(json.dumps({"gone": len(gone), "ray_equals":
                  hasattr(QuantumState, "ray_equals")}))
"""


def test_removed_test_helpers_stay_out_of_the_package():
    src = str(Path(interfersim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _REMOVED], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {"gone": 12, "ray_equals": False}


def test_compare_branch_cap_exceeded(mz_file, tmp_path):
    code = main(["compare", mz_file, "--shots", "100", "--seed", "1",
                 "--branch-cap", "1", "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("error, code", [
    (BranchCapError("outcome enumeration exceeded 1 branches"), 3),
    (ImpossibleOutcomeError("conditioning event has probability 0"), 2),
], ids=["branch-cap", "impossible"])
def test_trace_maps_engine_errors_to_exit_codes(mz_file, tmp_path, capsys,
                                                monkeypatch, error, code):
    """``main`` maps the engines' errors for every command, trace included."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_traced", fail)
    assert main(["trace", mz_file, "--shots", "5", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("command", ["compare", "run", "run --engine quantum"])
def test_zero_probability_postselection(tmp_path, capsys, command):
    """A post-selection that no record shows keeps no shot: ``run`` reports
    that, and ``compare``, which must renormalise the exact distribution
    over it, exits 2 with one line."""
    circuit = tmp_path / "ev.circ"
    export_scenario("elitzur-vaidman", circuit)
    out = tmp_path / "out"
    name, *options = command.split()
    code = main([name, str(circuit), *options, "--shots", "500", "--seed", "3",
                 "--postselect", "L2:N", "L2:C2", "--out", str(out)])
    err = capsys.readouterr().err
    if name == "compare":
        assert code == 2
        assert err == "error: conditioning event has probability 0\n"
        assert not out.exists()
    else:
        assert code == 0 and err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["kept_shots"] == 0
        assert report["preselection_shots"] == 500
        assert report["outcomes"] == []
        assert report["verdict"] == "no-verdict"


@pytest.mark.parametrize("name, options, code, err_start", [
    ("zeno-8", ["--shots", "2000000", "--postselect", "L2:N", "L2:C2"], 2,
     "error: conditioning event has probability 0\n"),
    ("mz-3", ["--branch-cap", "1"], 3,
     "error: outcome enumeration exceeded 1 branches;"),
], ids=["impossible", "branch-cap"])
def test_compare_enumerates_before_any_shot(tmp_path, capsys, monkeypatch,
                                            name, options, code, err_start):
    """``compare`` enumerates first, so a post-selection of probability 0
    or a branch-cap overflow ends it before the ensemble draws a shot."""
    def no_shots(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(harness, "run_ensemble", no_shots)
    circuit = tmp_path / f"{name}.circ"
    export_scenario(name, circuit)
    assert main(["compare", str(circuit), *options,
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(err_start) and err.count("\n") == 1


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


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_seed_env_must_be_an_integer(mz_file, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("QM_SEED", value)
    out = tmp_path / "env"
    assert main(["run", mz_file, "--shots", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: QM_SEED must be an integer")
    assert not out.exists()
    # a seed flag is used without reading the variable
    assert main(["run", mz_file, "--shots", "100", "--seed", "4",
                 "--out", str(out)]) == 0


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


def test_trace_jsonl_replays_each_shot_once(mz_file, tmp_path, monkeypatch):
    replay = harness.run_ontic_shot
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return replay(*args, **kwargs)

    monkeypatch.setattr(harness, "run_ontic_shot", counted)
    jsonl = tmp_path / "trace.jsonl"
    code = main(["trace", mz_file, "--shots", "10", "--seed", "2",
                 "--jsonl", str(jsonl), "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 10
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [(line["shot"], line["layer"]) for line in lines] == \
        [(shot, layer) for shot in range(10) for layer in range(4)]
    # ``run --trace`` writes the same lines for the same shots
    run_jsonl = tmp_path / "run.jsonl"
    assert main(["run", mz_file, "--shots", "10", "--seed", "2",
                 "--trace", str(run_jsonl), "--out", str(tmp_path)]) == 0
    assert run_jsonl.read_bytes() == jsonl.read_bytes()
    # ... and replays each shot once too when its config asks for the
    # congruence summary
    calls.clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trace": True}))
    cfg_jsonl = tmp_path / "cfg.jsonl"
    assert main(["run", mz_file, "--shots", "10", "--seed", "2", "--config",
                 str(cfg), "--trace", str(cfg_jsonl), "--out", str(tmp_path)]) == 0
    assert len(calls) == 10
    assert cfg_jsonl.read_bytes() == jsonl.read_bytes()
    congruence = json.loads((tmp_path / "report.json").read_text())["congruence"]
    assert congruence["shots"] == 10 and congruence["violations"] == 0


def test_traced_runs_build_shot_reports_only_for_report(mz_file, tmp_path,
                                                        monkeypatch):
    # a per-shot congruence dict is kept only for ``trace --report``, so a
    # traced run's memory stays bounded in the shot count
    def refuse(self, shot=0):
        raise AssertionError("per-shot congruence report built")

    monkeypatch.setattr(CongruenceReport, "to_json_dict", refuse)
    config = harness.ExperimentConfig(circuit=cli.parse_circuit_file(mz_file),
                                      shots=50, seed=2, mode="ontic-only",
                                      trace=True)
    assert harness.run_experiment(config).congruence["violations"] == 0
    assert main(["trace", mz_file, "--shots", "50", "--seed", "2",
                 "--jsonl", str(tmp_path / "trace.jsonl"),
                 "--out", str(tmp_path)]) == 0


def test_trace_report_is_written_shot_by_shot(tmp_path):
    # ``trace --report`` writes each shot's congruence record as the shot is
    # checked, so the report adds no memory that grows with the shot count.
    # Each command runs once untimed, so first-call costs stay out of both
    # peaks, and is measured with the cyclic collector off, so no peak
    # depends on where a collection falls: the report leaves no cyclic
    # garbage per shot either.
    circ = tmp_path / "zeno-8.circ"
    export_scenario("zeno-8", circ)
    report = tmp_path / "congruence.json"
    peaks = {}
    for extra in ((), ("--report", str(report))):
        args = ["trace", str(circ), "--shots", "300", "--seed", "5", "--out",
                str(tmp_path), *extra]
        assert main(args) == 0
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert main(args) == 0
            peaks[bool(extra)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
    # one held congruence dict per shot would add about 1.2 MB here
    assert peaks[True] < peaks[False] + 100_000, peaks
    obj = json.loads(report.read_text())
    assert [shot["shot"] for shot in obj["shots"]] == list(range(300))
    assert obj["summary"]["shots"] == 300


# sha256 of ``trace --jsonl`` (the same lines as ``run --trace``) and of
# ``trace --report`` at 200 shots and seed 5, the particle in path 1 and disk
# junk on the other paths, so junk amplitudes are printed. ``random5`` is a
# 5-path random circuit with mid-circuit detectors.
PER_SHOT_DIGESTS = {
    "zeno-8": (
        "c7721a53a9ff6b4c3ea21b806b4853182e78bc265a617c8481e80aab67228f51",
        "ce79691fdb7b4922dc0e07e52f7a5fc3f7b24ccb129e837be841a7efd9fb6f36"),
    "elitzur-vaidman": (
        "0953a93a1a93f2b7c64eb2eb596aaffe003ee6ebee129c082d3d4aedfae48d19",
        "32f3ca72e30d8a84cabd628c37f7032cab6c796f44a72354de6298ab36e01f9c"),
    "random3-a": (
        "4b9f4e3931685d09f71af1b98c8405e90c5c7825a68c8d291472d4ae6ce24b29",
        "56cb7a6535f03b175ff29ad2298ed0b906a01286fea4978e87cf9635dcf6383e"),
    "random5": (
        "25fa37ee4e384f09f8615711fb805bb83f6bc56e103c8d036f627783ed7bae31",
        "b19965de0b440edfbc6ec897f3b89427b9054f64fac8351ffe7b594cf8f61aac"),
}


@pytest.mark.parametrize("name", sorted(PER_SHOT_DIGESTS))
def test_per_shot_output_bytes_are_pinned(tmp_path, name):
    circ = tmp_path / f"{name}.circ"
    if name == "random5":
        gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        circ.write_text(serialize_circuit(random_circuit(5, 8, gen,
                                                         name=name)))
    else:
        export_scenario(name, circ)
    common = [str(circ), "--shots", "200", "--seed", "5",
              "--prepare", "path=1,junk=disk", "--out", str(tmp_path)]
    trace_jsonl, report, run_jsonl = (tmp_path / "trace.jsonl",
                                      tmp_path / "congruence.json",
                                      tmp_path / "run.jsonl")
    assert main(["trace", *common, "--jsonl", str(trace_jsonl),
                 "--report", str(report)]) == 0
    assert main(["run", *common, "--trace", str(run_jsonl)]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (trace_jsonl, report, run_jsonl)]
    jsonl_digest, report_digest = PER_SHOT_DIGESTS[name]
    assert digests == [jsonl_digest, report_digest, jsonl_digest]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_consecutive_calls_share_no_state(tmp_path):
    """``main`` builds its parser once per process; options given in one
    call are gone in the next."""
    circuit = tmp_path / "ev.circ"
    export_scenario("elitzur-vaidman", circuit)

    def report(*options):
        out = tmp_path / "out"
        assert main(["run", str(circuit), "--shots", "300", "--seed", "3",
                     "--engine", "quantum", "--out", str(out), *options]) == 0
        return (out / "report.json").read_bytes()

    plain = report()
    assert report("--postselect", "L2:N") != plain
    assert report() == plain
    assert report("--prepare", "path=2") != plain
    assert report() == plain
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command", ["run", "compare", "trace",
                                     "run --engine quantum"])
def test_oversized_shots_exit_resource(mz_file, tmp_path, capsys, command):
    # the cap is checked before any engine starts, so the quantum sampler,
    # which allocates nothing per shot, exits as soon as the others
    assert cli.MAX_SHOTS < 10 ** 15
    code = main([*command.split(), mz_file, "--shots", str(10 ** 15),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {10 ** 15} shots exceed the cap of "
                          f"{cli.MAX_SHOTS} per command")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suffix, text", [
    (".circ", "paths 1000000000\nlayer D 1\nlayer D 2\n"),
    (".json", json.dumps({"paths": 10 ** 9, "layers": [
        [{"gate": "D", "args": {"path": 1}}],
        [{"gate": "D", "args": {"path": 2}}]]})),
], ids=["circ", "json"])
@pytest.mark.parametrize("command", ["run", "compare", "trace"])
def test_oversized_circuit_exits_resource(tmp_path, capsys, suffix, text,
                                          command):
    # the path cap is checked on the width before any layer is built
    circuit = tmp_path / f"wide{suffix}"
    circuit.write_text(text)
    start = time.perf_counter()
    code = main([command, str(circuit), "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == (f"error: {10 ** 9} paths exceed the cap of "
                   f"{MAX_PATHS} per circuit\n")


def test_deep_circuit_at_the_path_cap_compares(tmp_path):
    # 3,000 empty layers at the path cap and a terminal detector: the
    # circuit costs its gates and the engines their width-sized fields
    circuit = tmp_path / "deep.circ"
    circuit.write_text(f"paths {MAX_PATHS}\n" + "layer\n" * 3000
                       + "layer D 1\n")
    assert main(["compare", str(circuit), "--shots", "1000",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert [(o["outcome"], o["count"], o["probability"])
            for o in report["outcomes"]] == [("L3001:C1", 1000, 1.0)]


def test_memory_exhaustion_exits_resource(mz_file, tmp_path, capsys,
                                          monkeypatch):
    # under the shot cap a run can still outgrow the machine's memory
    def exhausted(config, jsonl=None):
        raise MemoryError

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    code = main(["run", mz_file, "--shots", str(cli.MAX_SHOTS),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == "error: out of memory; request fewer shots\n"


def test_internal_invariant_failure_exits_internal(mz_file, tmp_path, capsys,
                                                   monkeypatch):
    # a rotation that overflows on the live path trips the ensemble's
    # finiteness check: a fault of the program, not of the input
    def overflowing(re, im, cos_w, sin_w):
        return np.full_like(re, np.inf), im

    monkeypatch.setattr(ensemble, "rotate_amplitude", overflowing)
    code = main(["compare", mz_file, "--shots", "100", "--out", str(tmp_path)])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal invariant failed: non-finite "
                          "amplitude after layer ")
    assert err.count("\n") == 1 and "Traceback" not in err
