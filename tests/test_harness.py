"""Comparison harness: statistics, verdicts, reports, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interfersim
from interfersim.harness import (
    ConfigError,
    ExperimentConfig,
    PreparationSpec,
    chi_square_goodness,
    parse_postselect_tokens,
    run_experiment,
    total_variation,
)
from interfersim.scenarios import elitzur_vaidman, mach_zehnder, scenario


def mz_config(omega=math.pi / 3, **kw):
    defaults = dict(circuit=mach_zehnder(omega),
                    prepare=PreparationSpec(path=0, junk="disk"),
                    shots=20000, seed=42)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# -- elementary statistics ----------------------------------------------------

def test_total_variation_examples():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}) == 1.0
    assert total_variation({"a": 0.3, "b": 0.7}, {"a": 0.25, "b": 0.75}) == \
        pytest.approx(0.05, abs=1e-15)


_TVD_SCRIPT = """
import numpy as np
from interfersim.harness import total_variation
gen = np.random.default_rng(0)
p = {f"L{k}:C{k % 7}": float(x) for k, x in enumerate(gen.random(200))}
q = {f"L{k}:C{k % 7}": float(x) for k, x in enumerate(gen.random(200))}
print(repr(total_variation(p, q)))
"""


def test_total_variation_independent_of_hash_seed():
    # string hashing (and with it set iteration order) changes with
    # PYTHONHASHSEED; the persisted distance must not
    src = str(Path(interfersim.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _TVD_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1


def test_chi_square_exact_proportions():
    res = chi_square_goodness({"a": 75, "b": 25}, {"a": 0.75, "b": 0.25})
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.impossible_count == 0


def test_chi_square_balanced_large_counts():
    res = chi_square_goodness({"a": 50000, "b": 50000}, {"a": 0.5, "b": 0.5})
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_chi_square_impossible_event_flagged():
    res = chi_square_goodness({"a": 99, "ghost": 1}, {"a": 1.0})
    assert res.impossible_count == 1


def test_chi_square_pools_small_cells():
    expected = {"a": 0.99, "b": 0.005, "c": 0.005}
    res = chi_square_goodness({"a": 990, "b": 6, "c": 4}, expected)
    assert res.dof == 1  # b and c pooled into one remainder cell


# -- full experiments ---------------------------------------------------------

def test_compare_mach_zehnder_passes():
    report = run_experiment(mz_config())
    assert report.passed
    assert report.total_variation < 0.02
    assert report.hard_fail_events == 0
    keys = {o.key for o in report.outcomes}
    assert keys == {"L4:C1", "L4:C2"}
    probs = {o.key: o.probability for o in report.outcomes}
    assert probs["L4:C1"] == pytest.approx(0.25, abs=1e-12)


def test_single_shot_gives_no_verdict():
    report = run_experiment(mz_config(shots=1))
    assert report.verdict == "no-verdict"
    assert report.kept_shots == 1


def test_reports_reproducible_bit_for_bit():
    a = run_experiment(mz_config())
    b = run_experiment(mz_config())
    assert a.to_json() == b.to_json()
    assert a.runtime_seconds != 0.0
    assert "runtime" not in a.to_json()


def test_different_seeds_differ():
    a = run_experiment(mz_config(seed=1))
    b = run_experiment(mz_config(seed=2))
    counts_a = {o.key: o.count for o in a.outcomes}
    counts_b = {o.key: o.count for o in b.outcomes}
    assert counts_a != counts_b


def test_ontic_only_mode():
    report = run_experiment(mz_config(mode="ontic-only", shots=2000))
    assert report.verdict == "no-verdict"
    assert report.total_variation is None
    assert all(o.probability is None for o in report.outcomes)
    assert sum(o.count for o in report.outcomes) == 2000


def test_quantum_exact_mode():
    report = run_experiment(mz_config(mode="quantum-exact"))
    assert report.verdict == "no-verdict"
    assert all(o.count is None for o in report.outcomes)
    total = sum(o.probability for o in report.outcomes)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_postselected_bomb_test():
    config = ExperimentConfig(circuit=elitzur_vaidman(),
                              prepare=PreparationSpec(path=0),
                              shots=40000, seed=9,
                              postselect=parse_postselect_tokens(["L2:N"]))
    report = run_experiment(config)
    assert report.passed
    assert report.preselection_shots == 40000
    assert 0.4 < report.kept_shots / report.preselection_shots < 0.6
    probs = {o.key: o.probability for o in report.outcomes}
    assert probs["L2:N;L4:C1"] == pytest.approx(0.5, abs=1e-12)
    assert probs["L2:N;L4:C2"] == pytest.approx(0.5, abs=1e-12)


def test_trace_mode_congruence_summary():
    report = run_experiment(mz_config(shots=300, trace=True))
    assert report.congruence is not None
    assert report.congruence["violations"] == 0
    assert report.congruence["max_deviation"] < 1e-9
    assert report.congruence["shots"] == 300


def test_report_files(tmp_path):
    report = run_experiment(mz_config(shots=5000))
    json_path, csv_path = report.save(tmp_path)
    obj = json.loads(json_path.read_text())
    assert obj["verdict"] == report.verdict
    assert obj["seed"] == 42
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("outcome,")
    assert len(lines) == 1 + len(report.outcomes)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=0, seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         mode="banana")
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         prepare=PreparationSpec(path=7))
    with pytest.raises(ConfigError):
        # layer 1 (zero-based 0) has no detectors
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         postselect=parse_postselect_tokens(["L1:N"]))


def test_junk_invariance_on_one_scenario():
    base = dict(circuit=scenario("mz-3"), shots=30000, seed=77)
    rep_zero = run_experiment(ExperimentConfig(
        prepare=PreparationSpec(path=0, junk="zero"), **base))
    rep_disk = run_experiment(ExperimentConfig(
        prepare=PreparationSpec(path=0, junk="disk"), **base))
    assert rep_zero.passed and rep_disk.passed
    f0 = {o.key: o.frequency for o in rep_zero.outcomes}
    f1 = {o.key: o.frequency for o in rep_disk.outcomes}
    for key in set(f0) | set(f1):
        p = {o.key: o.probability for o in rep_zero.outcomes}.get(key, 0.0)
        sigma = math.sqrt(p * (1 - p) / 30000)
        assert abs(f0.get(key, 0.0) - f1.get(key, 0.0)) <= \
            5.0 * math.sqrt(2.0) * max(sigma, 1e-9)
