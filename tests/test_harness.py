"""Comparison harness: statistics, verdicts, reports, reproducibility."""

import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc
from scipy.stats import binom

import interfersim
from interfersim import ensemble, harness, quantum
from interfersim.circuits import serialize_circuit
from interfersim.cli import _quantum_sample_report, main
from interfersim.harness import (
    CI_ALPHA,
    OUTCOME_COLUMNS,
    ChiSquareResult,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    OutcomeStat,
    PreparationSpec,
    binomial_at_least,
    binomial_at_most,
    chi_square_goodness,
    run_experiment,
    _within_bands,
    total_variation,
)
from interfersim.ensemble import run_ensemble
from interfersim.prepare import prepare_ensemble
from interfersim.quantum import QuantumState, exact_outcome_distribution
from interfersim.records import parse_event_token
from interfersim.scenarios import (elitzur_vaidman, export_scenario, mach_zehnder,
                                   random_circuit, scenario)


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


@pytest.mark.parametrize("counts, expected, dof", [
    ({"a": 520, "b": 480}, {"a": 0.5, "b": 0.5}, 1),
    ({"a": 310, "b": 350, "c": 340}, {"a": 0.3, "b": 0.35, "c": 0.35}, 2),
    ({k: 100 + 7 * i for i, k in enumerate("abcdef")},
     {k: 1 / 6 for k in "abcdef"}, 5),
    ({"a": 970, "b": 9, "c": 4, "d": 17}, {"a": 0.975, "b": 0.005, "c": 0.005,
                                           "d": 0.015}, 2),  # b, c pooled
], ids=["dof1", "dof2", "dof5", "pooled"])
def test_chi_square_tail_bits(counts, expected, dof):
    """The p-value is the regularized upper incomplete gamma, bit for bit."""
    res = chi_square_goodness(counts, expected)
    assert res.dof == dof
    assert res.statistic > 0.0
    assert float.hex(res.p_value) == \
        float.hex(float(gammaincc(dof / 2, res.statistic / 2)))


def scalar_band(count, probability, kept):
    """The per-outcome band rule, one scipy call per tail and outcome."""
    clamped = min(max(probability, 0.0), 1.0)
    sigma = math.sqrt(clamped * (1.0 - clamped) / kept)
    if sigma == 0.0:
        return 0.0, abs(count / kept - probability) <= 1e-9
    if count >= clamped * kept:
        tail = float(binom.sf(count - 1, kept, clamped))
    else:
        tail = float(binom.cdf(count, kept, clamped))
    return sigma, min(1.0, 2.0 * tail) >= CI_ALPHA


def test_within_bands_match_scalar_rule():
    gen = np.random.default_rng(8)
    kept = 1000
    probs = list(10.0 ** gen.uniform(-9, 0, 3000))
    counts = [int(gen.binomial(kept, p)) for p in probs]
    # Far outside the band both ways, the edges, and degenerate probabilities.
    probs += [0.5, 0.5, 1e-3, 0.3, 1.0, 1.0, 1.0 + 2e-16, 1e-300]
    counts += [400, 600, 9, 0, kept, kept - 1, kept, 0]
    keys = [f"o{i}" for i in range(len(probs))]
    observed = {key: n for key, n in zip(keys, counts) if n}  # unobserved: 0
    bands = _within_bands(observed, dict(zip(keys, probs)), kept)
    assert list(bands.values()) == [scalar_band(n, p, kept)
                                    for n, p in zip(counts, probs)]
    assert all(type(sigma) is float and type(ok) is bool
               for sigma, ok in bands.values())
    flags = [ok for _, ok in bands.values()]
    assert flags[-8:] == [False, False, True, False, True, False, True, True]
    assert 0 < flags.count(False)


def _tail_cases():
    gen = np.random.default_rng(17)
    for kept in (1, 2, 7, 1000, 100_000, *gen.integers(3, 10**6, 20).tolist()):
        n = np.concatenate([[0, 1, kept - 1, kept],
                            gen.integers(0, kept + 1, 200)])
        # the bands clamp enumeration's 1+eps to 1
        p = np.concatenate([[0.0, 1.0, min(1.0 + 2e-16, 1.0), 1e-300, 0.5],
                            10.0 ** gen.uniform(-12, 0, 199)])
        yield kept, n, p


@pytest.mark.parametrize("kept, n, p", _tail_cases())
def test_binomial_tails_match_scipy_stats(kept, n, p):
    # every (count, probability) pair of the grid, the edges among them:
    # count 0 and kept, kept = 1, p in {0, 1, clamped 1+eps, 1e-300}
    n, p = (a.ravel() for a in np.meshgrid(n, p))
    hexes = lambda a: [float.hex(x) for x in a.tolist()]
    assert hexes(binomial_at_least(n, kept, p)) == hexes(binom.sf(n - 1, kept, p))
    # the lower tail reads 1 - p, whose rounding moves p by up to 2**-53:
    # a relative error of up to kept * 2**-53 on the tail
    at_most, reference = binomial_at_most(n, kept, p), binom.cdf(n, kept, p)
    np.testing.assert_allclose(at_most, reference, rtol=kept * 2.0 ** -52,
                               atol=0.0)
    certain = (n == kept) | (p == 0.0) | (p == 1.0)  # no rounding of 1 - p
    assert hexes(at_most[certain]) == hexes(reference[certain])


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


def test_compare_probabilities_sum_to_one():
    report = run_experiment(mz_config())
    assert report.preselection_shots == report.kept_shots == 20000
    assert sum(o.count for o in report.outcomes) == 20000
    total = sum(o.probability for o in report.outcomes)
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ConfigError, match="unknown mode 'quantum-exact'"):
        mz_config(mode="quantum-exact")


def test_postselected_bomb_test():
    config = ExperimentConfig(circuit=elitzur_vaidman(),
                              prepare=PreparationSpec(path=0),
                              shots=40000, seed=9,
                              postselect=(parse_event_token("L2:N"),))
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


def test_outcome_tables_build_no_outcome_record(monkeypatch):
    # the enumerator and the ensemble tally key their rows from suffixes
    # built once per outcome, and close each key once: per leaf and per
    # group, however many shots or tallies read it
    config = ExperimentConfig(circuit=scenario("zeno-8"), shots=3000, seed=5,
                              postselect=((1, None),))
    expected = run_experiment(config).to_json()
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def count(*args):
            calls[module.__name__, name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, count)

    for module in (quantum, ensemble):
        for name in ("event_suffix", "record_key"):
            counted(module, name)
    assert run_experiment(config).to_json() == expected
    circuit = config.circuit
    outcomes = sum(1 + len(circuit.layers[k].detector_paths())
                   for k in circuit.detector_layers())
    leaves = len(exact_outcome_distribution(
        circuit, QuantumState.basis(0, circuit.width)).probabilities)
    assert calls["interfersim.quantum", "event_suffix"] == 2 * outcomes
    assert calls["interfersim.quantum", "record_key"] == 2 * leaves
    calls.clear()
    result = run_ensemble(circuit, prepare_ensemble(0, 3000, 5))
    for _ in range(2):
        counts = result.counts()
        assert Counter(map(result.record_for_shot, range(3000))) == counts
    assert calls["interfersim.ensemble", "record_key"] == len(counts)
    assert calls["interfersim.ensemble", "event_suffix"] <= outcomes


def test_report_files(tmp_path):
    reports = [run_experiment(mz_config(shots=5000, mode=mode))
               for mode in ("compare", "ontic-only")]
    reports.append(_quantum_sample_report(mz_config(shots=5000)))
    for report in reports:
        json_path, csv_path = report.save(tmp_path / report.mode)
        obj = json.loads(json_path.read_text())
        assert obj["mode"] == report.mode
        assert obj["verdict"] == report.verdict
        assert obj["seed"] == 42
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(OUTCOME_COLUMNS)
        assert len(rows) == 1 + len(report.outcomes) == 1 + len(obj["outcomes"])
        # each report.json row is its summary.csv row, column for column
        for row, json_row in zip(rows[1:], obj["outcomes"]):
            assert sorted(json_row) == sorted(OUTCOME_COLUMNS)
            assert row == ["" if json_row[c] is None else str(json_row[c])
                           for c in OUTCOME_COLUMNS]


# cells that json writes in every form: -0.0, subnormals, huge ints, NaN, inf
_numbers = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                     st.floats(allow_nan=True, allow_infinity=True,
                               allow_subnormal=True),
                     st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                      math.nan, math.inf, -math.inf]))
# keys that need escaping: quotes, backslashes, control characters,
# non-ASCII and lone surrogates
_keys = st.text(alphabet=st.characters() | st.sampled_from(
    '"\\\n\t\x00\x1f\x7fé☃\U0001f600\ud800'))
_rows = st.lists(st.builds(OutcomeStat, _keys, _numbers, _numbers, _numbers,
                           _numbers, _numbers, _numbers), max_size=6)


@settings(max_examples=300, deadline=None)
@example(rows=[], name="", tvd=None, chi=None)
@example(rows=[OutcomeStat('L1:C1 "\\ é', 2 ** 70, -0.0, 5e-324, math.nan,
                           None, True),
               OutcomeStat("", None, math.inf, -math.inf, 1e308, False, False)],
         name="mz", tvd=math.nan, chi=None)
@given(rows=_rows, name=_keys, tvd=_numbers,
       chi=st.none() | st.builds(ChiSquareResult, _numbers, _numbers,
                                 st.integers(0, 9), st.integers(0, 9)))
def test_to_json_matches_json_dumps(rows, name, tvd, chi):
    """The row template of ``to_json`` writes the bytes of ``json.dumps``,
    for any rows, zero rows included."""
    report = ExperimentReport(
        seed=3, shots=100, mode="compare", circuit_name=name,
        prepare=PreparationSpec(), postselect=None, preselection_shots=100,
        kept_shots=100, outcomes=tuple(rows), total_variation=tvd,
        chi_square=chi, hard_fail_events=0, degenerate_relocations=0,
        congruence=None, verdict="pass")
    expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert report.to_json() == expected



@settings(max_examples=300, deadline=None)
@given(obj=st.recursive(_numbers | _keys, lambda inner: st.lists(
           inner, max_size=3) | st.dictionaries(_keys, inner, max_size=3),
           max_leaves=12),
       depth=st.integers(0, 3))
def test_nested_matches_json_dumps(obj, depth):
    """``_nested`` writes the bytes of the indenting ``json.dumps``, every
    line after the first ``depth`` levels deeper."""
    assert harness._nested(obj, depth) == json.dumps(
        obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)

def test_to_json_leaves_no_reference_cycles():
    # the header goes through _nested, not the indenting json.dumps, whose
    # pure-Python encoder left a cycle per call (3,300 objects per 100)
    report = run_experiment(mz_config(circuit=scenario("zeno-8"), shots=2000,
                                      seed=3, trace=True,
                                      postselect=((1, None),)))
    assert report.congruence and report.chi_square and report.postselect
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            report.to_json()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=0, seed=0)
    for cap in (0, -3):
        with pytest.raises(ConfigError):
            ExperimentConfig(circuit=mach_zehnder(0.1), branch_cap=cap)
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         mode="banana")
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         prepare=PreparationSpec(path=7))
    with pytest.raises(ConfigError):
        # layer 1 (zero-based 0) has no detectors
        ExperimentConfig(circuit=mach_zehnder(0.1), shots=10, seed=0,
                         postselect=(parse_event_token("L1:N"),))


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


def test_traced_experiment_prepares_once(monkeypatch):
    # one ensemble run, without junk, and one materialised preparation, the
    # replay's: the junk is drawn once
    materialise, ensemble = harness.PreparedEnsemble.amplitudes, harness.run_ensemble
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(harness.PreparedEnsemble, "amplitudes",
                        counted("amplitudes", materialise))
    monkeypatch.setattr(harness, "run_ensemble", counted("run", ensemble))
    report = run_experiment(ExperimentConfig(
        circuit=scenario("mz-3"), prepare=PreparationSpec(path=0, junk="disk"),
        shots=50, seed=5, mode="ontic-only", trace=True))
    assert calls == ["run", "amplitudes"]
    assert report.congruence["violations"] == 0


# -- post-selected report bytes -----------------------------------------------

def _postselect_case(name, tmp_path):
    """A post-selected case: a circuit file and its ``--postselect`` tokens."""
    path = tmp_path / f"{name}.circ"
    if name == "elitzur-vaidman":
        export_scenario(name, path)
        return str(path), ["L2:N"]
    if name == "zeno-8":
        export_scenario(name, path)
        return str(path), [f"L{k}:N" for k in range(2, 15, 2)]
    # detector layers 2, 3, 4, 7, 8: a click at layer 2, then no click at 4
    gen = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    path.write_text(serialize_circuit(random_circuit(4, 8, gen, name=name)))
    return str(path), ["L2:C1", "L4:N"]


# sha256 of (report.json, summary.csv), 3000 shots under seed 11
_POSTSELECTED_DIGESTS = {
    ('elitzur-vaidman', 'compare'):
        ('fb3f97b58ae1f291600535d84e5ab06a5c0c3eb26421b0a3c66247b6362f51ea',
         'ee794186031e075bea8ae1e3807c035bbeeabd940d69d6fc1e3b8879e181976f'),
    ('elitzur-vaidman', 'run'):
        ('19741db2bcee5e64255a711af927b8a967709627721d86c23d1a61d487e886a9',
         'eaa3d2890c4720942bc0b44edeb46a844c3776c8cfa1ee4f960eb7f0299dcf7f'),
    ('elitzur-vaidman', 'run --engine quantum'):
        ('7da04459ae46c7b0830c0e92300d646f5fc81e3c31948fc6e1053595bc726ae6',
         '9709b610a246546c2fe2749b10df3a58cd1051f3537aa805c946c3ce367716f4'),
    ('zeno-8', 'compare'):
        ('a9f8e14eebacf8645ade403d538220157a5f3536c538144be73b944f51eb5deb',
         'ccf57cc8c61cfa457a817a80d5fb50d70e262cb0578365ef6629495e1bb7f439'),
    ('zeno-8', 'run'):
        ('13f4672a93d0e105c695f1f56ba898c9c8ca88a553ce48caaba6dc09b16ccb2c',
         'b44b50a7e0177687f0041b2eb8f97d86c1f322f1594e97fbe2adea4fa3554a9c'),
    ('zeno-8', 'run --engine quantum'):
        ('0389a4a151f595fa588774e9b7803e17b312bd6ba53f68a9ccb6ce5213866604',
         '85dc3db0d9f0d4237ff1653953d0953c4368bc87e826d6b96c0431d3911799d9'),
    ('random4', 'compare'):
        ('c054a9c1a10f5c1fe032ddc4041e1fc0a16ad15182694418824d00253357a526',
         '61679a608890880c75bc514197865fdb347333bc286cbeb064fada92e410b99f'),
    ('random4', 'run'):
        ('7ccfbca264f6d64da150ad9b004adf82a3d6210a7c6814d4e0683221585b2438',
         '9ff6d8a1a19123c35444da9ad425001c5d312fb3f1f8b2ef4761c045e0fae28f'),
    ('random4', 'run --engine quantum'):
        ('66d1aafb2bfc95a01e451718e128b140717433daa4172b26c201eefc3968f54c',
         '585b1b4415a4c4f71b3fd5808921f11bbbbf35685ff9a3977d45edbbd9b4adf6'),
}


@pytest.mark.parametrize("command", ["compare", "run", "run --engine quantum"])
@pytest.mark.parametrize("name", ["elitzur-vaidman", "zeno-8", "random4"])
def test_postselected_report_bytes(tmp_path, name, command):
    """Post-selected reports of every engine keep their bytes."""
    circuit, tokens = _postselect_case(name, tmp_path)
    out = tmp_path / "out"
    code = main([*command.split()[:1], circuit, *command.split()[1:],
                 "--shots", "3000", "--seed", "11", "--postselect", *tokens,
                 "--out", str(out)])
    assert code in (0, 1)
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("report.json", "summary.csv"))
    assert digests == _POSTSELECTED_DIGESTS[name, command]
