"""Acceptance criteria for the whole artifact.

One test per criterion; each prints a PASS line with its measured numbers
once its assertions hold (run pytest with ``-s`` to see them stream).
"""

import math
import time

import numpy as np
import pytest

from interfersim.circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    Layer,
    PhaseShifter,
)
from interfersim.cli import main
from interfersim.compiler import (
    haar_unitary,
    ray_deviation,
    reck_decompose,
    reconstruct_unitary,
)
from interfersim.ensemble import run_ensemble
from interfersim.harness import (
    ExperimentConfig,
    PreparationSpec,
    run_experiment,
)
from interfersim.labels import check_delta_commutation
from interfersim.ontic import (
    ZERO_LEVEL,
    OnticState,
    gate_beamsplitter,
    gate_detector,
    gate_free,
    gate_phase,
)
from interfersim.prepare import prepare_ensemble
from interfersim.records import parse_event_token
from interfersim.scenarios import (
    available_scenarios,
    compare_suite,
    export_scenario,
    mach_zehnder,
    random_circuit,
    scenario,
)

SHOTS = 100_000


def report_pass(number, text):
    print(f"\nPASS criterion {number}: {text}")


def test_criterion_1_mach_zehnder_law():
    """Fringe law: first-detector click frequency follows sin(w/2)**2."""
    worst_pull = 0.0
    worst_exact = 0.0
    slowest = 0.0
    for k in range(9):
        omega = k * math.pi / 8.0
        expected = math.sin(omega / 2.0) ** 2
        config = ExperimentConfig(circuit=mach_zehnder(omega),
                                  prepare=PreparationSpec(path=0, junk="disk"),
                                  shots=SHOTS, seed=1000 + k)
        report = run_experiment(config)
        assert report.runtime_seconds < 5.0
        slowest = max(slowest, report.runtime_seconds)
        freq = {o.key: o.frequency for o in report.outcomes}.get("L4:C1", 0.0)
        exact = {o.key: o.probability for o in report.outcomes}.get("L4:C1", 0.0)
        worst_exact = max(worst_exact, abs(exact - expected))
        assert abs(exact - expected) <= 1e-12
        sigma = math.sqrt(expected * (1.0 - expected) / SHOTS)
        if sigma == 0.0:
            assert freq == expected
        else:
            pull = abs(freq - expected) / sigma
            worst_pull = max(worst_pull, pull)
            assert pull <= 5.0
    report_pass(1, f"MZ law over 9 phases at {SHOTS} shots: worst pull "
                   f"{worst_pull:.2f} sigma, exact dev {worst_exact:.1e}, "
                   f"slowest {slowest:.2f}s")


def test_criterion_2_trajectory_congruence():
    """Every traced shot follows the predicted label at every layer."""
    targets = [(name, scenario(name)) for name in available_scenarios()]
    gen = np.random.default_rng(2024)
    for width in (4, 5, 6):
        for rep in range(2):
            circuit = random_circuit(width, 12, gen,
                                     name=f"wide{width}-{rep}")
            targets.append((circuit.name, circuit))
    per_target = math.ceil(10_000 / len(targets))
    total = 0
    worst = 0.0
    for idx, (name, circuit) in enumerate(targets):
        config = ExperimentConfig(circuit=circuit,
                                  prepare=PreparationSpec(path=0, junk="disk"),
                                  shots=per_target, seed=3000 + idx,
                                  mode="ontic-only", trace=True)
        report = run_experiment(config)
        summary = report.congruence
        assert summary["violations"] == 0, name
        assert summary["max_deviation"] < 1e-9, name
        assert summary["degenerate_relocations"] == 0, name
        worst = max(worst, summary["max_deviation"])
        total += summary["shots"]
    assert total >= 10_000
    report_pass(2, f"congruence on {total} traced shots over {len(targets)} "
                   f"circuits: max deviation {worst:.2e}, 0 violations")


def test_criterion_3_collapse_imitation():
    """Post-selected bomb-test distribution matches the no-click branch."""
    config = ExperimentConfig(circuit=scenario("elitzur-vaidman"),
                              prepare=PreparationSpec(path=0, junk="disk"),
                              shots=SHOTS, seed=5,
                              postselect=(parse_event_token("L2:N"),))
    report = run_experiment(config)
    assert report.hard_fail_events == 0
    assert report.total_variation < 0.01
    assert report.passed
    probs = {o.key: o.probability for o in report.outcomes}
    assert probs["L2:N;L4:C1"] == pytest.approx(0.5, abs=1e-12)
    report_pass(3, f"bomb test, {report.kept_shots}/{SHOTS} shots kept: "
                   f"conditional TVD {report.total_variation:.4f}, "
                   f"0 impossible events")


def test_criterion_4_commutation_identity():
    """Projection/update identity holds entrywise at 1e-12 over 1e4 draws."""
    gen = np.random.default_rng(44)
    start = time.perf_counter()
    cases = {"both-weaker": 0, "tie-at-max": 0, "one-at-max": 0}
    done = 0
    while done < 10_000:
        width = int(gen.integers(2, 7))
        layer, taus = _random_commutation_config(width, gen)
        top = min(taus)  # lowest level = strongest field
        detectors = {g.path for g in layer.gates if isinstance(g, Detector)}
        free_max = any(taus[j] == top for j in range(width)
                       if j not in detectors)
        if top == ZERO_LEVEL or not free_max:
            continue
        for gate in layer.gates:
            if isinstance(gate, BeamSplitter):
                stronger, weaker = sorted((taus[gate.s], taus[gate.t]))
                if stronger > top:
                    cases["both-weaker"] += 1
                elif weaker == top:
                    cases["tie-at-max"] += 1
                elif stronger == top:
                    cases["one-at-max"] += 1
        assert check_delta_commutation(layer, taus, width)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert all(count > 100 for count in cases.values()), cases
    report_pass(4, f"commutation identity on {done} configurations in "
                   f"{elapsed:.1f}s; splitter cases {cases}")


def _random_commutation_config(width, gen):
    paths = list(gen.permutation(width))
    gates = []
    while paths:
        p = int(paths.pop())
        roll = gen.random()
        if roll < 0.45 and paths:
            gates.append(BeamSplitter(p, int(paths.pop()), float(gen.random())))
        elif roll < 0.65:
            gates.append(Detector(p))
        elif roll < 0.85:
            gates.append(PhaseShifter(p, float(gen.uniform(-math.pi, math.pi))))
    taus = tuple(ZERO_LEVEL if k == 3 else int(k)
                 for k in gen.integers(0, 4, size=width))
    return Layer(gates), taus


def test_criterion_5_compiler_round_trip_and_end_to_end():
    """Compiled circuits reproduce their unitary, in matrix and in clicks."""
    worst_matrix = 0.0
    worst_pull = 0.0
    checked_runs = 0
    for n in range(2, 7):
        gen = np.random.default_rng(7000 + n)
        for trial in range(100):
            u = haar_unitary(n, gen)
            circuit = reck_decompose(u)
            worst_matrix = max(worst_matrix,
                               ray_deviation(reconstruct_unitary(circuit), u))
            assert worst_matrix < 1e-9
            source = trial % n
            measured = Circuit(n, circuit.layers
                               + (Layer([Detector(j) for j in range(n)]),))
            config = ExperimentConfig(circuit=measured,
                                      prepare=PreparationSpec(path=source,
                                                              junk="disk"),
                                      shots=SHOTS, seed=8000 + 100 * n + trial)
            report = run_experiment(config)
            assert report.hard_fail_events == 0
            column = np.abs(u[:, source]) ** 2
            freqs = {o.key: o.frequency for o in report.outcomes}
            exacts = {o.key: o.probability for o in report.outcomes}
            layer_tag = measured.depth
            for j in range(n):
                key = f"L{layer_tag}:C{j + 1}"
                p = column[j]
                assert abs(exacts.get(key, 0.0) - p) < 1e-6
                sigma = math.sqrt(p * (1.0 - p) / SHOTS)
                gap = abs(freqs.get(key, 0.0) - p)
                if sigma == 0.0:
                    assert gap == 0.0
                else:
                    worst_pull = max(worst_pull, gap / sigma)
                    assert gap <= 5.0 * sigma
            checked_runs += 1
    report_pass(5, f"500 unitaries compiled (max matrix deviation "
                   f"{worst_matrix:.2e}); {checked_runs} end-to-end runs at "
                   f"{SHOTS} shots, worst pull {worst_pull:.2f} sigma")


def test_criterion_6_preparation_invariance():
    """Swapping junk samplers changes nothing observable."""
    reports = {}
    for junk in ("zero", "disk"):
        for config in compare_suite(shots=SHOTS, seed=60, junk=junk):
            report = run_experiment(config)
            assert report.passed, (config.circuit.name, junk, report.verdict)
            assert report.total_variation < 0.01
            assert report.hard_fail_events == 0
            reports[(config.circuit.name, junk)] = report
    for name in available_scenarios():
        rep0 = reports[(name, "zero")]
        rep1 = reports[(name, "disk")]
        prob = {o.key: o.probability for o in rep0.outcomes}
        f0 = {o.key: o.frequency for o in rep0.outcomes}
        f1 = {o.key: o.frequency for o in rep1.outcomes}
        band0 = {o.key: o.within_ci for o in rep0.outcomes}
        band1 = {o.key: o.within_ci for o in rep1.outcomes}
        for key in set(f0) | set(f1):
            p = min(max(prob.get(key, 0.0), 0.0), 1.0)
            sigma_joint = math.sqrt(2.0 * p * (1.0 - p) / SHOTS)
            gap = abs(f0.get(key, 0.0) - f1.get(key, 0.0))
            # two samples inside their exact bands around one probability
            # are jointly consistent where the normal band degrades
            individually_ok = band0.get(key, True) and band1.get(key, True)
            assert gap <= 5.0 * sigma_joint or individually_ok
    report_pass(6, f"compare suite passed with zero and disk junk on "
                   f"{len(available_scenarios())} scenarios; per-outcome "
                   f"differences within joint bands")


def test_criterion_7_exactness_invariants():
    """Dyadic closure and gate locality hold bit-for-bit, never by tolerance."""
    gen = np.random.default_rng(70)
    for _ in range(2000):
        width = int(gen.integers(2, 7))
        u = gen.random(width) * np.exp(2j * math.pi * gen.random(width))
        tau = tuple(ZERO_LEVEL if k == 5 else int(k)
                    for k in gen.integers(0, 6, size=width))
        state = OnticState(int(gen.integers(width)), u, tau)
        j, k = (int(x) for x in gen.choice(width, size=2, replace=False))
        for out, touched in (
            (gate_free(state, j), {j}),
            (gate_phase(state, j, float(gen.uniform(-3, 3))), {j}),
            (gate_detector(state, j)[1], {j}),
            (gate_beamsplitter(state, j, k, float(gen.random()), gen), {j, k}),
        ):
            for p in range(width):
                assert out.tau[p] == ZERO_LEVEL or 0 <= out.tau[p] < ZERO_LEVEL
                if p not in touched:
                    assert out.u[p] == state.u[p]
                    assert out.tau[p] == state.tau[p]
            if state.q not in touched:
                assert out.q == state.q
    degenerate = 0
    for name in available_scenarios():
        circuit = scenario(name)
        result = run_ensemble(circuit, prepare_ensemble(0, circuit.width,
                                                        20_000, 71, "disk"))
        degenerate += result.degenerate_relocations
    assert degenerate == 0
    report_pass(7, "dyadic closure and locality exact over 8000 gate "
                   "applications and 14 checked ensembles; 0 degenerate "
                   "relocations")


def test_criterion_8_reproducibility(tmp_path):
    """Fixed-seed compare runs leave byte-identical reports."""
    circ_path = tmp_path / "mz.circ"
    export_scenario("mz-3", circ_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["compare", str(circ_path), "--shots", str(SHOTS),
                     "--seed", "99", "--out", str(out)])
        assert code == 0
    json_a = (out_a / "report.json").read_bytes()
    json_b = (out_b / "report.json").read_bytes()
    csv_a = (out_a / "summary.csv").read_bytes()
    csv_b = (out_b / "summary.csv").read_bytes()
    assert json_a == json_b
    assert csv_a == csv_b
    report_pass(8, f"two {SHOTS}-shot compare runs: report.json and "
                   f"summary.csv byte-identical")
