"""Reported floats do not depend on the interpreter's built-in ``sum``.

From Python 3.12 the built-in ``sum`` of floats compensates its rounding
(A. Neumaier, ZAMM 54, 39 (1974)), so it can return other bits than the
plain left-to-right sum of Python 3.10 and 3.11. The tests shadow ``sum``
in the modules that compute reported floats with the compensated sum and
require the same exact distributions and report bytes.
"""

import builtins
import math

import numpy as np
import pytest

from interfersim import harness, quantum
from interfersim.harness import ExperimentConfig, PreparationSpec, run_experiment
from interfersim.prepare import quantum_init
from interfersim.quantum import exact_outcome_distribution
from interfersim.scenarios import available_scenarios, random_circuit, scenario


def compensated_sum(iterable, start=0):
    """The built-in ``sum`` of Python 3.12+: ints exactly, floats with
    Neumaier's compensation."""
    items = list(iterable)
    if all(isinstance(x, int) for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def shadowed(monkeypatch):
    def shadow():
        for module in (quantum, harness):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    return shadow


def test_sum_in_order_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; the compensated sum keeps the 1.0
    assert quantum.sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert quantum.sum_in_order([]) == 0


def _exact_hex(circuit):
    dist = exact_outcome_distribution(circuit, quantum_init(0, circuit.width))
    return [(key, p.hex()) for key, p in dist.probabilities.items()]


def test_exact_distributions_independent_of_builtin_sum(shadowed):
    circuits = [random_circuit(8, 16, np.random.default_rng(i), p_detector=0.4)
                for i in range(40)]
    plain = [_exact_hex(c) for c in circuits]
    shadowed()
    assert [_exact_hex(c) for c in circuits] == plain


def _report_bytes(config, out):
    report = run_experiment(config)
    return tuple(path.read_bytes() for path in report.save(out))


def _configs():
    for name in available_scenarios():
        yield ExperimentConfig(circuit=scenario(name), shots=2000, seed=7)
    yield ExperimentConfig(circuit=scenario("elitzur-vaidman"), shots=2000,
                           seed=7, postselect=((1, None),))
    for i in range(3):
        circuit = random_circuit(8, 16, np.random.default_rng(i), p_detector=0.4)
        yield ExperimentConfig(circuit=circuit, shots=2000, seed=7,
                               prepare=PreparationSpec(path=3))


def test_report_bytes_independent_of_builtin_sum(shadowed, tmp_path):
    configs = list(_configs())
    plain = [_report_bytes(c, tmp_path / f"plain{i}") for i, c in enumerate(configs)]
    shadowed()
    assert [_report_bytes(c, tmp_path / f"shadowed{i}")
            for i, c in enumerate(configs)] == plain
