"""Scenario library files and factories."""

import math
from importlib import resources

import numpy as np
import pytest

from interfersim.circuits import Detector, serialize_circuit
from interfersim.quantum import exact_outcome_distribution
from interfersim.prepare import quantum_init
from interfersim.scenarios import (
    available_scenarios,
    build_scenario,
    compare_suite,
    export_scenario,
    random_circuit,
    scenario,
    zeno_chain,
)


def test_library_lists_all_families():
    names = available_scenarios()
    assert len(names) == 14
    assert {"mz-0", "mz-8", "elitzur-vaidman", "zeno-8", "random3-b"} <= set(names)


@pytest.mark.parametrize("name", available_scenarios())
def test_files_match_factories(name):
    assert scenario(name) == build_scenario(name)


@pytest.mark.parametrize("name", available_scenarios())
def test_files_are_serializer_bytes(name):
    """Each shipped file is the serializer's output for its factory, byte for
    byte: benchmark digests key on input bytes, and compiled circuits reach
    ``compare`` through the same serializer."""
    text = resources.files("interfersim").joinpath(f"data/{name}.circ").read_text()
    assert text == serialize_circuit(build_scenario(name))


@pytest.mark.parametrize("k", range(9))
def test_mz_sweep_phases(k):
    circuit = scenario(f"mz-{k}")
    omega = circuit.layers[1].gates[0].omega
    assert omega == pytest.approx(k * math.pi / 8.0, abs=1e-15)


def test_zeno_chain_structure():
    circuit = zeno_chain(8)
    assert circuit.depth == 17
    refl = circuit.layers[0].gates[0].reflectivity
    assert refl == pytest.approx(math.cos(math.pi / 16.0) ** 2, abs=1e-15)
    # without the detectors the chain is a full swap
    survival = exact_outcome_distribution(circuit, quantum_init(0, 2)).probabilities
    keep = sum(p for key, p in survival.items() if key.endswith("C1")
               and key.count("N") == 8)
    assert keep == pytest.approx(refl ** 8, abs=1e-12)


def test_random_circuits_have_terminal_detectors():
    for tag in "abc":
        circuit = scenario(f"random3-{tag}")
        assert circuit.width == 3
        assert circuit.depth <= 8
        last = circuit.layers[-1]
        assert sorted(g.path for g in last.gates if isinstance(g, Detector)) \
            == [0, 1, 2]


def test_random_circuit_generator_seeded():
    a = random_circuit(3, 6, np.random.default_rng(5))
    b = random_circuit(3, 6, np.random.default_rng(5))
    assert a == b


def test_export_scenario(tmp_path):
    out = tmp_path / "mz.circ"
    export_scenario("mz-4", out)
    assert out.read_text().startswith("paths 2")


def test_unknown_scenario():
    with pytest.raises(KeyError, match="unknown scenario"):
        scenario("mz-99")


def test_compare_suite_configs():
    configs = compare_suite(shots=1000, seed=5, junk="disk")
    assert len(configs) == len(available_scenarios())
    assert all(c.shots == 1000 and c.seed == 5 for c in configs)
    assert all(c.prepare.junk == "disk" for c in configs)
