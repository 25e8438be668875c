"""The stochastic engine's exact record distribution, without sampling,
against the quantum engine's.

The field of a run is a function of its record prefix, and only the
particle position differs between the runs that share one. So the oracle
below holds, per record prefix, the group field and a probability mass per
particle position, and steps them with the scalar gate rules of
:mod:`interfersim.ontic` (``_age``, ``_phase``, ``_detect``, ``_split``). A
splitter moves the mass on its pair with the relocation chance that
``_split`` itself computes: the draw it is handed records the threshold it
is compared with, so the oracle restates no gate rule. A detector layer
splits a prefix by where the particle stands. The result must equal
:func:`interfersim.quantum.exact_outcome_distribution` key by key, within
:data:`TOL`, with no sampling noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfersim.circuits import Detector, PhaseShifter
from interfersim.ensemble import run_ensemble
from interfersim.ontic import ZERO_LEVEL, _age, _detect, _phase, _split
from interfersim.prepare import prepare_ensemble, quantum_init
from interfersim.quantum import exact_outcome_distribution, sum_in_order
from interfersim.records import event_suffix, record_key
from interfersim.scenarios import available_scenarios, random_circuit, scenario

# Largest difference allowed between the two engines' probabilities of one
# record. The enumerator drops branches of probability at most 1e-12, so a
# record it lacks may hold up to that much here; both sides otherwise round
# differently only in their last bits.
TOL = 1e-11


class _ChanceProbe:
    """A uniform draw for ``_split``: it keeps the relocation chance it is
    compared with and moves the particle to the splitter's first path."""

    chance = None

    def __lt__(self, chance):
        self.chance = chance
        return True


def ontic_record_distribution(circuit, path):
    """Exact probability of every record of positive probability for the
    particle prepared in ``path``: record key -> probability."""
    width = circuit.width
    u, tau, mass = [0j] * width, [ZERO_LEVEL] * width, [0.0] * width
    u[path], tau[path], mass[path] = 1 + 0j, 0, 1.0
    prefixes = [("", u, tau, mass)]
    for layer_idx, (layer, partition) in enumerate(zip(circuit.layers,
                                                       circuit.partitions())):
        grown = []
        for key, u, tau, mass in prefixes:
            u, tau, mass = list(u), list(tau), list(mass)
            for j in partition.free:
                tau[j] = _age(tau[j])
            detectors = []
            for gate in layer.gates:
                if isinstance(gate, PhaseShifter):
                    _phase(u, tau, gate.path, gate.omega)
                elif isinstance(gate, Detector):
                    detectors.append(gate.path)
                else:
                    probe = _ChanceProbe()
                    _split(u, tau, gate.s, gate.s, gate.t, gate.reflectivity,
                           probe, None)
                    on_pair = mass[gate.s] + mass[gate.t]
                    mass[gate.s] = on_pair * probe.chance
                    mass[gate.t] = on_pair * (1.0 - probe.chance)
            if not detectors:
                grown.append((key, u, tau, mass))
                continue
            for clicked in (None, *detectors):
                child_u, child_tau = list(u), list(tau)
                for j in detectors:
                    _detect(child_u, child_tau,
                            -1 if clicked is None else clicked, j)
                child_mass = [0.0] * width
                for j in ([clicked] if clicked is not None else
                          [j for j in range(width) if j not in detectors]):
                    child_mass[j] = mass[j]
                if any(child_mass):
                    grown.append((key + event_suffix(layer_idx, clicked),
                                  child_u, child_tau, child_mass))
        prefixes = grown
    return {record_key(key): sum_in_order(mass)
            for key, _, _, mass in prefixes}


def assert_engines_agree(circuit, path):
    oracle = ontic_record_distribution(circuit, path)
    exact = exact_outcome_distribution(
        circuit, quantum_init(path, circuit.width)).probabilities
    worst = max(abs(oracle.get(key, 0.0) - exact.get(key, 0.0))
                for key in oracle.keys() | exact.keys())
    assert worst <= TOL, (worst, oracle, dict(exact))
    return oracle


@pytest.mark.parametrize("name", available_scenarios())
def test_ontic_oracle_equals_quantum_on_scenarios(name):
    circuit = scenario(name)
    for path in range(circuit.width):
        assert_engines_agree(circuit, path)


@settings(max_examples=120, deadline=None)
@given(width=st.integers(2, 6), depth=st.integers(1, 14),
       p_detector=st.sampled_from([0.0, 0.15, 0.3]),
       circuit_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_ontic_oracle_equals_quantum_on_random_circuits(width, depth, p_detector,
                                                        circuit_seed, seed, data):
    """The two engines give every record the same probability, and every
    record a sampled ensemble reaches has positive probability here."""
    circuit = random_circuit(width, depth, np.random.default_rng(circuit_seed),
                             p_detector=p_detector)
    path = data.draw(st.integers(0, width - 1), label="path")
    oracle = assert_engines_agree(circuit, path)
    counts = run_ensemble(circuit, prepare_ensemble(path, width, 200, seed)
                          ).counts()
    assert counts.keys() <= oracle.keys()
