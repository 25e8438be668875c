"""Unitary compilation and reconstruction."""

import numpy as np
import pytest

from interfersim.circuits import BeamSplitter, Circuit, Detector, Layer, PhaseShifter
from interfersim.compiler import (
    DetectorInCircuitError,
    NonUnitaryError,
    assert_unitary,
    haar_unitary,
    ray_deviation,
    reck_decompose,
    reconstruct_unitary,
)
from interfersim.quantum import beamsplitter_matrix


@pytest.mark.parametrize("n", [1, 2, 4])
def test_identity_compiles_to_empty_circuit(n):
    circuit = reck_decompose(np.eye(n))
    assert circuit.width == n
    assert circuit.layers == ()


def test_global_phase_discarded():
    circuit = reck_decompose(np.exp(0.7j) * np.eye(3))
    assert circuit.layers == ()


@pytest.mark.parametrize("refl", [0.5, 0.2, 0.9])
def test_coupler_matrix_is_fixed_point(refl):
    circuit = reck_decompose(beamsplitter_matrix(refl))
    gates = [g for layer in circuit.layers for g in layer.gates]
    assert gates == [BeamSplitter(0, 1, refl)]


def test_reconstruct_empty_is_identity():
    assert np.array_equal(reconstruct_unitary(Circuit(2)), np.eye(2))


def test_reconstruct_single_shifter():
    circuit = Circuit(2, [Layer([PhaseShifter(0, 0.9)])])
    assert np.allclose(reconstruct_unitary(circuit),
                       np.diag([np.exp(0.9j), 1.0]), atol=1e-15)


def test_reconstruct_two_splitters_columns_normalized():
    layer = Layer([BeamSplitter(0, 1, 0.5)])
    circuit = Circuit(2, [layer, layer])
    u = reconstruct_unitary(circuit)
    expected = beamsplitter_matrix(0.5) @ beamsplitter_matrix(0.5)
    assert np.allclose(u, expected, atol=1e-15)
    assert np.allclose(np.sum(np.abs(u) ** 2, axis=0), [1, 1], atol=1e-12)


def test_reconstruct_rejects_detectors():
    circuit = Circuit(2, [Layer([Detector(0)])])
    with pytest.raises(DetectorInCircuitError):
        reconstruct_unitary(circuit)


def test_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        reck_decompose(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(NonUnitaryError):
        assert_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_random_unitaries(n):
    gen = np.random.default_rng(1000 + n)
    for _ in range(10):
        u = haar_unitary(n, gen)
        circuit = reck_decompose(u)
        assert ray_deviation(reconstruct_unitary(circuit), u) < 1e-9
        splitters = circuit.count_gates(BeamSplitter)
        assert splitters <= n * (n - 1) // 2


def test_compiled_circuit_validates():
    gen = np.random.default_rng(5)
    circuit = reck_decompose(haar_unitary(5, gen), name="probe")
    assert circuit.name == "probe"
    Circuit(circuit.width, circuit.layers)  # validates every layer again


def test_haar_unitary_is_unitary():
    gen = np.random.default_rng(6)
    for n in (2, 5):
        u = haar_unitary(n, gen)
        assert float(np.max(np.abs(u.conj().T @ u - np.eye(n)))) < 1e-12


def test_ray_deviation_aligns_phase():
    gen = np.random.default_rng(7)
    u = haar_unitary(3, gen)
    assert ray_deviation(np.exp(1.3j) * u, u) < 1e-12
    assert ray_deviation(u, np.eye(3)) > 0.1
