"""Compilation of arbitrary unitaries into beam-splitter circuits.

Any N x N unitary factors into at most N(N-1)/2 two-path operations plus a
final layer of phase shifters (the triangular scheme: working up from the
bottom row, each off-diagonal entry is zeroed by mixing its column into the
diagonal one). With the coupler convention used here, one elimination step
needs at most a single phase shifter in front of a single beam splitter:
the coupler's fixed i*sqrt(R) diagonal supplies the remaining phase freedom.
The global phase is discarded; compiled circuits reproduce the input as a
ray.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import BeamSplitter, Circuit, Detector, Layer, PhaseShifter
from .quantum import beamsplitter_matrix, unitary_part

UNITARY_TOL = 1e-9
_ZERO_TOL = 1e-13
_PHASE_TOL = 1e-12


class NonUnitaryError(ValueError):
    """Input matrix is not unitary within tolerance."""


class DetectorInCircuitError(ValueError):
    """A circuit containing detectors has no single unitary."""


def _wrap_angle(x: float) -> float:
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y < 0.0:
        y += 2.0 * math.pi
    return y - math.pi


def assert_unitary(matrix: np.ndarray) -> np.ndarray:
    """Validate and return the matrix as complex; raises NonUnitaryError."""
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise NonUnitaryError(f"expected a square matrix, got shape {u.shape}")
    gram = u.conj().T @ u
    dev = float(np.max(np.abs(gram - np.eye(u.shape[0]))))
    if not dev <= UNITARY_TOL:  # also rejects NaN entries
        raise NonUnitaryError(f"matrix deviates from unitarity by {dev:.3e}")
    return u


def reck_decompose(matrix: np.ndarray, name: str = "") -> Circuit:
    """Compile a unitary into a circuit of phase shifters and beam splitters.

    Emits one gate per layer: for each elimination an optional phase shifter
    on the column path followed by a beam splitter on (column, row), then
    one final layer holding the residual diagonal phases (relative to the
    first path, since states are rays). The compiled circuit's unitary
    ray-equals the input; an identity input compiles to an empty circuit.
    """
    v = assert_unitary(matrix).copy()
    n = v.shape[0]
    layers: list[Layer] = []
    for row in range(n - 1, 0, -1):
        for col in range(0, row):
            x = v[row, col]
            if abs(x) <= _ZERO_TOL:
                continue
            y = v[row, row]
            refl = abs(y) ** 2 / (abs(x) ** 2 + abs(y) ** 2)
            if abs(y) > _ZERO_TOL:
                pre = _wrap_angle(math.pi / 2 + np.angle(x) - np.angle(y))
            else:
                pre = 0.0
            block = beamsplitter_matrix(refl) @ np.diag(
                [np.exp(1j * pre), 1.0]).astype(np.complex128)
            pair = [col, row]
            v[:, pair] = v[:, pair] @ block.conj().T
            if abs(pre) > _PHASE_TOL:
                layers.append(Layer([PhaseShifter(col, pre)]))
            layers.append(Layer([BeamSplitter(col, row, float(refl))]))
    residual = np.angle(np.diag(v))
    residual = residual - residual[0]
    finals = [PhaseShifter(j, _wrap_angle(float(p)))
              for j, p in enumerate(residual)
              if abs(_wrap_angle(float(p))) > _PHASE_TOL]
    if finals:
        layers.append(Layer(finals))
    return Circuit(n, layers, name=name)


def reconstruct_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the layer unitaries in circuit order (first layer applied
    first). Raises :class:`DetectorInCircuitError` if any layer measures."""
    if any(isinstance(g, Detector) for layer in circuit.layers for g in layer.gates):
        raise DetectorInCircuitError("circuit contains detectors")
    u = np.eye(circuit.width, dtype=np.complex128)
    for layer in circuit.layers:
        u = unitary_part(layer, circuit.width) @ u
    return u


def ray_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise distance between two matrices after aligning the global
    phase of ``a`` to ``b``."""
    overlap = complex(np.trace(a.conj().T @ b))
    if abs(overlap) > 0.0:
        a = a * (overlap / abs(overlap))
    return float(np.max(np.abs(a - b)))


def haar_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR."""
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))
