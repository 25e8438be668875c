"""Dual-engine simulator for single-particle multi-path interferometric
circuits.

One engine is a standard quantum state-vector simulator with Born-rule
detector sampling and projective collapse; the other is a local stochastic
model that carries a definite particle position plus a classical field
(amplitude and strength) per path. The package also compiles arbitrary
unitaries to beam-splitter circuits and ships a harness that demonstrates
the two engines are operationally indistinguishable.
"""

from .circuits import (
    BeamSplitter,
    Circuit,
    CircuitError,
    Detector,
    Layer,
    LayerConflictError,
    ParseError,
    PhaseShifter,
    circuit_from_json,
    circuit_to_json,
    parse_circuit,
    parse_circuit_file,
    serialize_circuit,
    validate_layer,
)
from .compiler import (
    DetectorInCircuitError,
    NonUnitaryError,
    haar_unitary,
    ray_deviation,
    reck_decompose,
    reconstruct_unitary,
)
from .ensemble import EnsembleResult, run_ensemble
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    PreparationSpec,
    chi_square_goodness,
    run_experiment,
    run_traced,
    total_variation,
)
from .labels import (
    CongruenceReport,
    check_delta_commutation,
    dominant_strength,
    extract_label,
    predicted_label_update,
    verify_congruence,
)
from .ontic import (
    ZERO_LEVEL,
    OnticState,
    ShotDiagnostics,
    gate_beamsplitter,
    gate_detector,
    gate_free,
    gate_phase,
    run_ontic_shot,
    step_layer,
)
from .prepare import quantum_init, source_prepare
from .quantum import (
    BranchCapError,
    ImpossibleOutcomeError,
    OutcomeDistribution,
    QuantumState,
    RecordTree,
    exact_outcome_distribution,
    run_quantum_shot,
)
from .records import OutcomeRecord

__version__ = "0.1.0"
