"""Matched-experiment harness.

Runs an ensemble of stochastic-engine shots against the exact outcome
distribution of the quantum engine for the same circuit and preparation,
aggregates per-outcome statistics (frequencies, total variation distance,
Pearson chi-square with a regularized-incomplete-gamma tail, per-outcome
binomial bands) and renders a pass/fail verdict.

Reports persist as JSON plus a CSV summary table. The persisted JSON is
canonical: fixed key order and no volatile fields (wall-clock runtime is
kept on the in-memory report only), so a fixed seed reproduces the files
byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from scipy.special import gammaincc
from scipy.stats import binom as binom_dist

from . import rng as streams
from .circuits import BeamSplitter, Circuit
from .ensemble import EnsembleResult, run_ensemble
from .labels import ClassLabel, verify_congruence
from .ontic import levels_to_strengths, run_ontic_shot, OnticState, ShotDiagnostics
from .prepare import prepare_ensemble, quantum_init
from .quantum import exact_outcome_distribution
from .records import OutcomeRecord, parse_event_token

# Below this many (post-selection) shots no verdict is claimed.
MIN_VERDICT_SHOTS = 100
# Verdict thresholds: chi-square tail and per-outcome binomial band.
CHI_SQUARE_MIN_P = 1e-3
CI_SIGMA = 5.0
# Two-sided tail mass at CI_SIGMA for a normal deviate; the per-outcome
# band uses the exact binomial tail at this significance so it stays valid
# when the expected count is far below one (where the normal band is not).
CI_ALPHA = 5.733031438470704e-07
# Cells with expected count under this are pooled before the chi-square.
POOL_EXPECTED_MIN = 10.0


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class PreparationSpec:
    """How the initial ensemble is built: ``source`` or ``sieve`` mode,
    target path (zero-based), and the junk sampler for the leftover
    amplitudes."""

    mode: str = "source"
    path: int = 0
    junk: str = "zero"

    def __post_init__(self):
        if self.mode not in ("source", "sieve"):
            raise ConfigError(f"unknown preparation mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "path": self.path + 1, "junk": self.junk}


@dataclass(frozen=True)
class ExperimentConfig:
    """One matched experiment: circuit, preparation, shot budget, seed."""

    circuit: Circuit
    prepare: PreparationSpec = PreparationSpec()
    shots: int = 10000
    seed: int = 0
    mode: str = "compare"  # compare | ontic-only | quantum-exact
    postselect: tuple[tuple[int, int | None], ...] | None = None
    trace: bool = False
    branch_cap: int = 10 ** 6

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError("shots must be at least 1")
        if self.mode not in ("compare", "ontic-only", "quantum-exact"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0 <= self.prepare.path < self.circuit.width:
            raise ConfigError(
                f"preparation path {self.prepare.path + 1} out of range"
            )
        if self.postselect:
            detector_layers = set(self.circuit.detector_layers())
            for layer, _ in self.postselect:
                if layer not in detector_layers:
                    raise ConfigError(
                        f"cannot post-select on layer {layer + 1}: no detectors"
                    )


def parse_postselect_tokens(tokens: Iterable[str]
                            ) -> tuple[tuple[int, int | None], ...]:
    """Parse ``["L2:N", "L4:C1", ...]`` tokens into constraints."""
    return tuple(parse_event_token(token) for token in tokens)


def postselect_tokens(constraints: tuple[tuple[int, int | None], ...]) -> list[str]:
    out = []
    for layer, clicked in constraints:
        out.append(f"L{layer + 1}:N" if clicked is None
                   else f"L{layer + 1}:C{clicked + 1}")
    return out


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Half the L1 distance between two distributions over outcome keys."""
    keys = sorted(set(p) | set(q))  # a fixed order keeps the sum reproducible
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    impossible_count: int  # observations on zero-probability outcomes


def chi_square_goodness(counts: Mapping[str, int],
                        expected: Mapping[str, float],
                        pool_below: float = POOL_EXPECTED_MIN) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against expected
    probabilities.

    Outcomes with zero expected probability are pooled separately: any
    observation there is reported as ``impossible_count`` (an automatic
    fail for the verdict) and excluded from the statistic. Cells with
    expected count below ``pool_below`` are merged into one remainder cell
    so the chi-square approximation stays valid. The tail probability is
    the regularized upper incomplete gamma at ``dof/2``.
    """
    total = sum(counts.values())
    impossible = sum(n for key, n in counts.items()
                     if expected.get(key, 0.0) <= 0.0)
    cells: list[tuple[float, float]] = []
    small_obs = 0.0
    small_exp = 0.0
    for key, prob in expected.items():
        if prob <= 0.0:
            continue
        observed = float(counts.get(key, 0))
        expected_count = prob * total
        if expected_count < pool_below:
            small_obs += observed
            small_exp += expected_count
        else:
            cells.append((observed, expected_count))
    if small_exp > 0.0:
        cells.append((small_obs, small_exp))
    statistic = sum((obs - exp) ** 2 / exp for obs, exp in cells if exp > 0.0)
    dof = max(len(cells) - 1, 0)
    if dof == 0:
        p_value = 1.0 if statistic <= 1e-9 else 0.0
    else:
        p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    return ChiSquareResult(float(statistic), p_value, dof, int(impossible))


@dataclass(frozen=True)
class OutcomeStat:
    """One row of the per-outcome comparison table."""

    key: str
    count: int | None
    frequency: float | None
    probability: float | None
    sigma: float | None
    within_ci: bool | None
    impossible: bool

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.key,
            "count": self.count,
            "frequency": self.frequency,
            "probability": self.probability,
            "sigma": self.sigma,
            "within_ci": self.within_ci,
            "impossible": self.impossible,
        }


@dataclass
class ExperimentReport:
    """Everything a run produced; persists deterministically under a fixed
    seed (runtime stays in memory only)."""

    seed: int
    shots: int
    mode: str
    circuit_name: str
    prepare: PreparationSpec
    postselect: tuple[tuple[int, int | None], ...] | None
    preselection_shots: int
    kept_shots: int
    outcomes: tuple[OutcomeStat, ...]
    total_variation: float | None
    chi_square: ChiSquareResult | None
    hard_fail_events: int
    degenerate_relocations: int
    congruence: dict | None
    verdict: str  # pass | fail | no-verdict
    runtime_seconds: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "shots": self.shots,
            "mode": self.mode,
            "circuit": self.circuit_name,
            "prepare": self.prepare.to_json_dict(),
            "postselect": (postselect_tokens(self.postselect)
                           if self.postselect else None),
            "preselection_shots": self.preselection_shots,
            "kept_shots": self.kept_shots,
            "outcomes": [o.to_json_dict() for o in self.outcomes],
            "total_variation": self.total_variation,
            "chi_square": None if self.chi_square is None else {
                "statistic": self.chi_square.statistic,
                "p_value": self.chi_square.p_value,
                "dof": self.chi_square.dof,
                "impossible_count": self.chi_square.impossible_count,
            },
            "hard_fail_events": self.hard_fail_events,
            "degenerate_relocations": self.degenerate_relocations,
            "congruence": self.congruence,
            "verdict": self.verdict,
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, directory) -> tuple[Path, Path]:
        """Write ``report.json`` and ``summary.csv``; returns their paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / "report.json"
        csv_path = directory / "summary.csv"
        json_path.write_text(self.to_json(), encoding="utf-8")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outcome", "count", "frequency", "probability",
                             "sigma", "within_ci", "impossible"])
            for stat in self.outcomes:
                writer.writerow([stat.key, stat.count, stat.frequency,
                                 stat.probability, stat.sigma, stat.within_ci,
                                 stat.impossible])
        return json_path, csv_path


def _within_band(count: int, probability: float, kept: int) -> tuple[float, bool]:
    """Per-outcome acceptance band: the exact two-sided binomial tail of the
    observed count must not fall under the CI_SIGMA significance. Returns
    the normal-approximation sigma (for the report table) and the flag."""
    clamped = min(max(probability, 0.0), 1.0)  # enumeration rounding can leave 1+eps
    sigma = math.sqrt(clamped * (1.0 - clamped) / kept)
    expected = clamped * kept
    if sigma == 0.0:
        return 0.0, abs(count / kept - probability) <= 1e-9
    if count >= expected:
        tail = float(binom_dist.sf(count - 1, kept, clamped))
    else:
        tail = float(binom_dist.cdf(count, kept, clamped))
    return sigma, min(1.0, 2.0 * tail) >= CI_ALPHA


def traced_shots(config: ExperimentConfig,
                 diagnostics: ShotDiagnostics | None = None,
                 ) -> Iterator[tuple[int, OutcomeRecord, list[OnticState]]]:
    """Replay every shot of a config through the single-shot engine.

    Yields ``(shot, record, trajectory)`` in shot order; each shot starts
    from its row of the prepared ensemble and draws from its own slice of
    the stream, so it reproduces the shot of the vectorised run.
    """
    circuit = config.circuit
    init_q, init_u, init_levels = prepare_ensemble(
        config.prepare.mode, config.prepare.path, circuit.width,
        config.shots, config.seed, config.prepare.junk)
    n_draws = circuit.count_gates(BeamSplitter)
    for shot in range(config.shots):
        init = OnticState(int(init_q[shot]), init_u[shot],
                          levels_to_strengths(init_levels[shot]))
        gen = streams.shot_generator(config.seed, streams.ONTIC_SHOTS, shot, n_draws)
        record, trajectory = run_ontic_shot(circuit, init, gen, trace=True,
                                            diagnostics=diagnostics)
        yield shot, record, trajectory


def run_traced(config: ExperimentConfig,
               cross_check: EnsembleResult | None = None,
               ) -> tuple[dict, list[dict]]:
    """Replay every shot with tracing (:func:`traced_shots`) and verify
    label congruence.

    Returns a summary dict plus the per-shot congruence reports in their
    JSON shape ``{shot, layers: [{deviation}], pass}``. When ``cross_check``
    holds the vectorised run of the same config, each replayed record is
    asserted equal to the ensemble's.
    """
    label0 = ClassLabel.basis(config.prepare.path, config.circuit.width)
    max_dev = 0.0
    violations = 0
    diagnostics = ShotDiagnostics()
    shot_reports: list[dict] = []
    for shot, record, trajectory in traced_shots(config, diagnostics):
        if cross_check is not None and record != cross_check.record_for_shot(shot):
            raise AssertionError(
                f"shot {shot}: single-shot replay disagrees with ensemble record"
            )
        report = verify_congruence(trajectory, record, config.circuit, label0)
        max_dev = max(max_dev, report.max_deviation)
        if not report.passed:
            violations += 1
        shot_reports.append(report.to_json_dict(shot=shot))
    summary = {
        "shots": config.shots,
        "max_deviation": max_dev,
        "violations": violations,
        "degenerate_relocations": diagnostics.degenerate_relocations,
    }
    return summary, shot_reports


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment according to its mode.

    ``compare`` runs the stochastic ensemble and the exact quantum
    enumeration and fills the whole comparison table; ``ontic-only`` skips
    the enumeration (no verdict); ``quantum-exact`` skips the ensemble.
    With ``trace`` set, every shot is additionally replayed with tracing
    and checked for label congruence.
    """
    start = time.perf_counter()
    circuit = config.circuit
    want_ontic = config.mode in ("compare", "ontic-only")
    want_exact = config.mode in ("compare", "quantum-exact")

    counts: dict[str, int] = {}
    kept_shots = 0
    degenerate = 0
    congruence = None
    if want_ontic:
        init_q, init_u, init_levels = prepare_ensemble(
            config.prepare.mode, config.prepare.path, circuit.width,
            config.shots, config.seed, config.prepare.junk)
        result = run_ensemble(circuit, init_q, init_u, init_levels, config.seed)
        degenerate = result.degenerate_relocations
        if config.trace:
            congruence, _ = run_traced(config, cross_check=result)
        if config.postselect:
            result = result.select(result.match_mask(config.postselect))
        counts = result.counts()
        kept_shots = result.shots

    probs: dict[str, float] = {}
    if want_exact:
        dist = exact_outcome_distribution(
            circuit, quantum_init(config.prepare.path, circuit.width),
            branch_cap=config.branch_cap)
        if config.postselect:
            dist = dist.condition(config.postselect)
        probs = dist.by_key()

    outcomes: list[OutcomeStat] = []
    tvd = None
    chi = None
    hard_fail = 0
    if config.mode == "compare":
        frequencies = {k: n / kept_shots for k, n in counts.items()} \
            if kept_shots else {}
        tvd = total_variation(frequencies, probs)
        chi = chi_square_goodness(counts, probs)
        hard_fail = chi.impossible_count
        for key in sorted(set(counts) | set(probs)):
            n = counts.get(key, 0)
            f = n / kept_shots if kept_shots else 0.0
            p = probs.get(key, 0.0)
            impossible = p <= 0.0 and n > 0
            if p > 0.0 and kept_shots:
                sigma, ok = _within_band(n, p, kept_shots)
            else:
                sigma, ok = 0.0, not impossible
            outcomes.append(OutcomeStat(key, n, f, p, sigma, ok, impossible))
    elif config.mode == "ontic-only":
        for key in sorted(counts):
            n = counts[key]
            outcomes.append(OutcomeStat(key, n, n / kept_shots, None, None,
                                        None, False))
    else:
        for key in sorted(probs):
            outcomes.append(OutcomeStat(key, None, None, probs[key], None,
                                        None, False))

    if config.mode != "compare":
        verdict = "no-verdict"
    elif kept_shots < MIN_VERDICT_SHOTS:
        verdict = "fail" if hard_fail else "no-verdict"
    else:
        ok = (hard_fail == 0
              and chi is not None and chi.p_value >= CHI_SQUARE_MIN_P
              and all(o.within_ci for o in outcomes if o.within_ci is not None))
        verdict = "pass" if ok else "fail"

    return ExperimentReport(
        seed=config.seed,
        shots=config.shots,
        mode=config.mode,
        circuit_name=config.circuit.name,
        prepare=config.prepare,
        postselect=config.postselect,
        preselection_shots=config.shots if want_ontic else 0,
        kept_shots=kept_shots,
        outcomes=tuple(outcomes),
        total_variation=tvd,
        chi_square=chi,
        hard_fail_events=hard_fail,
        degenerate_relocations=degenerate,
        congruence=congruence,
        verdict=verdict,
        runtime_seconds=time.perf_counter() - start,
    )
