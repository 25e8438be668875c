"""Matched-experiment harness.

Runs an ensemble of stochastic-engine shots against the exact outcome
distribution of the quantum engine for the same circuit and preparation,
aggregates per-outcome statistics (frequencies, total variation distance,
Pearson chi-square with a regularized-incomplete-gamma tail, per-outcome
exact binomial bands from the regularized incomplete beta function) and
renders a pass/fail verdict. ``scipy.special`` is imported inside the
functions that call it, so it loads on the first statistic; only a report
that holds both counts and probabilities (``compare``) computes one, and
``trace`` and ``run`` on either engine never load it. No statistic needs
``scipy.stats``, whose import costs several times that of
``scipy.special``.

Every report, whichever engines ran (``compare`` and ``ontic-only`` here,
``quantum-sample`` from sampled quantum records), is
built by :func:`outcome_report`, the one outcome-table rule. Reports
persist as JSON plus a CSV summary table whose rows hold the same
:data:`OUTCOME_COLUMNS`. The persisted JSON is canonical: fixed key order
and no volatile fields (wall-clock runtime is kept on the in-memory report
only), so a fixed seed reproduces the files byte for byte. Every output
file, here and in the command line, is written through :func:`overwrite`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import rng as streams
from .circuits import BeamSplitter, Circuit
from .ensemble import EnsembleResult, run_ensemble
from .labels import verify_congruence
from .ontic import (ZERO_LEVEL, OnticState, ShotDiagnostics, initial_states,
                    run_ontic_shot, trace_json_object)
from .prepare import JUNK_SAMPLERS, PreparedEnsemble, prepare_ensemble, quantum_init
from .quantum import (BRANCH_CAP, ImpossibleOutcomeError, QuantumState,
                      RecordTree, exact_outcome_distribution, sum_in_order)
from .records import OutcomeRecord, event_token, postselect

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


@contextlib.contextmanager
def overwrite(path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open ``path`` for writing UTF-8 text in place, creating it if needed.

    Unlike ``open(path, "w")`` the file is not cut to zero bytes first: on
    ext4 that truncation costs several times the write of a small report.
    It is cut at the position reached when the block ends, on success and on
    error alike, so its bytes are always exactly those written. A file that
    is not a regular file (``/dev/null``, a pipe) is never cut. The file
    keeps its inode, mode and links; nothing is fsynced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


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
        if not isinstance(self.junk, str) or self.junk not in JUNK_SAMPLERS:
            raise ConfigError(f"unknown junk sampler {self.junk!r}; "
                              f"expected one of {sorted(JUNK_SAMPLERS)}")

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "path": self.path + 1, "junk": self.junk}


@dataclass(frozen=True)
class ExperimentConfig:
    """One matched experiment: circuit, preparation, shot budget, seed."""

    circuit: Circuit
    prepare: PreparationSpec = PreparationSpec()
    shots: int = 10000
    seed: int = 0
    mode: str = "compare"  # compare | ontic-only
    postselect: tuple[tuple[int, int | None], ...] | None = None
    trace: bool = False
    branch_cap: int = BRANCH_CAP

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError("shots must be at least 1")
        if self.branch_cap < 1:
            raise ConfigError("branch_cap must be at least 1")
        if self.mode not in ("compare", "ontic-only"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0 <= self.prepare.path < self.circuit.width:
            raise ConfigError(
                f"preparation path {self.prepare.path + 1} out of range"
            )
        if self.postselect:
            detector_layers = set(self.circuit.detector_layers())
            for layer, clicked in self.postselect:
                if layer not in detector_layers:
                    raise ConfigError(
                        f"cannot post-select on layer {layer + 1}: no detectors"
                    )
                if clicked not in (None, *self.circuit.layers[layer].detector_paths()):
                    raise ConfigError(f"cannot post-select a click on path "
                                      f"{clicked + 1} at layer {layer + 1}: no detector")


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Half the L1 distance between two distributions over outcome keys."""
    keys = sorted(set(p) | set(q))  # a fixed order keeps the sum reproducible
    return 0.5 * sum_in_order(abs(p.get(k, 0.0) - q.get(k, 0.0))
                              for k in keys)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    impossible_count: int  # observations on zero-probability outcomes


def chi_square_goodness(counts: Mapping[str, int],
                        expected: Mapping[str, float]) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against expected
    probabilities.

    Outcomes with zero expected probability are pooled separately: any
    observation there is reported as ``impossible_count`` (an automatic
    fail for the verdict) and excluded from the statistic. Cells with
    expected count below ``POOL_EXPECTED_MIN`` are merged into one
    remainder cell so the chi-square approximation stays valid. The tail
    probability is the regularized upper incomplete gamma at ``dof/2``.
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
        if expected_count < POOL_EXPECTED_MIN:
            small_obs += observed
            small_exp += expected_count
        else:
            cells.append((observed, expected_count))
    if small_exp > 0.0:
        cells.append((small_obs, small_exp))
    statistic = sum_in_order((obs - exp) ** 2 / exp
                             for obs, exp in cells if exp > 0.0)
    dof = max(len(cells) - 1, 0)
    if dof == 0:
        p_value = 1.0 if statistic <= 1e-9 else 0.0
    else:
        from scipy.special import gammaincc
        p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    return ChiSquareResult(float(statistic), p_value, dof, int(impossible))


# The outcome-table columns in ``summary.csv`` order, also the keys of a
# report.json row. Column i holds field i of an :class:`OutcomeStat`.
OUTCOME_COLUMNS = ("outcome", "count", "frequency", "probability", "sigma",
                   "within_ci", "impossible")


class OutcomeStat(NamedTuple):
    """One row of the per-outcome comparison table (:data:`OUTCOME_COLUMNS`)."""

    key: str
    count: int
    frequency: float
    probability: float | None
    sigma: float | None
    within_ci: bool | None
    impossible: bool


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

    def worst_outcome(self) -> tuple[OutcomeStat, float]:
        """The row that best explains a failed verdict, with its pull
        ``(frequency - probability) / sigma``: an observed impossible
        outcome first, else the largest |pull|. A zero-sigma row outside
        its band pulls infinitely."""
        def pull(o: OutcomeStat) -> float:
            deviation = o.frequency - o.probability
            if o.sigma:
                return deviation / o.sigma
            return 0.0 if o.within_ci else math.copysign(math.inf, deviation)
        row = max(self.outcomes, key=lambda o: (o.impossible, abs(pull(o)), o.count))
        return row, pull(row)

    def _header_dict(self) -> dict:
        """The persisted fields other than the outcome rows."""
        return {
            "seed": self.seed,
            "shots": self.shots,
            "mode": self.mode,
            "circuit": self.circuit_name,
            "prepare": self.prepare.to_json_dict(),
            "postselect": ([event_token(*c) for c in self.postselect]
                           if self.postselect else None),
            "preselection_shots": self.preselection_shots,
            "kept_shots": self.kept_shots,
            "total_variation": self.total_variation,
            "chi_square": (asdict(self.chi_square)
                           if self.chi_square is not None else None),
            "hard_fail_events": self.hard_fail_events,
            "degenerate_relocations": self.degenerate_relocations,
            "congruence": self.congruence,
            "verdict": self.verdict,
        }

    def to_json_dict(self) -> dict:
        return {**self._header_dict(),
                "outcomes": [dict(zip(OUTCOME_COLUMNS, o)) for o in self.outcomes]}

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=2)`` and
        a newline; the outcome rows are filled from :data:`_JSON_ROW`."""
        text = json.dumps({**self._header_dict(), "outcomes": []},
                          sort_keys=True, indent=2) + "\n"
        if not self.outcomes:
            return text
        rows = ",\n".join([_JSON_ROW % (
            _json_scalar(n), _json_scalar(f), _json_scalar(impossible),
            encode_basestring_ascii(key), _json_scalar(p), _json_scalar(sigma),
            _json_scalar(ok)) for key, n, f, p, sigma, ok, impossible
            in self.outcomes])
        return text.replace('\n  "outcomes": [],',
                            '\n  "outcomes": [\n' + rows + '\n  ],', 1)

    def save(self, directory) -> tuple[Path, Path]:
        """Write ``report.json`` and ``summary.csv`` (:func:`overwrite`),
        creating ``directory`` if it is missing; returns their paths."""
        directory = Path(directory)
        json_path = directory / "report.json"
        csv_path = directory / "summary.csv"
        text = self.to_json()
        try:
            with overwrite(json_path) as fh:
                fh.write(text)
        except FileNotFoundError:  # no directory yet, so nothing was written
            directory.mkdir(parents=True, exist_ok=True)
            with overwrite(json_path) as fh:
                fh.write(text)
        with overwrite(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(OUTCOME_COLUMNS)
            writer.writerows(self.outcomes)
        return json_path, csv_path


# One report.json outcome row as ``json.dumps(..., sort_keys=True,
# indent=2)`` writes it inside the ``outcomes`` list: a ``%s`` per cell, in
# sorted column order, for :func:`_json_scalar` of the cell or the escaped key.
_JSON_ROW = "    {\n%s\n    }" % ",\n".join(
    f'      "{column}": %s' for column in sorted(OUTCOME_COLUMNS))


def _json_scalar(value: int | float | bool | None) -> str:
    """A cell of an outcome row as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    return int.__repr__(value)


def binomial_at_least(n: np.ndarray, kept: int, p: np.ndarray) -> np.ndarray:
    """``P(X >= n)`` for ``X ~ Binomial(kept, p)``, ``0 <= n <= kept``, as
    the regularized incomplete beta ``I_p(n, kept - n + 1)``: the bits of
    ``scipy.stats.binom.sf(n - 1, kept, p)``, without importing
    ``scipy.stats``. ``n = 0`` is outside the beta function's domain and
    certain."""
    from scipy.special import betainc
    tail = betainc(n, kept - n + 1, p)
    tail[n <= 0] = 1.0
    return tail


def binomial_at_most(n: np.ndarray, kept: int, p: np.ndarray) -> np.ndarray:
    """``P(X <= n)`` for ``X ~ Binomial(kept, p)``, ``0 <= n <= kept``, as
    ``I_{1-p}(kept - n, n + 1)``. ``n = kept`` is outside the domain and
    certain. This gives the bits of ``scipy.stats.binom.cdf`` except where
    the rounding of ``1 - p`` shows, mostly at small ``p``: a relative
    error under ``kept * 2**-52``, far below what moves a band's flag."""
    from scipy.special import betainc
    tail = betainc(kept - n, n + 1, 1.0 - p)
    tail[n >= kept] = 1.0
    return tail


def _within_bands(counts: Mapping[str, int], probs: Mapping[str, float],
                  kept: int) -> dict[str, tuple[float, bool]]:
    """Per-outcome acceptance bands for the outcomes of positive
    probability: the exact two-sided binomial tail of each observed count
    must not fall under the CI_SIGMA significance. Maps each outcome to its
    normal-approximation sigma (for the report table) and flag; each tail
    is one ``scipy.special.betainc`` call for all outcomes."""
    keys = [key for key, p in probs.items() if p > 0.0]
    n = np.array([counts.get(key, 0) for key in keys], dtype=np.int64)
    p = np.array([probs[key] for key in keys], dtype=np.float64)
    clamped = np.clip(p, 0.0, 1.0)  # enumeration rounding can leave 1+eps
    sigma = np.sqrt(clamped * (1.0 - clamped) / kept)
    tail = np.where(n >= clamped * kept, binomial_at_least(n, kept, clamped),
                    binomial_at_most(n, kept, clamped))
    exact = np.abs(n / kept - p) <= 1e-9
    ok = np.where(sigma == 0.0, exact, np.minimum(1.0, 2.0 * tail) >= CI_ALPHA)
    return dict(zip(keys, zip(sigma.tolist(), ok.tolist())))


def _prepare(config: ExperimentConfig) -> PreparedEnsemble:
    """The config's initial ensemble: one field and a junk recipe."""
    return prepare_ensemble(config.prepare.path, config.shots, config.seed,
                            config.prepare.junk)


def traced_shots(config: ExperimentConfig,
                 diagnostics: ShotDiagnostics | None = None,
                 ) -> Iterator[tuple[int, OutcomeRecord, list[OnticState]]]:
    """Replay every shot of a config through the single-shot engine.

    Yields ``(shot, record, trajectory)`` in shot order; each shot starts
    from the prepared field with its row of the amplitudes (junk included,
    for the trace lines print it) and draws its own slice of the stream
    (:func:`interfersim.rng.shot_streams`), so it reproduces the shot of
    the vectorised run.
    """
    circuit = config.circuit
    prepared = _prepare(config)
    amplitudes = prepared.amplitudes(circuit.width)  # checks the path
    init_levels = [ZERO_LEVEL] * circuit.width
    init_levels[prepared.path] = 0
    inits = initial_states(prepared.path, amplitudes, init_levels)
    n_draws = circuit.count_gates(BeamSplitter)
    for shot, (init, gen) in enumerate(zip(inits, streams.shot_streams(
            config.seed, streams.ONTIC_SHOTS, config.shots, n_draws))):
        record, trajectory = run_ontic_shot(circuit, init, gen, trace=True,
                                            diagnostics=diagnostics)
        yield shot, record, trajectory


def write_trace_lines(fh: IO[str], shot: int,
                      trajectory: Sequence[OnticState]) -> None:
    """Write one traced shot as JSONL: a line per layer holding the state
    after it (:func:`interfersim.ontic.trace_json_object`)."""
    for layer_idx, state in enumerate(trajectory[1:]):
        fh.write(json.dumps(trace_json_object(shot, layer_idx, state),
                            sort_keys=True) + "\n")


def _nested(obj: dict, depth: int) -> str:
    """``obj`` as ``json.dump(..., sort_keys=True, indent=2)`` writes it
    ``depth`` levels deep, after the indent of its first line."""
    return json.dumps(obj, sort_keys=True, indent=2).replace(
        "\n", "\n" + "  " * depth)


def run_traced(config: ExperimentConfig,
               cross_check: EnsembleResult | None = None,
               jsonl: str | None = None,
               report: str | None = None,
               ) -> dict:
    """Replay every shot with tracing (:func:`traced_shots`) and verify
    label congruence; returns a summary dict.

    When ``cross_check`` holds the vectorised run of the same config, each
    replayed record is asserted equal to the ensemble's. With a ``jsonl``
    path, each shot's trace lines (:func:`write_trace_lines`) are written
    there as it is checked. With a ``report`` path, the file gets the bytes
    of ``json.dump({"shots": [...], "summary": summary}, sort_keys=True,
    indent=2)`` and a newline, each shot's congruence report ``{shot,
    layers: [{deviation}], pass}`` written as it is checked; ``"shots"``
    sorts first, so only the summary waits for the end. No per-shot report
    outlives its shot, so memory stays bounded in the shot count.
    """
    label0 = QuantumState.basis(config.prepare.path, config.circuit.width)
    tree = RecordTree(config.circuit, label0)  # the labels of every shot
    max_dev = 0.0
    violations = 0
    diagnostics = ShotDiagnostics()
    with contextlib.ExitStack() as files:
        trace_fh, report_fh = (
            files.enter_context(overwrite(path)) if path else None
            for path in (jsonl, report))
        for shot, record, trajectory in traced_shots(config, diagnostics):
            if cross_check is not None and record != cross_check.record_for_shot(shot):
                raise AssertionError(
                    f"shot {shot}: single-shot replay disagrees with ensemble record"
                )
            check = verify_congruence(trajectory, record, tree)
            max_dev = max(max_dev, check.max_deviation)
            if not check.passed:
                violations += 1
            if report_fh is not None:  # one item of the "shots" list
                report_fh.write((",\n    " if shot else '{\n  "shots": [\n    ')
                                + _nested(check.to_json_dict(shot=shot), 2))
            if trace_fh is not None:
                write_trace_lines(trace_fh, shot, trajectory)
        summary = {
            "shots": config.shots,
            "max_deviation": max_dev,
            "violations": violations,
            "degenerate_relocations": diagnostics.degenerate_relocations,
        }
        if report_fh is not None:
            report_fh.write('\n  ],\n  "summary": ' + _nested(summary, 1)
                            + "\n}\n")
    return summary


def outcome_report(config: ExperimentConfig, mode: str,
                   counts: Mapping[str, int],
                   probs: Mapping[str, float] | None, degenerate: int = 0,
                   congruence: dict | None = None) -> ExperimentReport:
    """Build a run's report from its engine results: ``counts`` over the
    kept (post-selected) shots of a sampling engine, and the exact outcome
    probabilities ``probs``, ``None`` when the enumeration did not run.

    There is one row per outcome of either. Counts fill ``count`` and
    ``frequency``, probabilities fill ``probability``; only with both are
    the bands, ``impossible``, the distance, the chi-square and a verdict
    computed. No verdict is claimed on fewer than ``MIN_VERDICT_SHOTS``
    kept shots unless an impossible outcome was observed.
    """
    both = probs is not None
    kept = sum(counts.values())
    freqs = {key: n / kept for key, n in counts.items()}
    tvd = chi = None
    hard_fail = 0
    if both:
        tvd = total_variation(freqs, probs)
        chi = chi_square_goodness(counts, probs)
        hard_fail = chi.impossible_count
        bands = _within_bands(counts, probs, kept) if kept else {}
    outcomes = []
    for key in sorted(set(counts) | set(probs or ())):
        n, f = counts.get(key, 0), freqs.get(key, 0.0)
        p = sigma = ok = None
        impossible = False
        if both:
            p = probs.get(key, 0.0)
            impossible = p <= 0.0 and n > 0
            sigma, ok = bands.get(key, (0.0, not impossible))
        outcomes.append(OutcomeStat(key, n, f, p, sigma, ok, impossible))
    verdict = "no-verdict"
    if both and (hard_fail or kept >= MIN_VERDICT_SHOTS):
        passed = (hard_fail == 0 and chi.p_value >= CHI_SQUARE_MIN_P
                  and all(o.within_ci for o in outcomes))
        verdict = "pass" if passed else "fail"
    return ExperimentReport(
        seed=config.seed,
        shots=config.shots,
        mode=mode,
        circuit_name=config.circuit.name,
        prepare=config.prepare,
        postselect=config.postselect,
        preselection_shots=config.shots,
        kept_shots=kept,
        outcomes=tuple(outcomes),
        total_variation=tvd,
        chi_square=chi,
        hard_fail_events=hard_fail,
        degenerate_relocations=degenerate,
        congruence=congruence,
        verdict=verdict,
    )


def sampled_report(config: ExperimentConfig,
                   records: Iterable[OutcomeRecord]) -> ExperimentReport:
    """The ``quantum-sample`` report of sampled quantum-engine records.
    They are tallied by their event tuples, so each distinct record's key
    is built once."""
    tally = Counter(record.events for record in records)
    counts = {OutcomeRecord(events).key: n for events, n in tally.items()}
    if config.postselect:
        counts = postselect(counts, config.postselect)
    return outcome_report(config, "quantum-sample", counts, None)


def run_experiment(config: ExperimentConfig,
                   jsonl: str | None = None) -> ExperimentReport:
    """Execute one experiment according to its mode.

    ``compare`` runs the exact quantum enumeration and the stochastic
    ensemble and fills the whole comparison table; ``ontic-only`` skips
    the enumeration (no verdict). The enumeration runs first, so a
    branch-cap overflow or a post-selection of probability 0 ends the run
    before any shot is drawn.
    With ``trace`` set or a ``jsonl`` path given, every shot of the ensemble
    is additionally replayed once with tracing (:func:`run_traced`), which
    writes the trace lines to ``jsonl``; the label congruence summary goes
    into the report only when ``trace`` is set. The ensemble draws no junk;
    only the replay materialises it. A post-selection filters the counts and
    the exact probabilities by the one rule of
    :func:`interfersim.records.postselect`, and renormalises the latter.
    """
    start = time.perf_counter()
    circuit = config.circuit
    probs = congruence = None
    if config.mode != "ontic-only":
        probs = exact_outcome_distribution(
            circuit, quantum_init(config.prepare.path, circuit.width),
            branch_cap=config.branch_cap).probabilities
        if config.postselect:
            probs = postselect(probs, config.postselect)
            total = sum_in_order(probs.values())
            if total <= 0.0:
                raise ImpossibleOutcomeError("conditioning event has probability 0")
            probs = {key: p / total for key, p in probs.items()}

    result = run_ensemble(circuit, _prepare(config))
    if config.trace or jsonl:
        summary = run_traced(config, cross_check=result, jsonl=jsonl)
        congruence = summary if config.trace else None
    counts = result.counts()
    if config.postselect:
        counts = postselect(counts, config.postselect)

    report = outcome_report(config, config.mode, counts, probs,
                            result.degenerate_relocations, congruence)
    report.runtime_seconds = time.perf_counter() - start
    return report
