"""In-memory spans around calls into interfersim's modules.

The benchmark never edits the package. Instead, for a traced pass it
replaces the public functions at the module attributes their callers look
up (``harness.run_ensemble``, ``cli.run_quantum_shot``, ...) with wrappers
that record a span per call, and puts the originals back afterwards. Each
span carries the layer-qualified name, start and end from
``time.perf_counter``, the index of the enclosing span and the id of the
CLI command that caused it, plus exact counters read from the call's
arguments and result at the same boundary.

Per-layer metrics are sums over spans: ``*_s`` is busy self time (the span's
duration minus the part of it covered by child spans), the rest are counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    counts: dict[str, int] = field(default_factory=dict)


class SpanRecorder:
    """Collects spans of one traced pass; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Callable[[tuple, dict, object], dict] | None = None
             ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        recorder._stack[-1] if recorder._stack else None,
                        recorder.command)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


# --- counters read at span boundaries ---------------------------------------

def _count_ensemble(args, kwargs, result):
    circuit = args[0]
    return {"ensemble.shot_layers": result.shots * circuit.depth,
            "ensemble.degenerate_relocations": result.degenerate_relocations}


def _count_uniform_bytes(args, kwargs, result):
    from interfersim.rng import padded_width
    _, _, shots, draws = args
    return {"rng.bytes": shots * padded_width(draws) * 8}


def _count_compiled(args, kwargs, circuit):
    from interfersim.circuits import BeamSplitter
    return {"compiler.layers": circuit.depth,
            "compiler.splitters": circuit.count_gates(BeamSplitter)}


def _count_report_bytes(args, kwargs, paths):
    return {"harness.report_bytes": sum(os.path.getsize(p) for p in paths)}


# (object path, attribute, span name, counter). The object is the module or
# class whose attribute the caller looks up at call time.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("interfersim.cli", "parse_circuit_file", "circuits.parse", None),
    ("interfersim.cli", "reck_decompose", "compiler.decompose", _count_compiled),
    ("interfersim.cli", "reconstruct_unitary", "compiler.reconstruct", None),
    ("interfersim.cli", "ray_deviation", "compiler.deviation", None),
    ("interfersim.cli", "run_experiment", "harness.experiment",
     lambda a, k, r: {"harness.outcome_rows": len(r.outcomes)}),
    ("interfersim.cli", "run_traced", "harness.replay", None),
    ("interfersim.cli", "quantum_init", "prepare.quantum_init", None),
    ("interfersim.cli", "run_quantum_shot", "quantum.sample",
     lambda a, k, r: {"quantum.sampled_shots": 1}),
    ("interfersim.harness", "prepare_ensemble", "prepare.ensemble", None),
    ("interfersim.harness", "quantum_init", "prepare.quantum_init", None),
    ("interfersim.harness", "run_ensemble", "ensemble.run", _count_ensemble),
    ("interfersim.harness", "exact_outcome_distribution", "quantum.enumerate",
     lambda a, k, r: {"quantum.leaves": len(r.probabilities)}),
    ("interfersim.harness", "run_ontic_shot", "ontic.replay",
     lambda a, k, r: {"ontic.replayed_shot_layers": a[0].depth}),
    ("interfersim.harness", "verify_congruence", "labels.verify",
     lambda a, k, r: {"labels.layer_checks": len(r.checks)}),
    ("interfersim.rng", "ensemble_uniforms", "rng.uniforms", _count_uniform_bytes),
    ("interfersim.rng", "shot_generator", "rng.shot_stream", None),
    ("interfersim.ensemble:EnsembleResult", "counts", "ensemble.counts",
     lambda a, k, r: {"ensemble.distinct_records": len(r)}),
    ("interfersim.harness:ExperimentReport", "save", "harness.save",
     _count_report_bytes),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every target with a recording wrapper; restore on exit."""
    saved = []
    try:
        for path, attr, name, count in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------

# metric -> span names whose self time it sums
SELF_SECONDS: dict[str, tuple[str, ...]] = {
    "cli.self_s": ("cli.main",),
    "circuits.parse_s": ("circuits.parse",),
    "compiler.compile_s": ("compiler.decompose", "compiler.reconstruct",
                           "compiler.deviation"),
    "prepare.prepare_s": ("prepare.ensemble", "prepare.quantum_init"),
    "rng.uniforms_s": ("rng.uniforms",),
    "rng.shot_streams_s": ("rng.shot_stream",),
    "ensemble.run_s": ("ensemble.run",),
    "ensemble.counts_s": ("ensemble.counts",),
    "quantum.enumerate_s": ("quantum.enumerate",),
    "quantum.sample_s": ("quantum.sample",),
    "harness.stats_s": ("harness.experiment",),
    "harness.save_s": ("harness.save",),
    "harness.replay_self_s": ("harness.replay",),
    "ontic.replay_s": ("ontic.replay",),
    "labels.verify_s": ("labels.verify",),
}

COUNTS: tuple[str, ...] = (
    "ensemble.shot_layers",
    "ensemble.degenerate_relocations",
    "ensemble.distinct_records",
    "rng.bytes",
    "compiler.layers",
    "compiler.splitters",
    "quantum.leaves",
    "quantum.sampled_shots",
    "harness.outcome_rows",
    "harness.report_bytes",
    "ontic.replayed_shot_layers",
    "labels.layer_checks",
)


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    by_name: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
    return {metric: sum(by_name.get(n, 0.0) for n in names)
            for metric, names in SELF_SECONDS.items()}


def layer_counts(spans: list[Span]) -> dict[str, int]:
    out = dict.fromkeys(COUNTS, 0)
    for span in spans:
        for key, value in span.counts.items():
            out[key] += value
    return out


def count_drift(rounds: list[dict[str, int]], stored: dict[str, int] | None
                ) -> list[str]:
    """Counts of any round that differ from the stored ones or, with none
    stored for these inputs, from the first round's."""
    reference = rounds[0] if stored is None else stored
    return sorted(name for name in COUNTS
                  if any(counts[name] != reference.get(name) for counts in rounds))
