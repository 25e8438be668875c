"""Command-line interface.

Four subcommands: ``run`` executes shots on one engine, ``compare`` runs the
full matched experiment and exits with its verdict, ``compile`` turns a
unitary (JSON matrix of ``[re, im]`` pairs) into a circuit file, ``trace``
replays traced shots and verifies label congruence.

Exit codes: 0 success/pass, 1 verdict or congruence failure, 2 usage or
input error, 3 resource cap exceeded. Option values beat config-file values
beat the ``QM_SEED`` environment variable beat defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import rng as streams
from .circuits import CircuitError, parse_circuit_file, serialize_circuit
from .compiler import (
    NonUnitaryError,
    ray_deviation,
    reck_decompose,
    reconstruct_unitary,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    OutcomeStat,
    PreparationSpec,
    parse_postselect_tokens,
    run_experiment,
    run_traced,
    traced_shots,
)
from .ontic import trace_json_object
from .prepare import quantum_init
from .quantum import BranchCapError, ImpossibleOutcomeError, run_quantum_shot

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _resolve_seed(flag: int | None, config: dict) -> int:
    if flag is not None:
        return flag
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("QM_SEED")
    if env is not None:
        return int(env)
    return 0


def _resolve_shots(flag: int | None, config: dict) -> int:
    if flag is not None:
        return flag
    return int(config.get("shots", 10000))


def _parse_prepare(text: str | None, config: dict) -> PreparationSpec:
    cfg = dict(config.get("prepare", {}))
    if text:
        for item in text.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad --prepare item {item!r}; expected key=value")
            cfg[key.strip()] = value.strip()
    path = int(cfg.get("path", 1)) - 1
    return PreparationSpec(mode=cfg.get("mode", "source"), path=path,
                           junk=cfg.get("junk", "zero"))


def _build_config(args, circuit) -> ExperimentConfig:
    config = _load_config(getattr(args, "config", None))
    postselect = None
    tokens = getattr(args, "postselect", None) or config.get("postselect")
    if tokens:
        postselect = parse_postselect_tokens(tokens)
    return ExperimentConfig(
        circuit=circuit,
        prepare=_parse_prepare(getattr(args, "prepare", None), config),
        shots=_resolve_shots(args.shots, config),
        seed=_resolve_seed(args.seed, config),
        mode=getattr(args, "mode", None) or config.get("mode", "compare"),
        postselect=postselect,
        trace=bool(config.get("trace", False)),
        branch_cap=int(getattr(args, "branch_cap", None)
                       or config.get("branch_cap", 10 ** 6)),
    )


def _experiment(args, **changes) -> ExperimentConfig:
    """Parse the circuit argument and build the command's config, with
    ``changes`` (such as the mode) applied on top."""
    circuit = parse_circuit_file(args.circuit)
    return dataclasses.replace(_build_config(args, circuit), **changes)


def _write_report(report: ExperimentReport, out_dir: str) -> Path:
    json_path, _ = report.save(out_dir)
    print(json_path)
    return json_path


def _quantum_sample_report(config: ExperimentConfig) -> ExperimentReport:
    """Sampled (not exact) quantum-engine run, for ``run --engine quantum``."""
    circuit = config.circuit
    init = quantum_init(config.prepare.path, circuit.width)
    draws = len(circuit.detector_layers())
    counts: dict[str, int] = {}
    kept = 0
    for shot in range(config.shots):
        gen = streams.shot_generator(config.seed, streams.QUANTUM_SHOTS, shot, draws)
        record, _ = run_quantum_shot(circuit, init, gen)
        if config.postselect and not record.matches(config.postselect):
            continue
        kept += 1
        counts[record.key] = counts.get(record.key, 0) + 1
    outcomes = tuple(
        OutcomeStat(key, n, n / kept if kept else 0.0, None, None, None, False)
        for key, n in sorted(counts.items())
    )
    return ExperimentReport(
        seed=config.seed, shots=config.shots, mode="quantum-sample",
        circuit_name=circuit.name, prepare=config.prepare,
        postselect=config.postselect, preselection_shots=config.shots,
        kept_shots=kept, outcomes=outcomes, total_variation=None,
        chi_square=None, hard_fail_events=0, degenerate_relocations=0,
        congruence=None, verdict="no-verdict",
    )


def _write_trace_jsonl(config: ExperimentConfig, path: str) -> None:
    """Replay every shot with tracing and dump one JSON object per layer."""
    with open(path, "w", encoding="utf-8") as fh:
        for shot, _, trajectory in traced_shots(config):
            for layer_idx, state in enumerate(trajectory[1:]):
                fh.write(json.dumps(trace_json_object(shot, layer_idx, state),
                                    sort_keys=True) + "\n")


def cmd_run(args) -> int:
    try:
        config = _experiment(args, mode="ontic-only")
    except (OSError, CircuitError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    try:
        if args.engine == "quantum":
            if args.trace:
                return _fail("--trace applies to the ontic engine only")
            report = _quantum_sample_report(config)
        else:
            report = run_experiment(config)
            if args.trace:
                _write_trace_jsonl(config, args.trace)
    except BranchCapError as exc:
        return _fail(f"{exc}; try --engine ontic", EXIT_RESOURCE)
    except ImpossibleOutcomeError as exc:
        return _fail(str(exc))
    _write_report(report, args.out)
    return EXIT_PASS


def cmd_compare(args) -> int:
    try:
        config = _experiment(args, mode="compare")
    except (OSError, CircuitError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    try:
        report = run_experiment(config)
    except BranchCapError as exc:
        return _fail(f"{exc}; rerun with the 'run' command (ontic engine only)",
                     EXIT_RESOURCE)
    except ImpossibleOutcomeError as exc:
        return _fail(str(exc))
    _write_report(report, args.out)
    print(f"verdict: {report.verdict}  "
          f"tvd={report.total_variation:.6f}  "
          f"chi2 p={report.chi_square.p_value:.6g}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_compile(args) -> int:
    try:
        with open(args.unitary, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj.get("matrix")
        matrix = np.array([[complex(re, im) for re, im in row] for row in obj],
                          dtype=np.complex128)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        return _fail(f"cannot read unitary: {exc}")
    try:
        circuit = reck_decompose(matrix, name=Path(args.unitary).stem)
    except NonUnitaryError as exc:
        return _fail(str(exc))
    out = args.out or str(Path(args.unitary).with_suffix(".circ"))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(serialize_circuit(circuit))
    print(out)
    if args.verify:
        deviation = ray_deviation(reconstruct_unitary(circuit), matrix)
        print(f"max reconstruction deviation: {deviation:.3e}")
        if deviation > 1e-9:
            return EXIT_FAIL
    return EXIT_PASS


def cmd_trace(args) -> int:
    try:
        config = _experiment(args, mode="ontic-only", trace=True)
    except (OSError, CircuitError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    summary, shot_reports = run_traced(config)
    print(f"traced {config.shots} shots: max label deviation "
          f"{summary['max_deviation']:.3e}, {summary['violations']} violation(s)")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "shots": shot_reports}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
    if args.jsonl:
        _write_trace_jsonl(config, args.jsonl)
    return EXIT_PASS if summary["violations"] == 0 else EXIT_FAIL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfersim",
        description="simulate single-particle interferometric circuits with "
                    "a quantum engine and a local stochastic engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode_flag=False):
        p.add_argument("circuit", help="circuit file (.circ or .json mirror)")
        p.add_argument("--shots", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="defaults to config file, then $QM_SEED, then 0")
        p.add_argument("--prepare", default=None, metavar="path=J[,mode=..,junk=..]",
                       help="preparation spec, one-based path")
        p.add_argument("--postselect", nargs="*", default=None, metavar="L<k>:N|C<j>",
                       help="keep only shots matching these outcome tokens")
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=".", help="report directory")
        p.add_argument("--branch-cap", dest="branch_cap", type=int, default=None)

    p_run = sub.add_parser("run", help="execute shots on one engine")
    common(p_run)
    p_run.add_argument("--engine", choices=("ontic", "quantum"), default="ontic")
    p_run.add_argument("--trace", default=None, metavar="OUT.jsonl",
                       help="write per-layer ontic trace lines")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both engines and verdict")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_compile = sub.add_parser("compile", help="compile a unitary to a circuit")
    p_compile.add_argument("unitary", help="JSON N*N matrix of [re, im] pairs")
    p_compile.add_argument("-o", "--out", default=None, help="output .circ path")
    p_compile.add_argument("--verify", action="store_true",
                           help="print max reconstruction deviation")
    p_compile.set_defaults(func=cmd_compile)

    p_trace = sub.add_parser("trace", help="traced shots + congruence check")
    common(p_trace)
    p_trace.add_argument("--report", default=None, help="write congruence JSON")
    p_trace.add_argument("--jsonl", default=None, help="write trace JSONL")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
