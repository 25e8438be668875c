"""Command-line interface.

Four subcommands: ``run`` executes shots on one engine, ``compare`` runs the
full matched experiment and exits with its verdict, ``compile`` turns a
unitary (JSON matrix of ``[re, im]`` pairs) into a circuit file, ``trace``
replays traced shots and verifies label congruence.

Exit codes: 0 success/pass, 1 verdict or congruence failure, 2 usage,
input or output-file error, 3 resource cap (branches, :data:`MAX_SHOTS`
or :data:`interfersim.circuits.MAX_PATHS`) exceeded or memory exhausted,
4 an internal invariant failed (an engine's own consistency check, such as
a splitter that grows its pair's intensity: a fault of the program, not of
the input).
Option values beat config-file values beat the ``QM_SEED`` environment
variable beat defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import rng as streams
from .circuits import PathCapError, parse_circuit_file, serialize_circuit
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
    PreparationSpec,
    overwrite,
    run_experiment,
    run_traced,
    sampled_report,
)
from .prepare import quantum_init
from .quantum import (
    BranchCapError,
    ImpossibleOutcomeError,
    RecordTree,
    run_quantum_shot,
)
from .records import TOKEN_METAVAR, parse_event_token

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# The most shots one command runs, checked before any engine starts. An
# ontic run at the cap already needs 64 GB for its positions and group ids,
# and the quantum sampler, which allocates nothing per shot, would otherwise
# run any count for as long as it takes.
MAX_SHOTS = 2 ** 32


class ShotCapError(Exception):
    """A shot count above :data:`MAX_SHOTS`."""


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


# JSON kind named in a config error -> its check
_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "a list of strings": lambda v: v is None or (
        isinstance(v, list) and all(isinstance(t, str) for t in v)),
    "true or false": lambda v: isinstance(v, bool),
}
# setting -> (default, JSON kind of a config value or None when the
# experiment config checks it, environment variable read in its place); the
# defaults are those of ExperimentConfig and PreparationSpec
SETTINGS = {
    "postselect": (ExperimentConfig.postselect, "a list of strings", None),
    "prepare": ({}, "an object", None),
    "shots": (ExperimentConfig.shots, "an integer", None),
    "seed": (ExperimentConfig.seed, "an integer", "QM_SEED"),
    "trace": (ExperimentConfig.trace, "true or false", None),
    "branch_cap": (ExperimentConfig.branch_cap, "an integer", None),
}
# the closed set of ``prepare`` keys; the path is one-based
PREPARE = {"path": (PreparationSpec.path + 1, "an integer", None),
           "mode": (PreparationSpec.mode, None, None),
           "junk": (PreparationSpec.junk, None, None)}


def _setting(key: str, flag, config: dict, table: dict = SETTINGS):
    """Setting ``key`` of ``table``: the flag unless None, else the config
    value, else its environment variable, else its default. A config value
    must be of the setting's JSON kind even when the flag overrides it."""
    default, kind, env = table[key]
    if key in config and kind and not _KINDS[kind](config[key]):
        raise ConfigError(f"config {key!r} must be {kind}, not {config[key]!r}")
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    if env and env in os.environ:
        return _integer(os.environ[env], env)
    return default


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, not {text!r}") from None


def _prepare_key(key: str) -> str:
    if key not in PREPARE:
        raise ConfigError(f"unknown prepare key {key!r}; expected one of {list(PREPARE)}")
    return key


def _prepare(text: str | None, config: dict) -> PreparationSpec:
    """The config object's ``prepare`` keys, each overridden by a ``key=value``
    item of the ``--prepare`` text."""
    for key in config:
        _prepare_key(key)
    values = {key: _setting(key, None, config, PREPARE) for key in PREPARE}
    for item in text.split(",") if text else ():
        key, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"bad --prepare item {item!r}; expected key=value")
        key = _prepare_key(key.strip())
        values[key] = _integer(value, "--prepare path") if key == "path" \
            else value.strip()
    return PreparationSpec(values["mode"], values["path"] - 1, values["junk"])


def _experiment(args) -> ExperimentConfig:
    """The command's config in ``args.mode``: the circuit argument plus each
    of :data:`SETTINGS`, resolved in the table's order. Raises
    :class:`ShotCapError` for more than :data:`MAX_SHOTS` shots."""
    circuit = parse_circuit_file(args.circuit)
    config = _load_config(args.config)
    tokens = _setting("postselect", args.postselect or None, config)
    shots = _setting("shots", args.shots, config)
    if shots > MAX_SHOTS:
        raise ShotCapError(f"{shots} shots exceed the cap of {MAX_SHOTS} "
                           f"per command; request fewer shots")
    return ExperimentConfig(
        circuit=circuit,
        postselect=(tuple(map(parse_event_token, tokens)) if tokens
                    else None),
        prepare=_prepare(args.prepare, _setting("prepare", None, config)),
        shots=shots,
        seed=_setting("seed", args.seed, config),
        mode=args.mode,
        trace=_setting("trace", None, config),
        branch_cap=_setting("branch_cap", args.branch_cap, config),
    )


def _quantum_sample_report(config: ExperimentConfig) -> ExperimentReport:
    """Sampled (not exact) quantum-engine run, for ``run --engine quantum``."""
    circuit = config.circuit
    tree = RecordTree(circuit, quantum_init(config.prepare.path, circuit.width))
    draws = len(circuit.detector_layers())
    keys = (run_quantum_shot(tree, gen)
            for gen in streams.shot_streams(
                config.seed, streams.QUANTUM_SHOTS, config.shots, draws))
    return sampled_report(config, keys)


def cmd_run(args, config: ExperimentConfig) -> int:
    if args.engine == "quantum":
        if args.trace:
            return _fail("--trace applies to the ontic engine only")
        report = _quantum_sample_report(config)
    else:
        report = run_experiment(config, jsonl=args.trace)
    print(report.save(args.out)[0])
    return EXIT_PASS


def cmd_compare(args, config: ExperimentConfig) -> int:
    report = run_experiment(config)
    print(report.save(args.out)[0])
    print(f"verdict: {report.verdict}  "
          f"tvd={report.total_variation:.6f}  "
          f"chi2 p={report.chi_square.p_value:.6g}")
    if report.verdict == "fail":
        row, pull = report.worst_outcome()
        print(f"worst outcome: {row.key}  count={row.count}  "
              f"probability={row.probability:.6g}  pull={pull:+.3g}  "
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
    with overwrite(out) as fh:
        fh.write(serialize_circuit(circuit))
    print(out)
    if args.verify:
        deviation = ray_deviation(reconstruct_unitary(circuit), matrix)
        print(f"max reconstruction deviation: {deviation:.3e}")
        if deviation > 1e-9:
            return EXIT_FAIL
    return EXIT_PASS


def cmd_trace(args, config: ExperimentConfig) -> int:
    if args.postselect is not None or config.postselect:
        where = "--postselect" if args.postselect is not None \
            else "config 'postselect'"
        return _fail(f"{where} applies to the run and compare commands only")
    summary = run_traced(config, jsonl=args.jsonl, report=args.report)
    print(f"traced {config.shots} shots: max label deviation "
          f"{summary['max_deviation']:.3e}, {summary['violations']} violation(s)")
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

    def common(p):
        p.add_argument("circuit", help="circuit file (.circ or .json mirror)")
        p.add_argument("--shots", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="defaults to config file, then $QM_SEED, then 0")
        p.add_argument("--prepare", default=None, metavar="path=J[,mode=..,junk=..]",
                       help="preparation spec, one-based path")
        p.add_argument("--postselect", nargs="*", default=None, metavar=TOKEN_METAVAR,
                       help="keep only shots matching these outcome tokens")
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=".", help="report directory")
        p.add_argument("--branch-cap", dest="branch_cap", type=_positive_int,
                       default=None)

    p_run = sub.add_parser("run", help="execute shots on one engine")
    common(p_run)
    p_run.add_argument("--engine", choices=("ontic", "quantum"), default="ontic")
    p_run.add_argument("--trace", default=None, metavar="OUT.jsonl",
                       help="write per-layer ontic trace lines")
    p_run.set_defaults(func=cmd_run, mode="ontic-only")

    p_cmp = sub.add_parser("compare", help="run both engines and verdict")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, mode="compare")

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
    p_trace.set_defaults(func=cmd_trace, mode="ontic-only")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call of a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compile":
            return args.func(args)
        try:
            config = _experiment(args)
        except ValueError as exc:  # CircuitError, ConfigError, bad numbers
            return _fail(str(exc))
        return args.func(args, config)
    # unreadable input, unwritable output, a post-selection that cannot happen
    except (OSError, ImpossibleOutcomeError) as exc:
        return _fail(str(exc))
    except (ShotCapError, PathCapError) as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except BranchCapError as exc:
        return _fail(f"{exc}; rerun with the 'run' command (ontic engine only)",
                     EXIT_RESOURCE)
    except MemoryError:
        return _fail("out of memory; request fewer shots", EXIT_RESOURCE)
    except AssertionError as exc:
        return _fail(f"internal invariant failed: {str(exc) or 'assert'}",
                     EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
