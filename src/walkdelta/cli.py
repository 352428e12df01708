"""Command-line interface.

Subcommands: compile, delta, verify, spectral, estimate. Every command
prints a schema-versioned JSON document on stdout. Exit codes follow the
decision-problem convention: 0 = positive sign (or success), 1 = negative
sign (or failed checks), 2 = parse error, 3 = resource or compile failure,
4 = zero/undecidable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import spectral
from .circuits import CircuitError, parse_circuit
from .clock import CompiledInstance, CompileError, compile_circuit
from .rewriting import BudgetExceeded, RewriteError
from .verifier import ReachableGraph, VerifyError, exact_deltas, verify

SCHEMA = "walkdelta-result-1"

EXIT_POSITIVE = 0
EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_UNDECIDABLE = 4


def _emit(command: str, inputs: dict, outputs: dict, passed: bool | None, t0: float) -> None:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "passed": passed,
        "seconds": round(time.time() - t0, 6),
    }
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_bits(text: str) -> list[int]:
    if not text or any(ch not in "01" for ch in text):
        raise CircuitError(f"input must be a nonempty 0/1 string, got {text!r}")
    return [int(ch) for ch in text]


def _load_circuit(path: str):
    with open(path) as fh:
        return parse_circuit(fh.read())


def rule_count(graph: ReachableGraph) -> int:
    """Distinct (window, replacement) pairs that the component's edges use.

    The strings of an edge differ between positions lo and hi; each window
    j of width 3 that covers both, hi - 2 <= j <= lo, gives one pair.
    """
    pairs = set()
    for s, row in zip(graph.strings, graph.adj):
        for k in row:
            t = graph.strings[k]
            diff = [p for p, (a, b) in enumerate(zip(s, t)) if a != b]
            lo, hi = diff[0], diff[-1]
            for j in range(max(0, hi - 2), min(lo, len(s) - 3) + 1):
                pairs.add((s[j : j + 3], t[j : j + 3]))
    return len(pairs)


def cmd_compile(args) -> int:
    t0 = time.time()
    circuit = _load_circuit(args.circuit)
    x = _parse_bits(args.input)
    try:
        instance = compile_circuit(circuit, x, m_mode=args.m_mode)
    except (CompileError, spectral.SpectralError) as exc:
        raise ResourceFailure(str(exc))
    graph = ReachableGraph(
        instance.system,
        [instance.s, instance.t, instance.t_prime],
        max_vertices=args.vertex_budget,
    )
    instance.save(args.out)
    _emit(
        "compile",
        {"circuit": args.circuit, "input": args.input, "m_mode": args.m_mode},
        {
            "out": args.out,
            "ell": instance.ell,
            "m": instance.m,
            "c": instance.c,
            "epsilon": instance.epsilon,
            "length": instance.length,
            "alphabet_size": len(instance.system.alphabet.tokens),
            "window": instance.system.window,
            "reachable_vertices": len(graph),
            "rule_count": rule_count(graph),
        },
        True,
        t0,
    )
    return EXIT_OK


def cmd_delta(args) -> int:
    t0 = time.time()
    instance = CompiledInstance.load(args.instance)
    n = args.steps if args.steps is not None else instance.m
    value = exact_deltas(instance, n)[n]
    sign = (value > 0) - (value < 0)
    out = {"n": n, "delta": str(value), "sign": sign}
    _emit("delta", {"instance": args.instance, "steps": n}, out, None, t0)
    if sign > 0:
        return EXIT_POSITIVE
    if sign < 0:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDABLE


def cmd_verify(args) -> int:
    t0 = time.time()
    instance = CompiledInstance.load(args.instance)
    circuit = _load_circuit(args.circuit)
    x = _parse_bits(args.input)
    report = verify(instance, circuit, x, max_n=args.max_steps)
    _emit(
        "verify",
        {"instance": args.instance, "circuit": args.circuit, "input": args.input},
        report.to_json(),
        report.all_passed,
        t0,
    )
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_spectral(args) -> int:
    t0 = time.time()
    corner_exact, corner_float = spectral.corner_entry(args.ell, args.m)
    upper, lower, lower_valid = spectral.bounds(args.ell, args.m)
    _emit(
        "spectral",
        {"ell": args.ell, "m": args.m},
        {
            "lambda0": spectral.eigenvalue(args.ell, 0),
            "w0": spectral.weight(args.ell, 0),
            "corner": str(corner_exact),
            "corner_float": corner_float,
            "upper": upper,
            "lower": lower,
            "lower_valid": lower_valid,
        },
        None,
        t0,
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    from . import estimator  # numpy: loaded here, not by every command

    t0 = time.time()
    instance = CompiledInstance.load(args.instance)
    m = args.m if args.m is not None else instance.m
    try:
        est, exact, vertices = estimator.estimate_with_noise(
            instance, m, args.eta, args.theta, args.samples,
            seed=args.seed, max_vertices=args.vertex_budget,
        )
    except estimator.EstimateError as exc:
        raise ResourceFailure(str(exc))
    sign = (est.value > 0) - (est.value < 0)
    decided = abs(est.value) > est.error_bound
    _emit(
        "estimate",
        {
            "instance": args.instance,
            "m": m,
            "eta": args.eta,
            "theta": args.theta,
            "samples": args.samples,
            "seed": args.seed,
        },
        {
            "estimate": est.value,
            "exact_clipped": exact,
            "bias_bound": est.bias_bound,
            "halfwidth": est.halfwidth,
            "error_bound": est.error_bound,
            "sign": sign,
            "decided": decided,
            "vertices": vertices,
        },
        None,
        t0,
    )
    if not decided:
        return EXIT_UNDECIDABLE
    return EXIT_POSITIVE if sign > 0 else EXIT_NEGATIVE


class ResourceFailure(Exception):
    pass


def _in_range(cast, low, high=math.inf):
    """Argument type: a finite number cast from the text, within [low, high]."""

    def parse(text: str):
        value = cast(text)
        if not low <= value <= high or value == math.inf:
            end = "]" if high < math.inf else ")"
            raise argparse.ArgumentTypeError(f"{text} is outside [{low}, {high}{end}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkdelta",
        description="Compile circuits to rewriting systems and decide walk-count signs.",
    )
    parser.add_argument("--schema-version", default=SCHEMA, help="expected output schema")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a circuit to an instance file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bits, e.g. 110")
    p.add_argument("--m-mode", choices=["paper", "minimal", "sign_only"], default="paper")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--vertex-budget", type=_in_range(int, 1), default=100_000)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("delta", help="walk-count difference of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="run all correctness checks on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral", help="path-graph spectral quantities")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("estimate", help="noisy spectral estimate of the sign")
    p.add_argument("--instance", required=True)
    p.add_argument("--m", type=_in_range(int, 0), default=None)
    p.add_argument("--eta", type=_in_range(float, 0.0), required=True)
    p.add_argument("--theta", type=_in_range(float, 0.0, 1.0), required=True)
    p.add_argument("--samples", type=_in_range(int, 1), required=True)
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.add_argument("--vertex-budget", type=_in_range(int, 1), default=4000)  # estimator.MAX_DENSE_VERTICES
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    if args.schema_version != SCHEMA:
        print(f"unsupported schema {args.schema_version!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except (
        BudgetExceeded,
        VerifyError,
        ResourceFailure,
        MemoryError,
        OverflowError,
    ) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        CircuitError,
        RewriteError,
        CompileError,
        spectral.SpectralError,
        json.JSONDecodeError,
        KeyError,
        FileNotFoundError,
    ) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
