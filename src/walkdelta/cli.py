"""Command-line interface.

Subcommands: compile, delta, verify, spectral, estimate. Every command
prints a schema-versioned JSON document on stdout. Exit codes follow the
decision-problem convention: 0 = positive sign (or success), 1 = negative
sign (or failed checks), 2 = parse error, 3 = resource or compile failure,
4 = zero/undecidable. Each ``cmd_*`` returns (inputs, outputs, passed, exit
code); ``main`` alone times it, prints the document and returns the code.
``main`` is the in-process API; ``run`` is the process entry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import spectral
from .circuits import Circuit, CircuitError, SimulationTooLarge, parse_circuit
from .clock import ClockSystem, CompiledInstance, CompileError, compile_circuit
from .rewriting import RewriteError
from .verifier import VerifyError, component_size, exact_delta, verify

SCHEMA = "walkdelta-result-1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
SIGN_EXIT = {1: 0, -1: 1, 0: 4}  # positive, negative, zero or undecided


def _document(command: str, inputs: dict, outputs: dict, passed: bool | None, seconds: float) -> str:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "passed": passed,
        "seconds": round(seconds, 6),
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _print_flushed(text: str, code: int) -> int:
    """Write ``text`` to stdout and flush it, then return ``code``. A stdout
    that is closed or cannot take the text (a full disk, a pipe whose reader
    has gone) is a resource error: one line on stderr and EXIT_RESOURCE."""
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("standard output is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"resource error: cannot write the result: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return code


def _load_circuit(args) -> tuple[Circuit, list[int]]:
    """The circuit of ``--circuit`` and one ``--input`` bit per qubit from the
    first on; the qubits past them start at 0."""
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            circuit = parse_circuit(fh.read())
    except UnicodeDecodeError as exc:
        raise CircuitError(f"circuit file is not UTF-8: {exc}") from None
    bits, n = args.input, circuit.n_qubits
    if not 0 < len(bits) <= n or any(ch not in "01" for ch in bits):
        raise CircuitError(f"input must be 1 to {n} bits, each 0 or 1, got {bits!r}")
    return circuit, [int(ch) for ch in bits]


def cmd_compile(args) -> tuple[dict, dict, bool | None, int]:
    circuit, x = _load_circuit(args)
    try:
        instance = compile_circuit(circuit, x)
    except (CompileError, spectral.SpectralError) as exc:
        raise ResourceFailure(str(exc))
    vertices = component_size(instance.system, [instance.s, instance.t, instance.t_prime])
    instance.save(args.out)
    outputs = {
        "out": args.out,
        "ell": instance.ell,
        "m": instance.m,
        "c": instance.c,
        "epsilon": instance.epsilon,
        "length": instance.length,
        "alphabet_size": len(instance.system.alphabet.tokens),
        "window": instance.system.window,
        "reachable_vertices": vertices,
    }
    inputs = {"circuit": args.circuit, "input": args.input}
    return inputs, outputs, True, EXIT_OK


def cmd_delta(args) -> tuple[dict, dict, bool | None, int]:
    instance = CompiledInstance.load(args.instance)
    n = args.steps if args.steps is not None else instance.m
    value = exact_delta(instance, n)
    sign = (value > 0) - (value < 0)
    outputs = {"n": n, "delta": str(value), "sign": sign}
    return {"instance": args.instance, "steps": n}, outputs, None, SIGN_EXIT[sign]


def cmd_verify(args) -> tuple[dict, dict, bool | None, int]:
    instance = CompiledInstance.load(args.instance)
    if not isinstance(instance.system, ClockSystem):
        raise CompileError("verify needs a compiled instance, not one with explicit rules")
    circuit, x = _load_circuit(args)
    report = verify(instance, circuit, x)
    inputs = {"instance": args.instance, "circuit": args.circuit, "input": args.input}
    passed = report.all_passed
    return inputs, report.to_json(), passed, EXIT_OK if passed else EXIT_FAIL


def cmd_spectral(args) -> tuple[dict, dict, bool | None, int]:
    upper, lower, lower_valid = spectral.bounds(args.ell, args.m)  # rejects a bad m first
    corner = spectral.corner_entry(args.ell, args.m)
    try:
        corner_float = float(corner)
    except OverflowError:
        corner_float = math.inf
    outputs = {
        "lambda0": spectral.eigenvalue(args.ell, 0),
        "w0": spectral.weight(args.ell, 0),
        "corner": str(corner),
        "corner_float": corner_float,
        "upper": upper,
        "lower": lower,
        "lower_valid": lower_valid,
    }
    return {"ell": args.ell, "m": args.m}, outputs, None, EXIT_OK


def cmd_estimate(args) -> tuple[dict, dict, bool | None, int]:
    from . import estimator  # numpy: loaded here, not by every command

    instance = CompiledInstance.load(args.instance)
    m = args.m if args.m is not None else instance.m
    try:
        est, exact, vertices, nodes = estimator.estimate_with_noise(
            instance, m, args.eta, args.theta, args.samples, seed=args.seed
        )
    except estimator.EstimateError as exc:
        raise ResourceFailure(str(exc))
    sign = (est.value > 0) - (est.value < 0)
    decided = abs(est.value) > est.error_bound
    inputs = {
        "instance": args.instance,
        "m": m,
        "eta": args.eta,
        "theta": args.theta,
        "samples": args.samples,
        "seed": args.seed,
    }
    outputs = {
        "estimate": est.value,
        "exact_clipped": exact,
        "bias_bound": est.bias_bound,
        "halfwidth": est.halfwidth,
        "error_bound": est.error_bound,
        "sign": sign,
        "decided": decided,
        "vertices": vertices,
        "quadrature_nodes": nodes,
    }
    return inputs, outputs, None, SIGN_EXIT[sign if decided else 0]


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a circuit to an instance file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bits, e.g. 110")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("delta", help="walk-count difference of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="run all correctness checks on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral", help="path-graph spectral quantities")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("estimate", help="noisy spectral estimate of the sign")
    p.add_argument("--instance", required=True)
    p.add_argument("--m", type=_in_range(int, 0), default=None)
    p.add_argument("--eta", type=_in_range(float, 0.0, sys.float_info.max / 2), required=True)
    p.add_argument("--theta", type=_in_range(float, 0.0, 1.0), required=True)
    p.add_argument("--samples", type=_in_range(int, 1), required=True)
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return EXIT_PARSE
        return _print_flushed("", EXIT_OK)  # --help: argparse wrote the text
    t0 = time.perf_counter()
    try:
        inputs, outputs, passed, code = args.func(args)
        doc = _document(args.command, inputs, outputs, passed, time.perf_counter() - t0)
    except (
        VerifyError,
        ResourceFailure,
        SimulationTooLarge,
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
        OSError,
    ) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _print_flushed(doc, code)


def run() -> None:
    """The process entry (``python3 -m walkdelta.cli`` and the console
    script): ``main`` on sys.argv, then the process ends with its code.

    ``main`` has written and flushed the document by the time it returns, so
    ``os._exit`` skips only CPython's finalization: module teardown and full
    GC passes over numpy's objects, a cost the process would pay after its
    result. The package opens no file it leaves unclosed and starts no
    thread, and neither it nor numpy registers an ``atexit`` callback.
    """
    code = main()
    if sys.stderr is not None:  # None when fd 2 was closed at start
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
