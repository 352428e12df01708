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

import json
import math
import os
import sys
import time
from types import SimpleNamespace

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
        _print_stderr(f"resource error: cannot write the result: {exc}\n")
        return EXIT_RESOURCE
    return code


def _print_stderr(text: str) -> None:
    """Write ``text`` to stderr and flush it, if stderr takes it. A stderr
    that is closed (``sys.stderr`` None, where ``print`` would fall back on
    stdout) or cannot be written changes neither stdout nor the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


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
    fh = open(args.out, "w")  # a path that cannot be opened is a parse error
    try:
        with fh:
            fh.write(json.dumps(instance.to_json()) + "\n")
    except OSError as exc:  # a full disk; the path stays, as it may be a device
        raise ResourceFailure(f"cannot write the instance file: {exc}") from None
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
            import argparse  # only to refuse the value, as argparse reports it
            end = "]" if high < math.inf else ")"
            raise argparse.ArgumentTypeError(f"{text} is outside [{low}, {high}{end}")
        return value

    return parse


def _commands() -> dict:
    """Command: (function, help, options), in help order; option: (flags, type,
    required, default, help). Built per call, so a patched ``cmd_*`` runs."""
    return {
        "compile": (cmd_compile, "compile a circuit to an instance file", (
            (("--circuit",), str, True, None, None),
            (("--input",), str, True, None, "input bits, e.g. 110"),
            (("-o", "--out"), str, True, None, None),
        )),
        "delta": (cmd_delta, "walk-count difference of an instance", (
            (("--instance",), str, True, None, None),
            (("--steps",), int, False, None, None),
        )),
        "verify": (cmd_verify, "run all correctness checks on an instance", (
            (("--instance",), str, True, None, None),
            (("--circuit",), str, True, None, None),
            (("--input",), str, True, None, None),
        )),
        "spectral": (cmd_spectral, "path-graph spectral quantities", (
            (("--ell",), int, True, None, None),
            (("--m",), int, True, None, None),
        )),
        "estimate": (cmd_estimate, "noisy spectral estimate of the sign", (
            (("--instance",), str, True, None, None),
            (("--m",), _in_range(int, 0), False, None, None),
            (("--eta",), _in_range(float, 0.0, sys.float_info.max / 2), True, None, None),
            (("--theta",), _in_range(float, 0.0, 1.0), True, None, None),
            (("--samples",), _in_range(int, 1), True, None, None),
            (("--seed",), _in_range(int, 0), False, 0, None),
        )),
    }


def _parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace of ``COMMAND --option VALUE ...`` (exact option
    names, each once, every value taken by its type and none starting with
    ``-``); None for any other command line, left to ``build_parser``."""
    commands = _commands()
    if not argv or argv[0] not in commands or len(argv) % 2 == 0:
        return None
    func, _, options = commands[argv[0]]
    by_flag = {flag: (flags[-1][2:], cast) for flags, cast, *_ in options for flag in flags}
    args = {flags[-1][2:]: default for flags, _, _, default, _ in options}
    given = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        dest, cast = by_flag.get(flag, (None, None))
        if dest is None or dest in given or text.startswith("-"):
            return None
        given.add(dest)
        try:
            args[dest] = cast(text)
        except Exception:  # argparse reports it, or raises it again
            return None
    if any(required and flags[-1][2:] not in given for flags, _, required, *_ in options):
        return None
    return SimpleNamespace(command=argv[0], func=func, **args)


def build_parser():
    """The argparse parser of the command table: help, errors and the command
    lines ``_parse_canonical`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="walkdelta",
        description="Compile circuits to rewriting systems and decide walk-count signs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _commands().items():
        p = sub.add_parser(command, help=summary)
        for flags, cast, required, default, text in options:
            p.add_argument(*flags, type=cast, required=required, default=default, help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_canonical(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
        _print_stderr(f"resource error: {exc}\n")
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
        _print_stderr(f"parse error: {exc}\n")
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
    _print_stderr("")  # flushes what argparse or a warning left buffered
    os._exit(code)


if __name__ == "__main__":
    run()
