import ast
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walkdelta
from walkdelta import cli, clock, estimator, spectral, verifier
from walkdelta.circuits import overlap, parse_circuit
from walkdelta.clock import compile_circuit
from walkdelta.rewriting import RewritingSystem

from oracles import brute_force_count


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    circuit = root / "h.txt"
    circuit.write_text("qubits 1\nh 0\n")
    instance = root / "h.json"
    code = cli.main(
        ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(instance)]
    )
    assert code == 0
    return root, circuit, instance


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_compile_reports_constants(workspace, capsys):
    root, circuit, _ = workspace
    out = root / "again.json"
    code, doc = run(
        capsys, ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)]
    )
    assert code == 0
    assert doc["schema"] == cli.SCHEMA
    assert doc["outputs"]["alphabet_size"] == 224
    assert doc["outputs"]["window"] == 3
    assert doc["outputs"]["ell"] == 64
    assert doc["outputs"]["m"] == 65**3


def test_compile_deterministic(workspace, capsys):
    root, circuit, instance = workspace
    out = root / "copy.json"
    code, _ = run(
        capsys, ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == instance.read_bytes()


def test_delta_exact_and_scaled_agree_in_sign(workspace, capsys):
    _, _, instance = workspace
    code, doc = run(capsys, ["delta", "--instance", str(instance), "--steps", "63"])
    assert code == 1
    assert doc["outputs"]["delta"] == "-2147483648"
    assert doc["outputs"]["sign"] == -1
    assert doc["inputs"] == {"instance": str(instance), "steps": 63}


def test_delta_scaled_option_removed(workspace, capsys):
    _, _, instance = workspace
    assert cli.main(["delta", "--instance", str(instance), "--steps", "63", "--scaled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --scaled" in captured.err


def test_delta_four_cycle_toy(tmp_path, capsys):
    doc = {
        "system": {"alphabet": ["a", "b"], "window": 1, "rules": [[["a"], ["b"]]]},
        "s": ["a", "a"],
        "t": ["b", "b"],
        "t_prime": ["a", "b"],
        "m": 2,
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["delta", "--instance", str(path), "--steps", "2"])
    assert code == 0
    assert out["outputs"]["delta"] == "2"


def test_delta_zero_exits_undecidable(tmp_path, capsys):
    doc = {
        "system": {"alphabet": ["a", "b"], "window": 1, "rules": [[["a"], ["b"]]]},
        "s": ["a", "a"],
        "t": ["b", "b"],
        "t_prime": ["b", "b"],
        "m": 2,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["delta", "--instance", str(path), "--steps", "2"])
    assert code == 4
    assert out["outputs"]["sign"] == 0


def test_verify_golden(workspace, capsys):
    _, circuit, instance = workspace
    code, doc = run(
        capsys,
        [
            "verify",
            "--instance",
            str(instance),
            "--circuit",
            str(circuit),
            "--input",
            "0",
        ],
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["outputs"]["sigma"] == -1


@pytest.mark.parametrize("tamper", ["swap-t-t-prime", "input-1"])
def test_verify_refuses_a_reversed_sign(workspace, tmp_path, capsys, tamper):
    # the sign convention is fixed at -1: swapping t and t' flips every
    # delta, and input 1 flips the amplitude; either fits only sigma = +1
    _, circuit, instance = workspace
    path, bits = instance, "1"
    if tamper == "swap-t-t-prime":
        doc = json.loads(instance.read_text())
        doc["t"], doc["t_prime"] = doc["t_prime"], doc["t"]
        path, bits = tmp_path / "swapped.json", "0"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["delta", "--instance", str(path), "--steps", "65"])
        assert (code, out["outputs"]["sign"]) == (0, 1)
    argv = ["verify", "--instance", str(path), "--circuit", str(circuit), "--input", bits]
    code, out = run(capsys, argv)
    assert code == 1
    assert out["passed"] is False
    assert out["outputs"]["sigma"] is None
    checks = {c["name"]: c["passed"] for c in out["outputs"]["checks"]}
    assert checks["master_identity"] is False
    assert checks["sign_decision"] is False


def test_verify_too_many_amplitudes_exit_3(workspace, tmp_path, capsys):
    _, _, instance = workspace
    circuit = tmp_path / "h13.txt"
    circuit.write_text("qubits 13\n" + "".join(f"h {q}\n" for q in range(13)))
    argv = ["verify", "--instance", str(instance), "--circuit", str(circuit), "--input", "0"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: state exceeds 4096 amplitudes")


def test_spectral_command(capsys):
    code, doc = run(capsys, ["spectral", "--ell", "2", "--m", "1"])
    assert code == 0
    assert doc["outputs"]["corner"] == "1"
    assert doc["outputs"]["lambda0"] == pytest.approx(1.0)


def test_estimate_command_deterministic(workspace, capsys):
    _, _, instance = workspace
    argv = [
        "estimate",
        "--instance",
        str(instance),
        "--eta",
        "1e-6",
        "--theta",
        "0.0",
        "--samples",
        "400",
        "--seed",
        "11",
    ]
    code1, doc1 = run(capsys, argv)
    code2, doc2 = run(capsys, argv)
    assert doc1["outputs"]["estimate"] == doc2["outputs"]["estimate"]
    assert code1 == code2
    assert abs(doc1["outputs"]["estimate"] - doc1["outputs"]["exact_clipped"]) <= (
        doc1["outputs"]["error_bound"]
    )


def test_parse_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["delta", "--instance", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits zero\n")
    out = tmp_path / "o.json"
    assert (
        cli.main(["compile", "--circuit", str(bad), "--input", "0", "-o", str(out)])
        == 2
    )
    capsys.readouterr()


TOY = {
    "system": {"alphabet": ["a", "b"], "window": 1, "rules": [[["a"], ["b"]]]},
    "s": ["a", "a"],
    "t": ["b", "b"],
    "t_prime": ["a", "b"],
    "m": 2,
}


# a star pair t - x, y and t' - u, v: the orbit of e_t - e_t' is orthonormal,
# so estimate reaches its noise plan and bounds, which divide by c
TREE = {
    "system": {
        "alphabet": ["p", "t", "u", "v", "x", "y"],
        "window": 1,
        "rules": [[["t"], ["x"]], [["t"], ["y"]], [["p"], ["u"]], [["p"], ["v"]]],
    },
    "s": ["x"],
    "t": ["t"],
    "t_prime": ["p"],
    "m": 3,
}

BAD_CONSTANTS = {
    "c-zero": {"c": 0},
    "c-nan": {"c": math.nan},
    "c-negative": {"c": -2},
    "c-infinite": {"c": math.inf},
    "epsilon-negative": {"epsilon": -1.0},
    "epsilon-nan": {"epsilon": math.nan},
}

# d is the parity of the dummy-Hadamard steps: 0 or 1, nothing else
BAD_D_PARITY = {"d-parity-negative": -1, "d-parity-2": 2, "d-parity-fraction": 1.7}

# m and ell are integers: neither truncated nor parsed from another type
BAD_INTEGERS = {
    "m-fraction": {"m": 274625.9},
    "ell-fraction": {"ell": 64.9},
    "m-string": {"m": "274625"},
    "m-boolean": {"m": True},
}

# an explicit-rule window is an integer too
BAD_WINDOWS = {"window-fraction": 2.9, "window-string": "2", "window-boolean": True}

# a compiled instance holds its ell and d_parity: the explicit-rule defaults
# ell = 2 and d_parity = 0 would give it another c, epsilon and identity
MISSING = {"without-ell": "ell", "without-d-parity": "d_parity"}


def _clock_short(instance):
    doc = json.loads(instance.read_text())
    return {**doc, **{key: doc[key][:2] for key in ("s", "t", "t_prime")}}


def _clock_with(**fields):
    return lambda instance: {**json.loads(instance.read_text()), **fields}


def _clock_without(key):
    return lambda instance: {
        k: v for k, v in json.loads(instance.read_text()).items() if k != key
    }


def _toy_with_window(window):
    return lambda instance: {**TOY, "system": {**TOY["system"], "window": window}}


@pytest.mark.parametrize(
    "document",
    [
        lambda instance: [1, 2],
        lambda instance: {**TOY, "m": "abc"},
        _toy_with_window("x"),
        lambda instance: {**TOY, "system": {**TOY["system"], "rules": [1]}},
        _clock_short,
        lambda instance: {**TOY, "m": -1},
        _clock_with(m=-1),
        _clock_with(m=61),  # ell = 64: below ell - 1, of the right parity
        _clock_with(m=64),  # of the parity of ell
    ]
    + [lambda instance, bad=bad: {**TREE, **bad} for bad in BAD_CONSTANTS.values()]
    + [_clock_with(d_parity=d) for d in BAD_D_PARITY.values()]
    + [_clock_with(**bad) for bad in BAD_INTEGERS.values()]
    + [_toy_with_window(w) for w in BAD_WINDOWS.values()],
    ids=[
        "not-an-object",
        "non-numeric-m",
        "non-numeric-window",
        "rule-not-a-pair",
        "clock-shorter-than-window",
        "negative-m",
        "clock-negative-m",
        "clock-m-below-ell-1",
        "clock-m-parity-of-ell",
    ]
    + list(BAD_CONSTANTS)
    + [f"clock-{k}" for k in BAD_D_PARITY]
    + [f"clock-{k}" for k in BAD_INTEGERS]
    + [f"explicit-{k}" for k in BAD_WINDOWS],
)
def test_malformed_instance_exit_2(workspace, tmp_path, capsys, document):
    _, circuit, instance = workspace
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document(instance)))
    for argv in (
        ["delta", "--instance", str(path), "--steps", "2"],
        ["verify", "--instance", str(path), "--circuit", str(circuit), "--input", "0"],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")


# a document per instance kind, and the arguments of each command on it
DOCUMENTS = {
    "explicit-rules": lambda instance: TOY,
    "explicit-tree": lambda instance: TREE,
    **{
        f"explicit-{k}": lambda instance, bad=bad: {**TREE, **bad}
        for k, bad in BAD_CONSTANTS.items()
    },
    "clock": lambda instance: json.loads(instance.read_text()),
    "clock-ell-2": lambda instance: {**json.loads(instance.read_text()), "ell": 2},
    "clock-c-100": lambda instance: {**json.loads(instance.read_text()), "c": 100.0},
    "clock-epsilon-0": lambda instance: {**json.loads(instance.read_text()), "epsilon": 0.0},
    **{f"clock-{k}": _clock_with(d_parity=d) for k, d in BAD_D_PARITY.items()},
    **{f"clock-{k}": _clock_with(**bad) for k, bad in BAD_INTEGERS.items()},
    **{f"explicit-{k}": _toy_with_window(w) for k, w in BAD_WINDOWS.items()},
    **{f"clock-{k}": _clock_without(key) for k, key in MISSING.items()},
}
ARGUMENTS = {
    "delta": ["--steps", "3"],
    "verify": ["--circuit", "{c}", "--input", "0"],
    "estimate": ["--eta", "0", "--theta", "0", "--samples", "10"],
}


@pytest.mark.parametrize("kind", DOCUMENTS)
@pytest.mark.parametrize("command", ARGUMENTS)
def test_no_traceback(workspace, tmp_path, capsys, command, kind):
    _, circuit, instance = workspace
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(DOCUMENTS[kind](instance)))
    extra = [a.format(c=circuit) for a in ARGUMENTS[command]]
    code = cli.main([command, "--instance", str(path)] + extra)
    captured = capsys.readouterr()
    assert code in {0, 1, 2, 3, 4}
    if code == 1:
        assert json.loads(captured.out)["passed"] in (False, None)
    bad_kinds = (
        BAD_CONSTANTS.keys()
        | BAD_D_PARITY.keys()
        | BAD_INTEGERS.keys()
        | BAD_WINDOWS.keys()
        | MISSING.keys()
    )
    if kind.partition("-")[2] in bad_kinds or (command, kind) in {
        ("verify", "explicit-rules"),  # every check is clock-specific
        ("verify", "explicit-tree"),
    }:
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error:")
    if (command, kind) == ("verify", "clock-ell-2"):  # sqrt(2) lambda_1(2) < 0
        assert code == 1
        checks = {c["name"]: c for c in json.loads(captured.out)["outputs"]["checks"]}
        details = checks["growth_constant_resolution"]["details"]
        assert details["log_margin_vs_lambda1"] is None
        assert details["lambda1_variant_holds_at_m"] is False


@pytest.mark.parametrize("field,value", [("c", 100.0), ("epsilon", 0.0)])
def test_clock_constants_follow_from_ell(workspace, tmp_path, capsys, field, value):
    # the c and epsilon of a compiled instance file are copies of what its
    # ell fixes: a tampered copy changes no check and no estimate
    _, circuit, instance = workspace
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({**json.loads(instance.read_text()), field: value}))
    for command, extra in (
        ("verify", ["--circuit", str(circuit), "--input", "0"]),
        ("estimate", ["--eta", "0", "--theta", "0", "--samples", "10"]),
    ):
        want_code, want = run(capsys, [command, "--instance", str(instance)] + extra)
        code, doc = run(capsys, [command, "--instance", str(path)] + extra)
        assert code == want_code
        assert doc["outputs"] == want["outputs"]


@pytest.mark.parametrize("command", ["verify", "compile"])
def test_directory_path_exit_2(workspace, tmp_path, capsys, command):
    _, circuit, instance = workspace
    if command == "verify":
        argv = ["verify", "--instance", str(instance), "--circuit", str(tmp_path), "--input", "0"]
    else:
        argv = ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize("command", ["verify", "compile"])
def test_more_input_bits_than_qubits_exit_2(workspace, tmp_path, capsys, command):
    # both commands check the bit count of --input against the circuit
    _, circuit, instance = workspace
    out = tmp_path / "never.json"
    if command == "verify":
        argv = ["verify", "--instance", str(instance), "--circuit", str(circuit), "--input", "01"]
    else:
        argv = ["compile", "--circuit", str(circuit), "--input", "01", "-o", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: input must be 1 to 1 bits, each 0 or 1, got '01'\n"
    assert not out.exists()


def test_explicit_rules_past_a_byte_of_symbols(tmp_path, capsys):
    # 300 tokens, so no string is bytes: the walks run on symbol tuples,
    # through symbols 256 and 299, and delta still counts them exactly
    tokens = [f"x{i}" for i in range(300)]
    cycle = ["x0", "x299", "x256", "x1", "x0"]
    rules = [[[a], [b]] for a, b in zip(cycle, cycle[1:])] + [[["x256"], ["x0"]]]
    doc = {"system": {"alphabet": tokens, "window": 1, "rules": rules},
           "s": ["x0", "x256"], "t": ["x299", "x299"], "t_prime": ["x1", "x256"], "m": 0}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    system = RewritingSystem.from_json(doc["system"])
    s, t, t_prime = (system.alphabet.encode(doc[key]) for key in ("s", "t", "t_prime"))
    values = []
    for n in range(8):
        code, out = run(capsys, ["delta", "--instance", str(path), "--steps", str(n)])
        want = brute_force_count(system, s, t, n) - brute_force_count(system, s, t_prime, n)
        assert int(out["outputs"]["delta"]) == want
        assert code == cli.SIGN_EXIT[(want > 0) - (want < 0)]
        values.append(want)
    assert len(set(values)) > 2


def test_estimate_endpoints_not_distinct_exit_3(tmp_path, capsys):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({**TOY, "t": ["a", "a"]}))
    argv = ["estimate", "--instance", str(path), "--eta", "0", "--theta", "0", "--samples", "10"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: s, t and t' must be distinct")


@pytest.mark.parametrize("edges", ["ab bc", "ab bc cd"])
def test_estimate_orbit_not_orthonormal_exit_3(tmp_path, capsys, edges):
    # a path from s = a with t = b, t' = c: w_1 = e_a - e_b + e_c meets the
    # support of w_0 and has |w_1|^2 = 3, not 4; with a fourth vertex d,
    # w_1 = e_a - e_b + e_c - e_d has the norm 4 but still meets it; no
    # measure is sampled from either
    path = tmp_path / "path.json"
    rules = [[[e[0]], [e[1]]] for e in edges.split()]
    alphabet = sorted(set(edges) - {" "})
    doc = {"system": {"alphabet": alphabet, "window": 1, "rules": rules},
           "s": ["a"], "t": ["b"], "t_prime": ["c"], "m": 2}
    path.write_text(json.dumps(doc))
    argv = ["estimate", "--instance", str(path), "--eta", "0", "--theta", "0", "--samples", "10"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: orbit of e_t - e_t' is not orthonormal at w_1")


@pytest.mark.slow
def test_estimate_past_the_dense_guard(tmp_path, capsys):
    # ell 704: the component has 11,264 vertices, past the 4,000 that the
    # dense reference spectral_measure allows; estimate never diagonalises it
    circuit = parse_circuit("qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0\n")
    inst = compile_circuit(circuit, [0, 0, 0])
    path = tmp_path / "hh-toffoli.json"
    inst.save(path)
    argv = ["estimate", "--instance", str(path), "--eta", "1e-9", "--theta", "1e-3",
            "--samples", "1000"]
    code, doc = run(capsys, argv)
    assert code == 4
    out = doc["outputs"]
    assert (out["vertices"], out["quadrature_nodes"]) == (11_264, estimator.QUADRATURE_NODES)
    ov = overlap(circuit, [0, 0, 0]).to_float()
    want = -ov * spectral.scaled_corner(inst.ell, inst.m) / math.sqrt(1 + inst.d_parity)
    assert out["exact_clipped"] == pytest.approx(want, rel=1e-9)


@pytest.mark.slow
def test_delta_at_ell_9072_peak_rss_under_50_mb(tmp_path):
    # the orbit holds two vectors of a few hundred strings at a time; keyed
    # by interned ids it kept 559,668 strings and their adjacency, ~200 MB
    layers = ["h 0", "h 1", "toffoli 0", "h 2", "toffoli 1", "h 3", "h 4", "h 5"]
    circuit = parse_circuit("qubits 6\n" + "\n---\n".join(layers) + "\n")
    inst = compile_circuit(circuit, [0] * 6)
    assert inst.ell == 9072
    path = tmp_path / "ell-9072.json"
    inst.save(path)
    argv = ["delta", "--instance", str(path), "--steps", str(inst.ell + 1)]
    code = (
        "import resource, sys; from walkdelta import cli; exit_code = cli.main(%r); "
        "print(exit_code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)"
    ) % argv
    # a child's ru_maxrss starts at the RSS of the process that started it
    # (about 50 MB for pytest), so a bare interpreter starts the measured one
    launcher = "import subprocess, sys; subprocess.run(sys.argv[1:])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(walkdelta.__file__))}
    cmd = [sys.executable, "-c", launcher, sys.executable, "-c", code]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    exit_code, max_rss_kb = map(int, proc.stderr.split())
    sign = json.loads(proc.stdout)["outputs"]["sign"]
    assert sign == -overlap(circuit, [0] * 6).sign() != 0
    assert exit_code == (0 if sign > 0 else 1)
    assert max_rss_kb < 50 * 1024


def test_resource_error_exit_3(workspace, capsys, monkeypatch):
    # the h 0 layout has 3 blocks of 2 cells, so its control run takes at
    # least 2 * 2 * 2 * 8 = 64 steps
    root, circuit, _ = workspace
    out = root / "tiny.json"
    monkeypatch.setattr(clock, "MAX_CONTROL_STEPS", 4)
    code = cli.main(["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "resource error: the control run needs at least 64 steps, over the limit of 4\n"
    )
    assert not out.exists()


def test_compile_refuses_a_run_past_the_step_limit_at_once(tmp_path, capsys):
    # qubits 600 / h 0 has 2 blocks of 601 cells, so its run takes at least
    # 2 * 601 * 1204 steps, past the 1,000,000 that compile follows
    circuit = tmp_path / "wide.txt"
    circuit.write_text("qubits 600\nh 0\n")
    out = tmp_path / "wide.json"
    start = time.perf_counter()
    code = cli.main(["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)])
    seconds = time.perf_counter() - start
    assert (code, capsys.readouterr()) == (
        3,
        ("", "resource error: the control run needs at least 1447208 steps, "
         "over the limit of 1000000\n"),
    )
    assert seconds < 1
    assert not out.exists()


def _delta_on(document):
    def argv(tmp_path, instance):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document(instance)))
        return ["delta", "--instance", str(path), "--steps", "2"]

    return argv


def _toy_with_rules(*rules):
    return lambda instance: {**TOY, "system": {**TOY["system"], "rules": list(rules)}}


def _clock_alphabet_edited(instance):
    doc = json.loads(instance.read_text())
    alphabet = ["z"] + doc["system"]["alphabet"][1:]
    return {**doc, "system": {**doc["system"], "alphabet": alphabet}}


def _compile_comment_only(tmp_path, instance):
    circuit = tmp_path / "comment.txt"
    circuit.write_text("# a comment and nothing else\n")
    return ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(tmp_path / "o.json")]


@pytest.mark.parametrize(
    "argv, line",
    [
        (_delta_on(lambda instance: {**TOY, "s": ["z", "a"]}), "unknown token 'z'"),
        (_delta_on(_toy_with_rules([["a"], ["z"]])), "unknown token 'z'"),
        (_delta_on(_toy_with_window(0)), "window must be >= 1"),
        (_delta_on(_toy_with_rules([["a", "a"], ["b", "b"]])), "rule wider than window: (0, 0)"),
        (_delta_on(_clock_alphabet_edited), "alphabet mismatch in instance file"),
        (_compile_comment_only, "missing 'qubits N' header"),
    ],
    ids=[
        "explicit-unknown-token-in-s",
        "explicit-unknown-token-in-a-rule",
        "explicit-window-0",
        "explicit-rule-wider-than-window",
        "clock-alphabet-edited",
        "circuit-without-header",
    ],
)
def test_refusal_exit_2_with_its_one_line(workspace, tmp_path, capsys, argv, line):
    _, _, instance = workspace
    assert cli.main(argv(tmp_path, instance)) == 2
    assert capsys.readouterr() == ("", f"parse error: {line}\n")


def test_removed_options_exit_2(workspace, capsys):
    root, circuit, _ = workspace
    compile_argv = ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(root / "m.json")]
    for argv, option in (
        (["--schema-version=x", "spectral", "--ell", "2", "--m", "1"], "--schema-version"),
        (compile_argv + ["--m-mode", "paper"], "--m-mode"),
        (compile_argv + ["--vertex-budget", "10"], "--vertex-budget"),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err


def test_bad_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(walkdelta.__file__))
    code = "import sys, walkdelta.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _command_argv(workspace, tmp_path, command) -> list[str]:
    _, circuit, instance = workspace
    return {
        "compile": ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(tmp_path / "i.json")],
        "delta": ["delta", "--instance", str(instance), "--steps", "63"],
        "verify": ["verify", "--instance", str(instance), "--circuit", str(circuit), "--input", "0"],
        "spectral": ["spectral", "--ell", "64", "--m", "63"],
        "estimate": ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "10"],
    }[command]


def _run_command_then(argv, check, *flags):
    """Run cli.main(argv) in a fresh interpreter, then the assertion ``check``.
    numpy's directory is on the path, so that ``estimate`` runs under -S."""
    paths = [os.path.dirname(os.path.dirname(module.__file__)) for module in (walkdelta, np)]
    code = "import sys; from walkdelta import cli; cli.main(%r); %s" % (argv, check)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    cmd = [sys.executable, *flags, "-c", code]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["compile", "delta", "verify"])
def test_commands_leave_numpy_unloaded(workspace, tmp_path, command):
    # numpy is the estimator's alone: loading it costs every other command
    # about 90 ms of start-up
    argv = _command_argv(workspace, tmp_path, command)
    _run_command_then(argv, "assert 'numpy' not in sys.modules, 'numpy loaded'")


@pytest.mark.parametrize("command", ["compile", "delta", "verify", "spectral"])
def test_commands_leave_dataclasses_inspect_and_typing_unloaded(workspace, tmp_path, command):
    # importing dataclasses (which loads inspect, ast, dis and tokenize) and
    # generating its classes cost each process about 20 ms of start-up; -S
    # keeps site's .pth files, which may import typing themselves, out
    argv = _command_argv(workspace, tmp_path, command)
    check = "bad = {'dataclasses', 'inspect', 'typing'} & set(sys.modules); assert not bad, bad"
    _run_command_then(argv, check, "-S")


@pytest.mark.parametrize("command", ["compile", "delta", "verify", "spectral", "estimate"])
def test_commands_register_no_atexit_callback(workspace, tmp_path, command):
    # cli.run ends the process with os._exit, which skips atexit callbacks:
    # with none registered by walkdelta or numpy it skips only finalization;
    # -S keeps out site's .pth files, which may register their own
    argv = _command_argv(workspace, tmp_path, command)
    _run_command_then(argv, "import atexit; n = atexit._ncallbacks(); assert n == 0, n", "-S")


@pytest.mark.parametrize("command", ["compile", "delta", "verify", "spectral", "estimate"])
def test_canonical_commands_leave_argparse_and_gettext_unloaded(workspace, tmp_path, command):
    # importing argparse (with gettext) and building its six parsers cost each
    # process about 4 ms of start-up; the command table parses this form alone
    argv = _command_argv(workspace, tmp_path, command)
    check = "bad = {'argparse', 'gettext'} & set(sys.modules); assert not bad, bad"
    _run_command_then(argv, check, "-S")


def _argparse_result(argv):
    """argparse's namespace of ``argv`` as a dict, or None where it exits
    (help or an error), with what it writes swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_canonical_command_lines_parse_as_argparse_does(workspace, tmp_path):
    # every command, the short flag -o, every option of estimate, any order
    lines = [_command_argv(workspace, tmp_path, c) for c in cli._commands()]
    lines.append(["compile", "-o", "i.json", "--input", "0", "--circuit", "h.txt"])
    estimate = ["--seed", "7", "--samples", "1", "--theta", "1", "--eta", "0", "--m", "0"]
    lines.append(["estimate", *estimate, "--instance", "i"])
    for argv in lines:
        args = cli._parse_canonical(argv)
        assert args is not None, argv
        assert vars(args) == _argparse_result(argv)


# each in range for every option, and each option's type takes it
VALUES = ["1", " 1", "01", "0_1", "+1"]
EDITS = [
    "none", "abbreviate", "unknown", "equals", "repeat", "dash-value",
    "missing", "extra", "global", "bad-value", "attached",
]


@st.composite
def _command_lines(draw):
    """A command line of the table with its required options and some of
    the others, in any order, then at most one edit that argparse must judge."""
    command = draw(st.sampled_from(list(cli._commands())))
    argv = [command]
    for flags, _, required, *_ in draw(st.permutations(cli._commands()[command][2])):
        if required or draw(st.booleans()):
            argv += [draw(st.sampled_from(flags)), draw(st.sampled_from(VALUES))]
    edit = draw(st.sampled_from(EDITS))
    i = draw(st.sampled_from(range(1, len(argv) - 1, 2)))  # an option's flag
    flag, value = argv[i : i + 2]
    if edit == "abbreviate" and len(flag) > 3:  # --i is ambiguous in verify
        argv[i] = flag[: draw(st.sampled_from([3, len(flag) - 1]))]
    elif edit == "unknown":
        argv[i:i] = ["--bogus", "1"]
    elif edit == "equals":
        argv[i : i + 2] = [f"{flag}={value}"]
    elif edit == "repeat":  # with another value
        argv += [flag, draw(st.sampled_from(VALUES))]
    elif edit == "dash-value":
        argv[i + 1] = draw(st.sampled_from(["-5", "-1", "-h", "--help", "--", "-x"]))
    elif edit == "missing":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "extra":
        argv.insert(draw(st.integers(1, len(argv))), "extra")
    elif edit == "global":
        argv.insert(0, "--schema-version=x")
    elif edit == "bad-value":
        argv[i + 1] = draw(st.sampled_from(["0", "2", "inf", "nan", "1e308", "0x10", "x", ""]))
    elif edit == "attached":  # -oOUT, or a near miss
        argv[i : i + 2] = ["-o" + value] if flag in ("-o", "--out") else [flag + "s", value]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_command_lines())
def test_command_table_declines_or_agrees_with_argparse(argv):
    args = cli._parse_canonical(argv)
    assert args is None or vars(args) == _argparse_result(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["delta", "--help"],
        ["verify", "--in", "x"],
        ["delta", "--instance", "x.json", "--steps=x"],
        ["estimate", "--instance", "x.json", "--eta", "0", "--theta", "0", "--samples", "1", "--m", "-1"],
        ["spectral", "--ell", "2", "--m", "1", "--m", "x"],
    ],
    ids=["help", "delta-help", "ambiguous-abbreviation", "equals-bad-int", "m-out-of-range", "repeat"],
)
def test_declined_command_lines_print_what_argparse_prints(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert cli.main(argv) == (2 if exc.value.code else 0)
    assert capsys.readouterr() == want


def test_estimate_takes_no_dense_eigh(workspace, capsys, monkeypatch):
    # spectral_measure is the tests' reference: the estimate path reaches
    # neither it nor an eigh larger than the Jacobi matrix of the Gauss rule
    _, _, instance = workspace
    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if len(a) > estimator.QUADRATURE_NODES:
            raise AssertionError(f"eigh of a {len(a)} x {len(a)} matrix")
        return eigh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("spectral_measure on the estimate path")

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    monkeypatch.setattr(estimator, "spectral_measure", refuse)
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "10"]
    code, doc = run(capsys, argv)
    assert code == 4
    assert (doc["schema"], doc["command"], doc["passed"]) == (cli.SCHEMA, "estimate", None)
    out = doc["outputs"]
    assert (out["vertices"], out["quadrature_nodes"]) == (512, estimator.QUADRATURE_NODES)


def test_estimate_vertex_budget_option_removed(workspace, capsys):
    _, _, instance = workspace
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "1"]
    assert cli.main(argv + ["--vertex-budget", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --vertex-budget" in captured.err


def test_estimate_error_exit_3(workspace, capsys, monkeypatch):
    _, _, instance = workspace

    def refuse(*args, **kwargs):
        raise estimator.EstimateError("component too large")

    monkeypatch.setattr(estimator, "estimate_with_noise", refuse)
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "1"]
    assert cli.main(argv) == 3
    assert "resource error: component too large" in capsys.readouterr().err


def test_estimate_past_the_countable_samples_exit_3(workspace, capsys):
    # numpy counts draws in int64; 10^19 >= 2^63 is refused in one line,
    # where it used to end in a traceback and exit 1
    _, _, instance = workspace
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0",
            "--samples", str(10**19)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource error: samples = {10**19} is past 2^63 - 1, " \
        "the most the sampler counts\n"


def test_estimate_out_of_memory_exit_3(workspace, capsys, monkeypatch):
    _, _, instance = workspace

    def exhaust(*args, **kwargs):
        raise MemoryError("no room for the offsets")

    monkeypatch.setattr(estimator, "noisy_estimate", exhaust)
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "1"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource error: no room for the offsets\n"


@pytest.mark.parametrize("key", ["m", "s", "t", "t_prime"])
def test_instance_without_a_field_exit_2(workspace, tmp_path, capsys, key):
    _, _, instance = workspace
    doc = json.loads(instance.read_text())
    del doc[key]
    path = tmp_path / "lacking.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["delta", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: malformed instance file: no '{key}'\n"


def test_float_overflow_exit_3(capsys, monkeypatch):
    def overflow(args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_spectral", overflow)
    assert cli.main(["spectral", "--ell", "2", "--m", "1"]) == 3
    assert "resource error: math range error" in capsys.readouterr().err


def test_spectral_past_float_range(capsys):
    code, doc = run(capsys, ["spectral", "--ell", "64", "--m", "1101"])
    assert code == 0
    assert int(doc["outputs"]["corner"]) > 0
    assert doc["outputs"]["corner_float"] == doc["outputs"]["upper"] == float("inf")


@pytest.mark.parametrize("ell, m", [(64, 63), (252, 251), (1040, 1041)])
def test_corner_float_is_the_exact_corner(capsys, ell, m):
    # near m = ell the spectral sum cancels to noise of the wrong sign
    code, doc = run(capsys, ["spectral", "--ell", str(ell), "--m", str(m)])
    assert code == 0
    assert doc["outputs"]["corner_float"] == float(int(doc["outputs"]["corner"])) > 0


def test_spectral_corner_past_int_str_limit(capsys):
    # 2^14999 has 4,516 digits, past Python's default int-to-str limit
    code, doc = run(capsys, ["spectral", "--ell", "3", "--m", "30000"])
    assert code == 0
    assert doc["outputs"]["corner"] == str(2**14999)


@pytest.mark.parametrize(
    "bad",
    [
        ["--samples", "0"],
        ["--samples", "-5"],
        ["--eta", "-1"],
        ["--theta", "2"],
        ["--m", "-3"],
        ["--seed", "-1"],
        ["--eta", "inf"],
        ["--eta", "1e308"],
    ],
    ids=[
        "samples-0",
        "samples-negative",
        "eta-negative",
        "theta-above-1",
        "m-negative",
        "seed-negative",
        "eta-infinite",
        "eta-doubled-overflows",
    ],
)
def test_estimate_argument_out_of_range_exit_2(workspace, capsys, bad):
    _, _, instance = workspace
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "10"]
    assert cli.main(argv + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {bad[0]}: {bad[1]} is outside" in captured.err


def test_estimate_largest_eta_runs(workspace, capsys):
    """An eta whose double is still finite is sampled, not refused."""
    _, _, instance = workspace
    argv = ["estimate", "--instance", str(instance), "--eta", "1e300", "--theta", "0", "--samples", "10"]
    code, doc = run(capsys, argv)
    assert code == 4
    assert doc["inputs"]["eta"] == 1e300


def test_component_past_the_budget_null_count_estimate_exit_3(workspace, capsys, monkeypatch):
    # the h 0 component has 512 strings: past a budget of 511 compile reports
    # no count, and estimate, which needs the whole component, refuses it
    root, circuit, _ = workspace
    out = root / "edge.json"
    argv = ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)]
    monkeypatch.setattr(verifier, "VERTEX_BUDGET", 511)
    code, doc = run(capsys, argv)
    assert code == 0
    assert doc["outputs"]["reachable_vertices"] is None
    assert out.exists()
    estimate = ["estimate", "--instance", str(out), "--eta", "0", "--theta", "0", "--samples", "1"]
    assert cli.main(estimate) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reachable set exceeds 511 vertices" in captured.err
    out.unlink()
    monkeypatch.setattr(verifier, "VERTEX_BUDGET", 512)
    code, doc = run(capsys, argv)
    assert code == 0
    assert doc["outputs"]["reachable_vertices"] == 512
    assert out.exists()


@pytest.mark.parametrize(
    "command, content",
    [
        ("compile", "binary"),
        ("verify-circuit", "binary"),
        ("delta", "binary"),
        ("verify", "binary"),
        ("estimate", "binary"),
        ("delta", "deep"),
        ("verify", "deep"),
        ("estimate", "deep"),
    ],
)
def test_unreadable_file_exit_2(workspace, tmp_path, capsys, command, content):
    # a file that is not UTF-8, or JSON nested past the recursion limit, is a
    # parse error where it is read, not a traceback
    _, circuit, instance = workspace
    bad = tmp_path / "bad"
    if content == "binary":
        bad.write_bytes(bytes(range(128, 256)))
    else:
        bad.write_text("[" * 200_000 + "]" * 200_000)
    bits = ["--input", "0"]
    argv = {
        "compile": ["compile", "--circuit", str(bad), "-o", str(tmp_path / "o")] + bits,
        "verify-circuit": ["verify", "--instance", str(instance), "--circuit", str(bad)] + bits,
        "delta": ["delta", "--instance", str(bad), "--steps", "3"],
        "verify": ["verify", "--instance", str(bad), "--circuit", str(circuit)] + bits,
        "estimate": ["estimate", "--instance", str(bad)]
        + ["--eta", "0", "--theta", "0", "--samples", "1"],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o").exists()


def test_delta_negative_steps_exit_2(workspace, capsys):
    _, _, instance = workspace
    assert cli.main(["delta", "--instance", str(instance), "--steps", "-1"]) == 2
    assert "walk length must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [sys.maxsize, 10**30])
def test_delta_steps_past_maxsize_exit_2(workspace, capsys, steps):
    # exit 1 would read as a negative sign; the walk is past what islice counts
    _, _, instance = workspace
    assert cli.main(["delta", "--instance", str(instance), "--steps", str(steps)]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: walk length must be < {sys.maxsize} (sys.maxsize)\n"


@pytest.mark.parametrize(
    "ell,m",
    [
        ("1", "3"),
        ("5", "-1"),
        ("64", "11"),
        ("64", "100"),
        ("64", "274626"),
        (str(10**20), str(10**20 + 1)),  # w_0 rounds below 0 in floats
    ],
)
def test_spectral_bad_arguments_exit_2(monkeypatch, capsys, ell, m):
    def refused(*args):  # a bad m is rejected before the corner entry is summed
        raise AssertionError("path_column called")

    monkeypatch.setattr(spectral, "path_column", refused)
    assert cli.main(["spectral", "--ell", ell, "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


# -- the process entry: cli.run, through python3 -m walkdelta.cli ------------

SMALL_DOCUMENT = ["spectral", "--ell", "2", "--m", "1"]
ROOT = Path(__file__).resolve().parent.parent


def _process(argv, stdout=subprocess.PIPE, close_stdout=False) -> subprocess.CompletedProcess:
    """``python3 -m walkdelta.cli argv`` in a fresh interpreter; with
    ``close_stdout``, started with fd 1 closed."""
    src = os.path.dirname(os.path.dirname(walkdelta.__file__))
    cmd = [sys.executable, "-m", "walkdelta.cli", *argv]
    if close_stdout:
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    # stdout is block-buffered by default: with PYTHONUNBUFFERED set, a
    # document os._exit would lose if main did not flush it still arrives
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def _without_seconds(out: str):
    if not out:
        return out
    doc = json.loads(out)
    del doc["seconds"]
    return doc


def _argv_for_exit_code(workspace, tmp_path, code) -> list[str]:
    _, _, instance = workspace
    if code == 3:  # estimate refuses the three-vertex path a-b-c
        path = tmp_path / "path.json"
        system = {"alphabet": ["a", "b", "c"], "window": 1, "rules": [[["a"], ["b"]], [["b"], ["c"]]]}
        path.write_text(json.dumps({"system": system, "s": ["a"], "t": ["b"], "t_prime": ["c"], "m": 2}))
        return ["estimate", "--instance", str(path), "--eta", "0", "--theta", "0", "--samples", "10"]
    if code == 4:  # toffoli 0 on 110 has amplitude 0, so Delta(n) = 0 for every n
        path = tmp_path / "toffoli.json"
        compile_circuit(parse_circuit("qubits 3\ntoffoli 0\n"), [1, 1, 0]).save(path)
        return ["delta", "--instance", str(path), "--steps", "81"]
    return {
        0: SMALL_DOCUMENT,
        1: ["delta", "--instance", str(instance), "--steps", "63"],
        2: ["delta", "--instance", str(tmp_path / "missing.json"), "--steps", "3"],
    }[code]


@pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
def test_process_ends_as_main_returns(workspace, tmp_path, capsys, code):
    argv = _argv_for_exit_code(workspace, tmp_path, code)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    proc = _process(argv)
    assert proc.returncode == code
    assert proc.stderr == captured.err
    assert _without_seconds(proc.stdout) == _without_seconds(captured.out)


def test_process_prints_help_as_main_does(capsys, monkeypatch):
    # argparse writes --help to stdout and exits; main flushes it
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["--help"]) == 0
    proc = _process(["--help"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_process_pipes_a_90204_digit_document_whole(workspace):
    # the document is past the pipe's buffer; main flushes it before os._exit
    _, _, instance = workspace
    proc = _process(["delta", "--instance", str(instance), "--steps", "200001"])
    assert (proc.returncode, proc.stderr) == (1, "")
    delta = json.loads(proc.stdout)["outputs"]["delta"]
    assert delta[0] == "-" and len(delta) == 1 + 90_204


def test_process_compile_writes_the_in_process_file(workspace, tmp_path):
    _, circuit, _ = workspace
    compile_circuit(parse_circuit(circuit.read_text()), [0]).save(tmp_path / "in-process.json")
    out = tmp_path / "process.json"
    proc = _process(["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == (tmp_path / "in-process.json").read_bytes()


def _oserror(code: int) -> str:
    return str(OSError(code, os.strerror(code)))


@pytest.mark.parametrize(
    "sink, size",
    [
        ("closed-pipe", "small"),
        ("closed-pipe", "large"),
        ("dev-full", "small"),
        ("dev-full", "large"),
        ("closed-fd", "small"),
    ],
)
def test_process_unwritable_stdout_exit_3(workspace, sink, size):
    # exit 2 would read as a parse error, and a traceback's exit 1 as a
    # negative sign; the large document (90,204 digits) is past any buffer
    _, _, instance = workspace
    argv = SMALL_DOCUMENT if size == "small" else ["delta", "--instance", str(instance), "--steps", "200001"]
    if sink == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _process(argv, stdout=write)
        finally:
            os.close(write)
        reason = _oserror(errno.EPIPE)
    elif sink == "dev-full":
        with open("/dev/full", "w") as full:
            proc = _process(argv, stdout=full)
        reason = _oserror(errno.ENOSPC)
    else:
        proc = _process(argv, stdout=None, close_stdout=True)
        reason = "standard output is closed"
    assert proc.returncode == 3
    assert proc.stderr == f"resource error: cannot write the result: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_instance_file_on_a_full_disk_exit_3(workspace, capsys):
    # opening succeeds, writing fails: a resource error, and the path stays
    _, circuit, _ = workspace
    argv = ["compile", "--circuit", str(circuit), "--input", "0", "-o", "/dev/full"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = _oserror(errno.ENOSPC)
    assert captured.err == f"resource error: cannot write the instance file: {reason}\n"
    assert os.path.exists("/dev/full")


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


@pytest.mark.parametrize("stdout", [_BrokenPipe(), None], ids=["broken-pipe", "closed"])
def test_unwritable_stdout_exit_3(capsys, monkeypatch, stdout):
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(SMALL_DOCUMENT) == 3
    reason = _oserror(errno.EPIPE) if stdout else "standard output is closed"
    assert capsys.readouterr().err == f"resource error: cannot write the result: {reason}\n"


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize("case", ["parse", "resource", "unwritable-stdout"])
def test_process_unwritable_stderr_changes_neither_stdout_nor_exit_code(
    workspace, tmp_path, stderr, case
):
    # with fd 2 closed, sys.stderr is None and print(file=None) would write
    # to stdout, where a reader expects a document or nothing; an OSError
    # from a read-only fd 2 escaping main would exit 1, the code of a
    # negative sign. The child's stdout is unbuffered, so that whatever
    # reaches it shows although run ends the process with os._exit
    out = tmp_path / "stdout"
    out.write_bytes(b"")
    if case == "unwritable-stdout":  # fd 1 read-only: every write fails
        argv, code, mode = SMALL_DOCUMENT, 3, "rb"
    else:
        code = {"parse": 2, "resource": 3}[case]
        argv, mode = _argv_for_exit_code(workspace, tmp_path, code), "wb"
    src = os.path.dirname(os.path.dirname(walkdelta.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
    with open(out, mode) as stdout, open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [sys.executable, "-m", "walkdelta.cli", *argv],
            env=env,
            stdout=stdout,
            stderr=read_only if stderr == "read-only" else None,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
        )
    assert (proc.returncode, out.read_text()) == (code, "")


def test_console_script_and_module_both_call_run():
    # the installed command and python3 -m walkdelta.cli end the same way;
    # Python 3.10 has no tomllib, so the script line is read as text
    assert 'walkdelta = "walkdelta.cli:run"' in (ROOT / "pyproject.toml").read_text().splitlines()
    tree = ast.parse((ROOT / "src" / "walkdelta" / "cli.py").read_text())
    blocks = [
        node.body
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [[ast.unparse(statement) for statement in body] for body in blocks] == [["run()"]]
