import json
import os
import subprocess
import sys

import pytest

import walkdelta
from walkdelta import cli, estimator


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
    assert doc["outputs"]["rule_count"] > 0
    assert doc["outputs"]["rule_count"] == 1916


def test_compile_deterministic(workspace, capsys):
    root, circuit, instance = workspace
    out = root / "copy.json"
    code, _ = run(
        capsys, ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == instance.read_bytes()


def test_compile_sign_only_smaller_m(workspace, capsys):
    root, circuit, _ = workspace
    out = root / "sign.json"
    code, doc = run(
        capsys,
        [
            "compile",
            "--circuit",
            str(circuit),
            "--input",
            "0",
            "--m-mode",
            "sign_only",
            "-o",
            str(out),
        ],
    )
    assert code == 0
    assert doc["outputs"]["m"] <= 65**3


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


def test_resource_error_exit_3(workspace, capsys):
    root, circuit, _ = workspace
    out = root / "tiny.json"
    code = cli.main(
        [
            "compile",
            "--circuit",
            str(circuit),
            "--input",
            "0",
            "-o",
            str(out),
            "--vertex-budget",
            "10",
        ]
    )
    capsys.readouterr()
    assert code == 3
    assert not out.exists()


def test_unknown_schema_exit_2(capsys):
    code = cli.main(["--schema-version", "other", "spectral", "--ell", "2", "--m", "1"])
    capsys.readouterr()
    assert code == 2


def test_bad_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(walkdelta.__file__))
    code = "import sys, walkdelta.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_estimate_budget_default_is_dense_guard():
    args = cli.build_parser().parse_args(
        ["estimate", "--instance", "i", "--eta", "0", "--theta", "0", "--samples", "1"]
    )
    assert args.vertex_budget == estimator.MAX_DENSE_VERTICES == 4000


def test_estimate_error_exit_3(workspace, capsys, monkeypatch):
    _, _, instance = workspace

    def refuse(*args, **kwargs):
        raise estimator.EstimateError("component too large")

    monkeypatch.setattr(estimator, "estimate_with_noise", refuse)
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "1"]
    assert cli.main(argv) == 3
    assert "resource error: component too large" in capsys.readouterr().err


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
        ["--vertex-budget", "-1"],
    ],
    ids=[
        "samples-0",
        "samples-negative",
        "eta-negative",
        "theta-above-1",
        "m-negative",
        "seed-negative",
        "eta-infinite",
        "vertex-budget-negative",
    ],
)
def test_estimate_argument_out_of_range_exit_2(workspace, capsys, bad):
    _, _, instance = workspace
    argv = ["estimate", "--instance", str(instance), "--eta", "0", "--theta", "0", "--samples", "10"]
    assert cli.main(argv + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {bad[0]}: {bad[1]} is outside" in captured.err


def test_compile_vertex_budget_below_1_exit_2(workspace, capsys):
    root, circuit, _ = workspace
    out = root / "budget.json"
    argv = ["compile", "--circuit", str(circuit), "--input", "0", "-o", str(out)]
    assert cli.main(argv + ["--vertex-budget", "-1"]) == 2
    assert "argument --vertex-budget: -1 is outside" in capsys.readouterr().err
    assert not out.exists()


def test_delta_negative_steps_exit_2(workspace, capsys):
    _, _, instance = workspace
    assert cli.main(["delta", "--instance", str(instance), "--steps", "-1"]) == 2
    assert "walk length must be >= 0" in capsys.readouterr().err


def test_verify_negative_max_steps_exit_2(workspace, capsys):
    _, circuit, instance = workspace
    argv = ["verify", "--instance", str(instance), "--circuit", str(circuit), "--input", "0"]
    assert cli.main(argv + ["--max-steps", "-1"]) == 2
    assert "walk length must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("ell,m", [("1", "3"), ("5", "-1")])
def test_spectral_bad_arguments_exit_2(capsys, ell, m):
    assert cli.main(["spectral", "--ell", ell, "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
