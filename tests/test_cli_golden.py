"""Golden documents and help texts of every subcommand on the one-qubit H circuit.

Each run goes through ``cli.main``; its exit code and document, without
``seconds`` and the fields that hold paths, are compared with a file under
``tests/golden``. Estimate's floats come from ``eigh``, whose last digits
depend on the BLAS build, so they match to a relative 1e-9; everything else
matches exactly. ``PYTHONPATH=src python tests/test_cli_golden.py`` rewrites
the files from the ``walkdelta`` on the import path.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from walkdelta import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PATHS = ("circuit", "instance", "out")

# argv of each run, in order: compile writes the instance the others read;
# {c} is the circuit file and {i} the instance file
RUNS = {
    "compile": ["compile", "--circuit", "{c}", "--input", "0", "-o", "{i}"],
    "delta": ["delta", "--instance", "{i}", "--steps", "63"],
    "verify": ["verify", "--instance", "{i}", "--circuit", "{c}", "--input", "0"],
    "spectral": ["spectral", "--ell", "64", "--m", "1101"],
    "estimate": [
        "estimate", "--instance", "{i}", "--eta", "1e-6", "--theta", "0.001",
        "--samples", "30", "--seed", "3",
    ],
}


def _main(argv) -> tuple[int, str]:
    """Exit code and stdout of one ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _strip(doc: dict) -> dict:
    doc = {k: v for k, v in doc.items() if k != "seconds"}
    for part in ("inputs", "outputs"):
        doc[part] = {k: v for k, v in doc[part].items() if k not in PATHS}
    return doc


def _results(root: Path) -> dict:
    circuit, instance = root / "h.txt", root / "h.json"
    circuit.write_text("qubits 1\nh 0\n")
    results = {}
    for name, argv in RUNS.items():
        code, text = _main([a.format(c=circuit, i=instance) for a in argv])
        results[name] = {"exit": code, "document": _strip(json.loads(text))}
    return results


def _close(got, want, rel: float) -> bool:
    """Equal, except that floats may differ by the relative tolerance."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=rel)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k], rel) for k in want)
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return _results(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(RUNS))
def test_document_matches_golden(results, name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    if name == "estimate":
        assert _close(results[name], want, 1e-9), (results[name], want)
    else:
        assert results[name] == want


@pytest.mark.parametrize("name", list(RUNS))
def test_help_matches_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert _main([name, "--help"]) == (0, (GOLDEN / f"{name}.help").read_text())


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, result in _results(Path(tmp)).items():
            text = json.dumps(result, indent=1, sort_keys=True) + "\n"
            (GOLDEN / f"{name}.json").write_text(text)
    for name in RUNS:
        (GOLDEN / f"{name}.help").write_text(_main([name, "--help"])[1])
