"""Tests of the in-process layer tracing.

Run with: python3 -m pytest bench
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walkdelta import circuits, cli, clock, rewriting, verifier  # noqa: E402

from tracing import LayerTrace  # noqa: E402


def _verify_h(tmp_path, layer):
    (tmp_path / "h.txt").write_text("qubits 1\nh 0\n")
    instance = clock.compile_circuit(circuits.parse_circuit("qubits 1\nh 0\n"), [0])
    instance.save(tmp_path / "h.json")
    argv = ["verify", "--instance", str(tmp_path / "h.json"), "--circuit", str(tmp_path / "h.txt"), "--input", "0"]
    with layer.operation("verify"), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return layer.take()


def test_counts_repeat_and_originals_return(tmp_path):
    originals = (verifier.exact_deltas, verifier.step, rewriting.step, circuits.Root2Frac.__add__)
    layer = LayerTrace()
    layer.install()
    try:
        assert verifier.exact_deltas is not originals[0]
        first = _verify_h(tmp_path, layer)
        second = _verify_h(tmp_path, layer)
    finally:
        layer.uninstall()
    assert (verifier.exact_deltas, verifier.step, rewriting.step, circuits.Root2Frac.__add__) == originals

    # ell = 64: end_to_end walks ell+5 steps, the sign check ell-1
    assert first["rewriting.steps"] == 69 + 63
    assert first["spectral.corner_entry_calls"] == 35
    for key in (
        "rewriting.steps",
        "rewriting.vertices_interned",
        "clock.neighbors_calls",
        "clock.image_cache_misses",
        "circuits.root2_ops",
        "spectral.corner_entry_calls",
    ):
        assert first[key] == second[key] > 0, key
    spans = {s["name"] for s in layer.spans}
    assert {"verifier.orbit_check", "verifier.end_to_end", "spectral.corner_entry"} <= spans
