"""The window filter against full scans of every window.

``clock.rule_windows`` lets ``ClockSystem.weighted_neighbors``,
``verifier._forward_step`` and ``clock.control_run`` look only at windows
whose program pair a rule reads. The references below scan every window, as
all three did before the filter, and must give the same neighbours in the
same order (the order of a neighbour dict fixes the search order, so the
positions, of a closure) and the same control run.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from walkdelta import verifier
from walkdelta.circuits import parse_circuit
from walkdelta.clock import (
    ALPHABET_SIZE,
    EXEC,
    HOLE,
    MARKED,
    PREDECESSORS,
    RULE_PAIRS,
    SIGNAL_CELLS,
    SIGNALS,
    TRANSITIONS,
    TURN,
    backward_images,
    CompileError,
    compile_circuit,
    control_run,
    forward_images,
    layout,
    rule_windows,
    split_cell,
)
from walkdelta.rewriting import WalkSpace

from oracles import full_scan_run
from test_circuits import random_circuit

CIRCUITS = [
    ("qubits 1\nh 0", [0]),
    ("qubits 1\nh 0\n---\nh 0", [0]),
    ("qubits 2\nh 0\n---\nswap 0", [0, 0]),
    ("qubits 3\ntoffoli 0", [1, 1, 0]),
]


def full_scan_neighbors(s):
    out = {}
    for j in range(len(s) - 2):
        triple = s[j : j + 3]
        for img in forward_images(triple) + backward_images(triple):
            t = s[:j] + img + s[j + 3 :]
            out[t] = out.get(t, 0) + 1
    out.pop(s, None)
    return out


def full_scan_forward_step(w):
    out = {}
    unique = True
    for s, coef in w.items():
        fired = 0
        for j in range(len(s) - 2):
            imgs = forward_images(s[j : j + 3])
            if imgs:
                fired += 1
                for img in imgs:
                    t = s[:j] + img + s[j + 3 :]
                    cur = out.get(t, 0) + coef
                    if cur:
                        out[t] = cur
                    else:
                        out.pop(t, None)
        if fired > 1:
            unique = False
    return out, unique


def assert_filter_exact(system, space, s):
    assert list(system.weighted_neighbors(s).items()) == list(full_scan_neighbors(s).items())
    got, got_unique = verifier._forward_step(space, {s: 3})
    want, want_unique = full_scan_forward_step({s: 3})
    assert (list(got.items()), got_unique) == (list(want.items()), want_unique)


def test_every_rule_pair_holds_one_signal():
    # rule_windows looks only around signal cells, once per signal: a rule
    # that reads a pair without one would have its windows skipped, and one
    # that reads a pair of two would have its windows counted twice
    assert set(SIGNALS) == MARKED | {HOLE, EXEC, TURN}
    assert RULE_PAIRS == TRANSITIONS.keys() | PREDECESSORS.keys()
    assert len(RULE_PAIRS) == 96
    for pair in RULE_PAIRS:
        assert len([p for p in pair if p in SIGNALS]) == 1, pair


def test_signal_cells_are_the_cells_of_the_signals():
    found = [m.start() for m in SIGNAL_CELLS.finditer(bytes(range(ALPHABET_SIZE)))]
    assert found == [c for c in range(ALPHABET_SIZE) if split_cell(c)[0] in SIGNALS]


@pytest.fixture(scope="module")
def components():
    out = []
    for text, x in CIRCUITS:
        inst = compile_circuit(parse_circuit(text), x)
        graph = verifier.ReachableGraph(inst.system, [inst.s, inst.t, inst.t_prime])
        out.append((inst, graph))
    return out


def test_filter_exact_on_every_component_vertex(components):
    for inst, graph in components:
        space = WalkSpace(inst.system)
        for s in graph.index:
            assert_filter_exact(inst.system, space, space.canonical(s))


def test_rule_windows_are_the_windows_a_rule_reads(components):
    for _, graph in components:
        for s in graph.index:
            windows = range(len(s) - 2)
            pairs = [(split_cell(s[j + 1])[0], split_cell(s[j + 2])[0]) for j in windows]
            read = [j for j in windows if pairs[j] in RULE_PAIRS]
            assert rule_windows(s) == read
            triples = [s[j : j + 3] for j in windows]
            fire = {j for j in windows if forward_images(triples[j]) or backward_images(triples[j])}
            assert fire <= set(read)


@pytest.fixture(scope="module")
def h_instance():
    return compile_circuit(parse_circuit("qubits 2\nh 0\n---\nswap 0"), [0, 0])


@given(
    base=st.sampled_from(["s", "t", "t_prime"]),
    edits=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.lists(st.integers(0, ALPHABET_SIZE - 1), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=300, deadline=None)
def test_filter_exact_on_mutated_strings(h_instance, base, edits):
    # runs of adjacent random cells, so that pairs of signals meet
    s = list(getattr(h_instance, base))
    for pos, cells in edits:
        start = pos % (len(s) - len(cells) + 1)
        s[start : start + len(cells)] = cells
    space = WalkSpace(h_instance.system)
    assert_filter_exact(h_instance.system, space, space.canonical(bytes(s)))


def _run_to_end(run):
    """Every (string, dummy count) a control run yields, and the message of
    the CompileError it ends with, or None."""
    out = []
    try:
        for item in run:
            out.append(item)
    except CompileError as exc:
        return out, str(exc)
    return out, None


def test_control_run_matches_the_full_scan():
    rng = random.Random(31)
    cases = [(parse_circuit(text), x) for text, x in CIRCUITS]
    for _ in range(300):
        n = rng.randint(1, 5)
        circuit = random_circuit(rng, n, rng.randint(1, 6))
        cases.append((circuit, [rng.randint(0, 1) for _ in range(n)]))
    for circuit, x in cases:
        first = layout(circuit, x)
        assert _run_to_end(control_run(first)) == _run_to_end(full_scan_run(first))
