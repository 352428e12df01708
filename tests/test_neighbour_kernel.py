"""What the one neighbour kernel relies on.

``ClockSystem.windows`` caches the rule windows of a string per program band
(the high nibble of each cell), each with the one image cache its program
pair is read by; ``verifier.component_size`` counts a closure from a set
alone. Both must give what the uncached, fully built routes give.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from test_rule_windows import assert_filter_exact
from walkdelta.circuits import parse_circuit
from walkdelta.clock import (
    ALPHABET_SIZE,
    BAND,
    PREDECESSORS,
    TRANSITIONS,
    ClockSystem,
    compile_circuit,
)
from walkdelta.rewriting import Alphabet, RewritingSystem, Rule, WalkSpace
from walkdelta.verifier import ReachableGraph, VerifyError, component_size

LADDER = [
    ("qubits 1\nh 0", [0], 512),
    ("qubits 3\ntoffoli 0", [1, 1, 0], 640),
    ("qubits 2\nh 0\n---\nswap 0", [0, 0], 2016),
    ("qubits 2\nh 0\n---\nswap 0\n---\nh 1", [0, 0], 3264),
    ("qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0", [0, 0, 0], 11264),
    ("qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0\n---\nh 2", [0, 0, 0], 33280),
]


def test_no_program_pair_is_read_in_both_directions():
    # so a window's pair fixes the one image cache that can give it images
    assert TRANSITIONS.keys().isdisjoint(PREDECESSORS.keys())


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
        min_size=0,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_band_cache_exact_for_strings_of_one_band(h_instance, base, edits, seed):
    # the second string has the first one's program band and other low
    # nibbles, so it is served from the band the first one cached
    s = list(getattr(h_instance, base))
    for pos, cells in edits:
        start = pos % (len(s) - len(cells) + 1)
        s[start : start + len(cells)] = cells
    first = bytes(s)
    rng = random.Random(seed)
    twin = bytes((c & 0xF0) | rng.randrange(16) for c in first)
    assert twin.translate(BAND) == first.translate(BAND)
    system = ClockSystem()
    space = WalkSpace(system)
    assert_filter_exact(system, space, space.canonical(first))
    assert system.windows(twin) is system.windows(first)
    assert_filter_exact(system, space, space.canonical(twin))


def test_a_new_system_starts_with_no_band():
    # the cache belongs to one system, as to one process: nothing is shared
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    cached = inst.system.windows(inst.t)
    assert ClockSystem().windows(inst.t) is not cached
    assert ClockSystem().windows(inst.t) == cached


@pytest.mark.parametrize("text, x, size", LADDER)
def test_component_size_is_the_closure_size_on_the_ladder(text, x, size):
    inst = compile_circuit(parse_circuit(text), x)
    seeds = [inst.s, inst.t, inst.t_prime]
    assert component_size(inst.system, seeds) == len(ReachableGraph(inst.system, seeds)) == size


def random_toy(rng):
    alphabet = Alphabet(tuple("abc"))
    window = rng.randrange(1, 3)
    rules = set()
    for _ in range(rng.randrange(1, 4)):
        width = rng.randrange(1, window + 1)
        lhs = tuple(rng.randrange(3) for _ in range(width))
        rhs = tuple(rng.randrange(3) for _ in range(width))
        if lhs != rhs:
            rules.add(Rule(lhs, rhs))
    return RewritingSystem(alphabet, window, rules)


def test_component_size_is_the_closure_size_on_toys():
    rng = random.Random(5)
    sizes = set()
    for _ in range(300):
        system = random_toy(rng)
        length = rng.randrange(system.window, 6)
        seeds = [tuple(rng.randrange(3) for _ in range(length)) for _ in range(rng.randrange(1, 4))]
        size = len(ReachableGraph(system, seeds))
        assert component_size(system, seeds) == size
        sizes.add(size)
    assert len(sizes) > 10  # the toys are not all one shape


def test_component_size_refuses_past_the_budget_as_the_closure_does():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    seeds = [inst.s, inst.t, inst.t_prime]
    assert component_size(inst.system, seeds, max_vertices=512) == 512
    for closure in (component_size, ReachableGraph):
        with pytest.raises(VerifyError, match="reachable set exceeds 511 vertices"):
            closure(inst.system, seeds, max_vertices=511)
