import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from walkdelta import clock, verifier
from walkdelta.circuits import parse_circuit
from walkdelta.clock import (
    ALPHABET_SIZE,
    BLANK,
    DOT,
    D0,
    D1,
    EXEC,
    GATE_B,
    GATE_H,
    GATE_I,
    GATE_S,
    GATE_T,
    HOLE,
    LEFT,
    MARKED,
    N_DATA,
    N_PROGRAM,
    PLAIN,
    PREDECESSORS,
    PROGRAM_NAMES,
    RIGHT,
    SEP,
    TRANSITIONS,
    TURN,
    WINDOW,
    ClockSystem,
    CompileError,
    CompiledInstance,
    backward_images,
    build_strings,
    cell_token,
    check_boundary_inert,
    clock_alphabet,
    compile_circuit,
    control_simulate,
    forward_images,
    layout,
    make_cell,
    rule_windows,
    split_cell,
)

GOLDEN = [
    ("qubits 1\nh 0", [0], 64, 0, 15),
    ("qubits 1\nh 0\n---\nh 0", [0], 120, 1, 19),
    ("qubits 2\nh 0\n---\nswap 0", [0, 0], 252, 0, 26),
    ("qubits 3\ntoffoli 0", [1, 1, 0], 80, 1, 17),
]


def golden_instances():
    for text, x, ell, d_parity, length in GOLDEN:
        yield parse_circuit(text), x, ell, d_parity, length


def test_alphabet_shape():
    alph = clock_alphabet()
    assert len(alph.tokens) == ALPHABET_SIZE == 224
    assert WINDOW == 3
    assert len(set(alph.tokens)) == 224


def test_cell_encoding_round_trip():
    for code in range(ALPHABET_SIZE):
        p, d, a, s = split_cell(code)
        assert make_cell(p, d, a, s) == code
    tokens = [cell_token(code) for code in range(ALPHABET_SIZE)]
    assert clock_alphabet().encode(tokens) == tuple(range(ALPHABET_SIZE))


def test_cell_token_format():
    assert cell_token(make_cell(EXEC, D1, 0, 0)) == "EXEC.D1.0.0"
    assert cell_token(make_cell(GATE_H, SEP, 1, 0)) == "H.SEP.1.0"


def _reverse_candidates(p):
    """Oracle: the six transition rules inverted by hand, as the program
    triples and movement tags whose transition could produce p."""
    pl, p0, p1 = p
    cands = []
    if p0 in PLAIN and p1 in (HOLE, EXEC):  # rule 1 output
        cands.append(((pl, p1, p0), RIGHT))
    if p0 == TURN and p1 == BLANK:  # rule 2 output
        cands.append(((pl, HOLE, BLANK), LEFT))
        cands.append(((pl, EXEC, BLANK), LEFT))
    if p0 in MARKED and p1 == BLANK:  # rule 3 output
        cands.append(((pl, p0 - 5, TURN), LEFT))
    if p0 in MARKED and p1 in PLAIN:  # rule 4 output
        cands.append(((pl, p0 - 5, p1 + 5), LEFT))
    if p0 == TURN and p1 in PLAIN:  # rule 5 output
        cands.append(((pl, BLANK, p1 + 5), LEFT))
    if p0 == BLANK and p1 in (HOLE, EXEC):  # rule 6 output
        cands.append(((pl, BLANK, TURN), RIGHT))
    return cands


def test_derived_inverse_matches_hand_inverted_rules():
    for pair in itertools.product(range(N_PROGRAM), repeat=2):
        want = [(prog[1:], move) for prog, move in _reverse_candidates((BLANK, *pair))]
        assert clock.PREDECESSORS.get(pair, []) == want, pair


def test_every_rule_is_in_the_inverse_of_its_output():
    assert len(clock.RULES) == 49
    assert len(clock.TRANSITIONS) == 48
    for pair, _guard, out, move in clock.RULES:
        assert (pair, move) in clock.PREDECESSORS[out]


def test_blank_window_is_inert():
    blank = make_cell(BLANK, DOT, 0, 0)
    assert forward_images(bytes((blank, blank, blank))) == ()
    assert backward_images(bytes((blank, blank, blank))) == ()


def test_boundary_annihilates():
    # execution marker meeting the terminating boundary symbol: no image
    trip = bytes((
        make_cell(GATE_I, D0, 0, 0),
        make_cell(EXEC, D0, 0, 0),
        make_cell(GATE_B, D0, 0, 0),
    ))
    assert forward_images(trip) == ()


def test_hadamard_branches_and_sim_flip():
    # execution marker to the left of an H above a binary data cell
    trip = bytes((
        make_cell(GATE_I, D0, 0, 0),
        make_cell(EXEC, D0, 0, 0),
        make_cell(GATE_H, D1, 0, 0),
    ))
    imgs = forward_images(trip)
    assert len(imgs) == 2
    out_bits = set()
    for img in imgs:
        for cell in img:
            p, d, a, s = split_cell(cell)
            if d in (D0, D1) and p != GATE_I:
                out_bits.add((d, s))
    # branch to 0 keeps the sim bit, branch to 1 flips it (input bit is 1)
    data_states = set()
    for img in imgs:
        cells = [split_cell(c) for c in img]
        bits = [(d, s) for p, d, a, s in cells if d in (D0, D1)]
        data_states.update(bits)
    assert (D0, 0) in data_states
    assert (D1, 1) in data_states


def test_forward_images_never_self():
    rng = random.Random(5)
    alph_size = ALPHABET_SIZE
    for _ in range(3000):
        trip = bytes(rng.randrange(alph_size) for _ in range(3))
        imgs = forward_images(trip)
        assert len(imgs) <= 2
        assert trip not in imgs


@given(st.tuples(*[st.integers(0, ALPHABET_SIZE - 1)] * 3).map(bytes))
@settings(max_examples=400, deadline=None)
def test_forward_backward_inverse(trip):
    for img in forward_images(trip):
        assert trip in backward_images(img)
    for pre in backward_images(trip):
        assert trip in forward_images(pre)


def _backward_oracle(cells):
    """The predecessors of a window by enumeration: every candidate from the
    inverse rule table and the undone aux/sim carry, with each setting of
    d1 and d2 (among the qubit values when the window holds one), a1 and s1,
    kept when its forward images hold the window."""
    images = forward_images.__wrapped__  # leaves the cache as it is
    p, d, a, s = (list(track) for track in zip(*map(split_cell, cells)))
    d1s, d2s = ((D0, D1) if x in (D0, D1) else (x,) for x in d[1:])
    out = []
    for (q0, q1), move in clock.PREDECESSORS.get((p[1], p[2]), ()):
        ua, us = a.copy(), s.copy()
        ua[move], ua[move + 1] = ua[move + 1], ua[move]
        us[move], us[move + 1] = us[move + 1], us[move]
        left = make_cell(p[0], d[0], ua[0], us[0])
        for d1, d2, a1, s1 in itertools.product(d1s, d2s, (0, 1), (0, 1)):
            cand = bytes((left, make_cell(q0, d1, a1, s1), make_cell(q1, d2, ua[2], us[2])))
            if cells in images(cand):
                out.append(cand)
    return tuple(out)


def test_backward_images_match_the_enumeration_oracle():
    # every program triple whose pair a rule writes, every data triple, and
    # two seeded aux/sim settings each; the uncached function, so that the
    # cache does not keep 86k windows
    backward = backward_images.__wrapped__
    rng = random.Random(18)
    windows = 0
    for pair in clock.PREDECESSORS:
        for p0 in range(N_PROGRAM):
            for data in itertools.product(range(N_DATA), repeat=3):
                for _ in range(2):
                    aux, sim = ([rng.getrandbits(1) for _ in range(3)] for _ in range(2))
                    window = bytes(map(make_cell, (p0, *pair), data, aux, sim))
                    assert backward(window) == _backward_oracle(window), window
                    windows += 1
    assert windows == 48 * 14 * 64 * 2
    for _ in range(20000):
        window = bytes(rng.randrange(ALPHABET_SIZE) for _ in range(3))
        assert backward(window) == _backward_oracle(window), window


def test_cold_fill_asks_each_window_once(monkeypatch):
    # from empty caches, a walk finds the rule windows of each program band
    # once, and asks each window it meets once, in the one direction that
    # reads its program pair
    inst = compile_circuit(parse_circuit("qubits 2\nh 0\n---\nswap 0"), [0, 0])
    assert inst.ell == 252
    windows, neighbors = clock.rule_windows, inst.system.weighted_neighbors
    bands, strings = [], []
    asked = {forward_images: set(), backward_images: set()}

    def recording_windows(s):
        bands.append(s.translate(clock.BAND))
        return windows(s)

    def recording_neighbors(s):
        strings.append(s)
        return neighbors(s)

    def asking(images, reads):
        def ask(window):
            assert (window[1] >> 4, window[2] >> 4) in reads, window
            asked[images].add(window)
            return images(window)

        return ask

    monkeypatch.setattr(clock, "rule_windows", recording_windows)
    monkeypatch.setattr(clock, "forward_images", asking(forward_images, TRANSITIONS))
    monkeypatch.setattr(clock, "backward_images", asking(backward_images, PREDECESSORS))
    monkeypatch.setattr(inst.system, "weighted_neighbors", recording_neighbors)
    forward_images.cache_clear()
    backward_images.cache_clear()
    verifier.exact_delta(inst, 253)
    assert len(bands) == len(set(bands)) == len({s.translate(clock.BAND) for s in strings}) == 252
    met = {s[j : j + 3] for s in strings for j in windows(s)}
    assert asked[forward_images].isdisjoint(asked[backward_images])
    assert asked[forward_images] | asked[backward_images] == met
    assert forward_images.cache_info().misses == len(asked[forward_images]) == 562
    assert backward_images.cache_info().misses == len(asked[backward_images]) == 560
    assert len(met) == 1122


def test_a_tuple_window_never_gives_other_images():
    # the image caches key and compare windows as bytes: a window given as
    # a tuple must give the same images or raise, never miss silently
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    strings = [inst.t, *inst.system.neighbors(inst.t)]
    windows = {s[j : j + 3] for s in strings for j in rule_windows(s)}
    assert any(map(forward_images, windows)) and any(map(backward_images, windows))
    for window in windows:
        for images in (forward_images, backward_images):
            try:
                got = images(tuple(window))
            except TypeError:
                continue
            assert got == images(window)


def test_no_window_is_bidirectional():
    rng = random.Random(11)
    for _ in range(3000):
        trip = bytes(rng.randrange(ALPHABET_SIZE) for _ in range(3))
        if forward_images(trip):
            assert not backward_images(trip)


def test_layout_four_qubit_program_band():
    # two layers on four qubits: Toffoli(0,1,2) and H(3), then H(0), Swap(1,2)
    circuit = parse_circuit("qubits 4\ntoffoli 0\nh 3\n---\nh 0\nswap 1")
    lay = layout(circuit, [0, 0, 0, 0])
    names = [PROGRAM_NAMES[p] for p in lay.program if p != BLANK]
    assert names == ["B", "EXEC", "I", "T", "H", "I", "H", "I", "S", "B", "I"]
    assert lay.block == 5
    assert lay.width == 2


def test_layout_prepends_identity_layer():
    # a first-layer H on qubit 0 claims slot 1, which the markers start in,
    # so an all-identity layer is inserted before it
    lay = layout(parse_circuit("qubits 1\nh 0"), [0])
    names = [PROGRAM_NAMES[p] for p in lay.program if p != BLANK]
    # identity layer before the H, terminator block after it
    assert names == ["B", "EXEC", "I", "H", "I", "B", "I"]
    assert lay.width == 3


def test_layout_data_band_shape():
    lay = layout(parse_circuit("qubits 1\nh 0"), [0])
    assert len(lay.data) == len(lay.program) == lay.length
    assert len(lay.data) == (2 * lay.width - 1) * lay.block + 5
    # separators every block cells, register holds the input bit
    assert lay.data[lay.register_start] == D0
    seps = [i for i, d in enumerate(lay.data) if d == SEP]
    assert all(b - a == lay.block for a, b in zip(seps, seps[1:]))


def test_control_run_golden_lengths():
    for circuit, x, ell, d_parity, length in golden_instances():
        lay = layout(circuit, x)
        run = control_simulate(lay)
        assert run.ell == ell
        assert run.d_parity == d_parity
        assert lay.length == length
        assert len(run.configs) == ell
        assert len(set(run.configs)) == ell


def test_control_run_margins_stay_blank():
    lay = layout(parse_circuit("qubits 1\nh 0"), [0])
    run = control_simulate(lay)
    for config in run.configs:
        assert len(config) == lay.length
        assert config[0] == config[1] == BLANK
        assert config[-1] == config[-2] == BLANK


def test_build_strings_structure():
    for circuit, x, ell, d_parity, length in golden_instances():
        lay = layout(circuit, x)
        run = control_simulate(lay)
        s, t, t_prime = build_strings(lay, run)
        assert len(s) == len(t) == len(t_prime) == length
        # t and t_prime differ in exactly one cell, by the sim bit
        diff = [i for i in range(length) if t[i] != t_prime[i]]
        assert diff == [lay.exec_pos]
        pt, dt, at, st_ = split_cell(t[lay.exec_pos])
        pp, dp, ap, sp = split_cell(t_prime[lay.exec_pos])
        assert (pt, dt, at) == (pp, dp, ap)
        assert (st_, sp) == (1, 0)


def test_compile_golden_constants():
    for circuit, x, ell, d_parity, length in golden_instances():
        inst = compile_circuit(circuit, x)
        assert inst.ell == ell
        assert inst.d_parity == d_parity
        assert inst.length == length
        assert inst.m == (ell + 1) ** 3
        assert inst.m % 2 != ell % 2
        assert 2.0 < inst.c < 2.0**1.5
        assert inst.epsilon > 0
        check_boundary_inert(inst)


def test_instance_json_round_trip(tmp_path):
    circuit = parse_circuit("qubits 1\nh 0")
    inst = compile_circuit(circuit, [0])
    path = tmp_path / "inst.json"
    inst.save(path)
    loaded = CompiledInstance.load(path)
    assert loaded.s == inst.s
    assert loaded.t == inst.t
    assert loaded.t_prime == inst.t_prime
    assert loaded.m == inst.m
    assert loaded.ell == inst.ell
    assert loaded.c == inst.c
    # identical bytes on re-save (determinism)
    path2 = tmp_path / "inst2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    # files written before the unused block field was dropped still load
    old = json.loads(path.read_text())
    old["block"] = 2
    assert CompiledInstance.from_json(old).s == inst.s


def test_instance_json_rejects_bad_generator(tmp_path):
    circuit = parse_circuit("qubits 1\nh 0")
    inst = compile_circuit(circuit, [0])
    doc = inst.to_json()
    doc["system"]["rules"] = "clock-v2"
    with pytest.raises(CompileError):
        CompiledInstance.from_json(doc)


@pytest.mark.parametrize("key", ["m", "s", "t", "t_prime"])
def test_instance_json_without_a_field_is_a_compile_error(key):
    doc = compile_circuit(parse_circuit("qubits 1\nh 0"), [0]).to_json()
    del doc[key]
    with pytest.raises(CompileError, match=f"no '{key}'"):
        CompiledInstance.from_json(doc)


def test_strings_are_bytes_exactly_for_the_clock_system(tmp_path):
    inst = compile_circuit(parse_circuit("qubits 2\nh 0\n---\nswap 0"), [0, 0])
    path, again = tmp_path / "inst.json", tmp_path / "again.json"
    inst.save(path)
    loaded = CompiledInstance.load(path)
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
    for one in (inst, loaded):
        strings = (one.s, one.t, one.t_prime, *one.system.neighbors(one.t))
        assert {type(s) for s in strings} == {bytes}
    explicit = CompiledInstance.from_json({
        "system": {"alphabet": ["a", "b"], "window": 1, "rules": [[["a"], ["b"]]]},
        "s": ["a", "a"], "t": ["b", "b"], "t_prime": ["a", "b"], "m": 2,
    })
    strings = (explicit.s, explicit.t, explicit.t_prime, *explicit.system.weighted_neighbors(explicit.t))
    assert {type(s) for s in strings} == {tuple}


def test_explicit_rule_instance_loads():
    doc = {
        "system": {
            "alphabet": ["a", "b"],
            "window": 1,
            "rules": [[["a"], ["b"]]],
        },
        "s": ["a", "a"],
        "t": ["b", "b"],
        "t_prime": ["a", "b"],
        "m": 2,
    }
    inst = CompiledInstance.from_json(doc)
    assert inst.s == (0, 0)
    assert inst.m == 2


def test_explicit_rule_instance_round_trip(tmp_path):
    doc = {
        "system": {"alphabet": ["a", "b"], "window": 1, "rules": [[["a"], ["b"]]]},
        "s": ["a", "a"], "t": ["b", "b"], "t_prime": ["a", "b"], "m": 2,
    }
    inst = CompiledInstance.from_json(doc)
    path = tmp_path / "explicit.json"
    inst.save(path)
    saved = json.loads(path.read_text())
    assert [saved[key] for key in ("s", "t", "t_prime")] == [["a", "a"], ["b", "b"], ["a", "b"]]
    loaded = CompiledInstance.load(path)
    assert loaded.system.to_json() == inst.system.to_json()
    assert (loaded.s, loaded.t, loaded.t_prime, loaded.m) == (inst.s, inst.t, inst.t_prime, 2)


def test_clock_system_neighbors_symmetric():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    system = inst.system
    for string in (inst.s, inst.t, inst.t_prime):
        for nb in system.neighbors(string):
            assert string in system.neighbors(nb)


def test_compile_rejects_bad_input():
    circuit = parse_circuit("qubits 1\nh 0")
    with pytest.raises(CompileError):
        compile_circuit(circuit, [0, 1])
    with pytest.raises(CompileError):
        compile_circuit(circuit, [2])
