import json
import math
import random
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest

from walkdelta import spectral, verifier
from walkdelta.circuits import (
    R2_INV_SQRT2,
    R2_ONE,
    R2_SQRT2,
    R2_ZERO,
    Root2Frac,
    overlap,
    parse_circuit,
)
from walkdelta.clock import (
    BLANK,
    DOT,
    ClockSystem,
    CompiledInstance,
    compile_circuit,
    forward_images,
    make_cell,
)
from walkdelta.estimator import estimate_with_noise
from walkdelta.rewriting import (
    Alphabet,
    RewriteError,
    RewritingSystem,
    Rule,
    WalkSpace,
    symmetric_close,
)
from walkdelta.verifier import (
    ReachableGraph,
    VerificationReport,
    VerifyError,
    exact_delta,
    exact_deltas,
    sqrt2_power,
    verify,
    within_growth,
)

from oracles import brute_force_count, count_walks
from test_circuits import random_circuit


@pytest.fixture(scope="module")
def h_setup():
    circuit = parse_circuit("qubits 1\nh 0")
    inst = compile_circuit(circuit, [0])
    return circuit, [0], inst


def test_sqrt2_power_exact():
    assert sqrt2_power(0) == Root2Frac(1, 0, 0)
    assert sqrt2_power(1) == Root2Frac(0, 1, 0)
    assert sqrt2_power(2) == Root2Frac(2, 0, 0)
    assert sqrt2_power(7) == Root2Frac(0, 8, 0)
    for n in range(12):
        assert sqrt2_power(n).to_float() == pytest.approx(2 ** (n / 2))


def four_cycle_system():
    alph = Alphabet(("a", "b"))
    rules = symmetric_close([Rule((0,), (1,))])
    return RewritingSystem(alph, 1, rules)


def test_reachable_graph_four_cycle():
    system = four_cycle_system()
    graph = ReachableGraph(system, [(0, 0)])
    assert len(graph) == 4
    assert graph.counts == [2, 2, 2, 2]
    assert len(graph.cols) == 8


def test_reachable_graph_budget(monkeypatch):
    system = four_cycle_system()
    monkeypatch.setattr(verifier, "VERTEX_BUDGET", 4)
    with pytest.raises(VerifyError):
        ReachableGraph(system, [(0, 0, 0)])


def test_reachable_graph_multiple_seeds():
    system = four_cycle_system()
    graph = ReachableGraph(system, [(0, 0), (1, 1), (0, 1)])
    assert len(graph) == 4


def test_exact_deltas_four_cycle():
    system = four_cycle_system()

    class Toy:
        pass

    toy = Toy()
    toy.system = system
    toy.s = (0, 0)
    toy.t = (1, 1)
    toy.t_prime = (0, 1)
    deltas = exact_deltas(toy, 2)
    assert deltas == [0, -1, 2]


def path_grid_system():
    # a-b-c path in each cell of a length-2 string: the 3 x 3 grid graph
    alph = Alphabet(("a", "b", "c"))
    return RewritingSystem(alph, 1, [Rule((0,), (1,)), Rule((1,), (2,))])


@pytest.mark.parametrize(
    "system, s, t, t_prime",
    [
        (four_cycle_system(), (0, 0), (1, 1), (0, 1)),
        (four_cycle_system(), (0, 1), (0, 0), (1, 1)),
        (path_grid_system(), (0, 0), (2, 2), (1, 0)),
        (path_grid_system(), (1, 1), (0, 0), (2, 0)),
        (path_grid_system(), (0, 1), (1, 1), (2, 2)),
        (four_cycle_system(), (0, 0), (0, 0), (1, 1)),
    ],
)
def test_exact_deltas_toys_match_brute_force(system, s, t, t_prime):
    toy = SimpleNamespace(system=system, s=s, t=t, t_prime=t_prime)
    # the path-grid orbits do not stop within n <= 12, so exact_delta takes
    # its truncated branch there; the four-cycle's do stop
    want = [
        brute_force_count(system, s, t, n) - brute_force_count(system, s, t_prime, n)
        for n in range(13)
    ]
    assert exact_deltas(toy, 8) == want[:9]
    assert [exact_delta(toy, n) for n in range(9)] == want[:9]
    assert exact_deltas(toy, 12) == want
    assert [exact_delta(toy, n) for n in range(13)] == want


@pytest.mark.parametrize(
    "text, x",
    [
        ("qubits 1\nh 0", [0]),
        ("qubits 3\ntoffoli 0", [1, 1, 0]),
        ("qubits 1\nh 0\n---\nh 0", [0]),
    ],
)
def test_exact_deltas_match_single_walk_oracle(text, x):
    inst = compile_circuit(parse_circuit(text), x)
    max_n = inst.ell + 5
    want = [
        count_walks(inst.system, inst.s, inst.t, n)
        - count_walks(inst.system, inst.s, inst.t_prime, n)
        for n in range(max_n + 1)
    ]
    assert exact_deltas(inst, max_n) == want


def test_exact_delta_matches_exact_deltas(h_setup):
    _, _, inst = h_setup
    deltas = exact_deltas(inst, 401)
    for n in (0, 1, 2, 63, 64, 65, 401):
        assert exact_delta(inst, n) == deltas[n]


@pytest.mark.parametrize(
    "text, x",
    [
        ("qubits 1\nh 0", [0]),
        ("qubits 3\ntoffoli 0", [1, 1, 0]),
        ("qubits 2\nh 0\n---\nswap 0", [0, 0]),
    ],
)
def test_exact_delta_matches_exact_deltas_around_ell(text, x):
    inst = compile_circuit(parse_circuit(text), x)
    ell = inst.ell
    lengths = (0, 1, ell - 2, ell - 1, ell, ell + 1, 2 * ell + 1)
    deltas = exact_deltas(inst, max(lengths))
    for n in lengths:
        assert exact_delta(inst, n) == deltas[n], n


@pytest.mark.parametrize(
    "text, x", [("qubits 1\nh 0", [0]), ("qubits 2\nh 0\n---\nswap 0", [0, 0])]
)
def test_three_term_orbit_is_forward_orbit(text, x):
    # w_{j+1} = A w_j - 2 w_{j-1} gives F^j (e_t - e_t'), then stops at ell
    inst = compile_circuit(parse_circuit(text), x)
    orbit = list(islice(string_orbit(inst), inst.ell + 1))
    assert len(orbit) == inst.ell
    assert orbit == integer_orbit(inst)


def test_orbit_reads_the_simulator_on_random_circuits():
    # the compiled orbit against the circuit simulator: ell vectors, sigma_j =
    # w_j[s] zero below ell - 1, and the master identity at n = ell - 1,
    # sigma_(ell-1) sqrt(2)^(1+d) = -ov sqrt(2)^ell, exactly in Z[sqrt 2]
    rng = random.Random(2026)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        circuit = random_circuit(rng, n, rng.randint(1, 4))
        x = [rng.randint(0, 1) for _ in range(n)]
        inst = compile_circuit(circuit, x)
        if inst.ell > 1000:
            continue
        sigma = [w.get(inst.s, 0) for w in islice(string_orbit(inst), inst.ell + 1)]
        assert len(sigma) == inst.ell
        assert not any(sigma[:-1])
        lhs = Root2Frac(sigma[-1], 0, 0) * sqrt2_power(1 + inst.d_parity)
        assert lhs == -overlap(circuit, x) * sqrt2_power(inst.ell), (circuit, x)
        checked += 1


@pytest.mark.parametrize(
    "text, x",
    [
        ("qubits 1\nh 0", [0]),
        ("qubits 3\ntoffoli 0", [1, 1, 0]),
        ("qubits 2\nh 0\n---\nswap 0", [0, 0]),
    ],
)
def test_inert_padding_changes_no_answer(text, x):
    # margin cells added on both ends of s, t and t' are never rewritten, so
    # the report, the deltas and the estimate stay as they were
    circuit = parse_circuit(text)
    inst = compile_circuit(circuit, x)
    ell = inst.ell

    def answers(pad: bytes):
        ends = {key: pad + getattr(inst, key) + pad for key in ("s", "t", "t_prime")}
        padded = inst._replace(system=ClockSystem(), **ends)
        return (
            verify(padded, circuit, x).to_json(),
            exact_deltas(padded, ell + 5),
            [exact_delta(padded, n) for n in (ell - 1, ell + 1, 2 * ell + 3)],
            estimate_with_noise(padded, padded.m, 1e-9, 1e-3, 40000, seed=0),
        )

    margin = bytes([make_cell(BLANK, DOT, 0, 0)])
    assert margin == b"\xdc"
    assert answers(margin * 1000) == answers(b"")


def test_exact_delta_cost_does_not_grow_with_n(h_setup, monkeypatch):
    # one neighbour generation per string of the orbit's support, at most
    _, _, inst = h_setup
    calls = 0
    original = ClockSystem.weighted_neighbors

    def counted(system, s):
        nonlocal calls
        calls += 1
        return original(system, s)

    monkeypatch.setattr(ClockSystem, "weighted_neighbors", counted)

    def generations_for(n):
        nonlocal calls
        calls = 0
        exact_delta(inst, n)
        return calls

    support = sum(map(len, string_orbit(inst)))
    assert 0 < generations_for(2001) == generations_for(201) <= support
    assert generations_for(10) <= sum(map(len, islice(string_orbit(inst), 10)))


def test_exact_delta_interns_nothing(h_setup, monkeypatch):
    _, _, inst = h_setup
    toy = SimpleNamespace(system=four_cycle_system(), s=(0, 0), t=(1, 1), t_prime=(0, 1))
    lengths = (0, 1, 2, 5, 65)
    want = [[exact_deltas(i, n)[n] for n in lengths] for i in (inst, toy)]

    def refused(space, system):
        raise AssertionError("built a walk space")

    monkeypatch.setattr(WalkSpace, "__init__", refused)
    assert [[exact_delta(i, n) for n in lengths] for i in (inst, toy)] == want


@pytest.mark.parametrize(
    "text, x",
    [
        ("qubits 1\nh 0", [0]),
        ("qubits 3\ntoffoli 0", [1, 1, 0]),  # zero amplitude: every sigma_j is 0
        ("qubits 3\ntoffoli 0", [0, 0, 0]),
    ],
)
def test_exact_delta_matches_exact_deltas_at_every_n(text, x):
    # every n up to 3 ell + 1, past one reflection of the path column
    inst = compile_circuit(parse_circuit(text), x)
    max_n = 3 * inst.ell + 1
    deltas = exact_deltas(inst, max_n)
    assert [exact_delta(inst, n) for n in range(max_n + 1)] == deltas


@pytest.mark.slow
def test_exact_delta_matches_exact_deltas_at_ell_1040():
    text = "qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0\n---\nh 2"
    inst = compile_circuit(parse_circuit(text), [0, 0, 0])
    assert inst.ell == 1040
    assert exact_delta(inst, 1041) == exact_deltas(inst, 1041)[1041] != 0


@pytest.mark.slow
def test_exact_delta_at_the_paper_m_matches_the_ratio_form():
    # the exact integer against the float identity at m = (ell + 1)^3 on
    # ell 64: Delta(m) = -ov c^m scaled_corner(ell, m) / sqrt(1 + d)
    circuit = parse_circuit("qubits 1\nh 0")
    inst = compile_circuit(circuit, [0])
    assert (inst.ell, inst.m) == (64, 274_625)
    delta = exact_delta(inst, inst.m)
    ov = overlap(circuit, [0])
    assert (delta > 0) - (delta < 0) == -ov.sign()
    scaled = abs(ov.to_float()) * abs(spectral.scaled_corner(64, inst.m))
    want = math.log(scaled / math.sqrt(1 + inst.d_parity))
    assert want == pytest.approx(math.log(1.0157e-4), abs=1e-4)
    assert math.log(abs(delta)) - inst.m * math.log(inst.c) == pytest.approx(want, abs=1e-6)


@pytest.mark.slow
def test_verify_passes_every_check_at_ell_1040():
    circuit = parse_circuit("qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0\n---\nh 2")
    inst = compile_circuit(circuit, [0, 0, 0])
    assert inst.ell == 1040
    report = verify(inst, circuit, [0, 0, 0])
    assert len(report.checks) == 12
    assert all(c.passed for c in report.checks), [c.name for c in report.checks if not c.passed]


def test_equal_endpoints_give_zero_deltas(h_setup):
    # d = e_t - e_t' is the zero vector, not e_t with the wrong sign
    _, _, inst = h_setup
    same = CompiledInstance(
        inst.system, inst.s, inst.t, inst.t,
        inst.m, inst.ell, inst.d_parity, inst.c, inst.epsilon,
    )
    assert exact_deltas(same, inst.ell + 5) == [0] * (inst.ell + 6)
    assert exact_delta(same, inst.ell + 1) == 0
    toy = SimpleNamespace(system=four_cycle_system(), s=(0, 0), t=(1, 1), t_prime=(1, 1))
    assert exact_deltas(toy, 8) == [0] * 9


@pytest.mark.parametrize("extra, interned", [(4, 1696), (5, 1700)])
def test_exact_deltas_walk_stays_in_its_light_cone(monkeypatch, extra, interned):
    # N steps, and before step n + 1 the walk holds only strings within N - n
    # of s, the only ones that can still reach s. The graph is bipartite and
    # d(s, t) has the parity of ell - 1, so only at N = ell + 4 does the walk
    # reach strings at distance N - n + 1, which a cut one step too loose keeps
    inst = compile_circuit(parse_circuit("qubits 2\nh 0\n---\nswap 0"), [0, 0])
    assert inst.ell == 252
    n_steps = inst.ell + extra
    space = WalkSpace(inst.system)
    inputs = []
    original = verifier.step

    def recorded(system, v):
        inputs.append(set(v.entries))
        return original(system, v)

    monkeypatch.setattr(verifier, "step", recorded)
    exact_deltas(inst, n_steps, space)
    assert len(inputs) == n_steps
    assert len(space) == interned

    source = inst.s
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in space.adjacency(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    for n, support in enumerate(inputs):
        assert support and max(dist.get(x, math.inf) for x in support) <= n_steps - n, n


def test_verify_h_all_passed(h_setup):
    circuit, x, inst = h_setup
    report = verify(inst, circuit, x)
    assert report.all_passed
    assert report.sigma == -1
    names = {c.name for c in report.checks}
    assert {
        "no_backward_step_from_start",
        "forward_window_unique",
        "orbit_terminates",
        "orbit_orthonormal",
        "restricted_hamiltonian_is_path",
        "orbit_edges_single_derivation",
        "parity_zeros",
        "master_identity",
        "sign_decision",
        "growth_promise",
        "growth_constant_resolution",
        "gap_promise",
    } <= names


def test_growth_constant_resolution_details(h_setup):
    circuit, x, inst = h_setup
    report = verify(inst, circuit, x)
    check = next(c for c in report.checks if c.name == "growth_constant_resolution")
    # the smaller-eigenvalue variant of the growth constant survives short
    # walks but fails at the gap-condition walk length
    assert check.passed
    assert check.details["lambda1_variant_holds_desk_scale"] is True
    assert check.details["lambda1_variant_holds_at_m"] is False
    assert check.details["log_margin_vs_lambda1"] > 0


def test_growth_comparison_past_float_range():
    # (2 sqrt 2)^2000 = 2^3000 overflows a float; the log form does not
    c, n = 2 * math.sqrt(2), 2000
    with pytest.raises(OverflowError):
        c**n
    assert within_growth(0, c, n)
    assert within_growth(2**2999, c, n)
    assert within_growth(-(2**2999), c, n)
    assert not within_growth(2**3001, c, n)
    assert not within_growth(-(2**3001), c, n)


def test_verify_zero_overlap_toffoli():
    circuit = parse_circuit("qubits 3\ntoffoli 0")
    inst = compile_circuit(circuit, [1, 1, 0])
    report = verify(inst, circuit, [1, 1, 0])
    assert report.all_passed
    assert report.sigma is None  # undetermined when the amplitude vanishes
    gap = next(c for c in report.checks if c.name == "gap_promise")
    assert gap.passed is None


def test_report_json_round_trip(h_setup):
    circuit, x, inst = h_setup
    report = verify(inst, circuit, x)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["sigma"] == -1
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == len(report.checks)


def test_report_all_passed_logic():
    report = VerificationReport()
    report.add("a", True)
    report.add("b", None)
    assert report.all_passed
    report.add("c", False)
    assert not report.all_passed


def test_master_identity_detects_tampering(h_setup):
    circuit, x, inst = h_setup
    # swapping t and t_prime flips the sign of every delta: the identity
    # holds only with sigma = +1, against the fixed convention sigma = -1
    swapped = CompiledInstance(
        inst.system, inst.s, inst.t_prime, inst.t,
        inst.m, inst.ell, inst.d_parity, inst.c, inst.epsilon,
    )
    report = verify(swapped, circuit, x)
    checks = {c.name: c for c in report.checks}
    identity, sign = checks["master_identity"], checks["sign_decision"]
    assert identity.passed is False
    assert identity.details["sigma"] == [1]
    assert identity.details["failed_at"] == (inst.ell - 1, exact_delta(swapped, inst.ell - 1))
    assert sign.passed is False
    assert (sign.details["got"], sign.details["want"]) == (1, -1)
    assert report.sigma is None
    assert not report.all_passed


def test_sign_decision_is_not_fitted_to_the_input(h_setup):
    # <1|H|1> = -<0|H|0>: the deltas of the x = 0 instance fit only sigma =
    # +1 against input 1, so both checks fail
    circuit, _, inst = h_setup
    report = verify(inst, circuit, [1])
    checks = {c.name: c.passed for c in report.checks}
    assert checks["master_identity"] is False
    assert checks["sign_decision"] is False
    assert report.sigma is None


def test_verify_stores_each_string_once(h_setup, monkeypatch):
    # every string the walks meet is one object: a neighbour reached from
    # many strings is held once, not once per neighbour tuple
    circuit, x, inst = h_setup
    spaces = []

    class Recorded(WalkSpace):
        def __init__(self, system):
            super().__init__(system)
            spaces.append(self)

    monkeypatch.setattr(verifier, "WalkSpace", Recorded)
    assert verify(inst, circuit, x).all_passed
    [space] = spaces
    assert len(space.adj) == len(space) == 512  # the whole component of h 0
    assert all(s is space.seen[s] for s in space.adj)
    assert all(y is space.seen[y] for row in space.adj.values() for y in row)


def test_exact_deltas_reuses_given_space(h_setup):
    _, _, inst = h_setup
    space = WalkSpace(inst.system)
    first = exact_deltas(inst, 20, space)
    size = len(space)
    assert exact_deltas(inst, 20, space) == first == exact_deltas(inst, 20)
    assert len(space) == size


def test_exact_deltas_rejects_negative_length(h_setup):
    _, _, inst = h_setup
    with pytest.raises(RewriteError, match="walk length"):
        exact_deltas(inst, -1)
    assert exact_deltas(inst, 0) == [0]


Amplitudes = dict[tuple[int, ...], Root2Frac]


def forward_step_oracle(inst, vec: Amplitudes) -> Amplitudes:
    """The forward operator scaled by 1/sqrt(2), in Z[sqrt 2] on strings."""
    out: Amplitudes = {}
    for s, coef in vec.items():
        scaled = coef * R2_INV_SQRT2
        for j in range(len(s) - 2):
            for img in forward_images(s[j : j + 3]):
                t = s[:j] + img + s[j + 3 :]
                cur = out.get(t, R2_ZERO) + scaled
                if cur.is_zero():
                    out.pop(t, None)
                else:
                    out[t] = cur
    return out


def dot_oracle(u: Amplitudes, v: Amplitudes) -> Root2Frac:
    total = R2_ZERO
    for s, coef in u.items():
        other = v.get(s)
        if other is not None:
            total = total + coef * other
    return total


def orbit_vectors(inst):
    u = [{inst.t: R2_INV_SQRT2, inst.t_prime: -R2_INV_SQRT2}]
    for _ in range(inst.ell - 1):
        u.append(forward_step_oracle(inst, u[-1]))
    return u


def string_orbit(inst):
    """The three-term orbit of e_t - e_t' over the rewriting system's
    neighbours, as exact_delta takes it."""
    return verifier.orbit({inst.t: 1, inst.t_prime: -1}, inst.system.weighted_neighbors)


def integer_orbit(inst):
    """w_0 = e_t - e_t', w_{j+1} = F w_j, as orbit_check builds them."""
    space = WalkSpace(inst.system)
    w = [{inst.t: 1, inst.t_prime: -1}]
    for _ in range(inst.ell - 1):
        w.append(verifier._forward_step(space, w[-1])[0])
    return w


def gram_oracle(inst):
    """The O(ell^2) Gram and <u_i, H u_j> comparisons, from dot_oracle alone."""
    u = orbit_vectors(inst)
    ell = len(u)
    ortho = all(
        dot_oracle(u[i], u[j]) == (R2_ONE if i == j else R2_ZERO)
        for i in range(ell)
        for j in range(i, ell)
    )
    h_u = []
    for uj in u:
        out = {}
        for s, coef in uj.items():
            for t, w in inst.system.weighted_neighbors(s).items():
                out[t] = out.get(t, R2_ZERO) + coef * Root2Frac(w, 0, 0)
        h_u.append(out)
    path = all(
        dot_oracle(u[i], h_u[j]) == (R2_SQRT2 if abs(i - j) == 1 else R2_ZERO)
        for i in range(ell)
        for j in range(ell)
    )
    return ortho, path


def orbit_results(inst):
    report = VerificationReport()
    verifier.orbit_check(inst, report)
    checks = {c.name: c.passed for c in report.checks}
    return checks["orbit_orthonormal"], checks["restricted_hamiltonian_is_path"]


@pytest.mark.parametrize(
    "text, x",
    [
        ("qubits 1\nh 0", [0]),
        ("qubits 1\nh 0\n---\nh 0", [0]),
        ("qubits 2\nh 0\n---\nswap 0", [0, 0]),
        ("qubits 3\ntoffoli 0", [1, 1, 0]),
    ],
)
def test_orbit_checks_agree_with_gram_oracle(text, x):
    inst = compile_circuit(parse_circuit(text), x)
    assert orbit_results(inst) == gram_oracle(inst) == (True, True)
    # u_j = w_j / sqrt(2)^(j+1), entry by entry
    scale = R2_ONE
    for wj, uj in zip(integer_orbit(inst), orbit_vectors(inst), strict=True):
        scale = scale * R2_INV_SQRT2
        assert {s: Root2Frac(c, 0, 0) * scale for s, c in wj.items()} == uj


def test_dropped_orbit_edge_fails_path_check(h_setup, monkeypatch):
    _, _, inst = h_setup
    u1 = set(orbit_vectors(inst)[1])
    original = ClockSystem.weighted_neighbors

    def dropped(system, s):
        out = original(system, s)
        if s == inst.t:
            del out[min(u1 & out.keys())]
        return out

    monkeypatch.setattr(ClockSystem, "weighted_neighbors", dropped)
    assert orbit_results(inst) == gram_oracle(inst) == (True, False)


def test_doubled_orbit_edge_fails_single_derivation(h_setup, monkeypatch):
    circuit, x, inst = h_setup
    u1 = set(orbit_vectors(inst)[1])
    original = ClockSystem.weighted_neighbors

    def doubled(system, s):
        out = original(system, s)
        if s == inst.t:
            out[min(u1 & out.keys())] *= 2
        return out

    monkeypatch.setattr(ClockSystem, "weighted_neighbors", doubled)
    report = verify(inst, circuit, x)
    checks = {c.name: c.passed for c in report.checks}
    assert checks["orbit_edges_single_derivation"] is False
    assert not report.all_passed


def test_verify_generates_each_neighbourhood_once(h_setup, monkeypatch):
    circuit, x, inst = h_setup
    calls = Counter()
    original = ClockSystem.weighted_neighbors

    def counted(system, s):
        calls[s] += 1
        return original(system, s)

    monkeypatch.setattr(ClockSystem, "weighted_neighbors", counted)
    assert verify(inst, circuit, x).all_passed
    assert calls and max(calls.values()) == 1



def _failure_reports(ell):
    """orbit_check's reports when the instance's ell is off by 2 either way,
    and when t = t', for an orbit of ell vectors."""
    start = ("no_backward_step_from_start", True, {"offending": []})
    return {
        "ell+2": [start, ("orbit_length", False, {"stopped_at": ell, "expected": ell + 2})],
        "ell-2": [
            start,
            ("forward_window_unique", True, {}),
            ("orbit_terminates", False, {"extra_support": 8}),
            ("orbit_orthonormal", True, {}),
            ("restricted_hamiltonian_is_path", False, {"mismatch": ell - 3}),
            ("orbit_edges_single_derivation", True, {}),
        ],
        "t=t'": [start, ("orbit_length", False, {"stopped_at": 1, "expected": ell})],
    }


@pytest.mark.parametrize("case", ["ell+2", "ell-2", "t=t'"])
@pytest.mark.parametrize(
    "text, x, ell",
    [("qubits 1\nh 0", [0], 64), ("qubits 2\nh 0\n---\nswap 0", [0, 0], 252)],
    ids=["ell-64", "ell-252"],
)
def test_orbit_check_failure_reports(text, x, ell, case):
    # an orbit that stops before ell reports its length and nothing after; one
    # checked for ell - 2 steps does not terminate, and its A w_j misses the
    # path's end at j = ell - 3, while the other orbit checks still pass
    inst = compile_circuit(parse_circuit(text), x)
    assert inst.ell == ell
    bad = {
        "ell+2": inst._replace(ell=ell + 2),
        "ell-2": inst._replace(ell=ell - 2),
        "t=t'": inst._replace(t_prime=inst.t),
    }[case]
    report = VerificationReport()
    verifier.orbit_check(bad, report)
    assert [tuple(c) for c in report.checks] == _failure_reports(ell)[case]
