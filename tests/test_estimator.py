import math

import numpy as np
import pytest

from walkdelta import verifier
from walkdelta.circuits import parse_circuit
from walkdelta.clock import compile_circuit
from walkdelta.estimator import (
    EstimateError,
    SpectralMeasure,
    bias_bound,
    build_states,
    clipped_power,
    clipped_powers,
    delta_moment,
    hoeffding_halfwidth,
    hoeffding_samples,
    noisy_estimate,
    plan_noise,
    reachable_component,
    spectral_measure,
)
from walkdelta.rewriting import Alphabet, Rule, RewritingSystem


@pytest.fixture(scope="module")
def h_measures():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    graph = reachable_component(inst)
    plus_state, minus_state = build_states(inst)
    plus = spectral_measure(graph, plus_state)
    minus = spectral_measure(graph, minus_state)
    return inst, graph, plus, minus


def test_build_states_normalized():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    for state in build_states(inst):
        assert sum(v * v for v in state.values()) == pytest.approx(1.0)


def test_clipped_power_examples():
    assert clipped_power(2.0, 3, 1.0) == 1.0
    assert clipped_power(-2.0, 3, 1.0) == -1.0
    assert clipped_power(-2.0, 4, 1.0) == 1.0
    assert clipped_power(0.5, 2, 1.0) == 0.25
    assert clipped_power(1.5, 2, 2.0) == 0.5625


def test_clipped_powers_match_scalar_map():
    c = 2 * math.sqrt(2)
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [[c, -c, 0.0, 2 * c, -2 * c, 1.5 * c, -1.0001 * c], rng.uniform(-1.5 * c, 1.5 * c, 200)]
    )
    for m in (0, 1, 2, 3, 8, 201, 202, 274_625):
        want = np.array([clipped_power(v, m, c) for v in x])
        got = clipped_powers(x, m, c)
        # the same division and clip; numpy's vectorised power differs from
        # the C library's pow by a few ulp (up to 5 seen at m = 201)
        np.testing.assert_allclose(got, want, rtol=32 * np.finfo(float).eps, atol=0)
        assert np.all(got[np.abs(x) >= c] == want[np.abs(x) >= c])


def test_one_eigh_for_both_measures(monkeypatch):
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    graph = reachable_component(inst)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    for state in build_states(inst):
        spectral_measure(graph, state)
    # one eigh, of B B^T on one colour class: half the component
    assert calls == [len(graph) // 2]


def test_spectral_measure_is_probability(h_measures):
    _, _, plus, minus = h_measures
    for measure in (plus, minus):
        assert float(measure.probabilities.sum()) == pytest.approx(1.0)
        assert np.all(measure.probabilities >= -1e-12)


def test_measures_agree_outside_the_gap_band(h_measures):
    # the two states differ only through the cross term; eigenvalues beyond
    # the growth constant must carry identical mass
    inst, _, plus, minus = h_measures
    # the orbit's own top eigenvalue sits exactly at c, so leave an ulp margin
    outside = np.abs(plus.eigenvalues) > inst.c * (1 + 1e-12)
    diff = plus.probabilities - minus.probabilities
    assert float(np.max(np.abs(diff[outside]), initial=0.0)) < 1e-13


def test_delta_moment_matches_exact_counts(h_measures):
    inst, _, plus, minus = h_measures
    # walk lengths long enough that the scaled difference is well above the
    # float cancellation floor of the measure construction
    deltas = verifier.exact_deltas(inst, 401)
    for m in (201, 301, 401):
        want = deltas[m] / inst.c**m
        got = delta_moment(plus, minus, m, inst.c)
        assert got == pytest.approx(want, rel=1e-9)


def test_delta_moment_at_gap_walk_length(h_measures):
    inst, _, plus, minus = h_measures
    got = delta_moment(plus, minus, inst.m, inst.c)
    # certified spectral form of the same quantity
    from walkdelta import spectral

    lam0 = spectral.eigenvalue(inst.ell, 0)
    tail = sum(
        spectral.weight(inst.ell, j)
        * (spectral.eigenvalue(inst.ell, j) / lam0) ** inst.m
        for j in range(inst.ell)
    )
    ov = -1 / math.sqrt(2)  # overlap <0|H|0> times sigma
    want = ov * tail * (math.sqrt(2) * lam0 / inst.c) ** inst.m
    assert got == pytest.approx(want, rel=1e-6)
    assert abs(got) >= inst.epsilon  # the gap promise in scaled units


def test_hoeffding_samples():
    assert hoeffding_samples(1.0, 0.05) == 30
    assert hoeffding_samples(0.5, 0.05) == 119
    # half-width from that sample count meets the target
    for eps in (1.0, 0.25):
        n = hoeffding_samples(eps, 0.05)
        assert hoeffding_halfwidth(n, 0.05) <= eps / 2 + 1e-12


def test_hoeffding_rejects_bad_arguments():
    with pytest.raises(EstimateError):
        hoeffding_samples(0.0)
    with pytest.raises(EstimateError):
        hoeffding_samples(1.0, 1.5)


def test_plan_noise_budget():
    eps, m, c = 0.5, 1001, 2.8
    eta, theta = plan_noise(eps, m, c)
    assert bias_bound(eta, theta, m, c) <= eps / 2 + 1e-12


def test_noiseless_estimate_converges(h_measures):
    inst, _, plus, minus = h_measures
    exact = delta_moment(plus, minus, inst.m, inst.c)
    est = noisy_estimate(plus, minus, inst.m, inst.c, 0.0, 0.0, 1_000_000, seed=3)
    assert est.bias_bound == 0.0
    assert abs(est.value - exact) <= 3 * est.halfwidth


def test_noisy_estimate_deterministic(h_measures):
    inst, _, plus, minus = h_measures
    a = noisy_estimate(plus, minus, inst.m, inst.c, 1e-4, 0.01, 500, seed=9)
    b = noisy_estimate(plus, minus, inst.m, inst.c, 1e-4, 0.01, 500, seed=9)
    c = noisy_estimate(plus, minus, inst.m, inst.c, 1e-4, 0.01, 500, seed=10)
    assert a.value == b.value
    assert a.value != c.value


def test_noisy_estimate_within_bound(h_measures):
    inst, _, plus, minus = h_measures
    exact = delta_moment(plus, minus, inst.m, inst.c)
    eta, theta = plan_noise(1.0, inst.m, inst.c)
    n = hoeffding_samples(1.0, 0.05)
    hits = 0
    trials = 40
    for seed in range(trials):
        est = noisy_estimate(plus, minus, inst.m, inst.c, eta, theta, n, seed=seed)
        if abs(est.value - exact) <= est.error_bound:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_vertex_guard():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    with pytest.raises((EstimateError, verifier.VerifyError)):
        reachable_component(inst, max_vertices=100)


# -- the half-size eigh against a dense eigh of the whole adjacency ----------


def dense_measure(graph, state) -> SpectralMeasure:
    """Oracle: the spectral measure from eigh of the full |V| x |V| adjacency."""
    n = len(graph)
    a = np.zeros((n, n))
    for i, row in enumerate(graph.adj):
        a[i, list(row)] = 1.0
    vals, vecs = np.linalg.eigh(a)
    amp = np.zeros(n)
    for s, coef in state.items():
        amp[graph.index[s]] = coef
    return SpectralMeasure(vals, (vecs.T @ amp) ** 2)


def assert_same_measure(got: SpectralMeasure, want: SpectralMeasure) -> None:
    # mass per eigenvalue: group the oracle's eigenvalues into clusters (a
    # degenerate eigenvalue's mass is basis-free only as a total) and compare
    # the mass each measure puts within 1e-7 of every cluster
    order = np.argsort(want.eigenvalues)
    vals, probs = want.eigenvalues[order], want.probabilities[order]
    cuts = np.flatnonzero(np.diff(vals) > 1e-7) + 1
    seen = 0.0
    for cluster, mass in zip(np.split(vals, cuts), np.split(probs, cuts)):
        near = (got.eigenvalues >= cluster[0] - 1e-7) & (got.eigenvalues <= cluster[-1] + 1e-7)
        assert float(got.probabilities[near].sum()) == pytest.approx(float(mass.sum()), abs=1e-10)
        seen += float(got.probabilities[near].sum())
    # no mass away from the oracle's eigenvalues
    assert seen == pytest.approx(float(got.probabilities.sum()), abs=1e-12)
    assert np.all(got.probabilities >= 0)
    for n in range(21):
        scale = max(1.0, float(np.max(np.abs(vals)))) ** n
        moment = float(got.probabilities @ got.eigenvalues**n)
        assert moment == pytest.approx(float(probs @ vals**n), rel=1e-9, abs=1e-10 * scale)


ORACLE_CIRCUITS = [
    ("qubits 1\nh 0", [0]),
    ("qubits 1\nh 0\n---\nh 0", [0]),
    ("qubits 3\ntoffoli 0", [1, 1, 0]),  # two pieces, zero amplitude
]


@pytest.mark.parametrize("text,x", ORACLE_CIRCUITS)
def test_measures_match_dense_oracle(text, x):
    inst = compile_circuit(parse_circuit(text), x)
    graph = reachable_component(inst)
    got = [spectral_measure(graph, state) for state in build_states(inst)]
    want = [dense_measure(graph, state) for state in build_states(inst)]
    for g, w in zip(got, want):
        assert_same_measure(g, w)
    for m in (0, 1, 2, 20, inst.ell - 1, 201, inst.m):
        assert delta_moment(*got, m, inst.c) == pytest.approx(
            delta_moment(*want, m, inst.c), rel=1e-6, abs=1e-12
        )


def toy_graph(edges: str) -> verifier.ReachableGraph:
    """The component of 'a' in a window-1 system on one-letter strings."""
    alphabet = Alphabet(tuple(sorted(set(edges) - {" "})))
    rules = [Rule(alphabet.encode(e[0]), alphabet.encode(e[1])) for e in edges.split()]
    system = RewritingSystem(alphabet, 1, rules)
    return verifier.ReachableGraph(system, [alphabet.encode("a")])


def toy_state(graph, **coefs) -> dict:
    norm = math.sqrt(sum(v * v for v in coefs.values()))
    enc = graph.system.alphabet.encode
    return {enc(k): v / norm for k, v in coefs.items()}


TOY_STATES = [
    dict(a=1.0),  # on the colour class of a alone
    dict(b=1.0),  # on the other colour class alone
    dict(a=1.0, c=-1.0),  # in the kernel of A
    dict(a=1.0, b=1.0),  # across both classes
    dict(a=1.0, b=-2.0, c=0.5),
]


@pytest.mark.parametrize("edges", ["ab bc", "ab bc cd da"])  # path, four-cycle
def test_toy_measures_match_dense_oracle(edges):
    graph = toy_graph(edges)
    states = [toy_state(graph, **coefs) for coefs in TOY_STATES]
    got = [spectral_measure(graph, state) for state in states]
    for state, measure in zip(states, got):
        assert_same_measure(measure, dense_measure(graph, state))
    for first, second in zip(states, states[1:]):
        g = [spectral_measure(graph, first), spectral_measure(graph, second)]
        w = [dense_measure(graph, first), dense_measure(graph, second)]
        for m in range(8):
            assert delta_moment(*g, m, 1.5) == pytest.approx(
                delta_moment(*w, m, 1.5), rel=1e-9, abs=1e-12
            )


def test_path_measure_by_hand():
    # path a-b-c: eigenvalues +-sqrt 2 carry 1/4 each of e_a, and 0 carries
    # the kernel vector (e_a - e_c)/sqrt 2, i.e. half of e_a
    graph = toy_graph("ab bc")
    measure = spectral_measure(graph, toy_state(graph, a=1.0))
    mass = dict(zip(np.round(measure.eigenvalues, 12), measure.probabilities))
    assert mass[round(math.sqrt(2), 12)] == pytest.approx(0.25)
    assert mass[round(-math.sqrt(2), 12)] == pytest.approx(0.25)
    assert mass[0.0] == pytest.approx(0.5)


def test_triangle_is_not_bipartite():
    graph = toy_graph("ab bc ca")
    with pytest.raises(EstimateError, match="bipartite"):
        spectral_measure(graph, toy_state(graph, a=1.0))
