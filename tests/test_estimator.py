import math
from itertools import product

import numpy as np
import pytest

from walkdelta import spectral, verifier
from walkdelta.circuits import overlap, parse_circuit
from walkdelta.clock import ClockSystem, CompiledInstance, compile_circuit
from walkdelta.estimator import (
    QUADRATURE_NODES,
    EstimateError,
    SpectralMeasure,
    bias_bound,
    clipped_powers,
    delta_moment,
    estimate_with_noise,
    gauss_rule,
    hoeffding_halfwidth,
    hoeffding_samples,
    noisy_estimate,
    orbit_measures,
    plan_noise,
    reachable_component,
    spectral_measure,
)
from walkdelta.rewriting import Alphabet, Rule, RewritingSystem, WalkSpace, WalkVector, step

from oracles import build_states


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


def clipped_power(x: float, m: int, c: float) -> float:
    """Oracle: the clipped power map of one value, (x/c)^m saturated to
    [-1, 1]; values above c map to 1, below -c to -1 for odd m and to 1 for
    even m."""
    r = x / c
    if r > 1.0:
        return 1.0
    if r < -1.0:
        return -1.0 if m % 2 else 1.0
    return r**m


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
    # one eigh, of the whole component's adjacency
    assert calls == [len(graph)]


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
    assert hoeffding_samples(1.0) == 237
    assert hoeffding_samples(0.5) == 945
    # the difference's half-width from that sample count meets the target
    for eps in (1.0, 0.25):
        n = hoeffding_samples(eps)
        assert math.sqrt(2.0) * hoeffding_halfwidth(n) <= eps / 4 + 1e-12


def test_hoeffding_rejects_bad_arguments():
    with pytest.raises(EstimateError):
        hoeffding_samples(0.0)


def test_plan_noise_budget():
    eps, m, c = 0.5, 1001, 2.8
    eta, theta = plan_noise(eps, m, c)
    assert bias_bound(eta, theta, m, c) <= eps / 2 + 1e-12
    # the planned difference: sqrt(2) (bias + half-width) within eps/2
    measure = SpectralMeasure(np.array([2.5]), np.array([1.0]))
    for eps in (1.0, 0.5, 0.1):
        eta, theta = plan_noise(eps, m, c)
        est = noisy_estimate(measure, measure, m, c, eta, theta, hoeffding_samples(eps))
        assert est.error_bound <= eps / 2


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
    n = hoeffding_samples(1.0)
    hits = 0
    trials = 40
    for seed in range(trials):
        est = noisy_estimate(plus, minus, inst.m, inst.c, eta, theta, n, seed=seed)
        if abs(est.value - exact) <= est.error_bound:
            hits += 1
    assert hits >= int(0.9 * trials)


def atom(lam: float) -> SpectralMeasure:
    return SpectralMeasure(np.array([lam]), np.array([1.0]))


@pytest.mark.parametrize("samples", [1, 7, 10**15])
@pytest.mark.parametrize("lam", [2.9, 2.5, 0.3, -2.5])
def test_one_atom_estimate_is_exact(lam, samples):
    # the minus measure sits at 0, where every power is 0.0, adversarial
    # or not, so the estimate is the plus mean over sqrt 2, to the bit; at
    # odd m the adversary's extreme for lam is -lam
    m, c = 5, 2.8
    f, f_adversarial = clipped_powers(np.array([lam, -lam]), m, c)
    honest = noisy_estimate(atom(lam), atom(0.0), m, c, 0.0, 0.0, samples, seed=1)
    assert honest.value == f / math.sqrt(2.0)
    replaced = noisy_estimate(atom(lam), atom(0.0), m, c, 0.0, 1.0, samples, seed=1)
    assert replaced.value == f_adversarial / math.sqrt(2.0)


def test_too_many_offsets_refused_before_drawing():
    # every sample of an atom that noise can move needs its own offset; past
    # 2^30 of them the estimate is refused, not left to run for hours
    at_c = atom(2.8)
    with pytest.raises(EstimateError, match=r"1073741825 samples need noise drawn one by one"):
        noisy_estimate(at_c, at_c, 5, 2.8, 1e-3, 0.0, 2**30 + 1, seed=1)
    # an atom that clips needs none, whatever the count
    far = atom(3.0)
    assert noisy_estimate(far, far, 5, 2.8, 1e-3, 0.0, 2**62, seed=1).value == 0.0


@pytest.fixture(scope="module")
def h_orbit_measures():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    plus, minus, _ = orbit_measures(inst, reachable_component(inst))
    return inst, plus, minus


def test_estimates_have_the_multinomial_mean_and_variance(h_orbit_measures):
    # noiseless, the estimate is a difference of two independent multinomial
    # means; over 400 seeds its mean is Delta(m) / c^m within 4 standard
    # errors, and its sample variance is the multinomial value within 30%,
    # about 4 standard errors of a variance from 400 draws
    inst, plus, minus = h_orbit_measures
    n, seeds = 500, 400
    f = clipped_powers(plus.eigenvalues, inst.m, inst.c)
    var = sum(mu.probabilities @ f**2 - (mu.probabilities @ f) ** 2 for mu in (plus, minus))
    var /= 2 * n
    values = np.array([
        noisy_estimate(plus, minus, inst.m, inst.c, 0.0, 0.0, n, seed=seed).value
        for seed in range(seeds)
    ])
    exact = delta_moment(plus, minus, inst.m, inst.c)
    assert abs(values.mean() - exact) <= 4 * math.sqrt(var / seeds)
    assert 0.7 <= values.var(ddof=1) / var <= 1.3


def string_orbit(inst):
    """The three-term orbit of e_t - e_t' over the rewriting system's
    neighbours, as exact_delta takes it."""
    return verifier.orbit({inst.t: 1, inst.t_prime: -1}, inst.system.weighted_neighbors)


def test_closure_and_orbit_each_generate_their_neighbourhoods(monkeypatch):
    # estimate generates the neighbours of each string of the component once,
    # in its closure, and takes the orbit over the closure's edge list;
    # exact_delta generates those of each of the orbit's support strings, in
    # orbit order
    calls = []
    weighted_neighbors = ClockSystem.weighted_neighbors

    def counted(system, s):
        calls.append(s)
        return weighted_neighbors(system, s)

    cases = [
        ("qubits 1\nh 0", [0], 512, 288),
        ("qubits 2\nh 0\n---\nswap 0", [0, 0], 2016, 1260),
    ]
    for text, x, vertices, support_size in cases:
        inst = compile_circuit(parse_circuit(text), x)
        support = [s for w in string_orbit(inst) for s in w]
        with monkeypatch.context() as patch:
            patch.setattr(ClockSystem, "weighted_neighbors", counted)
            del calls[:]
            got = estimate_with_noise(inst, inst.m, 0.0, 0.0, 100)[2:]
            assert (*got, len(support)) == (vertices, QUADRATURE_NODES, support_size)
            assert len(calls) == len(set(calls)) == vertices
            del calls[:]
            verifier.exact_delta(inst, inst.ell)
            assert calls == support
        plus, _, _ = orbit_measures(inst, reachable_component(inst))
        assert len(plus.eigenvalues) == inst.ell + QUADRATURE_NODES


@pytest.mark.slow
def test_planned_noise_moves_the_estimate_at_ell_704():
    # eta = eps c / (8 sqrt(2) m) is 9.5e-18 here, below ulp(c); a sample
    # kept as the float lam + delta would lose it, and the estimate would
    # equal the noiseless one at the same seed. 10^10 samples put about 160
    # and 440 on the top atom, lam = c, whose clipped power the offsets move
    # by up to m eta / c = eps / (8 sqrt(2))
    inst = compile_circuit(parse_circuit("qubits 3\nh 0\n---\nh 1\n---\ntoffoli 0"), [0, 0, 0])
    plus, minus, _ = orbit_measures(inst, reachable_component(inst))
    eta, _ = plan_noise(inst.epsilon, inst.m, inst.c)
    assert eta < np.spacing(inst.c) / 10
    top = np.flatnonzero(plus.eigenvalues == inst.c)
    assert len(top) == 1
    assert min(plus.probabilities[top[0]], minus.probabilities[top[0]]) * 1e10 > 100
    for seed in range(3):
        noisy = noisy_estimate(plus, minus, inst.m, inst.c, eta, 0.0, 10**10, seed=seed).value
        clean = noisy_estimate(plus, minus, inst.m, inst.c, 0.0, 0.0, 10**10, seed=seed).value
        # far past the rounding of a sum in another order
        assert abs(noisy - clean) > 1e4 * np.spacing(abs(clean))


def test_vertex_guard(monkeypatch):
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    monkeypatch.setattr(verifier, "VERTEX_BUDGET", 100)
    with pytest.raises((EstimateError, verifier.VerifyError)):
        reachable_component(inst)


# -- the dense reference against exact walk counts ----------------------------


def walk_moments(system, state, top: int) -> list[float]:
    """Oracle: <psi|A^n|psi> = sum_x,y psi_x psi_y (A^n)_xy for n = 0..top,
    with (A^n)_xy counted by integer walks from each e_x of the support, in
    a walk space of its own."""
    space = WalkSpace(system)
    terms = [[] for _ in range(top + 1)]
    for x, px in state.items():
        v = WalkVector(space, {space.canonical(x): 1})
        for n in range(top + 1):
            for y, py in state.items():
                terms[n].append(px * py * v.entries.get(y, 0))
            v = step(system, v)
    return [math.fsum(t) for t in terms]


def assert_walk_moments(got: SpectralMeasure, system, state) -> None:
    assert np.all(got.probabilities >= 0)
    rho = max(1.0, float(np.max(np.abs(got.eigenvalues))))
    for n, want in enumerate(walk_moments(system, state, 20)):
        moment = float(got.probabilities @ got.eigenvalues**n)
        assert moment == pytest.approx(want, rel=1e-9, abs=1e-10 * rho**n)


ORACLE_CIRCUITS = [
    ("qubits 1\nh 0", [0]),
    ("qubits 1\nh 0\n---\nh 0", [0]),
    ("qubits 3\ntoffoli 0", [1, 1, 0]),  # two pieces, zero amplitude
]


@pytest.mark.parametrize("text,x", ORACLE_CIRCUITS)
def test_measures_match_dense_oracle(text, x):
    circuit = parse_circuit(text)
    inst = compile_circuit(circuit, x)
    graph = reachable_component(inst)
    states = build_states(inst)
    got = [spectral_measure(graph, state) for state in states]
    for measure, state in zip(got, states):
        assert_walk_moments(measure, inst.system, state)
    # Delta(m) / c^m against the exact walks, and at the paper m against
    # the closed form
    ms = (0, 1, 2, 20, inst.ell - 1, 201)
    deltas = verifier.exact_deltas(inst, max(ms))
    ov = overlap(circuit, x).to_float()
    closed = -ov * spectral.scaled_corner(inst.ell, inst.m) / math.sqrt(1 + inst.d_parity)
    for m, want in [(m, deltas[m] / inst.c**m) for m in ms] + [(inst.m, closed)]:
        assert delta_moment(*got, m, inst.c) == pytest.approx(want, rel=1e-6, abs=1e-12)


def toy_graph(edges: str) -> tuple[RewritingSystem, verifier.ReachableGraph]:
    """A window-1 system on one-letter strings and the component of 'a'."""
    alphabet = Alphabet(tuple(sorted(set(edges) - {" "})))
    rules = [Rule(alphabet.encode(e[0]), alphabet.encode(e[1])) for e in edges.split()]
    system = RewritingSystem(alphabet, 1, rules)
    return system, verifier.ReachableGraph(system, [alphabet.encode("a")])


def toy_state(system, **coefs) -> dict:
    norm = math.sqrt(sum(v * v for v in coefs.values()))
    enc = system.alphabet.encode
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
    system, graph = toy_graph(edges)
    states = [toy_state(system, **coefs) for coefs in TOY_STATES]
    got = [spectral_measure(graph, state) for state in states]
    for state, measure in zip(states, got):
        assert_walk_moments(measure, system, state)
    # c = 2 is at least the spectral radius of either graph, so nothing is
    # clipped and the walks give Delta(m) / c^m of any two states
    c = 2.0
    for i in range(len(states) - 1):
        first, second = (walk_moments(system, state, 7) for state in states[i : i + 2])
        for m in range(8):
            want = (first[m] - second[m]) / math.sqrt(2.0) / c**m
            assert delta_moment(got[i], got[i + 1], m, c) == pytest.approx(
                want, rel=1e-9, abs=1e-12
            )


def test_path_measure_by_hand():
    # path a-b-c: eigenvalues +-sqrt 2 carry 1/4 each of e_a, and 0 carries
    # the kernel vector (e_a - e_c)/sqrt 2, i.e. half of e_a
    system, graph = toy_graph("ab bc")
    measure = spectral_measure(graph, toy_state(system, a=1.0))
    mass = dict(zip(np.round(measure.eigenvalues, 12), measure.probabilities))
    assert mass[round(math.sqrt(2), 12)] == pytest.approx(0.25)
    assert mass[round(-math.sqrt(2), 12)] == pytest.approx(0.25)
    assert mass[0.0] == pytest.approx(0.5)


def test_triangle_measure_by_hand():
    # triangle a-b-c, an odd cycle: eigenvalue 2 has the eigenvector
    # (1, 1, 1)/sqrt 3, so it carries 1/3 of e_a, and the double eigenvalue
    # -1 carries the other 2/3
    system, graph = toy_graph("ab bc ca")
    measure = spectral_measure(graph, toy_state(system, a=1.0))
    top = np.isclose(measure.eigenvalues, 2.0, rtol=0, atol=1e-12)
    bottom = np.isclose(measure.eigenvalues, -1.0, rtol=0, atol=1e-12)
    assert (int(top.sum()), int(bottom.sum())) == (1, 2)
    assert float(measure.probabilities[top].sum()) == pytest.approx(1 / 3)
    assert float(measure.probabilities[bottom].sum()) == pytest.approx(2 / 3)


# -- the orbit measures against the dense oracle ------------------------------


def binary_trees() -> dict:
    """Two depth-3 binary trees, one letter per node, named by the path from
    the root: t and t' are the roots "a" and "b", and s = "a01" is inside
    t's tree, so the orbit of e_t - e_t' (a level of each tree at a time,
    four vectors) holds s at j = 2."""
    nodes = [root + "".join(p) for root in "ab" for d in range(4) for p in product("01", repeat=d)]
    rules = [[[x[:-1]], [x]] for x in nodes if len(x) > 1]
    system = {"alphabet": nodes, "window": 1, "rules": rules}
    return {"system": system, "s": ["a01"], "t": ["a"], "t_prime": ["b"], "m": 8, "c": 3.0}


def test_orbit_measures_on_explicit_rules():
    # the orbit by position on a system that is not compiled: the component
    # of 30 vertices spends its Krylov space, so every moment is exact
    inst = CompiledInstance.from_json(binary_trees())
    graph = reachable_component(inst)
    plus, minus, nodes = orbit_measures(inst, graph)
    assert (len(graph), len(plus.eigenvalues) - nodes) == (30, 4)
    dense = [spectral_measure(graph, state) for state in build_states(inst)]
    for got, want in zip((plus, minus), dense):
        np.testing.assert_allclose(
            moments(got, 16, inst.c), moments(want, 16, inst.c), rtol=0, atol=1e-12
        )
    deltas = verifier.exact_deltas(inst, 12)
    assert deltas[8] > 0
    for m in range(13):
        got = delta_moment(plus, minus, m, inst.c)
        assert got == pytest.approx(deltas[m] / inst.c**m, rel=1e-9, abs=1e-12)


def remainder_state(inst, graph) -> dict:
    """Oracle: e_s - sum_j <s|u_j> u_j for the orbit u_j = w_j / sqrt(2)^(j+1),
    as a state keyed by string."""
    r = {inst.s: 1.0}
    for j, w in enumerate(string_orbit(inst)):
        scale = math.sqrt(2.0) ** (j + 1)
        a = w.get(inst.s, 0) / scale
        for key, c in w.items():
            r[key] = r.get(key, 0.0) - a * c / scale
    return r


def moments(measure: SpectralMeasure, top: int, scale: float) -> np.ndarray:
    """The moments n = 0..top of a measure, the n-th over scale^n."""
    x = measure.eigenvalues / scale
    return np.array([float(measure.probabilities @ x**n) for n in range(top + 1)])


@pytest.mark.parametrize("text,x", ORACLE_CIRCUITS + [("qubits 2\nh 0\n---\nswap 0", [0, 0])])
def test_orbit_measures_match_dense_oracle(text, x):
    circuit = parse_circuit(text)
    inst = compile_circuit(circuit, x)
    graph = reachable_component(inst)
    plus, minus, nodes = orbit_measures(inst, graph)
    dense = [spectral_measure(graph, state) for state in build_states(inst)]
    assert plus.eigenvalues is minus.eigenvalues
    assert nodes == QUADRATURE_NODES
    k = len(plus.eigenvalues) - nodes
    # the remainder carries the same weights in both measures
    assert np.array_equal(plus.probabilities[k:], minus.probabilities[k:])
    for got, want in zip((plus, minus), dense):
        assert float(got.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(got.probabilities >= 0)
        rho = float(np.max(np.abs(want.eigenvalues)))
        np.testing.assert_allclose(
            moments(got, 2 * nodes - 1, rho), moments(want, 2 * nodes - 1, rho), rtol=0, atol=1e-12
        )

    # the Gauss rule of the remainder against the dense measure of it
    remainder = SpectralMeasure(plus.eigenvalues[k:], 2 * plus.probabilities[k:])
    oracle = spectral_measure(graph, remainder_state(inst, graph))
    rho = float(np.max(np.abs(oracle.eigenvalues)))
    np.testing.assert_allclose(
        moments(remainder, 2 * nodes - 1, rho), moments(oracle, 2 * nodes - 1, rho), rtol=0, atol=1e-12
    )

    # Delta(m) / c^m: zero below ell - 1, where both sit at their float
    # floor (the dense one up to 5e-15); far above the floor from ell^2 on
    amplitude_zero = overlap(circuit, x).is_zero()
    for m in (0, 1, 2, 20, inst.ell - 2):
        assert abs(delta_moment(plus, minus, m, inst.c)) <= 1e-13
        assert abs(delta_moment(*dense, m, inst.c)) <= 1e-13
    for m in (inst.ell**2, 4 * inst.ell**2):
        m += m % 2 == inst.ell % 2
        want = delta_moment(*dense, m, inst.c)
        got = delta_moment(plus, minus, m, inst.c)
        if amplitude_zero:
            assert abs(got) <= 1e-12 and abs(want) <= 1e-12
        else:
            assert got == pytest.approx(want, rel=1e-9)

    # exact_clipped at the paper m against the closed form, and against the
    # dense path below ell 252: there the dense top eigenvalue misses c by a
    # few ulp, which (lambda/c)^m multiplies by m, to 1.8e-9
    ov = overlap(circuit, x).to_float()
    closed = -ov * spectral.scaled_corner(inst.ell, inst.m) / math.sqrt(1 + inst.d_parity)
    got = delta_moment(plus, minus, inst.m, inst.c)
    if amplitude_zero:
        assert got == 0.0
    else:
        assert got == pytest.approx(closed, rel=1e-9)
    if inst.ell < 252:
        want = delta_moment(*dense, inst.m, inst.c)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_gauss_rule_of_a_spent_krylov_space():
    # the path a - b - c from a: the Krylov space is all three vertices, so
    # the rule stops at three nodes, the measure itself (see the hand values
    # in test_path_measure_by_hand)
    system, graph = toy_graph("ab bc")
    start = np.eye(len(graph))[graph.index[system.alphabet.encode("a")]]
    nodes, weights = gauss_rule(graph_operator(system, graph), start)
    assert len(nodes) == 3
    np.testing.assert_allclose(nodes, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(weights, [0.25, 0.5, 0.25], atol=1e-14)
    operator = graph_operator(system, graph)
    assert [len(part) for part in gauss_rule(operator, np.zeros(3))] == [0, 0]


def graph_operator(system, graph):
    """Oracle: v -> A v from the dense adjacency, built from the system's
    neighbours at the closure's positions."""
    a = np.zeros((len(graph), len(graph)))
    for s, i in graph.index.items():
        a[i, [graph.index[t] for t in system.weighted_neighbors(s)]] = 1.0
    return lambda v: a @ v
