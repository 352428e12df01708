import math

import numpy as np
import pytest

from walkdelta import estimator, verifier
from walkdelta.circuits import parse_circuit
from walkdelta.clock import compile_circuit
from walkdelta.estimator import (
    EstimateError,
    bias_bound,
    build_states,
    clipped_power,
    delta_moment,
    estimate_instance,
    hoeffding_halfwidth,
    hoeffding_samples,
    noisy_estimate,
    plan_noise,
    reachable_component,
    spectral_measure,
)


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


def test_one_eigh_for_both_measures(monkeypatch):
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    graph = reachable_component(inst)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    for state in build_states(inst):
        spectral_measure(graph, state)
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


def test_estimate_instance_pipeline():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    est, exact = estimate_instance(inst, seed=4)
    assert est.samples == 30
    assert abs(est.value - exact) <= est.error_bound


def test_vertex_guard():
    inst = compile_circuit(parse_circuit("qubits 1\nh 0"), [0])
    with pytest.raises((EstimateError, verifier.VerifyError)):
        reachable_component(inst, max_vertices=100)
