"""Acceptance criteria for the full pipeline.

Each test is one acceptance criterion, with its runtime budgets asserted
where the criterion states one. The four reference circuits cover one, two
and three qubits, zero and nonzero amplitudes, and every gate kind.
"""

import math
import random
import time

import numpy as np
import pytest

from walkdelta import estimator, spectral, verifier
from walkdelta.circuits import overlap, parse_circuit
from walkdelta.clock import compile_circuit
from walkdelta.rewriting import (
    Alphabet,
    Rule,
    RewritingSystem,
    symmetric_close,
)

from oracles import brute_force_count, build_states, count_walks, scan_rules

GOLDEN = [
    ("qubits 1\nh 0", [0]),
    ("qubits 1\nh 0\n---\nh 0", [0]),
    ("qubits 2\nh 0\n---\nswap 0", [0, 0]),
    ("qubits 3\ntoffoli 0", [1, 1, 0]),
]


@pytest.fixture(scope="module")
def instances():
    out = []
    for text, x in GOLDEN:
        circuit = parse_circuit(text)
        out.append((circuit, x, compile_circuit(circuit, x)))
    return out


def random_system(rng: random.Random):
    size = rng.randint(1, 3)
    alph = Alphabet(tuple("abc"[:size]))
    window = rng.randint(1, 2)
    rules = set()
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.randrange(size) for _ in range(window))
        rhs = tuple(rng.randrange(size) for _ in range(window))
        if lhs != rhs:
            rules.add(Rule(lhs, rhs))
    if not rules:
        if size == 1:
            return None
        rules.add(Rule((0,) * window, tuple([size - 1] + [0] * (window - 1))))
    return RewritingSystem(alph, window, symmetric_close(rules))


def test_criterion_1_walk_count_oracle():
    t0 = time.time()
    rng = random.Random(20260826)
    done = 0
    while done < 100:
        system = random_system(rng)
        if system is None:
            continue
        size = len(system.alphabet.tokens)
        length = rng.randint(system.window, 5)
        s = tuple(rng.randrange(size) for _ in range(length))
        t = tuple(rng.randrange(size) for _ in range(length))
        n = rng.randint(0, 6)
        assert count_walks(system, s, t, n) == brute_force_count(system, s, t, n)
        done += 1
    assert time.time() - t0 < 10.0


def test_criterion_2_structural_scan():
    t0 = time.time()
    report = scan_rules()
    elapsed = time.time() - t0
    assert report.triples_total == 224**3
    assert report.max_images <= 2
    assert report.self_pairs == 0
    assert report.bidirectional == 0
    assert report.ok
    assert elapsed < 60.0


def test_criterion_3_orbit_isometry(instances):
    for circuit, x, inst in instances:
        t0 = time.time()
        report = verifier.VerificationReport()
        verifier.orbit_check(inst, report)
        assert report.all_passed, [c.name for c in report.checks if c.passed is False]
        assert time.time() - t0 < 120.0


def test_criterion_4_master_identity(instances):
    t0 = time.time()
    sigmas = set()
    for circuit, x, inst in instances:
        report = verifier.VerificationReport()
        verifier.end_to_end(inst, circuit, x, report)
        assert report.all_passed, [c.name for c in report.checks if c.passed is False]
        if report.sigma is not None:
            sigmas.add(report.sigma)
    assert sigmas == {-1}  # one global sign convention across all instances
    assert time.time() - t0 < 600.0


def test_criterion_5_sign_decision(instances):
    for circuit, x, inst in instances:
        bits = list(x) + [0] * (circuit.n_qubits - len(x))
        amp = overlap(circuit, bits)
        m_sign = inst.ell - 1
        delta = verifier.exact_deltas(inst, m_sign)[m_sign]
        if amp.is_zero():
            assert delta == 0
        else:
            want = -amp.sign()  # sigma = -1
            assert (delta > 0) - (delta < 0) == want


def test_criterion_6_spectral_cross_check():
    t0 = time.time()
    worst_rel = 0.0
    worst_scaled = 0.0
    for ell in range(2, 201):
        lam0 = spectral.eigenvalue(ell, 0)
        log_lam0 = math.log(lam0)
        ratios = np.array([spectral.eigenvalue(ell, j) / lam0 for j in range(ell)])
        w = np.array([spectral.weight(ell, j) for j in range(ell)])

        assert spectral.weight(ell, ell - 1) == pytest.approx(
            (-1) ** (ell - 1) * w[0], abs=1e-12
        )
        assert float(np.abs(w).sum()) <= 1 + 1e-12

        v = [0] * ell
        v[0] = 1
        p = w.copy()
        for m in range(1, 2001):
            nxt = [0] * ell
            nxt[0] = v[1]
            for k in range(1, ell - 1):
                nxt[k] = v[k - 1] + v[k + 1]
            nxt[ell - 1] = v[ell - 2]
            v = nxt
            p = p * ratios
            if m < ell - 1 or (m % 2) == (ell % 2):
                continue
            exact = v[ell - 1]
            log_exact = math.log(exact)
            exact_scaled = math.exp(max(log_exact - m * log_lam0, -700.0))
            approx_scaled = float(p.sum())
            err = abs(approx_scaled - exact_scaled)
            worst_scaled = max(worst_scaled, err)
            if exact_scaled >= 1e-8:
                # where the scaled entry is resolvable in doubles the spectral
                # sum must agree to full stated precision
                worst_rel = max(worst_rel, err / exact_scaled)

            log_upper, log_lower, valid = spectral.log_bounds(ell, m)
            assert log_exact <= log_upper + 1e-9
            if valid:
                assert log_exact >= log_lower - 1e-9

    assert worst_rel < 1e-6
    assert worst_scaled < 1e-12
    for ell in range(2, 13):
        assert spectral.log_bounds(ell, (ell + 1) ** 3)[2]
    assert time.time() - t0 < 60.0


def test_criterion_7_promises(instances):
    lambda1_recorded = []
    for circuit, x, inst in instances:
        report = verifier.verify(inst, circuit, x)
        growth = next(c for c in report.checks if c.name == "growth_promise")
        gap = next(c for c in report.checks if c.name == "gap_promise")
        resolution = next(
            c for c in report.checks if c.name == "growth_constant_resolution"
        )
        assert growth.passed
        amp = overlap(circuit, list(x) + [0] * (circuit.n_qubits - len(x)))
        if amp.is_zero():
            assert gap.passed is None
        else:
            assert gap.passed
            assert gap.details["margin"] >= inst.epsilon
            lambda1_recorded.append(
                (
                    resolution.details["lambda1_variant_holds_desk_scale"],
                    resolution.details["lambda1_variant_holds_at_m"],
                )
            )
    # the smaller-eigenvalue growth constant works at desk scale on every
    # nonzero-amplitude instance but fails at the gap walk length
    assert lambda1_recorded
    assert all(desk and not at_m for desk, at_m in lambda1_recorded)


def test_criterion_8_estimator_fidelity(instances):
    t0 = time.time()
    for circuit, x, inst in instances:
        graph = estimator.reachable_component(inst)
        assert len(graph) <= estimator.MAX_DENSE_VERTICES
        state_plus, state_minus = build_states(inst)
        plus = estimator.spectral_measure(graph, state_plus)
        minus = estimator.spectral_measure(graph, state_minus)

        # exact-mode identity against the walk-count oracle, at walk lengths
        # long enough that the scaled difference clears the float noise floor
        amp = overlap(circuit, list(x) + [0] * (circuit.n_qubits - len(x)))
        m_check = inst.ell + 337 if (inst.ell + 337) % 2 != inst.ell % 2 else inst.ell + 338
        exact_walks = verifier.exact_deltas(inst, m_check)[m_check]
        want = exact_walks / inst.c**m_check
        got = estimator.delta_moment(plus, minus, m_check, inst.c)
        if amp.is_zero():
            assert exact_walks == 0
            assert abs(got) < 1e-12
        else:
            assert got == pytest.approx(want, rel=1e-9)

        # seeded noise model stays within its printed bound
        exact_clipped = estimator.delta_moment(plus, minus, inst.m, inst.c)
        eta, theta = estimator.plan_noise(1.0, inst.m, inst.c)
        samples = estimator.hoeffding_samples(1.0)
        hits = 0
        for seed in range(200):
            est = estimator.noisy_estimate(
                plus, minus, inst.m, inst.c, eta, theta, samples, seed=seed
            )
            if abs(est.value - exact_clipped) <= est.error_bound:
                hits += 1
        assert hits >= 190
    assert time.time() - t0 < 300.0
