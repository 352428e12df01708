import json
import math

import pytest

from walkdelta import verifier
from walkdelta.circuits import R2_INV_SQRT2, R2_ONE, R2_SQRT2, R2_ZERO, Root2Frac, parse_circuit
from walkdelta.clock import ClockSystem, compile_circuit
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
    exact_deltas,
    sqrt2_power,
    verify,
    within_growth,
)


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
    assert all(len(row) == 2 for row in graph.adj)


def test_reachable_graph_budget():
    system = four_cycle_system()
    with pytest.raises(VerifyError):
        ReachableGraph(system, [(0, 0, 0)], max_vertices=4)


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
    # swapping t and t_prime flips the sign of every delta, so the global
    # sigma flips; the identity still holds but sign_decision must notice
    import dataclasses

    swapped = dataclasses.replace(inst, t=inst.t_prime, t_prime=inst.t)
    report = VerificationReport()
    verifier.end_to_end(swapped, circuit, x, report)
    assert report.sigma == 1


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


def orbit_vectors(inst):
    u = [{inst.t: R2_INV_SQRT2, inst.t_prime: -R2_INV_SQRT2}]
    for _ in range(inst.ell - 1):
        u.append(verifier._forward_step(inst, u[-1])[0])
    return u


def gram_oracle(inst):
    """The O(ell^2) Gram and <u_i, H u_j> comparisons, from _dot alone."""
    u = orbit_vectors(inst)
    ell = len(u)
    ortho = all(
        verifier._dot(u[i], u[j]) == (R2_ONE if i == j else R2_ZERO)
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
        verifier._dot(u[i], h_u[j]) == (R2_SQRT2 if abs(i - j) == 1 else R2_ZERO)
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
