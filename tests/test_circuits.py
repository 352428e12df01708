import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from walkdelta.circuits import (
    Circuit,
    CircuitError,
    Gate,
    R2_INV_SQRT2,
    R2_ONE,
    R2_SQRT2,
    R2_ZERO,
    Root2Frac,
    apply,
    overlap,
    parse_circuit,
    serialize_circuit,
)


class TestRoot2Frac:
    def test_canonical_form(self):
        x = Root2Frac.make(4, 2, 2)
        assert (x.a, x.b, x.e) == (2, 1, 1)
        assert Root2Frac.make(0, 0, 7) == R2_ZERO

    def test_arithmetic(self):
        assert R2_INV_SQRT2 * R2_INV_SQRT2 * Root2Frac(2, 0, 0) == R2_ONE
        assert R2_SQRT2 * R2_SQRT2 == Root2Frac(2, 0, 0)
        assert R2_ONE - R2_ONE == R2_ZERO

    def test_sign_mixed_terms(self):
        # 3 - 2*sqrt(2) > 0, 1 - sqrt(2) < 0
        assert Root2Frac(3, -2, 0).sign() == 1
        assert Root2Frac(1, -1, 0).sign() == -1
        assert Root2Frac(-3, 2, 0).sign() == -1
        assert R2_ZERO.sign() == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 6))
    def test_sign_matches_float(self, a, b, e):
        x = Root2Frac.make(a, b, e)
        val = x.to_float()
        if abs(val) > 1e-9:
            assert x.sign() == (1 if val > 0 else -1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 4)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 4)),
    )
    def test_ring_ops_match_float(self, p, q):
        x, y = Root2Frac.make(*p), Root2Frac.make(*q)
        assert (x + y).to_float() == pytest.approx(x.to_float() + y.to_float())
        assert (x * y).to_float() == pytest.approx(x.to_float() * y.to_float())


def single(gate_kind, qubit, n):
    return Circuit(n, ((Gate(gate_kind, qubit),),))


class TestGates:
    def test_h_squared_is_identity(self):
        c = Circuit(1, ((Gate("h", 0),), (Gate("h", 0),)))
        for b in (0, 1):
            state = apply(c, (b,))
            assert state == {b: R2_ONE}

    def test_h_amplitudes(self):
        state = apply(single("h", 0, 1), (1,))
        assert state[0] == R2_INV_SQRT2
        assert state[1] == -R2_INV_SQRT2

    def test_swap(self):
        state = apply(single("swap", 0, 2), (1, 0))
        assert state == {2: R2_ONE}

    def test_toffoli_truth_table(self):
        c = single("toffoli", 0, 3)
        for x in range(8):
            bits = [(x >> q) & 1 for q in range(3)]
            state = apply(c, bits)
            want = x ^ (1 << 2) if bits[0] and bits[1] else x
            assert state == {want: R2_ONE}

    def test_toffoli_involution(self):
        c = Circuit(3, ((Gate("toffoli", 0),), (Gate("toffoli", 0),)))
        for x in range(8):
            bits = [(x >> q) & 1 for q in range(3)]
            assert apply(c, bits) == {x: R2_ONE}


class TestValidation:
    def test_overlapping_layer_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(2, ((Gate("h", 0), Gate("swap", 0)),))

    def test_out_of_range_gate(self):
        with pytest.raises(CircuitError):
            Circuit(2, ((Gate("toffoli", 0),),))

    def test_bad_input_bits(self):
        c = single("h", 0, 1)
        with pytest.raises(CircuitError):
            apply(c, (2,))
        with pytest.raises(CircuitError):
            apply(c, (0, 0))


def random_circuit(rng, n_qubits, n_layers):
    layers = []
    for _ in range(n_layers):
        layer = []
        free = list(range(n_qubits))
        rng.shuffle(free)
        while free:
            q = free[0]
            options = ["h"]
            if {q, q + 1} <= set(free):
                options.append("swap")
            if {q, q + 1, q + 2} <= set(free):
                options.append("toffoli")
            kind = rng.choice(options)
            layer.append(Gate(kind, q))
            for used in Gate(kind, q).span:
                free.remove(used)
        layers.append(tuple(layer))
    return Circuit(n_qubits, tuple(layers))


def test_unitarity_preserves_norm():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, rng.randint(1, 4))
        bits = [rng.randint(0, 1) for _ in range(n)]
        state = apply(c, bits)
        norm = R2_ZERO
        for amp in state.values():
            norm = norm + amp * amp
        assert norm == R2_ONE


def apply_float(circuit, bits) -> dict[int, float]:
    """Float oracle for apply(): the same gates, amplitudes in doubles."""
    inv = 1.0 / math.sqrt(2)
    idx = sum(b << q for q, b in enumerate(bits))
    state: dict[int, float] = {idx: 1.0}
    for layer in circuit.layers:
        for gate in layer:
            out: dict[int, float] = {}
            q = gate.qubit
            for i, amp in state.items():
                if gate.kind == "h":
                    bit = (i >> q) & 1
                    out[i & ~(1 << q)] = out.get(i & ~(1 << q), 0.0) + amp * inv
                    hi = i | (1 << q)
                    out[hi] = out.get(hi, 0.0) + (-amp if bit else amp) * inv
                elif gate.kind == "swap":
                    b0 = (i >> q) & 1
                    b1 = (i >> (q + 1)) & 1
                    new = (i & ~(1 << q) & ~(1 << (q + 1))) | (b1 << q) | (b0 << (q + 1))
                    out[new] = out.get(new, 0.0) + amp
                else:
                    j = i ^ (1 << (q + 2)) if ((i >> q) & 1 and (i >> (q + 1)) & 1) else i
                    out[j] = out.get(j, 0.0) + amp
            state = out
    return state


def test_exact_matches_float():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, rng.randint(1, 3))
        bits = [rng.randint(0, 1) for _ in range(n)]
        exact = apply(c, bits)
        approx = apply_float(c, bits)
        for idx in range(2**n):
            a = exact.get(idx, R2_ZERO).to_float()
            b = approx.get(idx, 0.0)
            assert abs(a - b) < 1e-12


def test_overlap_single_h():
    assert overlap(single("h", 0, 1), (0,)) == R2_INV_SQRT2
    assert overlap(single("h", 0, 1), (1,)) == -R2_INV_SQRT2


class TestTextFormat:
    EXAMPLE = """\
# two-qubit example
qubits 2
h 0
---
swap 0
---
h 1
"""

    def test_parse(self):
        c = parse_circuit(self.EXAMPLE)
        assert c.n_qubits == 2
        assert c.layers == (
            (Gate("h", 0),),
            (Gate("swap", 0),),
            (Gate("h", 1),),
        )

    def test_round_trip(self):
        c = parse_circuit(self.EXAMPLE)
        assert parse_circuit(serialize_circuit(c)) == c

    @pytest.mark.parametrize(
        "bad",
        [
            "h 0\n",
            "qubits two\nh 0\n",
            "qubits 2\nh x\n",
            "qubits 2\ncnot 0\n",
            "qubits 2\nh 0\n---\n---\nh 1\n",
            "qubits 2\n",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(CircuitError):
            parse_circuit(bad)
