"""Tests of the benchmark's independent references.

Run with: python3 -m pytest bench
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from reference import (
    INV_SQRT2,
    QSqrt2,
    corner_entry,
    exact_delta,
    return_amplitude,
    scaled_delta,
)

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _unitary(qubits, layers):
    """Dense float unitary, built gate by gate from permutations and H."""
    dim = 1 << qubits
    u = np.eye(dim)
    for layer in layers:
        for kind, q in layer:
            g = np.zeros((dim, dim))
            for idx in range(dim):
                if kind == "h":
                    bit = idx >> q & 1
                    for out_bit in (0, 1):
                        j = idx & ~(1 << q) | out_bit << q
                        g[j, idx] += H[out_bit, bit]
                elif kind == "swap":
                    b0, b1 = idx >> q & 1, idx >> (q + 1) & 1
                    g[idx & ~(0b11 << q) | b1 << q | b0 << (q + 1), idx] = 1.0
                else:
                    flip = idx >> q & 1 and idx >> (q + 1) & 1
                    g[idx ^ (1 << (q + 2)) if flip else idx, idx] = 1.0
            u = g @ u
    return u


def test_hand_values():
    assert return_amplitude(1, [[("h", 0)]], "0") == INV_SQRT2
    assert return_amplitude(1, [[("h", 0)]], "1") == -INV_SQRT2
    assert return_amplitude(3, [[("toffoli", 0)]], "110").is_zero()
    assert return_amplitude(3, [[("toffoli", 0)]], "100") == QSqrt2(Fraction(1))
    assert return_amplitude(1, [[("h", 0)], [("h", 0)]], "0") == QSqrt2(Fraction(1))


@pytest.mark.parametrize(
    "qubits,layers",
    [
        (2, [[("h", 0)], [("swap", 0)]]),
        (2, [[("h", 0)], [("swap", 0)], [("h", 1)]]),
        (3, [[("h", 0)], [("h", 1)], [("toffoli", 0)]]),
        (3, [[("h", 0)], [("h", 1)], [("toffoli", 0)], [("h", 2)]]),
        (3, [[("h", 0), ("h", 2)], [("swap", 1)], [("toffoli", 0)], [("h", 1)]]),
    ],
)
def test_amplitude_matches_dense_unitary(qubits, layers):
    u = _unitary(qubits, layers)
    for x in range(1 << qubits):
        bits = "".join(str(x >> q & 1) for q in range(qubits))
        got = float(return_amplitude(qubits, layers, bits))
        assert got == pytest.approx(u[x, x], abs=1e-12)


@pytest.mark.parametrize("ell", [2, 3, 5, 8])
def test_corner_entry_matches_matrix_power(ell):
    p = np.zeros((ell, ell), dtype=object)
    for k in range(ell - 1):
        p[k, k + 1] = p[k + 1, k] = 1
    power = np.identity(ell, dtype=object)
    for n in range(40):
        assert corner_entry(ell, n) == power[0, ell - 1]
        power = power.dot(p)


def test_exact_delta_sign_and_scale():
    # ell = 2 path: P^1[0, 1] = 1; ov = 1/sqrt(2), d = 1:
    # Delta(1) = -sqrt(2) * (1/sqrt(2)) * 1 / sqrt(2) is not an integer
    with pytest.raises(ValueError):
        exact_delta(2, 1, INV_SQRT2, 1)
    # d = 0: Delta(1) = -1
    assert exact_delta(2, 1, INV_SQRT2, 0) == -1
    # Delta(3) = -2 sqrt(2) * (1/sqrt(2)) * P^3[0, 1], with P^3 = P
    assert exact_delta(2, 3, INV_SQRT2, 0) == -2
    # ell = 3, d = 1: -sqrt(2)^4 * (1/sqrt(2)) * P^4[0, 2] / sqrt(2) = -4 * 2 / 2
    assert exact_delta(3, 4, INV_SQRT2, 1) == -4
    assert exact_delta(3, 2, QSqrt2(Fraction(0)), 1) == 0


@pytest.mark.parametrize("ell", [4, 5, 6, 7])
@pytest.mark.parametrize("d", [0, 1])
def test_scaled_delta_matches_brute_force(ell, d):
    ov = 1 / math.sqrt(2.0)
    c = math.sqrt(2.0) * 2.0 * math.cos(math.pi / (ell + 1))
    p = np.diag(np.ones(ell - 1), 1) + np.diag(np.ones(ell - 1), -1)
    for m in range(ell - 1, ell + 30, 2):
        corner = np.linalg.matrix_power(p, m)[0, ell - 1]
        want = -math.sqrt(2.0) ** m * ov * corner / math.sqrt(1 + d) / c**m
        assert scaled_delta(ell, m, ov, d) == pytest.approx(want, rel=1e-9)


def test_scaled_delta_at_large_m_keeps_leading_terms():
    # at m far beyond ell^2 only lambda_0 and -lambda_0 survive, and for odd
    # m (even ell) the two terms add: 2 * w_0
    ell, m = 64, 65**3
    w0 = 2.0 / (ell + 1) * math.sin(math.pi / (ell + 1)) ** 2
    assert scaled_delta(ell, m, 1.0, 0) == pytest.approx(-2 * w0, rel=1e-9)
