"""Independent reference values for checking walkdelta's outputs.

Nothing here imports walkdelta. The three references are the ones the
master identity is built from:

- the return amplitude <x,0|U|x,0>, from a dense state-vector simulation in
  exact Q(sqrt 2) arithmetic;
- the path corner entry P^n[0, ell-1], from the integer recurrence
  v'_k = v_{k-1} + v_{k+1};
- Delta(m)/c^m = -ov * sum_j w_j (lambda_j/lambda_0)^m / sqrt(1+d), from the
  closed-form eigenpairs of the path graph, in numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class QSqrt2:
    """The exact number a + b*sqrt(2) with rational a and b."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, other: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other: "QSqrt2") -> "QSqrt2":
        return self + (-other)

    def __mul__(self, other: "QSqrt2") -> "QSqrt2":
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)


ZERO = QSqrt2(Fraction(0))
ONE = QSqrt2(Fraction(1))
INV_SQRT2 = QSqrt2(Fraction(0), Fraction(1, 2))


def sqrt2_power(n: int) -> QSqrt2:
    """sqrt(2)^n, exactly."""
    if n % 2:
        return QSqrt2(Fraction(0), Fraction(2 ** (n // 2)))
    return QSqrt2(Fraction(2 ** (n // 2)))


def _apply(kind: str, q: int, state: list[QSqrt2]) -> list[QSqrt2]:
    """One gate on a dense state vector; qubit q is bit q of the index."""
    out = [ZERO] * len(state)
    for idx, amp in enumerate(state):
        if amp.is_zero():
            continue
        if kind == "h":
            low = idx & ~(1 << q)
            high = idx | (1 << q)
            half = amp * INV_SQRT2
            out[low] = out[low] + half
            out[high] = out[high] + (-half if idx >> q & 1 else half)
        elif kind == "swap":
            b0, b1 = idx >> q & 1, idx >> (q + 1) & 1
            j = idx & ~(0b11 << q) | b1 << q | b0 << (q + 1)
            out[j] = out[j] + amp
        elif kind == "toffoli":
            j = idx ^ (1 << (q + 2)) if idx >> q & 1 and idx >> (q + 1) & 1 else idx
            out[j] = out[j] + amp
        else:
            raise ValueError(f"unknown gate {kind!r}")
    return out


def return_amplitude(qubits: int, layers, bits: str) -> QSqrt2:
    """<x,0|U|x,0> for gates (kind, qubit) applied layer by layer.

    ``bits[q]`` is the input of qubit q; qubits past the input start at 0.
    """
    x = sum(int(b) << q for q, b in enumerate(bits))
    state = [ZERO] * (1 << qubits)
    state[x] = ONE
    for layer in layers:
        for kind, q in layer:
            state = _apply(kind, q, state)
    return state[x]


def corner_entry(ell: int, n: int) -> int:
    """P^n[0, ell-1] for the adjacency matrix P of the ell-vertex path."""
    v = [1] + [0] * (ell - 1)
    zero = [0]
    for _ in range(n):
        v = list(map(operator.add, zero + v[:-1], v[1:] + zero))
    return v[ell - 1]


def exact_delta(ell: int, n: int, amplitude: QSqrt2, d: int) -> int:
    """Delta(n) = -sqrt(2)^n * ov * P^n[0, ell-1] / sqrt(1+d), as an integer."""
    value = sqrt2_power(n) * amplitude * QSqrt2(Fraction(corner_entry(ell, n)))
    if d:
        value = value * INV_SQRT2
    value = -value
    if value.b != 0 or value.a.denominator != 1:
        raise ValueError(f"Delta({n}) is not an integer: {value}")
    return int(value.a)


def scaled_delta(ell: int, m: int, amplitude: float, d: int) -> float:
    """Delta(m) / c^m with c = sqrt(2) lambda_0, from the path eigenpairs.

    Stable for any m: every ratio lambda_j/lambda_0 lies in [-1, 1].
    """
    theta = np.pi * np.arange(1, ell + 1) / (ell + 1)
    lam = 2.0 * np.cos(theta)
    w = 2.0 / (ell + 1) * np.sin(theta) * np.sin(theta * ell)
    tail = float(np.sum(w * np.power(lam / lam[0], m)))
    return -amplitude * tail / math.sqrt(1 + d)
