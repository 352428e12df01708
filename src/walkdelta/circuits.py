"""Exact simulation of small {Hadamard, Swap, Toffoli} circuits.

Amplitudes produced by these gates on basis-state inputs always lie in
Z[sqrt(2)] / 2^e, so the simulator works in exact arithmetic. The state is
sparse: k Hadamards give at most 2^k amplitudes, whatever the width.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence


class CircuitError(Exception):
    """Malformed circuit or simulation request."""


class SimulationTooLarge(CircuitError):
    """The state would hold more amplitudes than the simulator keeps."""


MAX_AMPLITUDES = 4096


class Root2Frac:
    """Exact number (a + b*sqrt(2)) / 2^e with integer a, b and e >= 0.

    Canonical form: e == 0, or a and b are not both even. Immutable, with
    field-wise == and hash; a plain class, so a tuple's ordering and
    repetition stay out of the number type.
    """

    __slots__ = ("a", "b", "e")

    def __init__(self, a: int, b: int, e: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.e) == (other.a, other.b, other.e)

    def __hash__(self):
        return hash((self.a, self.b, self.e))

    @staticmethod
    def make(a: int, b: int, e: int) -> "Root2Frac":
        if e < 0:
            a, b, e = a << (-e), b << (-e), 0
        while e > 0 and a % 2 == 0 and b % 2 == 0:
            a //= 2
            b //= 2
            e -= 1
        if a == 0 and b == 0:
            e = 0
        return Root2Frac(a, b, e)

    def __add__(self, other: "Root2Frac") -> "Root2Frac":
        e = max(self.e, other.e)
        return Root2Frac.make(
            (self.a << (e - self.e)) + (other.a << (e - other.e)),
            (self.b << (e - self.e)) + (other.b << (e - other.e)),
            e,
        )

    def __sub__(self, other: "Root2Frac") -> "Root2Frac":
        return self + (-other)

    def __neg__(self) -> "Root2Frac":
        return Root2Frac(-self.a, -self.b, self.e)

    def __mul__(self, other: "Root2Frac") -> "Root2Frac":
        return Root2Frac.make(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.e + other.e,
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of the real value, exactly."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2; sqrt(2) is irrational so
        # equality cannot occur for nonzero integers
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return -1 if a * a > 2 * b * b else 1

    def to_float(self) -> float:
        return (self.a + self.b * math.sqrt(2)) / (1 << self.e)

    def __repr__(self):
        return f"Root2Frac({self.a}, {self.b}, {self.e})"


R2_ZERO = Root2Frac(0, 0, 0)
R2_ONE = Root2Frac(1, 0, 0)
R2_SQRT2 = Root2Frac(0, 1, 0)
R2_INV_SQRT2 = Root2Frac(0, 1, 1)

GATE_SPANS = {"h": 1, "swap": 2, "toffoli": 3}


class Gate(namedtuple("Gate", "kind qubit")):
    """A gate anchored at its lowest qubit index.

    ``swap q`` exchanges qubits q and q+1; ``toffoli q`` has controls q and
    q+1 and target q+2.
    """

    __slots__ = ()

    def __init__(self, kind: str, qubit: int):
        if kind not in GATE_SPANS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if qubit < 0:
            raise CircuitError(f"negative qubit index {qubit}")

    @property
    def span(self) -> range:
        return range(self.qubit, self.qubit + GATE_SPANS[self.kind])


class Circuit(namedtuple("Circuit", "n_qubits layers")):
    """Layered circuit; gates within one layer act on disjoint qubits.

    ``layers`` is a tuple of layers, each a tuple of gates.
    """

    __slots__ = ()

    def __init__(self, n_qubits: int, layers: tuple[tuple[Gate, ...], ...]):
        validate(self)


def validate(circuit: Circuit) -> None:
    if circuit.n_qubits < 1:
        raise CircuitError("circuit needs at least one qubit")
    for i, layer in enumerate(circuit.layers):
        used: set[int] = set()
        for gate in layer:
            span = set(gate.span)
            if max(span) >= circuit.n_qubits:
                raise CircuitError(
                    f"layer {i}: gate {gate.kind} at {gate.qubit} exceeds "
                    f"{circuit.n_qubits} qubits"
                )
            if span & used:
                raise CircuitError(f"layer {i}: overlapping gates on qubits {span & used}")
            used |= span


def _apply_gate_exact(gate: Gate, state: dict[int, Root2Frac]) -> dict[int, Root2Frac]:
    out: dict[int, Root2Frac] = {}

    def add(idx: int, amp: Root2Frac) -> None:
        cur = out.get(idx)
        total = amp if cur is None else cur + amp
        if total.is_zero():
            out.pop(idx, None)
        else:
            out[idx] = total

    q = gate.qubit
    for idx, amp in state.items():
        if gate.kind == "h":
            bit = (idx >> q) & 1
            add(idx & ~(1 << q), amp * R2_INV_SQRT2)
            flip_amp = amp * R2_INV_SQRT2
            add(idx | (1 << q), -flip_amp if bit else flip_amp)
        elif gate.kind == "swap":
            b0 = (idx >> q) & 1
            b1 = (idx >> (q + 1)) & 1
            new = idx & ~(1 << q) & ~(1 << (q + 1))
            new |= b1 << q
            new |= b0 << (q + 1)
            add(new, amp)
        else:  # toffoli
            if (idx >> q) & 1 and (idx >> (q + 1)) & 1:
                add(idx ^ (1 << (q + 2)), amp)
            else:
                add(idx, amp)
    return out


def apply(circuit: Circuit, bits: Sequence[int]) -> dict[int, Root2Frac]:
    """Exact state after the circuit on basis input |bits>.

    ``bits[q]`` is the initial value of qubit q.  Returns a sparse map from
    basis index (qubit q at bit position q) to amplitude.
    """
    if len(bits) != circuit.n_qubits:
        raise CircuitError(f"expected {circuit.n_qubits} input bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise CircuitError("input bits must be 0 or 1")
    idx = sum(b << q for q, b in enumerate(bits))
    state: dict[int, Root2Frac] = {idx: R2_ONE}
    for layer in circuit.layers:
        for gate in layer:
            state = _apply_gate_exact(gate, state)
            if len(state) > MAX_AMPLITUDES:
                raise SimulationTooLarge(f"state exceeds {MAX_AMPLITUDES} amplitudes")
    return state


def overlap(circuit: Circuit, bits: Sequence[int]) -> Root2Frac:
    """Exact return amplitude <bits,0| U |bits,0>; qubits past the input start at 0."""
    bits = list(bits) + [0] * (circuit.n_qubits - len(bits))
    idx = sum(b << q for q, b in enumerate(bits))
    return apply(circuit, bits).get(idx, R2_ZERO)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    First non-comment line is ``qubits N``; layers are separated by ``---``
    lines; gate lines are ``h Q``, ``swap Q``, ``toffoli Q``.  ``#`` starts a
    comment; blank lines are ignored.
    """
    n_qubits = None
    layers: list[list[Gate]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits":
                raise CircuitError(f"line {lineno}: expected 'qubits N', got {line!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise CircuitError(f"line {lineno}: bad qubit count {parts[1]!r}") from None
            continue
        if line == "---":
            layers.append([])
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in GATE_SPANS:
            raise CircuitError(f"line {lineno}: bad gate line {line!r}")
        try:
            qubit = int(parts[1])
        except ValueError:
            raise CircuitError(f"line {lineno}: bad qubit index {parts[1]!r}") from None
        layers[-1].append(Gate(parts[0], qubit))
    if n_qubits is None:
        raise CircuitError("missing 'qubits N' header")
    while layers and not layers[-1]:
        layers.pop()
    if not layers:
        raise CircuitError("circuit has no gates")
    if any(not layer for layer in layers):
        raise CircuitError("empty layer between separators")
    return Circuit(n_qubits, tuple(tuple(layer) for layer in layers))


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for i, layer in enumerate(circuit.layers):
        if i:
            lines.append("---")
        for gate in layer:
            lines.append(f"{gate.kind} {gate.qubit}")
    return "\n".join(lines) + "\n"
