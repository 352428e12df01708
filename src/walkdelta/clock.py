"""Circuit-to-rewriting compiler.

Encodes a layered {H, Swap, Toffoli} circuit as a string-rewriting system on
a 224-symbol cell alphabet, one cell per byte of a ``bytes`` string.  Each
cell stacks four tracks: a program symbol (gate code plus control markers), a
data symbol (qubit values and formatting marks), an auxiliary bit, and a
sign-simulator bit.  The local update
operator acts on three adjacent cells; its nonzero matrix entries, all equal
to one, define a symmetric window-3 relation whose walk counts encode the
circuit's return amplitude.

The control flow on the program band: an execution marker sweeps right past
the gate symbols, applying each gate to the data cells beneath it; at the
right end it turns around and sends a marking signal left; each round trip
shifts the program one cell left, until the next gate block is aligned with
the data register and a fresh execution marker is created.  The run ends
when the execution marker meets the terminating boundary symbol above the
register.

Every sweep step also applies a Hadamard: a real one on a data cell when a
Hadamard gate fires, otherwise a dummy one on the auxiliary bit of the
window's middle cell.  Negative Hadamard entries are replaced by a bit flip
on the simulator track, keeping all matrix entries in {0, 1}.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .circuits import Circuit, validate
from .rewriting import Alphabet, RewritingSystem
from . import spectral


class CompileError(Exception):
    """Layout or control-simulation failure."""


# program symbols: plain gate codes, marked gate codes, and control markers
GATE_I, GATE_H, GATE_S, GATE_T, GATE_B = range(5)
MARK_I, MARK_H, MARK_S, MARK_T, MARK_B = range(5, 10)
HOLE, EXEC, TURN, BLANK = range(10, 14)

PLAIN = frozenset(range(5))
MARKED = frozenset(range(5, 10))
N_PROGRAM = 14

# data symbols
D0, D1, SEP, DOT = range(4)
BINARY = frozenset((D0, D1))
N_DATA = 4

ALPHABET_SIZE = N_PROGRAM * N_DATA * 2 * 2  # 224
WINDOW = 3

PROGRAM_NAMES = (
    "I", "H", "S", "T", "B",
    "MI", "MH", "MS", "MT", "MB",
    "HOLE", "EXEC", "TURN", "BLANK",
)
DATA_NAMES = ("D0", "D1", "SEP", "DOT")

GATE_CODE = {"h": GATE_H, "swap": GATE_S, "toffoli": GATE_T}

# aux/sim transport tags, each the window index of the first of the two
# cells whose aux and sim bits swap: LEFT swaps cells -1,0, RIGHT swaps
# cells 0,1.  The carried bits must land wherever the next step's Hadamard
# acts, so the turn-around rules transport as well: rule 2 hands the bits
# leftward to the marking signal and rule 6 hands them rightward to the
# fresh sweep marker, even though the turn symbol itself stays in place.
LEFT, RIGHT = 0, 1


def make_cell(p: int, d: int, a: int, s: int) -> int:
    return ((p * N_DATA + d) * 2 + a) * 2 + s


def split_cell(c: int) -> tuple[int, int, int, int]:
    return c >> 4, (c >> 2) & 3, (c >> 1) & 1, c & 1


def cell_token(c: int) -> str:
    p, d, a, s = split_cell(c)
    return f"{PROGRAM_NAMES[p]}.{DATA_NAMES[d]}.{a}.{s}"


@lru_cache(maxsize=1)
def clock_alphabet() -> Alphabet:
    return Alphabet(tuple(cell_token(c) for c in range(ALPHABET_SIZE)))


def _transition_rules() -> list:
    """The six transition rules as (program pair, data guard, rewritten
    pair, movement tag).

    The rules read and rewrite the program symbols of cells 0 and 1 (cell -1
    is context).  Rules 2 and 6 additionally condition on the data symbol
    under their left and right box respectively: a guard (k, sep) asks that
    the data symbol of cell k is SEP exactly when sep is true.
    """
    rules = []
    for g in sorted(PLAIN):
        for marker in (HOLE, EXEC):  # rule 1: marker swaps right past a gate symbol
            rules.append(((marker, g), None, (g, marker), RIGHT))
        # rule 3: turn symbol starts the leftward marking
        rules.append(((g, TURN), None, (g + 5, BLANK), LEFT))
        for mk in sorted(MARKED):  # rule 4: marking propagates left
            rules.append(((g, mk), None, (g + 5, mk - 5), LEFT))
        # rule 5: marking reaches the program start
        rules.append(((BLANK, g + 5), None, (TURN, g), LEFT))
    return rules + [
        # rule 2: marker past the program end turns around
        ((HOLE, BLANK), (0, False), (TURN, BLANK), LEFT),
        ((EXEC, BLANK), (0, True), (TURN, BLANK), LEFT),
        # rule 6: new sweep marker created
        ((BLANK, TURN), (1, False), (BLANK, HOLE), RIGHT),
        ((BLANK, TURN), (1, True), (BLANK, EXEC), RIGHT),
    ]


def _group(items) -> dict:
    table: dict = {}
    for key, value in items:
        table.setdefault(key, []).append(value)
    return table


RULES = _transition_rules()
# forward: program pair -> [(guard, rewritten pair, move)]
TRANSITIONS = _group((p, (guard, q, move)) for p, guard, q, move in RULES)
# the derived inverse: rewritten pair -> [(program pair, move)]
PREDECESSORS = _group((q, (p, move)) for p, guard, q, move in RULES)
# every program pair a rule reads, forward or backward, and as the pair code
# (p0 << 4) | p1 that two cells give with (c0 & 0xF0) | (c1 >> 4)
RULE_PAIRS = frozenset(TRANSITIONS) | frozenset(PREDECESSORS)
RULE_CODES = frozenset((p0 << 4) | p1 for p0, p1 in RULE_PAIRS)
# the program symbols of the control signal (the marked gates, HOLE, EXEC
# and TURN), every pair in RULE_PAIRS holds exactly one, and their cells
SIGNALS = range(MARK_I, BLANK)
SIGNAL_CELLS = re.compile(rb"[\x50-\xcf]")  # c >> 4 in SIGNALS (split_cell)
BAND = bytes(c & 0xF0 for c in range(256))  # s.translate(BAND): the program band of s


def rule_windows(s: bytes) -> list[int]:
    """The start j, ascending, of every window of s whose program pair
    (cells 1 and 2) is in RULE_PAIRS.

    No other window has a forward or a backward image. Every such pair
    holds exactly one signal symbol, so for each signal cell only the two
    windows holding it as cell 1 or 2 are looked at, and no window is
    found twice.
    """
    last = len(s) - 3
    out: list[int] = []
    for signal in SIGNAL_CELLS.finditer(s):
        i = signal.start()
        for j in (i - 2, i - 1):
            if 0 <= j <= last and ((s[j + 1] & 0xF0) | (s[j + 2] >> 4)) in RULE_CODES:
                out.append(j)
    return out


def transition_match(
    p0: int, p1: int, d0: int, d1: int
) -> tuple[tuple[int, int], int] | None:
    """The rewritten program pair of cells 0 and 1 and the movement tag of
    the rule matching the window, or None when no rule applies."""
    for guard, out, move in TRANSITIONS.get((p0, p1), ()):
        if guard is None or ((d0, d1)[guard[0]] == SEP) == guard[1]:
            return out, move
    return None


# execution classes
X_NONE, X_TOFFOLI, X_SWAP, X_HADAMARD, X_BOUNDARY = range(5)


def execution_class(p0: int, p1: int, dm: int, d0: int, d1: int) -> int:
    """Which gate fires in the window, per the execution conditions.

    The execution marker must sit in program cell 0 with the gate symbol in
    cell 1, and the data cells the gate touches must hold qubit values.
    Everything else falls through to the no-gate class (dummy Hadamard).
    """
    if p0 != EXEC:
        return X_NONE
    if p1 == GATE_T and dm in BINARY and d0 in BINARY and d1 in BINARY:
        return X_TOFFOLI
    if p1 == GATE_S and d0 in BINARY and d1 in BINARY:
        return X_SWAP
    if p1 == GATE_H and d1 in BINARY:
        return X_HADAMARD
    if p1 == GATE_B and d1 in BINARY:
        return X_BOUNDARY
    return X_NONE


def _window(cells: bytes) -> bytes:
    if type(cells) is not bytes:  # the caches compare bytes: a tuple would miss
        raise TypeError(f"a window is 3 bytes, not {type(cells).__name__}")
    return cells


def _carry(c0: int, c1: int, c2: int, move: int) -> list[int]:
    """The window with the carried aux/sim bits (the low two bits of a
    cell) moved with the signal: those at window indices move and move + 1
    swap (cells -1 and 0 for LEFT, 0 and 1 for RIGHT).

    A swap, so it is its own inverse and undoes itself in a backward step.
    """
    cells = [c0, c1, c2]
    x, y = cells[move], cells[move + 1]
    cells[move], cells[move + 1] = (x & 0xFC) | (y & 3), (y & 0xFC) | (x & 3)
    return cells


def _branches(
    xc: int, d0: int, d1: int, d2: int, a1: int, s1: int
) -> list[tuple[int, int, int, int]]:
    """The execution phase of a window of class xc: the new d1, d2, a1 and
    s1 of each Hadamard branch, ascending in the branched bit.  The digits
    are window indices, so d1 and d2 are the data of cells 0 and 1.

    Gate action plus one Hadamard branch: a real Hadamard branches the data
    bit of cell 1, anything else branches the auxiliary bit of cell 0
    (dummy Hadamard); the simulator bit of cell 0 flips exactly on the
    1 -> 1 branch, standing in for the negative entry.  The relation is
    symmetric (so is the Hadamard matrix, and Toffoli and swap are their
    own inverses), and no branch changes the class, so the same call on an
    image gives its predecessors.
    """
    if xc == X_HADAMARD:
        return [(d1, bit, a1, s1 ^ (d2 == bit == D1)) for bit in (D0, D1)]
    if xc == X_TOFFOLI and d0 == d1 == D1:
        d2 ^= 1
    elif xc == X_SWAP:
        d1, d2 = d2, d1
    return [(d1, d2, bit, s1 ^ (a1 == bit == 1)) for bit in (0, 1)]


def _images(cells: bytes) -> tuple[bytes, ...]:
    c0, c1, c2 = _window(cells)
    p1, p2, d0, d1, d2 = c1 >> 4, c2 >> 4, (c0 >> 2) & 3, (c1 >> 2) & 3, (c2 >> 2) & 3
    match = transition_match(p1, p2, d1, d2)
    if match is None:  # most windows: return before building branches
        return ()
    xc = execution_class(p1, p2, d0, d1, d2)
    if xc == X_BOUNDARY:
        return ()
    # execution phase, then the transition phase: rewrite the program cells
    # and move the carried aux/sim bits with the signal
    (q0, q1), move = match
    return tuple(
        bytes(_carry(c0, make_cell(q0, e1, a1, s1), (q1 << 4) | (e2 << 2) | (c2 & 3), move))
        for e1, e2, a1, s1 in _branches(xc, d0, d1, d2, (c1 >> 1) & 1, c1 & 1)
    )


forward_images = lru_cache(maxsize=None)(_images)


def _backward_images(cells: bytes) -> tuple[bytes, ...]:
    """All triples tau with cells in forward_images(tau), in the order of
    their rule in PREDECESSORS, then of the bit the Hadamard branched.

    Each rule that writes the window's program pair is undone: the carry,
    then the execution phase, by ``_branches`` on the uncarried window.
    The execution phase changes no formatting mark, so the rule's guard and
    the execution class read the same on a predecessor as on the window:
    a rule is kept only if ``transition_match`` picks it there and no gate
    annihilates.
    """
    c0, c1, c2 = _window(cells)
    pair = (c1 >> 4, c2 >> 4)
    preds = PREDECESSORS.get(pair)
    if preds is None:
        return ()
    d0, d1, d2 = (c0 >> 2) & 3, (c1 >> 2) & 3, (c2 >> 2) & 3
    out = []
    for (q0, q1), move in preds:
        if transition_match(q0, q1, d1, d2) != (pair, move):
            continue
        xc = execution_class(q0, q1, d0, d1, d2)
        if xc == X_BOUNDARY:
            continue
        u0, u1, u2 = _carry(c0, c1, c2, move)
        for e1, e2, a1, s1 in _branches(xc, d0, d1, d2, (u1 >> 1) & 1, u1 & 1):
            out.append(bytes((u0, make_cell(q0, e1, a1, s1), (q1 << 4) | (e2 << 2) | (u2 & 3))))
    return tuple(out)


backward_images = lru_cache(maxsize=None)(_backward_images)


class ClockSystem:
    """Window-3 rewriting system over the 224 cell symbols.

    The rule relation is generated procedurally from forward_images and
    backward_images rather than stored as an explicit pair list; with both
    directions of every branch the list would run into the millions.
    Interface-compatible with rewriting.RewritingSystem for walk counting.
    """

    window = WINDOW

    def __init__(self):
        self.alphabet = clock_alphabet()
        self._windows: dict[bytes, tuple[tuple[int, object], ...]] = {}

    def windows(self, s: bytes) -> tuple[tuple[int, object], ...]:
        """(j, images) for each j in ``rule_windows(s)``, cached per program
        band. No pair is read both by TRANSITIONS and by PREDECESSORS, so a
        window's pair fixes the one image cache that can give it images."""
        band = s.translate(BAND)
        found = self._windows.get(band)
        if found is None:
            pairs = ((j, (s[j + 1] >> 4, s[j + 2] >> 4)) for j in rule_windows(s))
            found = self._windows[band] = tuple(
                (j, forward_images if p in TRANSITIONS else backward_images) for j, p in pairs
            )
        return found

    def neighbors(self, s: bytes) -> set[bytes]:
        """Set form of ``weighted_neighbors``, which ``bench/tracing.py`` wraps by name."""
        return set(self.weighted_neighbors(s))

    def weighted_neighbors(self, s: bytes) -> dict[bytes, int]:
        """Neighbors with the number of distinct window derivations."""
        out: dict[bytes, int] = {}
        for j, images_of in self.windows(s):
            images = images_of(s[j : j + 3])
            if images:
                head, tail = s[:j], s[j + 3 :]
                for img in images:
                    t = head + img + tail
                    out[t] = out.get(t, 0) + 1
        out.pop(s, None)
        return out

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.tokens),
            "window": WINDOW,
            "rules": "clock-v1",
        }


# the longest control run compile_circuit follows before it gives up
MAX_CONTROL_STEPS = 1_000_000


def layout(circuit: Circuit, x: Sequence[int]) -> bytes:
    """The first string t' of the control run of a circuit on input x: the
    program band over the data band, aux and sim bits 0.

    The program has w blocks of n = qubits + 1 cells and starts (w - 1) * n
    cells right of where the run ends it; each one-cell shift left is a
    round trip of 2 * w * n + 4 steps, so ell >= 2 * (w - 1) * n * (w * n + 2).
    A circuit whose bound is past ``MAX_CONTROL_STEPS`` is refused before
    any band is built, as is one of more program cells than that: at w = 1
    the bound is 0 and the run ends within its first sweep."""
    validate(circuit)
    nq = circuit.n_qubits
    if len(x) > nq:
        raise CompileError(f"input has {len(x)} bits for {nq} qubits")
    if any(b not in (0, 1) for b in x):
        raise CompileError("input bits must be 0 or 1")
    n = nq + 1

    # slot q + 1 sits above qubit q; a gate's symbol goes above the rightmost
    # qubit it acts on (its target for Toffoli), and validate keeps the gates
    # of a layer, so their slots, apart
    layers = [{g.span.stop: GATE_CODE[g.kind] for g in layer} for layer in circuit.layers]

    # the initial execution marker occupies slot 1 of the first block; if the
    # first layer needs that slot, push everything one layer back
    if 1 in layers[0]:
        layers.insert(0, {})

    # terminating boundary symbol: earliest slot of the last block strictly
    # after its gates, above a register cell; spill into a fresh block if the
    # last layer ends on the final qubit
    b_slot = max(layers[-1], default=0) + 1
    if b_slot == n:
        layers.append({})
        b_slot = 1
    layers[-1][b_slot] = GATE_B

    w = len(layers)
    steps = 2 * (w - 1) * n * (w * n + 2)
    if steps > MAX_CONTROL_STEPS:
        raise CompileError(
            f"the control run needs at least {steps} steps, over the limit of {MAX_CONTROL_STEPS}"
        )
    if w * n > MAX_CONTROL_STEPS:
        raise CompileError(f"{w * n} program cells are over the limit of {MAX_CONTROL_STEPS}")
    layers[0][0], layers[0][1] = GATE_B, EXEC  # left boundary, execution marker
    # the program starts above the register separator and, one identity
    # cell past its blocks, ends above the last separator
    program = [slots.get(slot, GATE_I) for slots in layers for slot in range(n)]
    program = [BLANK] * (2 + (w - 1) * n) + program + [GATE_I, BLANK, BLANK]

    # data band: two-cell margins, separator-led spacer blocks on both sides,
    # register block in the middle holding x padded with zeros
    bits = list(x) + [0] * (nq - len(x))
    register = [SEP] + [D1 if b else D0 for b in bits]
    spacers = ([SEP] + [DOT] * nq) * (w - 1)
    data = [DOT, DOT] + spacers + register + spacers + [SEP, DOT, DOT]
    return bytes(make_cell(p, d, 0, 0) for p, d in zip(program, data))


def control_run(s: bytes) -> Iterator[tuple[bytes, int]]:
    """The run from a first string s, as ``layout`` gives it: each string of
    the trajectory as ``bytes``, with the number of dummy-Hadamard steps
    taken to reach it.

    Only the program track moves; the data track enters through its fixed
    formatting (separator positions and register extent).  Each step tests
    the windows ``rule_windows`` finds, a superset of those a transition
    can match.  Exactly one window must admit a transition at every step;
    the run ends at the string whose unique matching window is the
    boundary-gate annihilation.
    """
    dummy_steps = 0
    for step in range(MAX_CONTROL_STEPS):
        yield s, dummy_steps
        applicable = []
        annihilating = False
        for j in rule_windows(s):
            c0, c1, c2 = s[j : j + 3]
            p0, p1, d0, d1 = c1 >> 4, c2 >> 4, (c1 >> 2) & 3, (c2 >> 2) & 3
            match = transition_match(p0, p1, d0, d1)
            if match is None:
                continue
            xc = execution_class(p0, p1, (c0 >> 2) & 3, d0, d1)
            if xc == X_BOUNDARY:
                annihilating = True
            else:
                applicable.append((j, match, xc))
        if not applicable:
            if annihilating:
                return
            raise CompileError(f"no transition applies at step {step} and no termination in sight")
        if len(applicable) > 1:
            raise CompileError(
                f"{len(applicable)} transitions apply at step {step}: "
                f"windows {[j for j, _, _ in applicable]}"
            )
        j, ((q0, q1), _move), xc = applicable[0]
        if xc != X_HADAMARD:
            dummy_steps += 1
        pair = bytes(((q0 << 4) | (s[j + 1] & 0xF), (q1 << 4) | (s[j + 2] & 0xF)))
        s = s[: j + 1] + pair + s[j + 3 :]
    raise CompileError(f"no termination within {MAX_CONTROL_STEPS} steps")


SQRT2 = math.sqrt(2.0)


def growth_constants(ell: int) -> tuple[float, float]:
    """Growth constant c = sqrt(2) lambda_0 and gap epsilon = w_0 / (3 sqrt(2)) of an ell."""
    return SQRT2 * spectral.eigenvalue(ell, 0), spectral.weight(ell, 0) / (3 * SQRT2)


class CompiledInstance(
    namedtuple("CompiledInstance", "system s t t_prime m ell d_parity c epsilon")
):
    """A walk instance: a system, the endpoints s, t and t' (bytes for a
    ClockSystem, one cell a byte; symbol tuples for explicit rules), the
    walk length m, the clock length ell and its constants."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.s)

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "s": self.system.alphabet.decode(self.s),
            "t": self.system.alphabet.decode(self.t),
            "t_prime": self.system.alphabet.decode(self.t_prime),
            "m": self.m,
            "ell": self.ell,
            "d_parity": self.d_parity,
            "c": self.c,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json(cls, doc) -> "CompiledInstance":
        """Load either a generated instance or one with explicit rules.

        Instance files produced by the compiler carry the rule-generator
        tag; hand-written instances may instead list explicit rules in the
        rewriting-system format, in which case the clock-specific fields
        take neutral defaults; a compiled instance must hold its ell and
        d_parity, and its c and epsilon follow from its ell, whatever the
        file holds.  Malformed documents raise CompileError, as does an m or
        ell that is not an integer, an m below 0, a d_parity not 0 or 1, an
        explicit c or epsilon out of range, or, on a compiled instance, an m
        below ell - 1 or of the parity of ell: no gap instance has such a walk.
        """
        if not isinstance(doc, dict) or not isinstance(doc.get("system"), dict):
            raise CompileError("instance file must hold an object with a system object")
        try:
            rules = doc["system"].get("rules")
            if rules == "clock-v1":
                if list(doc["system"]["alphabet"]) != list(clock_alphabet().tokens):
                    raise CompileError("alphabet mismatch in instance file")
                if not {"ell", "d_parity"} <= doc.keys():
                    raise CompileError("a compiled instance file must hold ell and d_parity")
                system = ClockSystem()
            elif isinstance(rules, list):
                system = RewritingSystem.from_json(doc["system"])
            else:
                raise CompileError("unknown rule generator in instance file")
            s, t, t_prime = (system.alphabet.encode(doc[key]) for key in ("s", "t", "t_prime"))
            m, ell, d_parity = doc["m"], doc.get("ell", 2), doc.get("d_parity", 0)
            if type(m) is not int or type(ell) is not int:
                raise CompileError(f"m = {m!r} and ell = {ell!r} must be integers")
            if rules == "clock-v1":  # the file's c and epsilon are only copies
                s, t, t_prime = bytes(s), bytes(t), bytes(t_prime)
                c, epsilon = growth_constants(ell)
            else:
                c, epsilon = float(doc.get("c", 2.0)), float(doc.get("epsilon", 0.0))
                if not (0 < c < math.inf and 0 <= epsilon < math.inf):
                    raise CompileError(f"need finite c > 0 and epsilon >= 0, got {c}, {epsilon}")
        except KeyError as exc:
            raise CompileError(f"malformed instance file: no {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError, spectral.SpectralError) as exc:
            raise CompileError(f"malformed instance file: {exc}") from None
        if not len(s) == len(t) == len(t_prime) >= system.window:
            raise CompileError(
                f"s, t and t' must have one length of at least the window {system.window}"
            )
        if m < 0:
            raise CompileError(f"m = {m} must be >= 0")
        if type(d_parity) is not int or d_parity not in (0, 1):
            raise CompileError(f"d_parity = {d_parity!r} must be 0 or 1")
        if rules == "clock-v1" and (m < ell - 1 or m % 2 == ell % 2):
            raise CompileError(
                f"m = {m} must be >= ell - 1 and of the parity opposite to ell = {ell}"
            )
        return cls(system, s, t, t_prime, m, ell, d_parity, c, epsilon)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CompiledInstance":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_json(json.load(fh))
        except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
            raise CompileError(f"malformed instance file: {exc}") from None


def check_boundary_inert(instance: CompiledInstance) -> None:
    """No rule may fire in a window touching the outer margin cells."""
    for string in (instance.s, instance.t, instance.t_prime):
        for j in (0, 1, len(string) - 4, len(string) - 3):
            triple = string[j : j + 3]
            if forward_images(triple) or backward_images(triple):
                raise CompileError(f"margin window {j} is not inert")


def compile_circuit(circuit: Circuit, x: Sequence[int]) -> CompiledInstance:
    """The instance of a circuit on input x: t' is the first string of the
    control run, t the same with sim bit 1 above the execution marker, and
    s the last string, where the data register still holds x, so a walk
    reaching it reads off the return amplitude."""
    t_prime = layout(circuit, x)
    for ell, (s, dummy_steps) in enumerate(control_run(t_prime), 1):
        pass
    e = t_prime.translate(BAND).index(EXEC << 4)  # t' holds one execution marker
    t = t_prime[:e] + bytes((t_prime[e] | 1,)) + t_prime[e + 1 :]
    c, epsilon = growth_constants(ell)
    instance = CompiledInstance(
        system=ClockSystem(),
        s=s,
        t=t,
        t_prime=t_prime,
        m=(ell + 1) ** 3,  # the paper's walk length, of the parity opposite to ell
        ell=ell,
        d_parity=dummy_steps % 2,
        c=c,
        epsilon=epsilon,
    )
    check_boundary_inert(instance)
    return instance
