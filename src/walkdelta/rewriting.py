"""Generic string-rewriting engine.

A rewriting system is a finite alphabet plus a symmetric relation on
equal-length substrings.  Strings of a fixed length L are the vertices of an
implicit graph; two strings are adjacent when one can be obtained from the
other by replacing a single related substring in place.  The engine counts
walks in that graph exactly, in arbitrary-precision integers.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence


class RewriteError(Exception):
    """Malformed system, string, or query."""


class Alphabet(namedtuple("Alphabet", "tokens")):
    """Ordered collection of distinct symbol names (a tuple of str)."""

    __slots__ = ()

    def __init__(self, tokens: tuple[str, ...]):
        if len(tokens) < 1:
            raise RewriteError("alphabet must contain at least one token")
        if len(set(tokens)) != len(tokens):
            raise RewriteError("alphabet tokens must be distinct")

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> tuple[int, ...]:
        lookup = {t: i for i, t in enumerate(self.tokens)}
        try:
            return tuple(lookup[t] for t in tokens)
        except KeyError as exc:
            raise RewriteError(f"unknown token {exc.args[0]!r}") from None

    def decode(self, symbols: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.tokens[i] for i in symbols)


class Rule(namedtuple("Rule", "lhs rhs")):
    """One direction of a substring replacement; equal lengths, no self-loop."""

    __slots__ = ()

    def __init__(self, lhs: tuple[int, ...], rhs: tuple[int, ...]):
        if len(lhs) != len(rhs):
            raise RewriteError(f"rule sides differ in length: {lhs} / {rhs}")
        if len(lhs) < 1:
            raise RewriteError("empty rule")
        if lhs == rhs:
            raise RewriteError(f"self-loop rule rejected: {lhs}")

    def reversed(self) -> "Rule":
        return Rule(self.rhs, self.lhs)


def symmetric_close(rules: Iterable[Rule]) -> frozenset[Rule]:
    """Close a rule set under swapping lhs and rhs.  Idempotent."""
    out = set()
    for rule in rules:
        out.add(rule)
        out.add(rule.reversed())
    return frozenset(out)


class RewritingSystem:
    """Alphabet, window width, and a symmetric substring relation.

    Immutable after construction; safe to share between threads.  Rules are
    indexed by their left-hand side, so neighbor generation scans each window
    of the string once per rule width.
    """

    def __init__(self, alphabet: Alphabet, window: int, rules: Iterable[Rule]):
        if window < 1:
            raise RewriteError("window must be >= 1")
        self.alphabet = alphabet
        self.window = window
        self.rules = symmetric_close(rules)
        size = len(alphabet)
        index: dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]] = {}
        for rule in self.rules:
            if len(rule.lhs) > window:
                raise RewriteError(f"rule wider than window: {rule.lhs}")
            for sym in rule.lhs + rule.rhs:
                if not 0 <= sym < size:
                    raise RewriteError(f"rule symbol {sym} outside alphabet")
            index.setdefault(len(rule.lhs), {}).setdefault(rule.lhs, []).append(rule.rhs)
        for by_lhs in index.values():
            for lhs in by_lhs:
                by_lhs[lhs] = sorted(by_lhs[lhs])
        self._index = index

    def neighbors(self, s: tuple[int, ...]) -> set[tuple[int, ...]]:
        """All strings reachable from ``s`` by one in-place replacement.

        Each neighbor appears once even when derivable at several positions;
        the adjacency matrix is 0/1.
        """
        return set(self.weighted_neighbors(s))

    def weighted_neighbors(self, s: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Neighbors with the number of distinct window/rule derivations."""
        if len(s) < self.window:
            raise RewriteError(f"string shorter than window: {len(s)} < {self.window}")
        out: dict[tuple[int, ...], int] = {}
        for width, by_lhs in self._index.items():
            for p in range(len(s) - width + 1):
                sub = s[p : p + width]
                for rhs in by_lhs.get(sub, ()):
                    t = s[:p] + rhs + s[p + width :]
                    out[t] = out.get(t, 0) + 1
        out.pop(s, None)
        return out

    def to_json(self) -> dict:
        """One direction per rule pair; symmetric closure restored on load."""
        seen = set()
        stored = []
        for rule in sorted(self.rules, key=lambda r: (r.lhs, r.rhs)):
            if rule.reversed() in seen:
                continue
            seen.add(rule)
            stored.append(
                [list(self.alphabet.decode(rule.lhs)), list(self.alphabet.decode(rule.rhs))]
            )
        return {
            "alphabet": list(self.alphabet.tokens),
            "window": self.window,
            "rules": stored,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RewritingSystem":
        window = doc["window"]
        if type(window) is not int:  # neither truncated nor parsed from another type
            raise RewriteError(f"window = {window!r} must be an integer")
        alphabet = Alphabet(tuple(doc["alphabet"]))
        rules = [
            Rule(alphabet.encode(lhs), alphabet.encode(rhs)) for lhs, rhs in doc["rules"]
        ]
        return cls(alphabet, window, rules)


class WalkSpace:
    """String interning plus a per-vertex adjacency cache.

    For walks that revisit the same strings every step, as ``exact_deltas``
    does; ``verifier.ReachableGraph`` expands it to a whole component. Interning
    keys all maps by small integers and the adjacency of each vertex is
    generated once, on first use. ``strings[i]`` is the string of id i, in
    the system's form (symbol tuples, or bytes for the clock system),
    ``index`` maps it back, and ``adj[i]`` holds the sorted neighbor ids of
    i, or None until first asked for. ``multiple`` holds the ids whose
    generated adjacency had a neighbor derivable in more than one way; the
    0/1 adjacency counts such an edge once.
    """

    def __init__(self, system):
        self.system = system
        self.index: dict[Sequence[int], int] = {}
        self.strings: list[Sequence[int]] = []
        self.adj: list[tuple[int, ...] | None] = []
        self.multiple: set[int] = set()

    def intern(self, s: Sequence[int]) -> int:
        sid = self.index.get(s)
        if sid is None:
            sid = len(self.strings)
            self.index[s] = sid
            self.strings.append(s)
            self.adj.append(None)
        return sid

    def adjacency(self, sid: int) -> tuple[int, ...]:
        cached = self.adj[sid]
        if cached is None:
            nbrs = self.system.weighted_neighbors(self.strings[sid])
            if sum(nbrs.values()) != len(nbrs):
                self.multiple.add(sid)
            get, intern = self.index.get, self.intern
            ids = (i if (i := get(t)) is not None else intern(t) for t in nbrs)
            cached = self.adj[sid] = tuple(sorted(ids))
        return cached

    def __len__(self):
        return len(self.strings)


class WalkVector(namedtuple("WalkVector", "space entries")):
    """A^n times an integer start vector, on the strings seen so far.

    The start is e_s for a walk from s (a column of A^n) or a signed vector
    such as e_t - e_t'. Entries map interned string ids to exact integers;
    zero entries are never stored.
    """

    __slots__ = ()


def three_term(w: dict, prev: dict, neighbors) -> dict:
    """A w - 2 prev, with A w summed over the neighbours of each key of w;
    entries that cancel are dropped. The package's one exact A w loop:
    ``step`` passes an empty prev, the three-term orbit w_{j-1}."""
    out = {x: -2 * c for x, c in prev.items()}
    for x, c in w.items():
        for y in neighbors(x):
            out[y] = out.get(y, 0) + c
    return {y: c for y, c in out.items() if c}


def step(system, v: WalkVector) -> WalkVector:
    """Multiply by the adjacency matrix once: one replacement everywhere."""
    if v.space.system is not system:
        raise RewriteError("vector belongs to a different system")
    for x in v.entries:  # the misses first, in order: ids are interned as before
        if v.space.adj[x] is None:
            v.space.adjacency(x)
    return WalkVector(v.space, three_term(v.entries, {}, v.space.adj.__getitem__))


def _check_walk(n: int, *strings: Sequence[int]) -> None:
    if n < 0:
        raise RewriteError("walk length must be >= 0")
    if n >= sys.maxsize:  # exact_delta takes n + 1 orbit vectors, an islice count
        raise RewriteError(f"walk length must be < {sys.maxsize} (sys.maxsize)")
    if len({len(s) for s in strings}) > 1:
        raise RewriteError("endpoint strings differ in length")


