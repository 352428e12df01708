"""Reference implementations that only the tests call.

Each is an independent, slower route to a fact the package relies on: the
structural scan of the clock rule relation over all 224^3 triples, exact
walk counts by repeated ``rewriting.step`` and by depth-first enumeration,
the unit states of the estimator, the weight-decay limit of the path graph,
and the text form of a circuit. The commands never run them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence

from walkdelta.circuits import Circuit
from walkdelta.clock import (
    ALPHABET_SIZE,
    N_DATA,
    N_PROGRAM,
    X_BOUNDARY,
    CompiledInstance,
    CompileError,
    _images,
    backward_images,
    execution_class,
    make_cell,
    split_cell,
    transition_match,
)
from walkdelta.estimator import _check_endpoints
from walkdelta.rewriting import RewriteError, WalkSpace, WalkVector, _check_walk, step
from walkdelta.spectral import SpectralError


class ScanReport(
    namedtuple(
        "ScanReport",
        "triples_total windows_matched directed_pairs max_images self_pairs bidirectional",
    )
):
    """Structural properties of the full rule relation.

    ``windows_matched`` counts the (program, data) window classes with
    images, ``directed_pairs`` the (sigma, tau) with tau in forward(sigma),
    and ``bidirectional`` the triples with forward and backward images both
    nonempty.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_images <= 2 and self.self_pairs == 0 and self.bidirectional == 0


def _expected_images(p: Sequence[int], d: Sequence[int]) -> int:
    """Image count of a window with program track p and data track d: two
    Hadamard branches when a rule applies and no gate annihilates.  Rules 2
    and 6 condition on data the execution phase cannot have altered (no
    gate fires there)."""
    if execution_class(p[1], p[2], d[0], d[1], d[2]) == X_BOUNDARY:
        return 0
    return 0 if transition_match(p[1], p[2], d[1], d[2]) is None else 2


def scan_rules(spot_checks: int = 20000, seed: int = 0) -> ScanReport:
    """Exhaustive structural scan of the rule relation over all 224^3 triples.

    The image count of a window depends only on its program and data symbols:
    the aux/sim tracks enter the pipeline exclusively through bijections
    (branch over a fresh bit value, conditional flips, swaps).  The scan
    therefore walks all 14^3 x 4^3 program/data classes, verifies each with a
    representative full pipeline call, and accounts for the 64 aux/sim
    settings per class in bulk; ``spot_checks`` randomly sampled triples are
    additionally run through the full pipeline to confirm the factorization.
    """
    import random

    max_images = 0
    self_pairs = 0
    windows_matched = 0
    directed = 0
    inputs: set[tuple[int, ...]] = set()
    outputs: set[tuple[int, ...]] = set()

    for ptrip in itertools.product(range(N_PROGRAM), repeat=3):
        for dtrip in itertools.product(range(N_DATA), repeat=3):
            expect = _expected_images(ptrip, dtrip)
            rep = bytes(map(make_cell, ptrip, dtrip, (0, 0, 1), (0, 1, 0)))
            imgs = _images(rep)
            if len(imgs) != expect:
                raise CompileError(f"scan mismatch at {rep}: {len(imgs)} != {expect}")
            if not imgs:
                continue
            windows_matched += 1
            max_images = max(max_images, len(imgs))
            new_p = tuple(split_cell(c)[0] for c in imgs[0])
            if new_p == ptrip:
                self_pairs += 1
            inputs.add(ptrip)
            outputs.add(new_p)
            directed += expect * 64  # aux/sim settings
    # no triple may admit both a forward and a backward step; since the rule
    # patterns constrain only the program track (plus data symbols no rule
    # rewrites), program-level disjointness of inputs and outputs settles it
    bidirectional = len(inputs & outputs)

    rng = random.Random(seed)
    for _ in range(spot_checks):
        trip = bytes(rng.randrange(ALPHABET_SIZE) for _ in range(3))
        imgs = _images(trip)
        p, d, _, _ = zip(*map(split_cell, trip))
        if len(imgs) != _expected_images(p, d):
            raise CompileError(f"spot check mismatch at {trip}")
        for img in imgs:
            if img == trip:
                self_pairs += 1
            if trip not in backward_images(img):
                raise CompileError(f"reverse lookup failed for {trip} -> {img}")

    return ScanReport(
        triples_total=ALPHABET_SIZE**3,
        windows_matched=windows_matched,
        directed_pairs=directed,
        max_images=max_images,
        self_pairs=self_pairs,
        bidirectional=bidirectional,
    )


class BudgetExceeded(RewriteError):
    """A configured enumeration or vertex budget was exhausted."""


def count_walks(system, s: Sequence[int], t: Sequence[int], n: int) -> int:
    """Exact (A^n)_{s,t}: the number of length-n walks from s to t."""
    _check_walk(n, s, t)
    space = WalkSpace(system)
    v = WalkVector(space, {space.canonical(s): 1})
    for _ in range(n):
        v = step(system, v)
    return v.entries.get(t, 0)


def brute_force_count(system, s, t, n: int, node_limit: int = 1_000_000) -> int:
    """Reference semantics for count_walks: enumerate every length-n walk.

    Depth-first; ``node_limit`` caps the number of visited search nodes so the
    oracle stays desk-scale.
    """
    _check_walk(n, s, t)
    space = WalkSpace(system)
    visited = 0

    def walk(x: Sequence[int], remaining: int) -> int:
        nonlocal visited
        visited += 1
        if visited > node_limit:
            raise BudgetExceeded(f"brute force exceeded {node_limit} nodes")
        if remaining == 0:
            return 1 if x == t else 0
        total = 0
        for nb in space.adjacency(x):
            total += walk(nb, remaining - 1)
        return total

    return walk(space.canonical(s), n)


def build_states(instance: CompiledInstance):
    """The two unit states whose moment difference encodes Delta(m)."""
    _check_endpoints(instance)
    h = 1.0 / math.sqrt(2.0)
    plus = {instance.s: h, instance.t: 0.5, instance.t_prime: -0.5}
    minus = {instance.s: h, instance.t: -0.5, instance.t_prime: 0.5}
    return plus, minus


def convergence_check(ell_tilde: int) -> float:
    """Value whose large-ell limit is exp(-pi^2/2), bounding the weight decay."""
    if ell_tilde < 4:
        raise SpectralError("need ell_tilde >= 4")
    r = (math.pi / ell_tilde) ** 2
    return ((1.0 - r) / (1.0 - 0.5 * r)) ** (ell_tilde**2)


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for i, layer in enumerate(circuit.layers):
        if i:
            lines.append("---")
        for gate in layer:
            lines.append(f"{gate.kind} {gate.qubit}")
    return "\n".join(lines) + "\n"
