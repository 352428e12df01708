"""End-to-end validation of compiled instances.

Checks, in exact arithmetic wherever a comparison is exact by construction:
the forward orbit has the combinatorics of a path graph, the walk-count
difference equals the circuit amplitude times a path-graph corner entry, the
sign decision is correct, and the gap/growth promises hold.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import islice

from . import spectral
from .circuits import Circuit, R2_INV_SQRT2, R2_ONE, Root2Frac, overlap
from .clock import CompiledInstance, backward_images, forward_images
from .rewriting import WalkSpace, WalkVector, _check_walk, step, three_term


class VerifyError(Exception):
    pass


SQRT2 = math.sqrt(2.0)

# the sign convention Delta(n) = SIGMA sqrt(2)^n <x,0|U|x,0> P^n[0, ell-1] / sqrt(1+d)
SIGMA = -1

# the most vertices a closure may hold before it is refused
VERTEX_BUDGET = 100_000


def sqrt2_power(n: int) -> Root2Frac:
    """Exact sqrt(2)^n for n >= 0."""
    if n % 2 == 0:
        return Root2Frac(1 << (n // 2), 0, 0)
    return Root2Frac(0, 1 << (n // 2), 0)


class Check(namedtuple("Check", "name passed details")):
    """One named check; ``passed`` is None when it does not apply."""

    __slots__ = ()

    def __new__(cls, name: str, passed: bool | None, details: dict | None = None):
        return super().__new__(cls, name, passed, {} if details is None else details)


class VerificationReport:
    """The checks in the order run, and the sign convention they certified."""

    __slots__ = ("checks", "sigma")

    def __init__(self, checks: list[Check] | None = None, sigma: int | None = None):
        self.checks = [] if checks is None else checks
        self.sigma = sigma

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.checks, self.sigma) == (other.checks, other.sigma)

    def __repr__(self):
        return f"VerificationReport(checks={self.checks!r}, sigma={self.sigma!r})"

    def add(self, name: str, passed: bool | None, **details) -> None:
        self.checks.append(Check(name, passed, details))

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


class ReachableGraph:
    """Closure of the rewriting relation around seed strings, searched
    breadth-first. ``strings`` lists the vertices in search order, ``index``
    gives their positions, for the estimator's numpy arrays (its A v sums
    each row in ``adj``'s order), and ``adj[i]`` the neighbours of
    ``strings[i]`` by position, each as its one object ``strings[index[t]]``."""

    def __init__(self, system, seeds, max_vertices: int = VERTEX_BUDGET):
        self.system, self.strings, self.index, self.adj = system, [], {}, []
        for seed in seeds:
            self.canonical(seed)
        for s in self.strings:  # breadth first: the list grows while it is read
            row = map(self.canonical, system.weighted_neighbors(s))
            self.adj.append(tuple(sorted(row, key=self.index.__getitem__)))
            if len(self.strings) > max_vertices:
                raise VerifyError(f"reachable set exceeds {max_vertices} vertices")

    def canonical(self, s):
        i = self.index.setdefault(s, len(self.strings))
        if i == len(self.strings):
            self.strings.append(s)
        return self.strings[i]

    def adjacency(self, s) -> tuple:
        return self.adj[self.index[s]]

    def __len__(self):
        return len(self.strings)


def component_size(system, seeds, max_vertices: int = VERTEX_BUDGET) -> int:
    """len(ReachableGraph(system, seeds, max_vertices)) and its budget error, from a set alone."""
    seen = set(seeds)
    found = list(seen)
    for s in found:
        for t in system.weighted_neighbors(s):
            if t not in seen:
                seen.add(t)
                found.append(t)
        if len(seen) > max_vertices:
            raise VerifyError(f"reachable set exceeds {max_vertices} vertices")
    return len(seen)


def _forward_step(space: WalkSpace, w: dict) -> tuple[dict, bool]:
    """Apply the forward operator F to an integer vector keyed by string.

    Also reports whether every support string had its forward images in
    at most one window (the clockwork uniqueness property).
    """
    out: dict = {}
    unique = True
    for s, coef in w.items():
        active_windows = 0
        for j, images_of in space.system.windows(s):
            imgs = images_of(s[j : j + 3]) if images_of is forward_images else ()
            active_windows += bool(imgs)
            for img in imgs:
                t = space.canonical(s[:j] + img + s[j + 3 :])
                out[t] = out.get(t, 0) + coef
        unique = unique and active_windows <= 1
    return {t: c for t, c in out.items() if c}, unique


def orbit_check(
    instance: CompiledInstance, report: VerificationReport, space: WalkSpace | None = None
) -> None:
    """Exact path-graph structure of the forward orbit.

    The orbit u_0 = (t - t') / sqrt(2), u_{j+1} = F u_j / sqrt(2) is held as
    the integer vectors w_j = sqrt(2)^(j+1) u_j = F^j (e_t - e_t') on the
    strings of the given walk space (or a new one). Verifies no backward step
    out of the initial strings, termination after ell steps, orthonormality
    (|w_j|^2 = 2^(j+1), disjoint supports) and A w_j - 2 w_{j-1} = w_{j+1},
    the recurrence that ``exact_delta`` sums over, with single derivations:
    the tridiagonal restricted matrix, at a cost linear in the orbit's
    support.
    """
    ell = instance.ell
    if space is None:
        space = WalkSpace(instance.system)

    bad = []
    for string, label in ((instance.t, "t"), (instance.t_prime, "t_prime")):
        for j in range(len(string) - 2):
            if backward_images(string[j : j + 3]):
                bad.append((label, j))
    report.add("no_backward_step_from_start", not bad, offending=bad)

    w = [{space.canonical(x): c for x, c in _difference(instance).items()}]
    unique_all = True
    for i in range(ell - 1):
        nxt, unique = _forward_step(space, w[-1])
        unique_all = unique_all and unique
        if not nxt:
            report.add("orbit_length", False, stopped_at=i + 1, expected=ell)
            return
        w.append(nxt)
    report.add("forward_window_unique", unique_all)

    terminal, _ = _forward_step(space, w[-1])
    report.add("orbit_terminates", not terminal, extra_support=len(terminal))

    ortho_ok = True
    try:
        for _ in orthonormal(w, VerifyError):
            pass
    except VerifyError:
        ortho_ok = False
    report.add("orbit_orthonormal", ortho_ok)

    mismatch = None
    for j, wj in enumerate(w):
        got = three_term(wj, w[j - 1] if j else {}, space.adjacency)
        if mismatch is None and got != (w[j + 1] if j + 1 < len(w) else {}):
            mismatch = j
    report.add("restricted_hamiltonian_is_path", mismatch is None, mismatch=mismatch)
    report.add("orbit_edges_single_derivation", space.multiple.isdisjoint(set().union(*w)))


def orthonormal(vectors: Iterable[dict], error: type) -> Iterator[dict]:
    """Pass an orbit through while the u_j = w_j / sqrt(2)^(j+1) are orthonormal
    (disjoint supports, |w_j|^2 = 2^(j+1)); raise ``error`` at the first that is not."""
    seen: set = set()
    for j, w in enumerate(vectors):
        norm2 = sum(c * c for c in w.values())
        if not seen.isdisjoint(w) or norm2 != 1 << (j + 1):
            raise error(
                f"orbit of e_t - e_t' is not orthonormal at w_{j}: its support meets an "
                f"earlier one or |w_{j}|^2 = {norm2} is not 2^{j + 1}"
            )
        seen.update(w)
        yield w


def _difference(instance: CompiledInstance) -> dict:
    """e_t - e_t', keyed by string; the zero vector when t = t'."""
    return {} if instance.t == instance.t_prime else {instance.t: 1, instance.t_prime: -1}


def exact_deltas(
    instance: CompiledInstance, max_n: int, space: WalkSpace | None = None
) -> list[int]:
    """Delta(n) = (A^n (e_t - e_t'))[s] for n = 0..max_n, from one walk of
    e_t - e_t', in the given walk space (with the adjacency it already
    holds) or a new one.

    A breadth-first search from s gives d(s, x) up to max_n, and after step
    n the walk keeps only the entries at x with d(s, x) <= max_n - n. An
    entry farther out cannot reach s in the max_n - n steps left (triangle
    inequality), so every Delta(n) is exact, for every rewriting system.
    Only ``verify`` walks: it is the route independent of the orbit that
    ``exact_delta`` uses.
    """
    _check_walk(max_n, instance.s, instance.t, instance.t_prime)
    if space is None:
        space = WalkSpace(instance.system)
    s = space.canonical(instance.s)
    dist, frontier = {s: 0}, [s]
    for d in range(1, max_n + 1):
        layer = []
        for x in frontier:
            for y in space.adjacency(x):
                if y not in dist:
                    dist[y] = d
                    layer.append(y)
        frontier = layer
    b = {space.canonical(x): c for x, c in _difference(instance).items()}
    deltas = []
    for n in range(max_n + 1):
        if n:
            b = step(instance.system, WalkVector(space, b)).entries
        reach = max_n - n
        b = {x: c for x, c in b.items() if dist.get(x, reach + 1) <= reach}
        deltas.append(b.get(s, 0))
    return deltas


def orbit(instance: CompiledInstance, graph: ReachableGraph | None = None) -> Iterator[dict]:
    """The three-term orbit w_0 = e_t - e_t', w_{j+1} = A w_j - 2 w_{j-1}.

    Yields each w_j, keyed by string, until the next one is zero; A w_j is
    formed only when w_{j+1} is asked for. Without a closure A w_j comes
    from ``weighted_neighbors`` and nothing is cached: the orbit never
    revisits a vector, and only w_{j-1} and w_j are held. With one it comes
    from the closure's adjacency, as the estimator reads the orbit from the
    closure it has built. On a compiled instance this is the forward
    orbit of ``orbit_check``, of ell vectors. ``exact_delta`` reads w_j[s]
    from it, and the estimator its span.
    """
    w, prev = _difference(instance), {}
    neighbors = instance.system.weighted_neighbors if graph is None else graph.adjacency
    while w:
        yield w
        prev, w = w, three_term(w, prev, neighbors)


def exact_delta(instance: CompiledInstance, n: int) -> int:
    """Delta(n) alone, from the orbit of e_t - e_t' and path walk counts.

    The orbit is taken until it stops at k vectors or n + 1 exist, keeping
    only sigma_j = w_j[s]. By construction A w_j = w_{j+1} + 2 w_{j-1}, so
    A acts on the w_j / sqrt(2)^j as sqrt(2) times the adjacency P of the
    k-vertex path, and A^n w_0 = sum_j sqrt(2)^(n-j) P^n[j,0] w_j: a walk of
    n steps from vertex 0 never reaches a vertex past n. Hence
    Delta(n) = sum over j = n mod 2 of 2^((n-j)/2) P^n[j,0] sigma_j, for every
    rewriting system. The column is taken from the lowest such j with
    sigma_j != 0 up, from one row of binomials (``spectral.path_column``).
    On a compiled instance the orbit stops at k = ell, and on every ladder
    rung only sigma_(ell-1) is nonzero, so the cost is ell neighbour
    generations over the orbit's support, whatever n is, plus n/2 big-int
    steps on integers of at most n bits.
    """
    _check_walk(n, instance.s, instance.t, instance.t_prime)
    sigma = [w.get(instance.s, 0) for w in islice(orbit(instance), n + 1)]
    k = len(sigma)
    if k <= 1:
        return sigma[0] if k and n == 0 else 0
    low = next((j for j in range(n % 2, k, 2) if sigma[j]), None)
    if low is None:
        return 0
    column = spectral.path_column(k, n, low)
    return sum((column[j - low] * sigma[j]) << ((n - j) // 2) for j in range(low, k, 2))


def end_to_end(
    instance: CompiledInstance,
    circuit: Circuit,
    x,
    report: VerificationReport,
    space: WalkSpace | None = None,
) -> None:
    """Exact master identity on all desk-scale walk lengths.

    For every n up to ell + 5, the integer Delta(n) must equal
    SIGMA * sqrt(2)^n * <x,0|U|x,0> * corner(n) / sqrt(1+d), with SIGMA
    fixed at -1, as an exact equality in Z[sqrt(2)]. The sign is the
    convention, not fitted to the deltas: a fitted one would certify an
    instance whose sign is reversed. ``sigma`` in the details lists the
    signs that fit every n; ``failed_at`` is the first n where SIGMA does
    not.
    """
    max_n = instance.ell + 5
    ov = overlap(circuit, x)
    deltas = exact_deltas(instance, max_n, space)
    inv_root = R2_INV_SQRT2 if instance.d_parity else R2_ONE

    parity_ok = all(d == 0 for n, d in enumerate(deltas) if n % 2 == instance.ell % 2)
    report.add("parity_zeros", parity_ok)

    fits = {1, -1}
    comparisons = 0
    fail = None
    for n in range(max_n + 1):
        if n % 2 == instance.ell % 2:
            continue
        corner, _ = spectral.corner_entry(instance.ell, n)
        rhs = sqrt2_power(n) * ov * Root2Frac(corner, 0, 0) * inv_root
        lhs = Root2Frac(deltas[n], 0, 0)
        comparisons += 1
        fits &= {sig for sig in (1, -1) if lhs == (rhs if sig == 1 else -rhs)}
        if SIGMA not in fits and fail is None:
            fail = (n, deltas[n])
    ok = fail is None
    if ov.is_zero():  # SIGMA fits exactly when every delta is zero
        report.add("master_identity", ok, comparisons=comparisons, overlap="zero")
    else:
        report.add(
            "master_identity",
            ok,
            comparisons=comparisons,
            failed_at=fail,
            sigma=sorted(fits),
        )
        if ok:
            report.sigma = SIGMA


def within_growth(d: int, c: float, n: int) -> bool:
    """|d| <= c^n, compared in log form since c^n overflows a float."""
    return d == 0 or math.log(abs(d)) <= n * math.log(c)


def sign_and_promise_check(
    instance: CompiledInstance,
    circuit: Circuit,
    x,
    report: VerificationReport,
    space: WalkSpace | None = None,
) -> None:
    """Sign decision at the smallest valid walk length, growth and gap promises."""
    ell = instance.ell
    ov = overlap(circuit, x)
    m_sign = ell - 1  # the shortest walk whose corner entry is nonzero
    deltas = exact_deltas(instance, m_sign, space)
    d_sign = deltas[m_sign]

    if ov.is_zero():
        report.add("sign_decision", d_sign == 0, delta=str(d_sign), overlap="zero")
    else:
        want = SIGMA * ov.sign()
        got = (d_sign > 0) - (d_sign < 0)
        report.add("sign_decision", got == want, m_sign=m_sign, got=got, want=want)

    # growth promise |Delta(n)| <= c^n with c = sqrt(2) lambda_0, checked on
    # every computed length; the sqrt(2) lambda_1 variant is evaluated too
    c = instance.c
    c1 = SQRT2 * spectral.eigenvalue(ell, 1)
    growth_ok = all(within_growth(d, c, n) for n, d in enumerate(deltas) if n > 0)
    growth1_desk = c1 > 0 and all(
        within_growth(d, c1, n) for n, d in enumerate(deltas) if n > 0
    )
    report.add("growth_promise", growth_ok, c=c)
    if ov.is_zero():
        report.add("growth_constant_resolution", None, overlap="zero")
        report.add("gap_promise", None, overlap="zero")
        return

    # at the gap-condition walk length the certified identity gives
    # log |Delta(m)| = m log sqrt(2) + log |ov| + log corner - log sqrt(1+d);
    # against c1 the margin grows like m log(lambda_0/lambda_1) and the
    # variant fails, settling which eigenvalue belongs in the constant;
    # at ell <= 3, lambda_1 <= 0 gives no growth constant and no margin
    m = instance.m
    lam0 = spectral.eigenvalue(ell, 0)
    tail = abs(ov.to_float()) * abs(spectral.scaled_corner(ell, m))
    log_delta_m = (
        m * (math.log(SQRT2) + math.log(lam0))
        + math.log(tail)
        - 0.5 * math.log(1 + instance.d_parity)
    )
    margin1 = log_delta_m - m * math.log(c1) if c1 > 0 else None
    growth1_large = margin1 is not None and margin1 <= 0
    report.add(
        "growth_constant_resolution",
        growth1_desk and not growth1_large,
        lambda1_variant_holds_desk_scale=growth1_desk,
        lambda1_variant_holds_at_m=growth1_large,
        log_margin_vs_lambda1=margin1,
    )

    # gap promise |Delta(m)| >= eps c^m, via the identity in ratio form
    margin = tail / math.sqrt(1 + instance.d_parity)
    report.add(
        "gap_promise",
        margin >= instance.epsilon,
        margin=margin,
        epsilon=instance.epsilon,
        m=m,
    )


def verify(instance: CompiledInstance, circuit: Circuit, x) -> VerificationReport:
    report = VerificationReport()
    space = WalkSpace(instance.system)
    orbit_check(instance, report, space)
    end_to_end(instance, circuit, x, report, space=space)
    sign_and_promise_check(instance, circuit, x, report, space=space)
    return report
