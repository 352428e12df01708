"""End-to-end validation of compiled instances.

Checks, in exact arithmetic wherever a comparison is exact by construction:
the forward orbit has the combinatorics of a path graph, the walk-count
difference equals the circuit amplitude times a path-graph corner entry, the
sign decision is correct, and the gap/growth promises hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from . import spectral
from .circuits import Circuit, R2_INV_SQRT2, R2_ONE, Root2Frac, overlap
from .clock import CompiledInstance, backward_images, forward_images
from .rewriting import WalkSpace, WalkVector, _check_walk, step


class VerifyError(Exception):
    pass


SQRT2 = math.sqrt(2.0)


def sqrt2_power(n: int) -> Root2Frac:
    """Exact sqrt(2)^n for n >= 0."""
    if n % 2 == 0:
        return Root2Frac(1 << (n // 2), 0, 0)
    return Root2Frac(0, 1 << (n // 2), 0)


@dataclass
class Check:
    name: str
    passed: bool | None  # None = not applicable
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    sigma: int | None = None

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


class ReachableGraph(WalkSpace):
    """Closure of the rewriting relation around seed strings.

    A walk space whose seeds are expanded breadth-first until every vertex's
    0/1 adjacency is built.
    """

    def __init__(self, system, seeds, max_vertices: int = 100_000):
        super().__init__(system)
        for seed in seeds:
            self.intern(seed)
        sid = 0
        while sid < len(self):
            self.adjacency(sid)
            if len(self) > max_vertices:
                raise VerifyError(f"reachable set exceeds {max_vertices} vertices")
            sid += 1


def _forward_step(space: WalkSpace, w: dict[int, int]) -> tuple[dict[int, int], bool]:
    """Apply the forward operator F to an integer vector keyed by id.

    Also reports whether every support string had its forward images in
    at most one window (the clockwork uniqueness property).
    """
    out: dict[int, int] = {}
    unique = True
    for sid, coef in w.items():
        s = space.strings[sid]
        active_windows = 0
        for j in range(len(s) - 2):
            imgs = forward_images(s[j : j + 3])
            if imgs:
                active_windows += 1
                for img in imgs:
                    t = space.intern(s[:j] + img + s[j + 3 :])
                    cur = out.get(t, 0) + coef
                    if cur:
                        out[t] = cur
                    else:
                        out.pop(t, None)
        if active_windows > 1:
            unique = False
    return out, unique


def orbit_check(
    instance: CompiledInstance, report: VerificationReport, space: WalkSpace | None = None
) -> None:
    """Exact path-graph structure of the forward orbit.

    The orbit u_0 = (t - t') / sqrt(2), u_{j+1} = F u_j / sqrt(2) is held as
    the integer vectors w_j = sqrt(2)^(j+1) u_j = F^j (e_t - e_t') on the
    ids of the given walk space (or a new one). Verifies no backward step
    out of the initial strings, termination after ell steps, orthonormality
    (|w_j|^2 = 2^(j+1), disjoint supports) and A w_j = 2 w_{j-1} + w_{j+1}
    with single derivations: the tridiagonal restricted matrix, at a cost
    linear in the orbit's support.
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

    w = [{space.intern(instance.t): 1, space.intern(instance.t_prime): -1}]
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

    support = set().union(*w)
    disjoint = len(support) == sum(map(len, w))
    ortho_ok = disjoint and all(
        sum(c * c for c in wj.values()) == 1 << (j + 1) for j, wj in enumerate(w)
    )
    report.add("orbit_orthonormal", ortho_ok)

    mismatch = None
    for j, wj in enumerate(w):
        want: dict[int, int] = {}
        for k, scale in ((j - 1, 2), (j + 1, 1)):
            if 0 <= k < ell:
                for sid, c in w[k].items():
                    want[sid] = want.get(sid, 0) + scale * c
        got = space.multiply(wj)
        if mismatch is None and got != want:
            mismatch = j
    report.add("restricted_hamiltonian_is_path", mismatch is None, mismatch=mismatch)
    report.add("orbit_edges_single_derivation", space.multiple.isdisjoint(support))


def _difference(space: WalkSpace, instance: CompiledInstance) -> dict[int, int]:
    """e_t - e_t' by accumulation, so that t = t' gives the zero vector."""
    d = {space.intern(instance.t): 1}
    tpid = space.intern(instance.t_prime)
    d[tpid] = d.get(tpid, 0) - 1
    return {sid: c for sid, c in d.items() if c}


def _half_walks(
    instance: CompiledInstance, max_n: int, space: WalkSpace | None
) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """The two half walks a_j = A^j e_s and b_k = A^k (e_t - e_t').

    Yields the entries of a_ceil(n/2) and b_floor(n/2) for n = 0..max_n:
    step n advances a when n is odd and b when n is even. A is symmetric,
    so Delta(n) = <A^n e_s, e_t - e_t'> = <a_ceil(n/2), b_floor(n/2)>, the
    same integer as the single walk of n steps from s, from entries of about
    half its bit length and frontiers of about half its reach. Only
    ``exact_deltas``, and so ``verify``, walks: it is the route independent
    of the orbit that ``exact_delta`` uses.
    """
    _check_walk(max_n, instance.s, instance.t, instance.t_prime)
    if space is None:
        space = WalkSpace(instance.system)
    a = WalkVector.basis(space, instance.s)
    b = WalkVector(space, _difference(space, instance))
    yield a.entries, b.entries
    for n in range(1, max_n + 1):
        if n % 2:
            a = step(instance.system, a)
        else:
            b = step(instance.system, b)
        yield a.entries, b.entries


def _dot(u: dict[int, int], v: dict[int, int]) -> int:
    if len(u) > len(v):
        u, v = v, u
    return sum(c * v[sid] for sid, c in u.items() if sid in v)


def exact_deltas(
    instance: CompiledInstance, max_n: int, space: WalkSpace | None = None
) -> list[int]:
    """Delta(n) for n = 0..max_n, one inner product of the half walks per n,
    in the given walk space (with the adjacency it already holds) or a new
    one."""
    return [_dot(a, b) for a, b in _half_walks(instance, max_n, space)]


def _orbit(instance: CompiledInstance, space: WalkSpace) -> Iterator[dict[int, int]]:
    """The three-term orbit w_0 = e_t - e_t', w_{j+1} = A w_j - 2 w_{j-1}.

    Yields each w_j until the next one is zero; the product A w_j is taken
    only when w_{j+1} is asked for. On a compiled instance this is the
    forward orbit w_{j+1} = F w_j of ``orbit_check``, of ell vectors.
    """
    prev, w = {}, _difference(space, instance)
    while w:
        yield w
        nxt = step(instance.system, WalkVector(space, w)).entries
        for sid, c in prev.items():
            c = nxt.get(sid, 0) - 2 * c
            if c:
                nxt[sid] = c
            else:
                nxt.pop(sid, None)
        prev, w = w, nxt


def exact_delta(instance: CompiledInstance, n: int) -> int:
    """Delta(n) alone, from the orbit of e_t - e_t' and the path recurrence.

    The orbit is taken until it stops at k vectors or n + 1 exist, keeping
    only sigma_j = w_j[s]. By construction A w_j = w_{j+1} + 2 w_{j-1}, so
    A acts on the w_j / sqrt(2)^j as sqrt(2) times the adjacency P of the
    k-vertex path, and A^n w_0 = sum_j sqrt(2)^(n-j) P^n[j,0] w_j: a walk of
    n steps from vertex 0 never reaches a vertex past n. Hence
    Delta(n) = sum over j = n mod 2 of 2^((n-j)/2) P^n[j,0] sigma_j, for every
    rewriting system. On a compiled instance the orbit stops at k = ell, so
    the cost is ell walk steps over the orbit's support plus n column
    updates of the path, whatever n is.
    """
    _check_walk(n, instance.s, instance.t, instance.t_prime)
    space = WalkSpace(instance.system)
    sid = space.intern(instance.s)
    sigma = [w.get(sid, 0) for w in islice(_orbit(instance, space), n + 1)]
    k = len(sigma)
    if k <= 1:
        return sigma[0] if k and n == 0 else 0
    column = spectral.path_column(k, n)
    return sum((column[j] * sigma[j]) << ((n - j) // 2) for j in range(n % 2, k, 2))


def end_to_end(
    instance: CompiledInstance,
    circuit: Circuit,
    x,
    report: VerificationReport,
    max_n: int | None = None,
    space: WalkSpace | None = None,
) -> None:
    """Exact master identity on all desk-scale walk lengths.

    For every n up to max_n, the integer Delta(n) must equal
    sigma * sqrt(2)^n * <x,0|U|x,0> * corner(n) / sqrt(1+d) for one global
    sigma in {+1, -1}, as an exact equality in Z[sqrt(2)].
    """
    if max_n is None:
        max_n = instance.ell + 5
    ov = overlap(circuit, x)
    deltas = exact_deltas(instance, max_n, space)
    inv_root = R2_INV_SQRT2 if instance.d_parity else R2_ONE

    parity_ok = all(d == 0 for n, d in enumerate(deltas) if n % 2 == instance.ell % 2)
    report.add("parity_zeros", parity_ok)

    candidates = {1, -1}
    comparisons = 0
    fail = None
    for n in range(max_n + 1):
        if n % 2 == instance.ell % 2:
            continue
        corner, _ = spectral.corner_entry(instance.ell, n)
        rhs = sqrt2_power(n) * ov * Root2Frac(corner, 0, 0) * inv_root
        lhs = Root2Frac(deltas[n], 0, 0)
        comparisons += 1
        candidates &= {sig for sig in (1, -1) if lhs == (rhs if sig == 1 else -rhs)}
        if not candidates and fail is None:
            fail = (n, deltas[n])
    if ov.is_zero():
        ok = len(candidates) == 2  # both fit: all deltas must be zero
        report.add("master_identity", ok, comparisons=comparisons, overlap="zero")
    else:
        ok = len(candidates) == 1
        report.add(
            "master_identity",
            ok,
            comparisons=comparisons,
            failed_at=fail,
            sigma=sorted(candidates),
        )
        if ok:
            sigma = candidates.pop()
            if report.sigma is None:
                report.sigma = sigma
            elif report.sigma != sigma:
                report.add("sigma_consistent", False, got=sigma, had=report.sigma)


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
    m_sign = spectral.choose_m(ell, "sign_only")
    deltas = exact_deltas(instance, m_sign, space)
    d_sign = deltas[m_sign]

    if ov.is_zero():
        report.add("sign_decision", d_sign == 0, delta=str(d_sign), overlap="zero")
    else:
        sigma = report.sigma if report.sigma is not None else -1
        want = sigma * ov.sign()
        got = (d_sign > 0) - (d_sign < 0)
        report.add("sign_decision", got == want, m_sign=m_sign, got=got, want=want)

    # growth promise |Delta(n)| <= c^n with c = sqrt(2) lambda_0, checked on
    # every computed length; the sqrt(2) lambda_1 variant is evaluated too
    c = instance.c
    c1 = SQRT2 * spectral.eigenvalue(ell, 1)
    growth_ok = all(within_growth(d, c, n) for n, d in enumerate(deltas) if n > 0)
    growth1_desk = all(within_growth(d, c1, n) for n, d in enumerate(deltas) if n > 0)
    report.add("growth_promise", growth_ok, c=c)
    if ov.is_zero():
        report.add("growth_constant_resolution", None, overlap="zero")
        report.add("gap_promise", None, overlap="zero")
        return

    # at the gap-condition walk length the certified identity gives
    # log |Delta(m)| = m log sqrt(2) + log |ov| + log corner - log sqrt(1+d);
    # against c1 the margin grows like m log(lambda_0/lambda_1) and the
    # variant fails, settling which eigenvalue belongs in the constant
    m = instance.m
    lam0 = spectral.eigenvalue(ell, 0)
    tail = abs(ov.to_float()) * abs(spectral.scaled_corner(ell, m))
    log_delta_m = (
        m * (math.log(SQRT2) + math.log(lam0))
        + math.log(tail)
        - 0.5 * math.log(1 + instance.d_parity)
    )
    growth1_large = log_delta_m <= m * math.log(c1)
    report.add(
        "growth_constant_resolution",
        growth1_desk and not growth1_large,
        lambda1_variant_holds_desk_scale=growth1_desk,
        lambda1_variant_holds_at_m=growth1_large,
        log_margin_vs_lambda1=log_delta_m - m * math.log(c1),
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


def verify(
    instance: CompiledInstance, circuit: Circuit, x, max_n: int | None = None
) -> VerificationReport:
    report = VerificationReport()
    space = WalkSpace(instance.system)
    orbit_check(instance, report, space)
    end_to_end(instance, circuit, x, report, max_n=max_n, space=space)
    sign_and_promise_check(instance, circuit, x, report, space=space)
    return report
