"""End-to-end validation of compiled instances.

Checks, in exact arithmetic wherever a comparison is exact by construction:
the forward orbit has the combinatorics of a path graph, the walk-count
difference equals the circuit amplitude times a path-graph corner entry, the
sign decision is correct, and the gap/growth promises hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import spectral
from .circuits import Circuit, R2_INV_SQRT2, R2_ONE, R2_SQRT2, R2_ZERO, Root2Frac, overlap
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


Amplitudes = dict[tuple[int, ...], Root2Frac]


def _forward_step(instance: CompiledInstance, vec: Amplitudes) -> tuple[Amplitudes, bool]:
    """Apply the forward operator scaled by 1/sqrt(2).

    Also reports whether every support string had its forward images in
    exactly one window (the clockwork uniqueness property).
    """
    out: Amplitudes = {}
    unique = True
    for s, coef in vec.items():
        scaled = coef * R2_INV_SQRT2
        active_windows = 0
        for j in range(len(s) - 2):
            imgs = forward_images(s[j : j + 3])
            if imgs:
                active_windows += 1
                for img in imgs:
                    t = s[:j] + img + s[j + 3 :]
                    cur = out.get(t, R2_ZERO) + scaled
                    if cur.is_zero():
                        out.pop(t, None)
                    else:
                        out[t] = cur
        if active_windows > 1:
            unique = False
    return out, unique


def _dot(u: Amplitudes, v: Amplitudes) -> Root2Frac:
    if len(v) < len(u):
        u, v = v, u
    total = R2_ZERO
    for s, coef in u.items():
        other = v.get(s)
        if other is not None:
            total = total + coef * other
    return total


def orbit_check(instance: CompiledInstance, report: VerificationReport) -> None:
    """Exact path-graph structure of the forward orbit.

    Builds u_0 = (t - t') / sqrt(2) and u_{i+1} = F u_i / sqrt(2); verifies
    no backward step out of the initial strings, termination after ell steps,
    orthonormality (unit norms, disjoint supports) and H u_j = sqrt(2)
    (u_{j-1} + u_{j+1}) with single derivations: the tridiagonal restricted
    matrix, at a cost linear in the orbit's support.
    """
    ell = instance.ell

    bad = []
    for string, label in ((instance.t, "t"), (instance.t_prime, "t_prime")):
        for j in range(len(string) - 2):
            if backward_images(string[j : j + 3]):
                bad.append((label, j))
    report.add("no_backward_step_from_start", not bad, offending=bad)

    u: list[Amplitudes] = [{instance.t: R2_INV_SQRT2, instance.t_prime: -R2_INV_SQRT2}]
    unique_all = True
    for i in range(ell - 1):
        nxt, unique = _forward_step(instance, u[-1])
        unique_all = unique_all and unique
        if not nxt:
            report.add("orbit_length", False, stopped_at=i + 1, expected=ell)
            return
        u.append(nxt)
    report.add("forward_window_unique", unique_all)

    terminal, _ = _forward_step(instance, u[-1])
    report.add("orbit_terminates", not terminal, extra_support=len(terminal))

    disjoint = len(set().union(*u)) == sum(map(len, u))
    ortho_ok = disjoint and all(_dot(uj, uj) == R2_ONE for uj in u)
    report.add("orbit_orthonormal", ortho_ok)

    mismatch = None
    single = True
    for j, uj in enumerate(u):
        h_u: Amplitudes = {}
        for s, coef in uj.items():
            for t, w in instance.system.weighted_neighbors(s).items():
                single = single and w == 1
                h_u[t] = h_u.get(t, R2_ZERO) + coef * Root2Frac(w, 0, 0)
        want: Amplitudes = {}
        for uk in (u[k] for k in (j - 1, j + 1) if 0 <= k < ell):
            for s, coef in uk.items():
                want[s] = want.get(s, R2_ZERO) + coef * R2_SQRT2
        got = {t: c for t, c in h_u.items() if not c.is_zero()}
        if mismatch is None and got != want:
            mismatch = j
    report.add("restricted_hamiltonian_is_path", mismatch is None, mismatch=mismatch)
    report.add("orbit_edges_single_derivation", single)


def exact_deltas(
    instance: CompiledInstance, max_n: int, space: WalkSpace | None = None
) -> list[int]:
    """Delta(n) for n = 0..max_n, one shared frontier propagation, in the
    given walk space (with the adjacency it already holds) or a new one."""
    _check_walk(max_n, instance.s, instance.t, instance.t_prime)
    if space is None:
        space = WalkSpace(instance.system)
    v = WalkVector.basis(space, instance.s)
    tid = space.intern(instance.t)
    tpid = space.intern(instance.t_prime)
    out = [v.entries.get(tid, 0) - v.entries.get(tpid, 0)]
    for _ in range(max_n):
        v = step(instance.system, v)
        out.append(v.entries.get(tid, 0) - v.entries.get(tpid, 0))
    return out


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
    ov = overlap(circuit, list(x) + [0] * (circuit.n_qubits - len(x)))
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
    ov = overlap(circuit, list(x) + [0] * (circuit.n_qubits - len(x)))
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

    # at the gap-condition walk length the certified identity gives
    # log |Delta(m)| = m log sqrt(2) + log |ov| + log corner - log sqrt(1+d);
    # against c1 the margin grows like m log(lambda_0/lambda_1) and the
    # variant fails, settling which eigenvalue belongs in the constant
    m = instance.m
    lam0 = spectral.eigenvalue(ell, 0)
    if not ov.is_zero():
        tail = spectral.scaled_corner(ell, m)
        log_delta_m = (
            m * (math.log(SQRT2) + math.log(lam0))
            + math.log(abs(ov.to_float()) * abs(tail))
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
        margin = abs(ov.to_float()) * abs(tail) / math.sqrt(1 + instance.d_parity)
        report.add(
            "gap_promise",
            margin >= instance.epsilon,
            margin=margin,
            epsilon=instance.epsilon,
            m=m,
        )
    else:
        report.add("growth_constant_resolution", None, overlap="zero")
        report.add("gap_promise", None, overlap="zero")


def verify(
    instance: CompiledInstance, circuit: Circuit, x, max_n: int | None = None
) -> VerificationReport:
    report = VerificationReport()
    space = WalkSpace(instance.system)
    orbit_check(instance, report)
    end_to_end(instance, circuit, x, report, max_n=max_n, space=space)
    sign_and_promise_check(instance, circuit, x, report, space=space)
    return report
