"""Spectral-measure sampling estimator for the walk-count difference.

Writes Delta(m) as a difference of two adjacency-matrix moments,
Delta(m) = (<psi+|A^m|psi+> - <psi-|A^m|psi->) / sqrt(2), with
|psi+-> = (|s> +- (|t> - |t'>)/sqrt(2)) / sqrt(2). Each moment is an
expectation of lambda^m under the spectral measure of the state, which can
be estimated from noisy eigenvalue samples after clipping the power map.

All moment values are reported in units of c^m. At gap-condition walk lengths
c^m overflows any float, while the normalized quantities (lambda/c)^m stay
inside [-1, 1] by the growth promise.

``estimate_with_noise`` forms the two measures from the orbit of e_t - e_t'
(``orbit_measures``); ``spectral_measure``, one dense eigh of the whole
component, is the reference the tests compare it with.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from itertools import chain

import numpy as np

from .clock import CompiledInstance
from .verifier import ReachableGraph, orbit

MAX_DENSE_VERTICES = 4000

# Lanczos steps, so Gauss nodes, of the remainder measure: the rule is exact
# for its moments up to degree 2 * QUADRATURE_NODES - 1
QUADRATURE_NODES = 40

# the Krylov space is spent once a Lanczos residual is below this fraction
# of the |A v| it was taken from: what is left is round-off
KRYLOV_TOL = 1e-12

SQRT2 = math.sqrt(2.0)


class EstimateError(Exception):
    pass


def _check_endpoints(instance: CompiledInstance) -> None:
    if len({instance.s, instance.t, instance.t_prime}) < 3:
        raise EstimateError("s, t and t' must be distinct for the states to be unit vectors")


def build_states(instance: CompiledInstance):
    """The two unit states whose moment difference encodes Delta(m)."""
    _check_endpoints(instance)
    h = 1.0 / math.sqrt(2.0)
    plus = {instance.s: h, instance.t: 0.5, instance.t_prime: -0.5}
    minus = {instance.s: h, instance.t: -0.5, instance.t_prime: 0.5}
    return plus, minus


class SpectralMeasure(namedtuple("SpectralMeasure", "eigenvalues probabilities")):
    """Point masses p_i at adjacency eigenvalues lam_i for one state (two
    arrays)."""

    __slots__ = ()


def reachable_component(
    instance: CompiledInstance, max_vertices: int = 100_000
) -> ReachableGraph:
    seeds = [instance.s, instance.t, instance.t_prime]
    return ReachableGraph(instance.system, seeds, max_vertices=max_vertices)


# the eigendecomposition of each component, dropped with the component; the
# two spectral measures of one estimate share it
_eigen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def spectral_measure(graph: ReachableGraph, state: dict) -> SpectralMeasure:
    """The state's spectral measure under the component's adjacency.

    One dense eigh of the 0/1 adjacency restricted to the component; the
    eigenvalue of each orthonormal eigenvector v_i carries (v_i . psi)^2.
    """
    decomposition = _eigen.get(graph)
    if decomposition is None:
        n = len(graph)
        if n > MAX_DENSE_VERTICES:
            raise EstimateError(f"component has {n} vertices, guard is {MAX_DENSE_VERTICES}")
        adjacency = np.zeros((n, n))
        for i, row in enumerate(graph.adj):
            adjacency[i, list(row)] = 1.0
        decomposition = _eigen[graph] = np.linalg.eigh(adjacency)
    eigenvalues, vectors = decomposition
    amp = np.zeros(len(graph))
    for s, coef in state.items():
        idx = graph.index.get(s)
        if idx is None:
            raise EstimateError("state supported outside the reachable component")
        amp[idx] = coef
    return SpectralMeasure(eigenvalues, (vectors.T @ amp) ** 2)


def _unit_entry(c: int, j: int) -> float:
    """c / sqrt(2)^(j+1), an entry of u_j = w_j / sqrt(2)^(j+1), by an exact
    integer division that no |c| <= sqrt(2)^(j+1) can overflow."""
    q = c / (1 << ((j + 1) // 2))
    return q / SQRT2 if (j + 1) % 2 else q


def _path_spectrum(k: int) -> np.ndarray:
    """sqrt(2) times the eigenvalues of the k-vertex path, for every k >= 1.

    The float expression of ``SQRT2 * spectral.eigenvalue(k, j)``, from
    which ``compile_circuit`` takes c, so the top node equals c to the last
    bit; a node off by one ulp would move (node/c)^m by m ulp.
    """
    return np.array([SQRT2 * (2.0 * math.cos(math.pi * i / (k + 1))) for i in range(1, k + 1)])


def _path_eigvec_entries(k: int, j: int) -> np.ndarray:
    """Entry j of every sine eigenvector of the k-vertex path, as
    ``spectral.eigvec_entry`` gives it, the angle reduced mod 2 pi first."""
    i = np.arange(1, k + 1)
    return math.sqrt(2.0 / (k + 1)) * np.sin(np.pi * ((i * (j + 1)) % (2 * (k + 1))) / (k + 1))


def _adjacency_operator(graph: ReachableGraph):
    """v -> A v for the 0/1 adjacency of the component, from its edge list."""
    n = len(graph)
    degrees = np.fromiter(map(len, graph.adj), dtype=np.intp, count=n)
    cols = np.fromiter(chain.from_iterable(graph.adj), dtype=np.intp, count=int(degrees.sum()))
    rows = np.repeat(np.arange(n), degrees)
    return lambda v: np.bincount(rows, weights=v[cols], minlength=n)


def gauss_rule(multiply, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of the spectral measure of start.

    Lanczos with full reorthogonalisation (classical Gram-Schmidt, twice)
    builds the Jacobi matrix T of the measure, stopping early when the
    Krylov space is spent; the nodes are the eigenvalues of T and the
    weights |start|^2 times the squared first entries of its eigenvectors
    (Golub and Welsch). The rule matches the measure's moments up to degree
    2 * QUADRATURE_NODES - 1, and all of them when the Krylov space is spent.
    """
    norm = float(np.linalg.norm(start))
    if norm == 0.0:
        return np.zeros(0), np.zeros(0)
    basis = np.zeros((QUADRATURE_NODES, len(start)))
    alpha, beta = [], []
    v = start / norm
    for i in range(QUADRATURE_NODES):
        basis[i] = v
        w = multiply(v)
        alpha.append(float(v @ w))
        scale = float(np.linalg.norm(w))
        for _ in range(2):
            w -= basis[: i + 1].T @ (basis[: i + 1] @ w)
        b = float(np.linalg.norm(w))
        if i + 1 == QUADRATURE_NODES or b <= KRYLOV_TOL * scale:
            break
        beta.append(b)
        v = w / b
    jacobi = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, norm**2 * vectors[0] ** 2


def orbit_measures(
    instance: CompiledInstance, graph: ReachableGraph
) -> tuple[SpectralMeasure, SpectralMeasure, int]:
    """The spectral measures of psi+- = (e_s +- u_0) / sqrt(2), without the
    eigendecomposition of the component, and the number of Gauss nodes.

    The orbit w_j of e_t - e_t' on the component gives u_j = w_j /
    sqrt(2)^(j+1). Its supports must be disjoint and |w_j|^2 = 2^(j+1): the
    u_j are then orthonormal, and the orbit stops inside the finite
    component. By the recurrence A u_j = sqrt(2) (u_(j-1) + u_(j+1)), so
    their span W and its complement are A-invariant, and A acts on W as
    sqrt(2) times the adjacency P of the k-vertex path. With
    a_j = <s|u_j> and r = e_s - sum_j a_j u_j in the complement,
    psi+- = (sum_j a_j u_j +- u_0 + r) / sqrt(2), so each measure is the
    closed-form part on W, mass ((q_i . a) +- q_i[0])^2 / 2 at the i-th
    node sqrt(2) lambda_i(P) for the sine eigenvectors q_i of P, plus half
    the measure of r, the same for both, from its Gauss rule. Both measures
    share one eigenvalue array and the remainder's weights, so their
    difference has no remainder term.
    """
    _check_endpoints(instance)
    s = graph.index[instance.s]
    seen: set[int] = set()
    # (j, w_j) for the one support that holds s, if any: the supports being
    # disjoint, a_j is zero for every other j
    k, hit = 0, None
    for j, w in enumerate(orbit(instance, graph)):
        norm2 = sum(c * c for c in w.values())
        if not seen.isdisjoint(w) or norm2 != 1 << (j + 1):
            raise EstimateError(
                f"orbit of e_t - e_t' is not orthonormal at w_{j}: its support meets an "
                f"earlier one or |w_{j}|^2 = {norm2} is not 2^{j + 1}"
            )
        seen.update(w)
        if s in w:
            hit = (j, w)
        k = j + 1

    first = _path_eigvec_entries(k, 0)
    proj = np.zeros(k)  # q_i . a for every i
    remainder = np.zeros(len(graph))
    remainder[s] = 1.0
    if hit is not None:
        j, w = hit
        a = _unit_entry(w[s], j)
        proj = a * _path_eigvec_entries(k, j)
        for sid, c in w.items():
            remainder[sid] -= a * _unit_entry(c, j)
    nodes, weights = gauss_rule(_adjacency_operator(graph), remainder)
    eigenvalues = np.concatenate([_path_spectrum(k), nodes])
    half = weights / 2
    plus = SpectralMeasure(eigenvalues, np.concatenate([(proj + first) ** 2 / 2, half]))
    minus = SpectralMeasure(eigenvalues, np.concatenate([(proj - first) ** 2 / 2, half]))
    return plus, minus, len(nodes)


def delta_moment(plus: SpectralMeasure, minus: SpectralMeasure, m: int, c: float) -> float:
    """Delta(m) / c^m from the two spectral measures.

    Raw powers lambda^m overflow and cancel catastrophically because each
    individual moment grows with the component's spectral radius, which can
    exceed c. The signed difference measure carries no mass outside [-c, c]
    (the growth promise bounds all of its moments by c^n), so applying the
    clipped power map to the difference is exact and numerically stable.
    """
    if plus.eigenvalues is not minus.eigenvalues and not np.allclose(
        plus.eigenvalues, minus.eigenvalues
    ):
        raise EstimateError("measures come from different components")
    diff = plus.probabilities - minus.probabilities
    return float(diff @ clipped_powers(plus.eigenvalues, m, c)) / math.sqrt(2.0)


def clipped_powers(x: np.ndarray, m: int, c: float) -> np.ndarray:
    """The clipped power map in units of c^m: (x/c)^m saturated to [-1, 1].

    Clipping r = x/c to [-1, 1] first sends values above c to 1 and values
    below -c to -1 for odd m and 1 for even m.
    """
    return np.clip(x / c, -1.0, 1.0) ** m


def hoeffding_samples(eps: float, delta: float = 0.05) -> int:
    """Samples per state so the half-width is eps/2 (in units of c^m)."""
    if not (0 < eps and 0 < delta < 1):
        raise EstimateError("need eps > 0 and 0 < delta < 1")
    return math.ceil((8.0 / eps**2) * math.log(2.0 / delta))


def hoeffding_halfwidth(samples: int, delta: float = 0.05) -> float:
    """Half-width of one clipped-moment mean at confidence 1 - delta."""
    return math.sqrt(2.0 * math.log(2.0 / delta) / samples)


def plan_noise(eps: float, m: int, c: float) -> tuple[float, float]:
    """Noise magnitude eta and adversarial rate theta with bias <= eps c^m / 2.

    The bias of the clipped estimator is at most eta m c^(m-1) + 2 c^m theta;
    splitting the budget evenly gives eta = eps c / (4 m), theta = eps / 8.
    """
    return eps * c / (4.0 * m), eps / 8.0


def bias_bound(eta: float, theta: float, m: int, c: float) -> float:
    """Worst-case estimator bias in units of c^m: eta m / c + 2 theta."""
    return eta * m / c + 2.0 * theta


class NoisyEstimate(namedtuple("NoisyEstimate", "value bias_bound halfwidth samples")):
    """A Delta(m) / c^m estimate with its bias bound and sampling halfwidth."""

    __slots__ = ()

    @property
    def error_bound(self) -> float:
        return self.bias_bound + self.halfwidth


def _sample_clipped(
    measure: SpectralMeasure,
    m: int,
    c: float,
    eta: float,
    theta: float,
    samples: int,
    rng: np.random.Generator,
) -> float:
    lam_max = float(np.max(np.abs(measure.eigenvalues)))
    idx = rng.choice(len(measure.eigenvalues), size=samples, p=measure.probabilities)
    lam = measure.eigenvalues[idx]
    noisy = lam + rng.uniform(-eta, eta, size=samples)
    adversarial = rng.random(samples) < theta
    # the adversary reports whichever extreme eigenvalue moves the clipped
    # power map farthest from the true value
    if np.any(adversarial):
        true_f = clipped_powers(lam[adversarial], m, c)
        f_hi, f_lo = clipped_powers(np.array([lam_max, -lam_max]), m, c)
        pick_hi = np.abs(f_hi - true_f) >= np.abs(f_lo - true_f)
        noisy[adversarial] = np.where(pick_hi, lam_max, -lam_max)
    return float(np.mean(clipped_powers(noisy, m, c)))


def noisy_estimate(
    plus: SpectralMeasure,
    minus: SpectralMeasure,
    m: int,
    c: float,
    eta: float,
    theta: float,
    samples: int,
    seed: int = 0,
    delta: float = 0.05,
) -> NoisyEstimate:
    """Monte Carlo estimate of Delta(m) / c^m from noise-corrupted samples.

    Each eigenvalue sample is shifted by a uniform perturbation in
    [-eta, eta], except with probability theta it is replaced adversarially.
    The returned half-width combines the two per-state Hoeffding widths
    through the 1/sqrt(2) prefactor of the difference.
    """
    rng = np.random.default_rng(seed)
    mean_plus = _sample_clipped(plus, m, c, eta, theta, samples, rng)
    mean_minus = _sample_clipped(minus, m, c, eta, theta, samples, rng)
    value = (mean_plus - mean_minus) / math.sqrt(2.0)
    hw = math.sqrt(2.0) * hoeffding_halfwidth(samples, delta)
    bias = math.sqrt(2.0) * bias_bound(eta, theta, m, c)
    return NoisyEstimate(value=value, bias_bound=bias, halfwidth=hw, samples=samples)


def estimate_with_noise(
    instance: CompiledInstance,
    m: int,
    eta: float,
    theta: float,
    samples: int,
    seed: int = 0,
    delta: float = 0.05,
) -> tuple[NoisyEstimate, float, int, int]:
    """Full pipeline under a given noise model.

    Returns the estimate, the exact clipped moment, the component's size
    and the number of Gauss nodes of the remainder measure.
    """
    graph = reachable_component(instance)
    plus, minus, nodes = orbit_measures(instance, graph)
    exact = delta_moment(plus, minus, m, instance.c)
    est = noisy_estimate(plus, minus, m, instance.c, eta, theta, samples, seed=seed, delta=delta)
    return est, exact, len(graph), nodes

