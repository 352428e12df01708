"""Spectral-measure sampling estimator for the walk-count difference.

Writes Delta(m) as a difference of two adjacency-matrix moments,
Delta(m) = (<psi+|A^m|psi+> - <psi-|A^m|psi->) / sqrt(2), with
|psi+-> = (|s> +- (|t> - |t'>)/sqrt(2)) / sqrt(2). Each moment is an
expectation of lambda^m under the spectral measure of the state, which can
be estimated from noisy eigenvalue samples after clipping the power map.

All moment values are reported in units of c^m. At gap-condition walk lengths
c^m overflows any float, while the normalized quantities (lambda/c)^m stay
inside [-1, 1] by the growth promise.

``estimate_with_noise`` searches the component of s, t and t' once, holds it
as positions and a 0/1 edge list, and forms the two measures from the orbit
of e_t - e_t' and a Gauss rule, both on that edge list
(``orbit_measures``); ``spectral_measure``, one dense eigh of the whole
component, is the reference the tests compare it with. Both measures are
discrete, so ``noisy_estimate`` draws its samples per atom: a multinomial
count per atom, a binomial share of it for the adversary, and uniform
offsets only where they can move the clipped power, evaluated in
(lambda, delta) form so that offsets below ulp(lambda) still count.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from itertools import accumulate

import numpy as np

from .clock import CompiledInstance
from .verifier import ReachableGraph, orbit, orthonormality_fault

MAX_DENSE_VERTICES = 4000

# Lanczos steps, so Gauss nodes, of the remainder measure: the rule is exact
# for its moments up to degree 2 * QUADRATURE_NODES - 1
QUADRATURE_NODES = 40

# the Krylov space is spent once a Lanczos residual is below this fraction
# of the |A v| it was taken from: what is left is round-off
KRYLOV_TOL = 1e-12

SQRT2 = math.sqrt(2.0)

# exp(-750) is below half the least subnormal float: a sample whose clipped
# power has m log(|x| / c) under this is 0.0
UNDERFLOW_EXPONENT = -750.0

# the most samples numpy's multinomial counts (its int64 range), the most
# noise offsets one measure's samples may need (tens of seconds of draws),
# and the most drawn at once
MAX_SAMPLES = 2**63 - 1
MAX_OFFSETS = 1 << 30
NOISE_CHUNK = 1 << 20

# each Hoeffding half-width holds with probability at least 1 - HOEFFDING_DELTA
HOEFFDING_DELTA = 0.05


class EstimateError(Exception):
    pass


def _check_endpoints(instance: CompiledInstance) -> None:
    if len({instance.s, instance.t, instance.t_prime}) < 3:
        raise EstimateError("s, t and t' must be distinct for the states to be unit vectors")


class SpectralMeasure(namedtuple("SpectralMeasure", "eigenvalues probabilities")):
    """Point masses p_i at adjacency eigenvalues lam_i for one state (two
    arrays)."""

    __slots__ = ()


def reachable_component(instance: CompiledInstance) -> ReachableGraph:
    return ReachableGraph(instance.system, [instance.s, instance.t, instance.t_prime])


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
        adjacency[_edges(graph)] = 1.0
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


def _edges(graph: ReachableGraph) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) positions of the ones of the component's adjacency."""
    rows = np.repeat(np.arange(len(graph)), graph.counts)
    return rows, np.array(graph.cols, dtype=np.intp)


def _adjacency_operator(graph: ReachableGraph):
    """v -> A v for the 0/1 adjacency of the component, from its edge list."""
    (rows, cols), n = _edges(graph), len(graph)
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

    The orbit w_j of e_t - e_t' (``verifier.orbit``), by position over the
    rows of the component's edge list, gives u_j = w_j / sqrt(2)^(j+1). Its
    supports must be disjoint and |w_j|^2 = 2^(j+1)
    (``verifier.orthonormality_fault``): the u_j are then orthonormal, and
    the orbit stops inside the finite component, after ell vectors on a
    compiled instance. By the recurrence
    A u_j = sqrt(2) (u_(j-1) + u_(j+1)), so their span W and its complement are
    A-invariant, and A acts on W as sqrt(2) times the adjacency P of the
    k-vertex path. With a_j = <s|u_j> and r = e_s - sum_j a_j u_j in the
    complement, psi+- = (sum_j a_j u_j +- u_0 + r) / sqrt(2), so each
    measure is the closed-form part on W, mass ((q_i . a) +- q_i[0])^2 / 2
    at the i-th node sqrt(2) lambda_i(P) for the sine eigenvectors q_i of
    P, plus half the measure of r, the same for both, from its Gauss rule.
    Both measures share one eigenvalue array and the remainder's weights,
    so their difference has no remainder term.
    """
    _check_endpoints(instance)
    s, t, t_prime = (graph.index[x] for x in (instance.s, instance.t, instance.t_prime))
    starts, cols = [0, *accumulate(graph.counts)], graph.cols
    # (j, w_j) for the one support that holds s, if any: the supports being
    # disjoint, a_j is zero for every other j
    k, hit, seen = 0, None, set()
    walk = orbit({t: 1, t_prime: -1}, lambda i: cols[starts[i] : starts[i + 1]])
    for j, w in enumerate(walk):
        if fault := orthonormality_fault(j, w, seen):
            raise EstimateError(fault)
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
        for x, c in w.items():
            remainder[x] -= a * _unit_entry(c, j)
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


def hoeffding_samples(eps: float) -> int:
    """Samples per state so the difference's half-width, sqrt(2) times one
    state's, is eps/4 (in units of c^m)."""
    if not 0 < eps:
        raise EstimateError("need eps > 0")
    return math.ceil((64.0 / eps**2) * math.log(2.0 / HOEFFDING_DELTA))


def hoeffding_halfwidth(samples: int) -> float:
    """Half-width of one clipped-moment mean at confidence 1 - HOEFFDING_DELTA."""
    return math.sqrt(2.0 * math.log(2.0 / HOEFFDING_DELTA) / samples)


def plan_noise(eps: float, m: int, c: float) -> tuple[float, float]:
    """Noise magnitude eta and adversarial rate theta whose bias on the
    difference is at most eps c^m / 4.

    One clipped moment's bias is at most eta m c^(m-1) + 2 c^m theta, and
    the difference's sqrt(2) times that; splitting eps/4 evenly gives
    eta = eps c / (8 sqrt(2) m), theta = eps / (16 sqrt(2)). With
    ``hoeffding_samples(eps)`` samples the error bound is at most eps/2.
    """
    return eps * c / (8.0 * SQRT2 * m), eps / (16.0 * SQRT2)


def bias_bound(eta: float, theta: float, m: int, c: float) -> float:
    """Worst-case estimator bias in units of c^m: eta m / c + 2 theta."""
    return eta * m / c + 2.0 * theta


class NoisyEstimate(namedtuple("NoisyEstimate", "value bias_bound halfwidth samples")):
    """A Delta(m) / c^m estimate with its bias bound and sampling halfwidth."""

    __slots__ = ()

    @property
    def error_bound(self) -> float:
        return self.bias_bound + self.halfwidth


def _noisy_powers(lam: float, offsets: np.ndarray, m: int, c: float, eta: float) -> np.ndarray:
    """The clipped powers of lam + delta for each offset delta, in (lam, delta)
    form: sign(lam)^m exp(min(0, m (log(|lam|/c) + log1p(delta/lam)))).

    The float lam + delta would round away every offset below ulp(lam); this
    form keeps it. When |lam| <= eta an offset may change the sign, and it
    is then not small against lam, so the float sum is taken.
    """
    if abs(lam) <= eta:
        return clipped_powers(lam + offsets, m, c)
    sign = -1.0 if lam < 0 and m % 2 else 1.0
    return sign * np.exp(np.minimum(0.0, m * (math.log(abs(lam) / c) + np.log1p(offsets / lam))))


def _sample_clipped(
    measure: SpectralMeasure,
    m: int,
    c: float,
    eta: float,
    theta: float,
    samples: int,
    draws: np.random.Generator,
    noise: np.random.Generator,
) -> float:
    """The mean clipped power of ``samples`` noisy eigenvalue samples, drawn
    per atom of the measure.

    How often each atom is drawn is one multinomial count, and how many of
    those draws the adversary replaces is a binomial, since its pick depends
    only on the atom. An honest sample lam + delta, delta uniform in
    [-eta, eta), has the clipped power f(lam) whatever delta is when eta is
    0, when the atom clips (|lam| - c > eta: every sample saturates to +-1)
    or when it underflows (m log((|lam| + eta) / c) < -750: every sample is
    0.0), so offsets are drawn, in chunks, only for the atoms left.
    """
    lam = measure.eigenvalues
    counts = draws.multinomial(samples, measure.probabilities / measure.probabilities.sum())
    adversarial = draws.binomial(counts, theta)
    honest = counts - adversarial
    f = clipped_powers(lam, m, c)
    # the adversary reports whichever extreme eigenvalue moves the clipped
    # power map farthest from the true value
    lam_max = float(np.max(np.abs(lam)))
    f_hi, f_lo = clipped_powers(np.array([lam_max, -lam_max]), m, c)
    reported = np.where(np.abs(f_hi - f) >= np.abs(f_lo - f), f_hi, f_lo)
    noisy = np.zeros(len(lam), dtype=bool)
    if eta > 0:
        noisy = (np.abs(lam) - c <= eta) & (
            m * np.log((np.abs(lam) + eta) / c) >= UNDERFLOW_EXPONENT
        )
    needed = int(honest[noisy].sum())
    if needed > MAX_OFFSETS:
        raise EstimateError(f"{needed} samples need noise drawn one by one, past 2^30")
    mean = (adversarial / samples) @ reported + (honest / samples) @ np.where(noisy, 0.0, f)
    for i in np.flatnonzero(noisy):
        for start in range(0, int(honest[i]), NOISE_CHUNK):
            size = min(NOISE_CHUNK, int(honest[i]) - start)
            offsets = noise.uniform(-eta, eta, size)
            mean += float(np.sum(_noisy_powers(lam[i], offsets, m, c, eta))) / samples
    return float(mean)


def noisy_estimate(
    plus: SpectralMeasure,
    minus: SpectralMeasure,
    m: int,
    c: float,
    eta: float,
    theta: float,
    samples: int,
    seed: int = 0,
) -> NoisyEstimate:
    """Monte Carlo estimate of Delta(m) / c^m from noise-corrupted samples.

    Each eigenvalue sample is shifted by a uniform perturbation in
    [-eta, eta], except with probability theta it is replaced adversarially.
    The samples are drawn per atom (``_sample_clipped``), so the cost does
    not grow with their number; the counts and the offsets come from two
    streams of the seed, so a change of eta alone moves only the offsets.
    The returned half-width combines the two per-state Hoeffding widths
    through the 1/sqrt(2) prefactor of the difference.
    """
    if samples > MAX_SAMPLES:
        raise EstimateError(f"samples = {samples} is past 2^63 - 1, the most the sampler counts")
    draws, noise = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    mean_plus = _sample_clipped(plus, m, c, eta, theta, samples, draws, noise)
    mean_minus = _sample_clipped(minus, m, c, eta, theta, samples, draws, noise)
    value = (mean_plus - mean_minus) / math.sqrt(2.0)
    hw = math.sqrt(2.0) * hoeffding_halfwidth(samples)
    bias = math.sqrt(2.0) * bias_bound(eta, theta, m, c)
    return NoisyEstimate(value=value, bias_bound=bias, halfwidth=hw, samples=samples)


def estimate_with_noise(
    instance: CompiledInstance,
    m: int,
    eta: float,
    theta: float,
    samples: int,
    seed: int = 0,
) -> tuple[NoisyEstimate, float, int, int]:
    """Full pipeline under a given noise model.

    Returns the estimate, the exact clipped moment, the component's size
    and the number of Gauss nodes of the remainder measure.
    """
    graph = reachable_component(instance)
    plus, minus, nodes = orbit_measures(instance, graph)
    exact = delta_moment(plus, minus, m, instance.c)
    est = noisy_estimate(plus, minus, m, instance.c, eta, theta, samples, seed=seed)
    return est, exact, len(graph), nodes

