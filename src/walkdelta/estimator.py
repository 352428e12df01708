"""Spectral-measure sampling estimator for the walk-count difference.

Writes Delta(m) as a difference of two adjacency-matrix moments,
Delta(m) = (<psi+|A^m|psi+> - <psi-|A^m|psi->) / sqrt(2), with
|psi+-> = (|s> +- (|t> - |t'>)/sqrt(2)) / sqrt(2). Each moment is an
expectation of lambda^m under the spectral measure of the state, which can
be estimated from noisy eigenvalue samples after clipping the power map.

All moment values are reported in units of c^m. At gap-condition walk lengths
c^m overflows any float, while the normalized quantities (lambda/c)^m stay
inside [-1, 1] by the growth promise.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .clock import CompiledInstance
from .verifier import ReachableGraph

MAX_DENSE_VERTICES = 4000


class EstimateError(Exception):
    pass


def build_states(instance: CompiledInstance):
    """The two unit states whose moment difference encodes Delta(m)."""
    h = 1.0 / math.sqrt(2.0)
    plus = {instance.s: h, instance.t: 0.5, instance.t_prime: -0.5}
    minus = {instance.s: h, instance.t: -0.5, instance.t_prime: 0.5}
    return plus, minus


@dataclass(frozen=True)
class SpectralMeasure:
    """Point masses p_i at adjacency eigenvalues lam_i for one state."""

    eigenvalues: np.ndarray
    probabilities: np.ndarray


def reachable_component(
    instance: CompiledInstance, max_vertices: int = MAX_DENSE_VERTICES
) -> ReachableGraph:
    seeds = [instance.s, instance.t, instance.t_prime]
    return ReachableGraph(instance.system, seeds, max_vertices=max_vertices)


# the bipartite decomposition of each component, dropped with the component;
# the two spectral measures of one estimate share one eigendecomposition
_halves: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# singular values of B at or below this are zero: eigh leaves round-off of
# order 1e-15 on the zero eigenvalues of B B^T, i.e. 1e-7 on their roots
ZERO_SINGULAR = 1e-6


@dataclass(frozen=True)
class _Halves:
    """A = [[0, B], [B^T, 0]] in colour order, with B B^T = U diag(mu) U^T.

    ``eigenvalues`` is the measure support every state shares: +sigma and
    -sigma for each nonzero singular value sigma = sqrt(mu) of B, then one
    atom at 0 for the kernel of A.
    """

    rows: np.ndarray  # component indices of colour 0 (the rows of B)
    cols: np.ndarray  # component indices of colour 1 (the columns of B)
    b: np.ndarray
    u: np.ndarray
    nonzero: np.ndarray  # mask of the columns of u with sigma > ZERO_SINGULAR
    sigma: np.ndarray  # the nonzero singular values, in the order of the mask
    eigenvalues: np.ndarray


def _two_colouring(graph: ReachableGraph) -> np.ndarray:
    """Colour 0/1 of every vertex, by breadth-first search from each piece."""
    colour = np.full(len(graph), -1, dtype=np.int8)
    for root in range(len(graph)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in graph.adj[i]:
                if colour[j] < 0:
                    colour[j] = 1 - colour[i]
                    queue.append(j)
                elif colour[j] == colour[i]:
                    raise EstimateError("component is not bipartite: it has an odd cycle")
    return colour


def _diagonalize(graph: ReachableGraph) -> _Halves:
    """Spectrum of the 0/1 adjacency restricted to the component.

    The component is bipartite, so one eigh of B B^T, half the size of A,
    gives every eigenvalue of A as +-sqrt of an eigenvalue of B B^T.
    """
    n = len(graph)
    if n > MAX_DENSE_VERTICES:
        raise EstimateError(f"component has {n} vertices, guard is {MAX_DENSE_VERTICES}")
    colour = _two_colouring(graph)
    rows, cols = np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)
    half = np.empty(n, dtype=np.intp)
    half[rows] = np.arange(len(rows))
    half[cols] = np.arange(len(cols))

    def block(side: np.ndarray) -> np.ndarray:
        out = np.zeros((len(side), n - len(side)))
        for i, v in enumerate(side):
            out[i, half[list(graph.adj[v])]] = 1.0
        return out

    b = block(rows)
    if not np.array_equal(b, block(cols).T):
        raise EstimateError("adjacency restricted to component is not symmetric")
    mu, u = np.linalg.eigh(b @ b.T)
    sigma = np.sqrt(np.maximum(mu, 0.0))
    nonzero = sigma > ZERO_SINGULAR
    top = sigma[nonzero]
    eigenvalues = np.concatenate([top, -top, [0.0]])
    return _Halves(rows, cols, b, u, nonzero, top, eigenvalues)


def spectral_measure(graph: ReachableGraph, state: dict) -> SpectralMeasure:
    """The state's spectral measure under the component's adjacency.

    With a = u^T psi_P and b = u^T B psi_Q / sigma for the parts psi_P,
    psi_Q of the state on the two colour classes, the eigenvalues +-sigma
    carry (a +- b)^2 / 2. The atom at 0 carries a^2 of every zero sigma
    plus what is left of |psi_Q|^2 in the kernel of B.
    """
    halves = _halves.get(graph)
    if halves is None:
        halves = _halves[graph] = _diagonalize(graph)
    amp = np.zeros(len(graph))
    for s, coef in state.items():
        idx = graph.index.get(s)
        if idx is None:
            raise EstimateError("state supported outside the reachable component")
        amp[idx] = coef
    psi_p, psi_q = amp[halves.rows], amp[halves.cols]
    nz = halves.nonzero
    a = halves.u.T @ psi_p
    b = (halves.u.T @ (halves.b @ psi_q))[nz] / halves.sigma
    kernel = float(a[~nz] @ a[~nz]) + max(float(psi_q @ psi_q - b @ b), 0.0)
    probs = np.concatenate([(a[nz] + b) ** 2 / 2, (a[nz] - b) ** 2 / 2, [kernel]])
    return SpectralMeasure(halves.eigenvalues, probs)


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


def clipped_power(x: float, m: int, c: float) -> float:
    """The clipped power map in units of c^m: (x/c)^m saturated to [-1, 1].

    Values above c map to 1, below -c to -1 (to (-1)^m for even m, which the
    power map gives automatically since (x/c)^m is then >= 1).
    """
    r = x / c
    if r > 1.0:
        return 1.0
    if r < -1.0:
        return -1.0 if m % 2 else 1.0
    return r**m


def clipped_powers(x: np.ndarray, m: int, c: float) -> np.ndarray:
    """``clipped_power`` elementwise: clipping r = x/c to [-1, 1] first sends
    r > 1 to 1 and r < -1 to (-1)^m, as the scalar map does."""
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


@dataclass(frozen=True)
class NoisyEstimate:
    value: float  # Delta(m) / c^m estimate
    bias_bound: float
    halfwidth: float
    samples: int

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
        f_hi = clipped_power(lam_max, m, c)
        f_lo = clipped_power(-lam_max, m, c)
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
    max_vertices: int = MAX_DENSE_VERTICES,
) -> tuple[NoisyEstimate, float, int]:
    """Full pipeline under a given noise model.

    Returns the estimate, the exact clipped moment and the component's size.
    """
    graph = reachable_component(instance, max_vertices=max_vertices)
    plus, minus = (spectral_measure(graph, state) for state in build_states(instance))
    exact = delta_moment(plus, minus, m, instance.c)
    est = noisy_estimate(plus, minus, m, instance.c, eta, theta, samples, seed=seed, delta=delta)
    return est, exact, len(graph)

