"""Spectral data of the path graph on ell vertices.

The compiled instances behave like a weighted path graph; everything needed
about it is closed-form: eigenvalues 2cos(pi(j+1)/(ell+1)), sine
eigenvectors, the corner weights w_j, and the resulting bounds on corner
entries of powers.  Exact integer walk counts, by the reflection principle,
serve as ground truth for the spectral formulas.
"""

from __future__ import annotations

import math
from functools import lru_cache


class SpectralError(Exception):
    pass


def _check(ell: int, j: int | None = None) -> None:
    if ell < 2:
        raise SpectralError(f"need ell >= 2, got {ell}")
    if j is not None and not 0 <= j < ell:
        raise SpectralError(f"index {j} out of range for ell = {ell}")


def eigenvalue(ell: int, j: int) -> float:
    """j-th largest eigenvalue of the ell-vertex path graph."""
    _check(ell, j)
    return 2.0 * math.cos(math.pi * (j + 1) / (ell + 1))


def eigvec_entry(ell: int, j: int, k: int) -> float:
    """Entry k of the j-th orthonormal eigenvector."""
    _check(ell, j)
    _check(ell, k)
    return math.sqrt(2.0 / (ell + 1)) * math.sin(
        math.pi * (j + 1) * (k + 1) / (ell + 1)
    )


def weight(ell: int, j: int) -> float:
    """Corner weight w_j: product of the eigenvector's first and last entries."""
    return eigvec_entry(ell, j, 0) * eigvec_entry(ell, j, ell - 1)


def _exp(x: float) -> float:
    """exp(x), or inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def _ratio_terms(ell: int) -> tuple[tuple[float, float], ...]:
    """The pairs (w_j, lambda_j / lambda_0)."""
    lam0 = eigenvalue(ell, 0)
    return tuple((weight(ell, j), eigenvalue(ell, j) / lam0) for j in range(ell))


def scaled_corner(ell: int, m: int) -> float:
    """Corner entry over lambda_0^m: the sum of w_j (lambda_j/lambda_0)^m.

    Compensated, as the terms alternate in sign; no term exceeds |w_j|.
    """
    _check(ell)
    total = comp = 0.0
    for w, r in _ratio_terms(ell):
        y = w * r**m - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def path_column(k: int, n: int, low: int = 0) -> tuple[int, ...]:
    """Entries low..k-1 of P^n e_0, for the adjacency matrix P of the
    k-vertex path.

    Entry j is the exact number of n-step walks from vertex 0 to vertex j:
    the +-1 walks on the integers that never touch the barriers -1 and k.
    By the reflection principle (method of images, period 2(k + 1)),

        P^n[j, 0] = sum_i C(n, (n + j)/2 + i(k + 1))
                          - C(n, (n - 2 - j)/2 + i(k + 1)).

    So one row of binomials gives the whole column. A walk with r down
    steps ends at d = n - 2r, so C(n, r) adds to the entry j = d and
    subtracts from j = -2 - d, both mod 2(k + 1), where they fall in
    [low, k); at most one of them does. The row is streamed for r <= n/2,
    each C(n, r) from the last by one multiplication and one exact division
    by a small int, and C(n, n - r) = C(n, r) serves the mirror d -> -d.
    That is O(n) big-int steps on integers of at most n bits, whatever k
    and low are.
    """
    _check(k)
    if n < 0:
        raise SpectralError("power must be >= 0")
    if not 0 <= low < k:
        raise SpectralError(f"entry {low} out of range for k = {k}")
    if low > n:
        return (0,) * (k - low)
    period = 2 * (k + 1)
    column = [0] * (k - low)
    c = 1
    for r in range(n // 2 + 1):
        if r:
            c = c * (n - r + 1) // r
        d = n - 2 * r
        for e in (d, -d) if d else (0,):
            j = e % period
            if low <= j < k:
                column[j - low] += c
                continue
            j = (-2 - e) % period
            if low <= j < k:
                column[j - low] -= c
    return tuple(column)


def corner_entry(ell: int, m: int) -> int:
    """(0, ell-1) entry of the m-th power of the path adjacency matrix, the
    exact integer: the one entry of ``path_column(ell, m, ell - 1)``, from
    m/2 steps of a binomial row."""
    return path_column(ell, m, ell - 1)[0]


def bounds(ell: int, m: int) -> tuple[float, float, bool]:
    """Upper and lower bounds on the corner entry of the m-th power.

    Upper: lambda_0^m.  Lower: lambda_0^m * w_0, valid when
    (lambda_1/lambda_0)^m <= w_0 so the subleading terms cannot cancel the
    leading one.  Requires m of parity opposite to ell and m >= ell-1.
    """
    log_upper, log_lower, lower_valid = log_bounds(ell, m)
    return _exp(log_upper), _exp(log_lower), lower_valid


def log_bounds(ell: int, m: int) -> tuple[float, float, bool]:
    """Natural logs of the bounds; usable where lambda_0^m overflows."""
    _check(ell)
    if m % 2 == ell % 2:
        raise SpectralError(f"m = {m} has the parity of ell = {ell}")
    if m < ell - 1:
        raise SpectralError(f"need m >= ell-1, got m = {m}")
    lam0 = eigenvalue(ell, 0)
    lam1 = eigenvalue(ell, 1)
    w0 = weight(ell, 0)
    if w0 <= 0:  # the float sines round w_0 below 0 by ell = 1e20
        raise SpectralError(f"w_0 = {w0} is not positive in floats at ell = {ell}")
    log_upper = m * math.log(lam0)
    log_lower = log_upper + math.log(w0)
    # the validity condition controls the interior eigenvalues, whose
    # magnitude is at most |lambda_1|; a two-vertex path has none
    a1 = abs(lam1)
    if ell == 2 or a1 == 0.0:
        lower_valid = True
    else:
        lower_valid = m * (math.log(a1) - math.log(lam0)) <= math.log(w0)
    return log_upper, log_lower, lower_valid
