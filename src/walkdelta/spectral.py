"""Spectral data of the path graph on ell vertices.

The compiled instances behave like a weighted path graph; everything needed
about it is closed-form: eigenvalues 2cos(pi(j+1)/(ell+1)), sine
eigenvectors, the corner weights w_j, and the resulting bounds on corner
entries of powers.  An exact integer recurrence serves as ground truth for
the spectral formulas.
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


# k -> (n, P^n e_0 on the k-vertex path), the latest column only
_columns: dict[int, tuple[int, tuple[int, ...]]] = {}


def path_column(k: int, n: int) -> tuple[int, ...]:
    """P^n e_0 for the adjacency matrix P of the k-vertex path.

    Entry j is the exact number of n-step walks from vertex 0 to vertex j,
    by the recurrence v'_j = v_{j-1} + v_{j+1}. The recurrence resumes from
    the last column computed for this k unless n is below it: n = 1, 2, ...,
    N costs N column updates.
    """
    _check(k)
    if n < 0:
        raise SpectralError("power must be >= 0")
    done, v = _columns.get(k, (0, None))
    if v is None or n < done:
        done, v = 0, (1,) + (0,) * (k - 1)
    for _ in range(done, n):
        v = [a + b for a, b in zip((0, *v[:-1]), (*v[1:], 0))]
    v = tuple(v)
    _columns[k] = (n, v)
    return v


def corner_entry(ell: int, m: int) -> tuple[int, float]:
    """(0, ell-1) entry of the m-th power of the path adjacency matrix.

    Returns the exact integer, entry ell - 1 of ``path_column(ell, m)``, and
    scaled_corner times lambda_0^m, +-inf past the float range.
    """
    exact = path_column(ell, m)[ell - 1]
    total = scaled_corner(ell, m)
    if total == 0.0:
        return exact, 0.0
    log_value = math.log(abs(total)) + m * math.log(eigenvalue(ell, 0))
    return exact, math.copysign(_exp(log_value), total)


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


def choose_m(ell: int, mode: str = "paper") -> int:
    """Walk length for the gap-condition instance.

    paper: the reference prescription (ell+1)^3, whose parity is
    automatically opposite to ell's.
    minimal: smallest m >= ell-1 of correct parity whose lower bound is valid.
    sign_only: smallest m >= ell-1 of correct parity (corner entry positive).
    """
    _check(ell)
    if mode == "paper":
        return (ell + 1) ** 3
    if mode not in ("minimal", "sign_only"):
        raise SpectralError(f"unknown m mode {mode!r}")
    m = ell - 1 if (ell - 1) % 2 != ell % 2 else ell
    while True:
        if mode == "sign_only":
            return m
        if bounds(ell, m)[2]:
            return m
        m += 2


def convergence_check(ell_tilde: int) -> float:
    """Value whose large-ell limit is exp(-pi^2/2), bounding the weight decay."""
    if ell_tilde < 4:
        raise SpectralError("need ell_tilde >= 4")
    r = (math.pi / ell_tilde) ** 2
    return ((1.0 - r) / (1.0 - 0.5 * r)) ** (ell_tilde**2)
