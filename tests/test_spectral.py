import math

import pytest
from hypothesis import given, settings, strategies as st

from walkdelta import spectral

from oracles import convergence_check


def test_eigenvalues_closed_form():
    # two vertices: eigenvalues +-1
    assert spectral.eigenvalue(2, 0) == pytest.approx(1.0)
    assert spectral.eigenvalue(2, 1) == pytest.approx(-1.0)
    # four vertices: +-golden ratio and +-its inverse
    phi = (1 + math.sqrt(5)) / 2
    assert spectral.eigenvalue(4, 0) == pytest.approx(phi)
    assert spectral.eigenvalue(4, 3) == pytest.approx(-phi)
    assert spectral.eigenvalue(4, 1) == pytest.approx(phi - 1)


def test_eigenvalues_sorted_descending():
    for ell in (2, 5, 17):
        vals = [spectral.eigenvalue(ell, j) for j in range(ell)]
        assert vals == sorted(vals, reverse=True)


def test_corner_entry_small_cases():
    # three vertices, two steps: the single walk 0-1-2
    assert spectral.corner_entry(3, 2) == 1
    # wrong parity or too short: zero
    assert spectral.corner_entry(3, 3) == 0
    assert spectral.corner_entry(5, 2) == 0


def test_corner_entry_is_central_binomial_for_two_vertices():
    # the two-vertex path is a single edge; odd powers have corner entry 1
    for m in (1, 3, 11):
        assert spectral.corner_entry(2, m) == 1
        assert spectral.corner_entry(2, m + 1) == 0


@given(st.integers(2, 30), st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_corner_entry_dp_matches_spectral_sum(ell, m):
    exact = spectral.corner_entry(ell, m)
    scale = spectral.eigenvalue(ell, 0) ** m
    approx = spectral.scaled_corner(ell, m) * scale
    if exact == 0:
        # cancellation leaves noise proportional to the largest term
        assert abs(approx) < 1e-10 * max(1.0, scale)
    else:
        assert approx == pytest.approx(exact, rel=1e-9, abs=1e-10 * scale)


def fresh_column(ell, m):
    v = [1] + [0] * (ell - 1)
    for _ in range(m):
        v = [(v[k - 1] if k else 0) + (v[k + 1] if k < ell - 1 else 0) for k in range(ell)]
    return v


def fresh_corner(ell, m):
    return fresh_column(ell, m)[ell - 1]


def test_path_column_resumes_and_ends_in_corner_entry():
    # corner_entry is the last entry of the column
    for k, n in ((5, 4), (5, 9), (5, 2), (2, 7), (9, 0), (9, 20)):
        assert list(spectral.path_column(k, n)) == fresh_column(k, n), (k, n)
        assert spectral.corner_entry(k, n) == fresh_column(k, n)[k - 1]
    with pytest.raises(spectral.SpectralError):
        spectral.path_column(1, 3)
    with pytest.raises(spectral.SpectralError):
        spectral.path_column(4, -1)


def test_path_column_light_cone_matches_full_column():
    # entries low..k-1 equal the full recurrence's, for every low
    for k in range(2, 10):
        for n in range(31):
            column = fresh_column(k, n)
            for low in range(k):
                assert spectral.path_column(k, n, low) == tuple(column[low:]), (k, n, low)
    for low in (-1, 4):
        with pytest.raises(spectral.SpectralError):
            spectral.path_column(4, 3, low)


def test_path_column_matches_recurrence_past_many_reflections():
    # n >> k: the images of 0 wrap around the period 2(k + 1) many times
    for k in range(2, 13):
        for n in range(301):
            column = fresh_column(k, n)
            for low in range(k):
                assert spectral.path_column(k, n, low) == tuple(column[low:]), (k, n, low)
    assert spectral.corner_entry(64, 16385) == fresh_corner(64, 16385)


def test_corner_entry_resumes_in_any_order():
    # rising, falling, repeating, and switching between path lengths
    for ell, m in ((7, 3), (7, 12), (7, 12), (7, 5), (4, 9), (7, 14), (4, 2), (7, 0), (4, 30)):
        assert spectral.corner_entry(ell, m) == fresh_corner(ell, m), (ell, m)


def test_corner_entry_past_float_range():
    # lambda_0^m overflows a float from m ~ 1024 on; the exact entry does not
    assert spectral.corner_entry(1040, 1025) == fresh_corner(1040, 1025)
    assert spectral.corner_entry(64, 1101) == fresh_corner(64, 1101) > 0


def test_weight_symmetry_and_mass():
    for ell in (2, 3, 8, 41):
        w0 = spectral.weight(ell, 0)
        w_last = spectral.weight(ell, ell - 1)
        assert w_last == pytest.approx((-1) ** (ell - 1) * w0, abs=1e-12)
        assert sum(abs(spectral.weight(ell, j)) for j in range(ell)) <= 1 + 1e-12


def test_weights_sum_to_corner_identity():
    # m = 0 power is the identity: off-diagonal corner entry vanishes
    for ell in (2, 5, 12):
        total = sum(spectral.weight(ell, j) for j in range(ell))
        assert total == pytest.approx(0.0 if ell > 1 else 1.0, abs=1e-12)


def test_bounds_small():
    upper, lower, valid = spectral.bounds(2, 1)
    assert upper == pytest.approx(1.0)
    assert lower == pytest.approx(0.5)
    assert valid
    exact = spectral.corner_entry(2, 1)
    assert lower <= exact <= upper


def test_bounds_parity_rejected():
    with pytest.raises(spectral.SpectralError):
        spectral.bounds(2, 2)
    with pytest.raises(spectral.SpectralError):
        spectral.bounds(5, 2)  # m < ell - 1


def test_log_bounds_match_bounds():
    for ell, m in ((3, 4), (6, 9), (10, 15)):
        upper, lower, valid = spectral.bounds(ell, m)
        lu, ll, lvalid = spectral.log_bounds(ell, m)
        assert math.exp(lu) == pytest.approx(upper, rel=1e-12)
        assert math.exp(ll) == pytest.approx(lower, rel=1e-12)
        assert valid == lvalid


def test_log_bounds_contain_corner_at_large_m():
    for ell in (5, 20, 80):
        m = ell + 401 if (ell + 401) % 2 != ell % 2 else ell + 402
        exact = spectral.corner_entry(ell, m)
        lu, ll, valid = spectral.log_bounds(ell, m)
        log_exact = math.log(exact)
        assert log_exact <= lu + 1e-9
        if valid:
            assert log_exact >= ll - 1e-9


def test_choose_m_paper():
    """The paper's walk length (ell+1)^3 has the parity opposite to ell's."""
    for ell in range(2, 10):
        assert (ell + 1) ** 3 % 2 != ell % 2


def test_choose_m_sign_only():
    """ell - 1, the walk length of the sign decision, is the shortest with a
    nonzero corner entry."""
    for ell in range(2, 12):
        assert spectral.corner_entry(ell, ell - 1) > 0
        if ell > 2:
            assert spectral.corner_entry(ell, ell - 3) == 0


def test_lower_bound_valid_at_paper_m():
    for ell in range(2, 13):
        _, _, valid = spectral.log_bounds(ell, (ell + 1) ** 3)
        assert valid


def test_convergence_check_limit():
    target = math.exp(-math.pi**2 / 2)
    prev_gap = None
    for ell_tilde in (10, 100, 1000):
        gap = abs(convergence_check(ell_tilde) - target)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert convergence_check(10_000) == pytest.approx(target, rel=1e-4)


def test_rejects_bad_arguments():
    with pytest.raises(spectral.SpectralError):
        spectral.eigenvalue(1, 0)
    with pytest.raises(spectral.SpectralError):
        spectral.eigenvalue(4, 4)
    with pytest.raises(spectral.SpectralError):
        spectral.corner_entry(3, -1)
    with pytest.raises(spectral.SpectralError):
        convergence_check(3)
