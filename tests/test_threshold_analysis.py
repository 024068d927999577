import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcorr.errors import DomainError, Inadmissible
from xcorr.threshold_analysis import (
    CLOSED_FORM,
    ROOT_FOUND,
    admissible,
    max_ratio,
    phi,
    phi_curve,
    recommend_config,
    theoretical_account_constant,
)


def grid_max_phi(l, r, points=100_000):
    """Independent argmax estimate by dense sampling."""
    xs = np.linspace(0, 1, points + 2)[1:-1]
    vals = np.array([phi(l, r, float(x)) for x in xs])
    k = int(np.argmax(vals))
    return float(vals[k]), float(xs[k])


def residual(l, r, z):
    return abs(r * z ** (l + 1) - l * (1 - z) ** (r + 1) - (r + l) * z + l)


# ------------------------------------------------------------------ phi


def test_phi_identity_case():
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert phi(1, 1, x) == pytest.approx(1.0, abs=1e-12)
    # extreme tails lose a few digits to cancellation but stay finite
    for x in (1e-9, 1 - 1e-9):
        assert phi(1, 1, x) == pytest.approx(1.0, rel=1e-6)


def test_phi_1_2_tends_to_half():
    assert phi(1, 2, 1 - 1e-9) == pytest.approx(0.5, abs=1e-6)


def test_phi_2_2_at_three_quarters():
    assert phi(2, 2, 0.75) == pytest.approx(1 / 9, abs=1e-12)


def test_phi_domain():
    with pytest.raises(DomainError):
        phi(2, 2, 0.0)
    with pytest.raises(DomainError):
        phi(2, 2, 1.0)
    with pytest.raises(DomainError):
        phi(0, 2, 0.5)


def test_phi_stable_in_tails():
    # no NaN/inf and correct limiting behavior at both ends
    assert phi(3, 1, 1e-12) == pytest.approx(1 / 3, rel=1e-9)
    assert 0 < phi(2, 3, 1e-12) < 1e-20
    assert 0 < phi(2, 3, 1 - 1e-12) < 1e-6
    assert phi(1, 4, 1 - 1e-12) == pytest.approx(0.25, rel=1e-9)


@given(
    st.integers(2, 6),
    st.integers(2, 6),
)
@settings(max_examples=25, deadline=None)
def test_phi_unimodal(l, r):
    xs = np.linspace(0, 1, 1002)[1:-1]
    vals = np.array([phi(l, r, float(x)) for x in xs])
    diffs = np.diff(vals)
    # rising then falling: once a decrease starts, no later increase
    first_down = np.argmax(diffs < 0)
    assert np.all(diffs[first_down:] <= 1e-15)
    assert phi(l, r, 1e-6) < vals.max() / 10
    assert phi(l, r, 1 - 1e-6) < vals.max() / 10


# ------------------------------------------------------------ max_ratio


def test_closed_form_row_and_column():
    for k in range(1, 11):
        assert max_ratio(1, k).m_lr == 1.0 / k
        assert max_ratio(k, 1).m_lr == 1.0 / k


def test_symmetric_diagonal():
    for n in range(2, 6):
        res = max_ratio(n, n)
        assert res.m_lr == pytest.approx(1 / (2**n - 1) ** 2, abs=1e-12)
        assert res.z_star == 0.5
        assert res.x_star == pytest.approx(1 - 0.5**n, abs=1e-12)
        assert res.method == CLOSED_FORM
        assert residual(n, n, res.z_star) < 1e-10


def test_diagonal_past_float_range():
    # (2^n - 1)^2 leaves the float range at n = 512: the closed form
    # divides as integers, equals the float division below that, is
    # subnormal up to n = 537 and underflows to 0 from n = 538 on
    for n in (2, 53, 511):
        assert max_ratio(n, n).m_lr == 1.0 / (2**n - 1) ** 2
    for n in (512, 537):
        assert 0.0 < max_ratio(n, n).m_lr < 2.0**-1022
    for n in (538, 600, 2000):
        res = max_ratio(n, n)
        assert (res.m_lr, res.z_star, res.method) == (0.0, 0.5, CLOSED_FORM)


def test_examples():
    assert max_ratio(1, 3).m_lr == pytest.approx(1 / 3)
    assert max_ratio(3, 1).m_lr == pytest.approx(1 / 3)
    r22 = max_ratio(2, 2)
    assert (r22.m_lr, r22.z_star, r22.x_star) == pytest.approx((1 / 9, 0.5, 0.75))
    assert max_ratio(3, 3).m_lr == pytest.approx(1 / 49)
    assert max_ratio(3, 3).m_lr > 0.02


def test_root_found_cases_match_grid_max():
    for l, r in [(2, 3), (3, 2), (2, 5), (4, 3), (5, 2)]:
        res = max_ratio(l, r)
        assert res.method == ROOT_FOUND
        assert residual(l, r, res.z_star) < 1e-10
        grid_m, grid_x = grid_max_phi(l, r)
        assert res.m_lr == pytest.approx(grid_m, rel=1e-7)
        assert abs(res.x_star - grid_x) < 1e-3
        # the reported maximum is attained by phi at x_star
        assert phi(l, r, res.x_star) == pytest.approx(res.m_lr, abs=1e-9)


def test_limit_cases_approach_reported_maximum():
    for l, r in [(1, 2), (1, 7), (2, 1), (6, 1)]:
        res = max_ratio(l, r)
        assert res.limit
        assert 0 < res.x_star < 1
        assert phi(l, r, res.x_star) == pytest.approx(res.m_lr, abs=1e-5)


def test_m_lr_symmetric_in_l_r():
    for l in range(1, 6):
        for r in range(1, 6):
            assert max_ratio(l, r).m_lr == pytest.approx(
                max_ratio(r, l).m_lr, abs=1e-11
            )


def test_m_lr_monotone_nonincreasing():
    grid = {(l, r): max_ratio(l, r).m_lr for l in range(1, 7) for r in range(1, 7)}
    for l in range(1, 7):
        for r in range(1, 6):
            assert grid[(l, r + 1)] <= grid[(l, r)] + 1e-12
            assert grid[(r + 1, l)] <= grid[(r, l)] + 1e-12


# ----------------------------------------------------------- admissible


def test_admissible_examples():
    assert admissible(0.01, 0.7, 1, 1) is True
    assert admissible(0.02, 0.7, 3, 3) is False  # 0.0286 > 1/49
    assert admissible(0.0, 0.7, 5, 5) is True


def test_admissible_ordering_violation():
    with pytest.raises(DomainError):
        admissible(0.7, 0.7, 1, 1)
    with pytest.raises(DomainError):
        admissible(0.8, 0.7, 1, 1)


# ------------------------------------------------------ recommend_config


def test_recommend_2_2():
    x, alpha = recommend_config(2, 2, 0.05)
    assert x == pytest.approx(0.75)
    assert alpha == pytest.approx(0.475)


def test_recommend_1_1():
    x, alpha = recommend_config(1, 1, 0.5)
    assert x == pytest.approx(0.99)
    assert alpha == pytest.approx(0.95 * 0.99)


def test_recommend_inadmissible():
    with pytest.raises(Inadmissible) as exc:
        recommend_config(3, 3, 0.05)
    assert exc.value.m_lr == pytest.approx(1 / 49)


def test_recommend_phi_exceeds_ratio():
    for l, r, ratio in [(1, 2, 0.49), (1, 3, 0.3), (2, 1, 0.4), (3, 1, 0.2),
                        (2, 2, 0.1), (2, 3, 0.02), (4, 2, 0.01)]:
        x, alpha = recommend_config(l, r, ratio)
        assert phi(l, r, x) > ratio
        assert 0 < alpha < 1
        # alpha keeps coverage strictly below the soundness bound
        assert alpha < -math.expm1(math.log1p(-x) / l)


@pytest.mark.parametrize("l, r", [(54, 54), (60, 60), (40, 70)])
def test_recommend_without_a_float64_operating_point(l, r):
    # x = 1 - z**l rounds to 1.0, and alpha's log1p(-x) once raised a
    # bare ValueError (math domain error)
    with pytest.raises(DomainError, match=f"l={l}, r={r}"):
        recommend_config(l, r, 0.0)


def test_recommend_at_the_last_float64_diagonal():
    x, alpha = recommend_config(53, 53, 0.0)
    assert x == 1.0 - 2.0**-53
    assert alpha == pytest.approx(0.475)


def test_recommend_r1_avoids_degenerate_alpha():
    x, alpha = recommend_config(3, 1, 0.2)
    assert alpha > 0.01


# ------------------------------------------------------------- the rest


def test_theoretical_constant():
    c = theoretical_account_constant(x=0.95, alpha=0.3, l=2)
    q = 1 - 0.7**2
    assert c == pytest.approx(3 * q / (0.95 - q) ** 2)
    with pytest.raises(DomainError):
        theoretical_account_constant(x=0.5, alpha=0.5, l=2)  # q = 0.75 > x


def test_phi_curve_shape():
    rows = list(phi_curve(2, 2, n_points=99))
    assert len(rows) == 99
    zs = [z for z, _, _ in rows]
    assert zs == sorted(zs)
    for z, x, p in rows:
        assert x == pytest.approx(1 - z**2, abs=1e-12)
        assert p == pytest.approx(phi(2, 2, x), abs=1e-12)
    best = max(rows, key=lambda t: t[2])
    assert best[0] == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("n_points", [0, -3])
def test_phi_curve_needs_a_point(n_points):
    with pytest.raises(DomainError, match="n_points"):
        phi_curve(2, 2, n_points=n_points)


def test_phi_curve_caps_its_points():
    with pytest.raises(DomainError, match=r"n_points must be in 1\.\.1000000"):
        phi_curve(2, 2, n_points=10**6 + 1)


def test_runtime_budget():
    import time

    t0 = time.perf_counter()
    for l in range(1, 11):
        for r in range(1, 11):
            max_ratio(l, r)
    assert time.perf_counter() - t0 < 1.0
