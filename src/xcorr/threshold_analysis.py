"""Noise-tolerance calculus for the witness threshold.

For a core family of size l and order r, detection with witness fraction
x tolerates out-of-target noise up to

    phi(l, r, x) = ((1-x)/x) * (1-(1-x)^(1/l))^r / (1 - (1-(1-x)^(1/l))^r)

as the ratio p_out/p_in.  This module evaluates phi stably, maximizes it
over x (closed forms where they exist, bisection on the stationarity
equation otherwise), decides admissibility of a given noise ratio, and
recommends an (x, alpha) operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, Inadmissible

CLOSED_FORM = "closed_form"
ROOT_FOUND = "root_found"

#: x reported for suprema that are only attained in the limit.
_LIMIT_EPS = 1e-6
_BRACKET_EPS = 1e-9
_BISECT_TOL = 1e-12


def _check_l_r(l: int, r: int) -> None:
    if not (isinstance(l, int) and isinstance(r, int)) or l < 1 or r < 1:
        raise DomainError(f"l and r must be integers >= 1, got l={l}, r={r}")


def phi(l: int, r: int, x: float) -> float:
    """Maximum tolerable p_out/p_in at threshold fraction x, in (0,1).

    Evaluated through log1p/expm1 so both tails stay accurate: with
    t = log(1-x)/l, the inner term 1-(1-x)^(1/l) is -expm1(t) and the
    denominator 1-(...)^r is -expm1(r*t).
    """
    _check_l_r(l, r)
    x = float(x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0,1), got {x}")
    t = math.log1p(-x) / l
    u = math.exp(t)  # (1-x)^(1/l)
    one_minus_u = -math.expm1(t)  # accurate for x -> 0
    a = one_minus_u**r
    one_minus_a = -math.expm1(r * math.log1p(-u))  # accurate for x -> 1
    return (1.0 - x) / x * a / one_minus_a


def _f(n: int, z: float) -> float:
    """z^n / (1 - z^n)."""
    zn = z**n
    return zn / (1.0 - zn)


def _stationarity(l: int, r: int, z: float) -> float:
    """r*z^(l+1) - l*(1-z)^(r+1) - (r+l)*z + l; zero at the argmax z*."""
    return r * z ** (l + 1) - l * (1.0 - z) ** (r + 1) - (r + l) * z + l


@dataclass(frozen=True)
class ThresholdResult:
    m_lr: float
    x_star: float
    z_star: float
    method: str
    limit: bool = False

    def to_dict(self) -> dict:
        return {
            "m_lr": self.m_lr,
            "x_star": self.x_star,
            "z_star": self.z_star,
            "method": self.method,
            "limit": self.limit,
        }


def max_ratio(l: int, r: int) -> ThresholdResult:
    """M_{l,r} = sup over x of phi(l, r, x), with its argmax.

    Closed forms: M_{1,r} = 1/r (supremum as x -> 1), M_{l,1} = 1/l
    (supremum as x -> 0), and M_{n,n} = 1/(2^n-1)^2 at z = 1/2.  The
    remaining cases bisect the stationarity equation over (0,1) — its
    endpoints are always roots, but for l, r > 1 the function is positive
    just inside 0 and negative just inside 1, so the interior root is
    bracketed.  ``limit=True`` marks suprema attained only in the limit;
    their reported x_star is clamped just inside (0,1).
    """
    _check_l_r(l, r)
    if l == 1:
        x_star = 1.0 - _LIMIT_EPS
        return ThresholdResult(1.0 / r, x_star, 1.0 - x_star, CLOSED_FORM, limit=True)
    if r == 1:
        x_star = _LIMIT_EPS
        return ThresholdResult(
            1.0 / l, x_star, (1.0 - x_star) ** (1.0 / l), CLOSED_FORM, limit=True
        )
    if l == r:
        z = 0.5
        # integer true division: (2^l - 1)^2 is past float range from l = 512 on
        return ThresholdResult(1 / (2**l - 1) ** 2, 1.0 - z**l, z, CLOSED_FORM)

    lo, hi = _BRACKET_EPS, 1.0 - _BRACKET_EPS
    g_lo, g_hi = _stationarity(l, r, lo), _stationarity(l, r, hi)
    if not (g_lo > 0 > g_hi):
        raise ConvergenceError(
            f"stationarity equation not bracketed for l={l}, r={r}: "
            f"g({lo})={g_lo}, g({hi})={g_hi}"
        )
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _stationarity(l, r, mid) > 0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    return ThresholdResult(_f(l, z) * _f(r, 1.0 - z), 1.0 - z**l, z, ROOT_FOUND)


def admissible(p_out: float, p_in: float, l: int, r: int) -> bool:
    """Whether the noise ratio p_out/p_in is below M_{l,r} (strictly)."""
    if not (0.0 <= p_out < p_in <= 1.0):
        raise DomainError(
            f"need 0 <= p_out < p_in <= 1, got p_out={p_out}, p_in={p_in}"
        )
    return p_out / p_in < max_ratio(l, r).m_lr


class RecommendedConfig(NamedTuple):
    x: float
    alpha: float


def recommend_config(l: int, r: int, ratio: float) -> RecommendedConfig:
    """Operating point (x, alpha) for a given p_out/p_in ratio.

    x is the argmax of phi where that is attainable; for the limit cases
    x is pulled back to a usable interior point with phi(x) still above
    the ratio (toward 1 for l=1, capped at 0.99; an interior solve of
    phi(x) = (ratio + M)/2 for r=1, whose x -> 0 supremum would drive
    alpha to 0).  alpha is then (1-(1-x)^(1/l)) * 0.95, keeping the
    account-coverage probability strictly below the soundness bound.

    Raises :class:`Inadmissible` when ratio >= M_{l,r}, and
    :class:`DomainError` when x rounds to 1.0 in float64 (l = r >= 54, say).
    """
    _check_l_r(l, r)
    if ratio < 0:
        raise DomainError(f"ratio must be >= 0, got {ratio}")
    res = max_ratio(l, r)
    if ratio >= res.m_lr:
        raise Inadmissible(
            f"ratio {ratio} >= M_{{{l},{r}}} = {res.m_lr:.6g}", m_lr=res.m_lr
        )

    if not res.limit:
        x = res.x_star
    elif l == 1:
        x = min(res.x_star, 0.99)
        while phi(l, r, x) <= ratio and x < 1.0 - _BRACKET_EPS:
            x = 1.0 - (1.0 - x) / 2.0
    else:  # r == 1, l > 1: phi decreases from 1/l at x->0; solve the midpoint
        target = 0.5 * (ratio + res.m_lr)
        lo, hi = _BRACKET_EPS, 1.0 - _BRACKET_EPS
        if phi(l, r, hi) >= target:
            x = hi
        else:
            while hi - lo > _BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if phi(l, r, mid) >= target:
                    lo = mid
                else:
                    hi = mid
            x = lo
    if not x < 1.0:
        raise DomainError(f"no operating point for l={l}, r={r}: x rounds to 1.0 in float64")
    alpha = -math.expm1(math.log1p(-x) / l) * 0.95
    return RecommendedConfig(x=x, alpha=alpha)


def theoretical_account_constant(x: float, alpha: float, l: int) -> float:
    """Reference value of the account-sizing constant from the
    concentration argument: 3q/(x-q)^2 with q = 1-(1-alpha)^l, the chance
    a pure-noise account covers an order-l combination.  Exposed for
    comparison only; the practical constant is fitted by the sweep.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < x < 1.0:
        raise DomainError("x and alpha must lie in (0,1)")
    q = -math.expm1(l * math.log1p(-alpha))
    if x <= q:
        raise DomainError(
            f"x={x} must exceed the noise coverage q={q:.4g} for soundness"
        )
    return 3.0 * q / (x - q) ** 2


#: most points :func:`phi_curve` builds; its list is held in memory whole
MAX_CURVE_POINTS = 10**6


def phi_curve(l: int, r: int, n_points: int = 199) -> list[tuple[float, float, float]]:
    """(z, x, phi) samples at 1 <= ``n_points`` <= :data:`MAX_CURVE_POINTS`
    points of a uniform z grid, for plotting."""
    _check_l_r(l, r)
    if not 1 <= n_points <= MAX_CURVE_POINTS:
        raise DomainError(f"n_points must be in 1..{MAX_CURVE_POINTS}, got {n_points}")
    rows = []
    for k in range(1, n_points + 1):
        z = k / (n_points + 1)
        x = 1.0 - z**l
        rows.append((z, x, phi(l, r, x)))
    return rows
