"""Correlated space-time fractional counting process on a finite horizon.

The process counts a fixed pool of arrival epochs inside [0, T].  A coupling
weight rho in [0, 1] interpolates between fully independent epochs (rho = 0)
and a single shared epoch driving the whole pool (rho = 1), which makes the
law at an interior time a three-way mixture: the uncoupled count, a point
mass at zero, and the terminal count.  Closed forms are evaluated through
the special-function layer; the governing fractional equations are verified
as residuals rather than solved.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import CancellationLoss, DomainError
from .fracops import (
    PowerSeriesInT,
    caputo_derivative_quadrature,
    caputo_derivative_series,
    frac_difference,
)
from .pmftable import PmfTable
from .specfun import (
    _CORE_ABS_GUARD,
    DEFAULT_CONFIG,
    SpecfunConfig,
    _coef_row,
    _lgamma_row,
    _sum_series,
    gamma_ratio_signed,
    gen_binom,
    gen_mittag_leffler,
    mittag_leffler,
)

__all__ = [
    "StfpParams",
    "F_stfp",
    "pgf",
    "pmf",
    "joint_prob_kps",
    "joint_prob_brb",
    "governing_residual",
]


@dataclass(frozen=True)
class StfpParams:
    """Parameter bundle for the space-time fractional count.

    alpha thins in space (jump sizes), nu stretches in time, lam is the
    rate, T the horizon, rho the pairwise coupling weight.
    """

    alpha: float
    nu: float
    lam: float
    T: float
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"space index must lie in (0,1], got {self.alpha}")
        if not 0.0 < self.nu <= 1.0:
            raise DomainError(f"time index must lie in (0,1], got {self.nu}")
        if not self.lam > 0.0:
            raise DomainError(f"rate must be positive, got {self.lam}")
        if not self.T > 0.0:
            raise DomainError(f"horizon must be positive, got {self.T}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"coupling weight must lie in [0,1], got {self.rho}")


def _check_time(params: StfpParams, t: float) -> None:
    if not 0.0 <= t <= params.T:
        raise DomainError(f"t={t} outside [0, {params.T}]")


def F_stfp(params: StfpParams, t: float) -> float:
    """Probability that a single epoch has landed by time t: (t/T)^(nu/alpha)."""
    _check_time(params, t)
    return (t / params.T) ** (params.nu / params.alpha)


def _falling_row(a: float, k: int) -> Iterator[float]:
    # (-1)^r * Gamma(a r + 1) / Gamma(a r + 1 - k), r = 0, 1, ...
    return _coef_row(
        ("falling", a, k), lambda r: (-1.0) ** r * gamma_ratio_signed(a * r + 1.0, a * r + 1.0 - k)
    )


def _core_pmf(params: StfpParams, s: float, k: int, cfg: SpecfunConfig) -> float:
    """Uncoupled pmf at elapsed time s, k-th count weight.

    Series in r with a signed falling-factorial ratio; the ratio vanishes
    identically when alpha*r + 1 - k is a non-positive integer, so those
    terms are skipped rather than summed as zeros.  An entry whose absolute
    error estimate exceeds _CORE_ABS_GUARD raises CancellationLoss, as in fnegbin.
    """
    if s == 0.0:
        return 1.0 if k == 0 else 0.0
    a, nu = params.alpha, params.nu
    # log of lam^alpha * s^nu, kept in log space so large r stays finite
    log_x = a * math.log(params.lam) + nu * math.log(s)
    lead = (-1.0) ** k / math.factorial(k)

    def terms():
        for r, lg_den, ratio in zip(itertools.count(), _lgamma_row(nu, 1.0), _falling_row(a, k)):
            if ratio == 0.0:
                yield 0.0
            else:
                yield math.exp(r * log_x - lg_den) * ratio

    total = _sum_series(terms(), cfg, "count series (k={}, s={})", k, s)
    err = abs(lead) * total.abs_error_estimate
    if err > _CORE_ABS_GUARD:
        raise CancellationLoss(
            f"pmf entry k={k} at s={s} carries absolute error ~{err:.2e}; "
            "no trustworthy digits at probability scale"
        )
    return lead * total.value


def pgf(
    params: StfpParams, t: float, u: float, cfg: SpecfunConfig | None = None
) -> float:
    """Probability generating function at time t, |u| <= 1.

    Mixture of the terminal transform (held branch) and the running
    transform (independent branch); returns exactly 1.0 at u = 1.
    """
    _check_time(params, t)
    if not -1.0 <= u <= 1.0:
        raise DomainError(f"pgf argument must lie in [-1,1], got {u}")
    if u == 1.0:
        return 1.0
    cfg = cfg or DEFAULT_CONFIG
    a, nu, lam, T, rho = params.alpha, params.nu, params.lam, params.T, params.rho
    w = (1.0 - u) ** a
    frac = F_stfp(params, t)
    running = mittag_leffler(nu, 1.0, -(lam**a) * (t**nu) * w, cfg).value
    out = (1.0 - rho) * running
    if rho != 0.0:
        terminal = mittag_leffler(nu, 1.0, -(lam**a) * (T**nu) * w, cfg).value
        out += rho * (1.0 - frac) + rho * frac * terminal
    return out


def pmf(
    params: StfpParams, t: float, K: int, cfg: SpecfunConfig | None = None
) -> PmfTable:
    """Probability table P(count = k) for k = 0..K at time t.

    Assembled as (1-rho) * running + rho * [(1-F) at zero + F * terminal].
    tail_mass is reported, never renormalized: for alpha < 1 the tail is
    heavy and silently pushing it back into the head would corrupt any
    downstream comparison.
    """
    _check_time(params, t)
    if K < 0:
        raise DomainError(f"truncation index must be >= 0, got {K}")
    cfg = cfg or DEFAULT_CONFIG
    rho = params.rho
    frac = F_stfp(params, t)
    probs = []
    for k in range(K + 1):
        running = _core_pmf(params, t, k, cfg)
        val = (1.0 - rho) * running
        if rho != 0.0:
            if k == 0:
                val += rho * (1.0 - frac)
            # at the horizon both branches read the same terminal series
            held = running if t == params.T else _core_pmf(params, params.T, k, cfg)
            val += rho * frac * held
        probs.append(val)
    return PmfTable.from_probs(probs)


def joint_prob_kps(
    nu: float, lam: float, T: float, t: float, cfg: SpecfunConfig | None = None
) -> float:
    """P(one event by t, one by T) under renewal-style chaining.

    Product of the one-event weight on [0, t] and a no-further-event hold
    over (t, T]; time-fractional only, no space thinning enters.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"time index must lie in (0,1], got {nu}")
    if lam <= 0.0 or T <= 0.0:
        raise DomainError("rate and horizon must be positive")
    if not 0.0 <= t <= T:
        raise DomainError(f"t={t} outside [0, {T}]")
    cfg = cfg or DEFAULT_CONFIG
    x = lam * t**nu
    one_event = x * gen_mittag_leffler(nu, nu + 1.0, 2.0, -x, cfg).value
    hold = mittag_leffler(nu, 1.0, -lam * (T - t) ** nu, cfg).value
    return one_event * hold


def joint_prob_brb(
    params: StfpParams, t: float, cfg: SpecfunConfig | None = None
) -> float:
    """P(one event by t, one by T) for the pooled construction, rho = 0.

    Conditionally on a single terminal event the epoch is uniform on the
    time-changed scale, so the joint factors as (t/T) * P(one by T).
    """
    if params.rho != 0.0:
        raise DomainError("joint law implemented for the uncoupled case rho=0 only")
    _check_time(params, t)
    cfg = cfg or DEFAULT_CONFIG
    nu, lam, T = params.nu, params.lam, params.T
    x = lam * T**nu
    one_at_horizon = x * gen_mittag_leffler(nu, nu + 1.0, 2.0, -x, cfg).value
    return (t / T) * one_at_horizon


def governing_residual(
    params: StfpParams,
    t: float,
    k: int,
    R: int = 140,
    cfg: SpecfunConfig | None = None,
    method: str = "series",
) -> float:
    """|LHS - RHS| of the fractional balance equation at (t, k).

    The left side is the time-fractional Caputo derivative of P(count = k):
    method "series" applies the exact termwise rule to the power-series
    representation (truncated at R powers); method "quadrature" integrates
    the derivative of the assembled pmf directly and is the coarser but
    series-free cross-check (fractional orders only).  The right side is
    assembled from the fractional backward difference in k, the coupling
    source terms, and the table at the horizon.  Small residuals certify
    the closed forms against each other.
    """
    if not 0.0 < t <= params.T:
        raise DomainError(f"t={t} outside (0, {params.T}]")
    if k < 0:
        raise DomainError(f"count index must be >= 0, got {k}")
    if R < 1:
        raise DomainError(f"series truncation must be >= 1, got {R}")
    if method not in ("series", "quadrature"):
        raise DomainError(f"method must be 'series' or 'quadrature', got {method!r}")
    cfg = cfg or DEFAULT_CONFIG
    a, nu, lam, T, rho = params.alpha, params.nu, params.lam, params.T, params.rho
    la = lam**a
    frac = F_stfp(params, t)
    tbl_t = pmf(params, t, k, cfg)
    tbl_T = tbl_t if t == T else pmf(params, T, k, cfg)

    if method == "quadrature":
        delta = 1.0 if k == 0 else 0.0
        terminal = tbl_T[k]

        def prob_at(s: float) -> float:
            running = _core_pmf(params, s, k, cfg)
            hold = F_stfp(params, s)
            return (1.0 - rho) * running + rho * ((1.0 - hold) * delta + hold * terminal)

        lhs = caputo_derivative_quadrature(prob_at, nu, t)
    else:
        # power series in t of P(count = k); exponents nu*r from the running
        # branch plus nu/alpha from the coupling weight (build() merges any
        # collision, e.g. alpha = 1/2 puts nu/alpha on the r = 2 lattice point)
        lead = (-1.0) ** k / math.factorial(k)
        log_la = a * math.log(lam)
        pairs: list[tuple[float, float]] = []
        for r, lg_den, ratio in zip(range(R + 1), _lgamma_row(nu, 1.0), _falling_row(a, k)):
            if ratio == 0.0:
                continue
            mag = math.exp(r * log_la - lg_den)
            pairs.append(((1.0 - rho) * lead * mag * ratio, nu * r))
        if rho != 0.0:
            scale = rho * T ** (-nu / a)
            if k == 0:
                pairs.append((rho, 0.0))
            delta = 1.0 if k == 0 else 0.0
            pairs.append((scale * (tbl_T[k] - delta), nu / a))
        lhs = caputo_derivative_series(PowerSeriesInT.build(pairs), nu, t)

    rhs = -la * frac_difference(tbl_t, a, k)
    if rho != 0.0:
        # Caputo weight of the activation profile t^(nu/alpha)
        gfac = gamma_ratio_signed(nu / a + 1.0, nu / a - nu + 1.0)
        delta = 1.0 if k == 0 else 0.0
        rhs += la * rho * (1.0 - frac) * (-1.0) ** k * gen_binom(a, k)
        rhs += rho * frac * (
            la * frac_difference(tbl_T, a, k)
            + t ** (-nu) * gfac * (tbl_T[k] - delta)
        )
    return abs(lhs - rhs)
