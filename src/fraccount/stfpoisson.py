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
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CancellationLoss, DomainError
from .fracops import (
    PowerSeriesInT,
    _caputo_quadrature,
    caputo_derivative_series,
    frac_difference,
)
from .pmftable import PmfTable, _branch_table, _branch_transform
from .specfun import (
    _CORE_ABS_GUARD,
    _EPS,
    _EXP_MAX,
    _TINY,
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
    This is the one-point route the pmf tables use; _core_pmf_many sums the
    same series at many points with the same bits.
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


def _core_stream(params: StfpParams, s: float, cfg: SpecfunConfig) -> Iterator[float]:
    # _core_pmf at elapsed time s for k = 0, 1, 2, ..., summed on request
    return (_core_pmf(params, s, k, cfg) for k in itertools.count())


_SERIES_CHUNK = 16  # columns added per pass of the many-point count series


def _core_pmf_many(params: StfpParams, s: np.ndarray, k: int, cfg: SpecfunConfig) -> np.ndarray:
    """_core_pmf at every point of the array s, summed for all points at once.

    Columns of the shared coefficient rows are added in chunks, only for the
    points whose stop rule has not fired, and np.cumsum carries each partial
    sum on in order: every point's sum is the sequential sum _sum_series
    forms, with each term formed by math.exp as in the scalar route.  If any
    point would exhaust max_terms, meet a non-finite or overflowing term or
    fail a cancellation check, the scalar route is run over the points in
    order instead, so the refusal is that route's own.
    """
    out = np.full(len(s), 1.0 if k == 0 else 0.0)
    idx = np.flatnonzero(s != 0.0)
    if not idx.size:
        return out
    a, nu = params.alpha, params.nu
    log_x = a * math.log(params.lam) + nu * np.array([math.log(x) for x in s[idx].tolist()])
    lead = (-1.0) ** k / math.factorial(k)
    rows = _lgamma_row(nu, 1.0), _falling_row(a, k)
    total, max_mag, last_mag, used = (np.zeros(len(idx)) for _ in range(4))
    runs = np.zeros((len(idx), 2), dtype=bool)  # are the last two terms small?
    live = np.arange(len(idx))
    lo = 0
    with np.errstate(all="ignore"):
        while live.size:
            if lo == cfg.max_terms:
                return _core_pmf_points(params, s, k, cfg)
            hi = min(lo + _SERIES_CHUNK, cfg.max_terms)
            lg_den, ratio = (np.fromiter(itertools.islice(row, hi - lo), float, hi - lo) for row in rows)
            arg = np.arange(lo, hi) * log_x[live, None] - lg_den
            # math.exp raises past ~709.78; the scalar route settles those terms
            over = (arg > _EXP_MAX) & (ratio != 0.0)
            arg[over] = 0.0
            scale = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
            term = np.where(ratio == 0.0, 0.0, scale.reshape(arg.shape) * ratio)
            term[over] = math.inf
            partial = np.cumsum(np.hstack([total[live, None], term]), axis=1)[:, 1:]
            mag = np.abs(term)
            small = np.hstack([runs[live], mag < cfg.rel_tol * np.abs(partial)])
            # the sum stops at the third small term in a row
            stop = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
            done = stop.any(axis=1)
            col = np.where(done, stop.argmax(axis=1), hi - lo - 1)  # last term summed
            summed = np.arange(hi - lo) <= col[:, None]
            if not np.isfinite(term[summed]).all():
                return _core_pmf_points(params, s, k, cfg)
            max_mag[live] = np.maximum(max_mag[live], np.where(summed, mag, 0.0).max(axis=1))
            total[live] = partial[np.arange(live.size), col]
            last_mag[live] = mag[np.arange(live.size), col]
            used[live] = lo + col + 1
            runs[live] = small[:, -2:]
            live = live[~done]
            lo = hi
        err = abs(lead) * (2.0 * last_mag + _EPS * max_mag * used)
        if (max_mag / np.maximum(np.abs(total), _TINY) > cfg.cancellation_limit).any() or (
            err > _CORE_ABS_GUARD
        ).any():
            return _core_pmf_points(params, s, k, cfg)
    out[idx] = lead * total
    return out


def _core_pmf_points(params: StfpParams, s: np.ndarray, k: int, cfg: SpecfunConfig) -> np.ndarray:
    return np.array([_core_pmf(params, x, k, cfg) for x in s.tolist()])


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
    a, nu, lam, T = params.alpha, params.nu, params.lam, params.T
    w = (1.0 - u) ** a

    def transform(s: float) -> Callable[[], float]:
        return lambda: mittag_leffler(nu, 1.0, -(lam**a) * (s**nu) * w, cfg).value

    held = None if t == T else transform(T)
    return _branch_transform(transform(t), held, F_stfp(params, t), params.rho)


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
    held = None if t == params.T else _core_stream(params, params.T, cfg)
    return _branch_table(_core_stream(params, t, cfg), held, F_stfp(params, t), params.rho, K)


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
    # the held branch at t and both branches at T read one terminal stream;
    # the t table comes first, summing each terminal series after the running
    # one of the same k, and at rho = 0 no terminal table is built
    held_t, held_T = itertools.tee(_core_stream(params, T, cfg))
    tbl_t = _branch_table(_core_stream(params, t, cfg), None if t == T else held_t, frac, rho, k)
    tbl_T = None
    if rho != 0.0:
        tbl_T = tbl_t if t == T else _branch_table(held_T, None, 1.0, rho, k)

    if method == "quadrature":
        delta = 1.0 if k == 0 else 0.0
        held = tbl_T[k] if rho != 0.0 else 0.0
        expo = nu / a

        def prob_at(s: np.ndarray) -> np.ndarray:
            # the pmf entry at every stencil point at once; F_stfp per point
            running = _core_pmf_many(params, s, k, cfg)
            hold = np.array([x**expo for x in (s / T).tolist()])
            return (1.0 - rho) * running + rho * ((1.0 - hold) * delta + hold * held)

        lhs = _caputo_quadrature(prob_at, nu, t)
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
