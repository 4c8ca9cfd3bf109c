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
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import CancellationLoss, DomainError, NonConvergent
from .fracops import (
    PowerSeriesInT,
    _caputo_quadrature,
    caputo_derivative_series,
    frac_difference,
)
from .pmftable import PmfTable, _branch_table, _branch_transform, _check_index, _live_levels
from .specfun import (
    _COLS,
    _CORE_ABS_GUARD,
    _block,
    _cancelled,
    _error_estimate,
    _exp_or_inf,
    _series_passes,
    _weights,
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
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"rate must be positive, got {self.lam}")
        if not 0.0 < self.T < math.inf:
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


# terms r = 0..140 of the running branch's power series in the series route
# of governing_residual, before its tail check may extend it
_SERIES_TERMS = 141

_LEAD = np.array([(-1.0) ** k / math.factorial(k) for k in range(171)])  # (-1)^k / k!; 171! is past a double


def _count_series(
    params: StfpParams, s: np.ndarray, ks, *, lifted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Uncoupled pmf entry k at elapsed time s for every k in ks and point of
    s, and the absolute error bound of each, both of shape (len(ks), len(s)):
    the one evaluator of the STFP count series
    (-1)^k/k! sum_r (lam^alpha s^nu)^r / Gamma(nu r + 1) * (falling row of k),
    summed by specfun._series_passes from the cached specfun._weights blocks;
    a one-pass K = 40 table at one time spends ~110 us in it, 40 us around it.

    A point is refused for a partial sum that is not finite (an overflowing
    power included), no stop within the term budget, and, unless lifted, a
    max term past the cancellation limit times the sum or an absolute error
    past _CORE_ABS_GUARD; the first refused point in row-major order (k,
    then s) raises.  A lifted caller holds the entries to its own bound.
    """
    s, ks = np.asarray(s, dtype=float), list(ks)
    n_s, zero = len(s), s == 0.0
    # log of lam^alpha * s^nu, kept in log space so large r stays finite
    log_s = np.fromiter(map(math.log, np.where(zero, 1.0, s).tolist()), float, n_s)
    log_x = params.alpha * math.log(params.lam) + params.nu * log_s
    points = np.tile(~zero, len(ks)).nonzero()[0]

    def label(p):
        return f"count series (k={ks[p // n_s]}, s={float(s[p % n_s])})"

    n_lead = next((i for i, k in enumerate(ks) if k >= len(_LEAD)), len(ks))
    n_sum = np.searchsorted(points, n_lead * n_s)
    total, peak, last, used, stopped, lost, refusal = _series_passes(
        log_x, None, params.nu, (params.alpha, np.array(ks[:n_lead], dtype=int)), points[:n_sum], label)
    if refusal is None and n_sum < points.size:
        p = points[n_sum]
        refusal = NonConvergent(f"{label(p)}: {ks[p // n_s]}! overflows a double")
    with np.errstate(all="ignore"):
        lead = _LEAD[ks[:n_lead]][stopped // n_s]
        err = np.abs(lead) * _error_estimate(last[stopped], peak[stopped], used[stopped])
        fail = np.zeros_like(lost) if lifted else lost | (err > _CORE_ABS_GUARD)
    if fail.any():  # a stopped sum before the first refused point fails its checks
        i = fail.argmax()
        p = stopped[i]
        if lost[i]:
            raise _cancelled(label(p), peak[p], total[p])
        raise CancellationLoss(
            f"pmf entry k={ks[p // n_s]} at s={float(s[p % n_s])} carries absolute error "
            f"~{err[i]:.2e}; no trustworthy digits at probability scale"
        )
    if refusal is not None:
        raise refusal
    out, bound = np.zeros((2, len(ks), n_s))
    out[np.equal(ks, 0)] = zero  # a point mass at 0 where s = 0
    out.reshape(-1)[stopped], bound.reshape(-1)[stopped] = lead * total[stopped], err
    return out, bound


def pgf(params: StfpParams, t: float, u: float) -> float:
    """Probability generating function at time t, |u| <= 1.

    Mixture of the terminal transform (held branch) and the running
    transform (independent branch); returns exactly 1.0 at u = 1.
    """
    _check_time(params, t)
    if not -1.0 <= u <= 1.0:
        raise DomainError(f"pgf argument must lie in [-1,1], got {u}")
    if u == 1.0:
        return 1.0
    a, nu, lam = params.alpha, params.nu, params.lam
    w = (1.0 - u) ** a
    return _branch_transform(lambda s: mittag_leffler(nu, 1.0, -(lam**a) * (s**nu) * w).value,
                             t, params.T, F_stfp(params, t), params.rho)


def pmf(params: StfpParams, t: float, K: int) -> PmfTable:
    """Probability table P(count = k) for k = 0..K at time t.

    Assembled as (1-rho) * running + rho * [(1-F) at zero + F * terminal].
    tail_mass is reported, never renormalized: for alpha < 1 the tail is
    heavy and silently pushing it back into the head would corrupt any
    downstream comparison.
    """
    _check_time(params, t)
    _check_index(K, "truncation index")
    frac = F_stfp(params, t)
    live = _live_levels(t, params.T, frac, params.rho)
    cols = _count_series(params, live, range(K + 1))[0].T  # one series call over the live levels
    return _branch_table(dict(zip(live, cols)), t, params.T, frac, params.rho, K)


def joint_prob_kps(nu: float, lam: float, T: float, t: float) -> float:
    """P(one event by t, one by T) under renewal-style chaining.

    Product of the one-event weight on [0, t] and a no-further-event hold
    over (t, T]; time-fractional only, no space thinning enters.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"time index must lie in (0,1], got {nu}")
    if not (0.0 < lam < math.inf and 0.0 < T < math.inf):
        raise DomainError("rate and horizon must be positive")
    if not 0.0 <= t <= T:
        raise DomainError(f"t={t} outside [0, {T}]")
    x = lam * t**nu
    one_event = x * gen_mittag_leffler(nu, nu + 1.0, 2.0, -x).value
    hold = mittag_leffler(nu, 1.0, -lam * (T - t) ** nu).value
    return one_event * hold


def joint_prob_brb(params: StfpParams, t: float) -> float:
    """P(one event by t, one by T) for the pooled construction, rho = 0.

    Conditionally on a single terminal event the epoch is uniform on the
    time-changed scale, so the joint factors as (t/T) * P(one by T).
    """
    if params.rho != 0.0:
        raise DomainError("joint law implemented for the uncoupled case rho=0 only")
    _check_time(params, t)
    nu, lam, T = params.nu, params.lam, params.T
    x = lam * T**nu
    one_at_horizon = x * gen_mittag_leffler(nu, nu + 1.0, 2.0, -x).value
    return (t / T) * one_at_horizon


def governing_residual(params: StfpParams, t: float, k: int, method: str = "series") -> float:
    """|LHS - RHS| of the fractional balance equation at (t, k).

    The left side is the time-fractional Caputo derivative of P(count = k):
    method "series" applies the exact termwise rule to the power-series
    representation, _SERIES_TERMS powers and then as many more as it takes
    for the last kept term at t to fall below the series tolerance times the
    partial sum (NonConvergent if none within the term budget); method "quadrature"
    integrates the derivative of the assembled pmf directly, with the count
    series summed at every stencil point, and is the coarser cross-check
    (fractional orders only).  The right side is assembled from the
    fractional backward difference in k, the coupling source terms, and the
    table at the horizon.  Small residuals certify the closed forms against
    each other.
    """
    return _governing_residuals(params, t, [k], method)[0]


def _governing_residuals(params: StfpParams, t: float, ks, method: str) -> list[float]:
    """governing_residual at every k of ks, each with the bits of its own
    call, from one pair of tables and, on the quadrature route, one stencil
    call over all of ks.  A refusal raises what the call for the first k
    refused on its own raises."""
    ks = list(ks)
    if not 0.0 < t <= params.T:
        raise DomainError(f"t={t} outside (0, {params.T}]")
    for k in ks:
        _check_index(k, "count index")
    if method not in ("series", "quadrature"):
        raise DomainError(f"method must be 'series' or 'quadrature', got {method!r}")
    try:
        return _residuals(params, t, ks, method)
    except ArithmeticError:
        for k in ks[:-1]:  # raises at the first k refused on its own, if not the last
            _residuals(params, t, [k], method)
        raise


def _residuals(params: StfpParams, t: float, ks: list[int], method: str) -> list[float]:
    a, nu, lam, T, rho = params.alpha, params.nu, params.lam, params.T, params.rho
    la = lam**a
    frac, K = F_stfp(params, t), max(ks)
    # the live levels at t, and T for the horizon table where rho weighs it, in one series call
    levels = _live_levels(t, T, frac, rho)
    levels += [T] * (rho != 0.0 and T not in levels)
    cols = dict(zip(levels, _count_series(params, levels, range(K + 1))[0].T))
    tbl_t = _branch_table(cols, t, T, frac, rho, K)
    tbl_T = _branch_table(cols, T, T, 1.0, rho, K) if rho != 0.0 else None

    if method == "quadrature":
        delta = np.equal(ks, 0)[:, None] * 1.0
        held = np.array([tbl_T[k] if rho != 0.0 else 0.0 for k in ks])[:, None]
        expo = nu / a

        def probs_at(s: np.ndarray) -> np.ndarray:
            # one row of pmf entries per k at every stencil point at once; F_stfp per point
            running = _count_series(params, s, ks)[0] if rho != 1.0 else 0.0  # weight 1 - rho
            hold = np.array([x**expo for x in (s / T).tolist()])
            return (1.0 - rho) * running + rho * ((1.0 - hold) * delta + hold * held)

        lhs = _caputo_quadrature(probs_at, nu, t)
    else:
        lhs = [_series_lhs(params, t, k, tbl_T) for k in ks]

    out = []
    for k, left in zip(ks, lhs):
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
        out.append(abs(left - rhs))
    return out


def _series_lhs(params: StfpParams, t: float, k: int, tbl_T) -> float:
    # Caputo derivative at t of the power series in t of P(count = k):
    # exponents nu*r from the running branch plus nu/alpha from the coupling
    # weight (build() merges any collision, e.g. alpha = 1/2 puts nu/alpha on
    # the r = 2 lattice point)
    a, nu, T, rho = params.alpha, params.nu, params.T, params.rho
    lead = (-1.0) ** k / math.factorial(k)
    log_la = a * math.log(params.lam)
    pairs: list[tuple[float, float]] = []
    at_t: list[float] = []
    partial = None  # the sum at t, once the first _SERIES_TERMS are in
    # lgamma(nu r + 1) and the falling weight of k (column k of the weight
    # blocks) at each r, walked block by block
    rows = enumerate(itertools.chain.from_iterable(
        zip(_block(nu, 1.0, i), _weights(a, k - k % _COLS, i)[0][:, k % _COLS].tolist()) for i in itertools.count()))
    for r, (lg_den, ratio) in rows:
        if r >= _SERIES_TERMS:
            tail = abs(at_t[-1]) if at_t else 0.0
            partial = math.fsum(at_t) if partial is None else partial
            if not tail > specfun._REL_TOL * abs(partial):
                break
            if r >= specfun._MAX_TERMS:
                raise NonConvergent(
                    f"residual series (k={k}, t={t}): {r} terms leave a tail of ~{tail:.2e}"
                )
        if ratio == 0.0:
            continue
        mag = _exp_or_inf(r * log_la - lg_den)
        if mag == math.inf:
            raise NonConvergent(f"residual series (k={k}, t={t}): term r={r} overflows")
        pairs.append(((1.0 - rho) * lead * mag * ratio, nu * r))
        at_t.append(pairs[-1][0] * t ** pairs[-1][1])
        if partial is not None:
            partial += at_t[-1]
    if rho != 0.0:
        scale = rho * T ** (-nu / a)
        if k == 0:
            pairs.append((rho, 0.0))
        delta = 1.0 if k == 0 else 0.0
        pairs.append((scale * (tbl_T[k] - delta), nu / a))
    return caputo_derivative_series(PowerSeriesInT.build(pairs), nu, t)
