"""Correlated fractional negative binomial process on a finite horizon.

The terminal count follows a fractional negative binomial law with success
probability p; interior times see a success level q(t) that decays from 1
at t = 0 down to p at the horizon.  A coupling weight rho mixes the running
law with a held copy of the terminal law; tables and transforms are
assembled by the branch-mixture helpers in pmftable, as in the
space-time-fractional module.  The r = 1 pmf at success level q is the
STFP count at rate -log q and time 1 with logarithmic jumps, so its table
is read from the one STFP count-series evaluator; larger r is exposed
through the generating function only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CancellationLoss, CountingProcessError, DomainError, InvalidProfile, OutOfRange, UnsupportedR
from .fracops import OperatorOAlphaSpec, _operator_quadrature
from .pmftable import PmfTable, _branch_table, _branch_transform, _check_index, _exact_row_sums, _live_levels
from .specfun import (
    _CORE_ABS_GUARD,
    _EPS,
    STIRLING_CAP,
    _mittag_leffler_many,
    mittag_leffler,
)
from .stfpoisson import StfpParams, _count_series

__all__ = [
    "Example31Profile",
    "TableProfile",
    "NegBinParams",
    "F_negbin",
    "pgf_negbin",
    "pmf_negbin_r1",
    "operator_residual_prop33",
]

# grid resolution for profile monotonicity/range validation
_PROFILE_GRID = 33

_PROFILE_TOL = 1e-12


@dataclass(frozen=True)
class Example31Profile:
    """Success schedule q(t) = (1-m)/(1-(1-t/T)m) for a mixing weight m.

    Starts at 1, decays to 1-m at the horizon; pairs with p = 1-m to make
    the activation profile exactly linear in t.
    """

    lambda_mix: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_mix < 1.0:
            raise DomainError(f"mixing weight must lie in (0,1), got {self.lambda_mix}")

    def value(self, t: float, T: float) -> float:
        m = self.lambda_mix
        return (1.0 - m) / (1.0 - (1.0 - t / T) * m)


@dataclass(frozen=True)
class TableProfile:
    """Success schedule interpolated linearly through (t_i, q_i) samples.

    Linear interpolation preserves monotonicity and the (0, 1] range, which
    is all the construction requires of a schedule.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(q)) for t, q in self.points)
        if len(pts) < 2:
            raise InvalidProfile("need at least two sample points")
        for (t0, q0), (t1, q1) in zip(pts, pts[1:]):
            if t1 <= t0:
                raise InvalidProfile("sample times must be strictly increasing")
            if q1 > q0 + _PROFILE_TOL:
                raise InvalidProfile("success schedule must be non-increasing")
        for _, q in pts:
            if not 0.0 < q <= 1.0 + _PROFILE_TOL:
                raise InvalidProfile(f"success values must lie in (0,1], got {q}")
        object.__setattr__(self, "points", tuple((t, min(q, 1.0)) for t, q in pts))  # a level past 1 is 1

    def value(self, t: float, T: float) -> float:
        pts = self.points
        if not pts[0][0] <= t <= pts[-1][0]:
            raise InvalidProfile(f"t={t} outside sampled range [{pts[0][0]}, {pts[-1][0]}]")
        for (t0, q0), (t1, q1) in zip(pts, pts[1:]):
            if t <= t1:
                w = (t - t0) / (t1 - t0)
                return q0 + w * (q1 - q0)


QProfile = Example31Profile | TableProfile


@dataclass(frozen=True)
class NegBinParams:
    """Parameter bundle: terminal success p, shape r, space index alpha,
    time index nu, coupling weight rho, horizon T, and the success
    schedule q(t).  The implied rate is -log p, never a free input."""

    p: float
    r: int
    alpha: float
    nu: float
    rho: float
    T: float
    q_profile: QProfile

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"success probability must lie in (0,1), got {self.p}")
        if not (isinstance(self.r, int) and self.r >= 1):
            raise DomainError(f"shape must be a positive integer, got {self.r}")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"space index must lie in (0,1], got {self.alpha}")
        if not 0.0 < self.nu <= 1.0:
            raise DomainError(f"time index must lie in (0,1], got {self.nu}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"coupling weight must lie in [0,1], got {self.rho}")
        if not 0.0 < self.T < math.inf:
            raise DomainError(f"horizon must be positive, got {self.T}")
        qT = self.q_profile.value(self.T, self.T)
        if abs(qT - self.p) > _PROFILE_TOL:
            raise InvalidProfile(
                f"schedule ends at q(T)={qT}, inconsistent with p={self.p}"
            )
        prev = None
        for i in range(_PROFILE_GRID):
            t = self.T * i / (_PROFILE_GRID - 1)
            q = self.q_profile.value(t, self.T)
            if not 0.0 < q <= 1.0 + _PROFILE_TOL:
                raise InvalidProfile(f"q({t})={q} outside (0,1]")
            if prev is not None and q > prev + _PROFILE_TOL:
                raise InvalidProfile(f"success schedule increases near t={t}")
            prev = q

    def q(self, t: float) -> float:
        """The success level at t; a level below p + _PROFILE_TOL reads as p
        (as TableProfile reads a level past 1 as 1), so F_negbin <= 1."""
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t={t} outside [0, {self.T}]")
        level = self.q_profile.value(t, self.T)
        return self.p if level - self.p <= _PROFILE_TOL else level


def F_negbin(params: NegBinParams, t: float) -> float:
    """Activation profile (1/q(t) - 1)/(1/p - 1): 0 at t=0 and 1 at t=T."""
    q0 = params.q_profile.value(0.0, params.T)
    if abs(q0 - 1.0) > _PROFILE_TOL:
        raise InvalidProfile(f"schedule must start at 1 for the profile to vanish, q(0)={q0}")
    qt = params.q(t)
    return (1.0 / qt - 1.0) / (1.0 / params.p - 1.0)


def _signed_log_power(x: float, alpha: float) -> float:
    # real continuation of log(x)**alpha across x = 1; odd in log x, so the
    # generating function extends smoothly beyond argument 1
    w = math.log(x)
    if w == 0.0:
        return 0.0
    return math.copysign(abs(w) ** alpha, w)


def _radius(level: float) -> float:
    return math.inf if level >= 1.0 else 1.0 / (1.0 - level)


def _core_arg(level: float, alpha: float, u: float) -> float:
    # the Mittag-Leffler argument of the core transform at u: exactly 0 at
    # u = 1, which the formula can miss by a rounding at a small level
    if u == 1.0:
        return 0.0
    x = (1.0 - (1.0 - level) * u) / level
    if x <= 0.0:
        raise DomainError(f"transform argument {u} outside radius {_radius(level)}")
    return -_signed_log_power(x, alpha)


def pgf_negbin(params: NegBinParams, t: float, u: float) -> float:
    """Probability generating function at time t.

    |u| must lie below the radius of convergence of every branch of nonzero
    weight: 1/(1 - q(t)) for the running branch, 1/(1 - p) for the held one
    (weight rho*F, so at t = 0 the held branch sets no radius).  The
    continuation above u = 1 is taken with the signed log power, which is
    what the operator equations act on.  Returns exactly 1.0 at u = 1.
    """
    rho, qt = params.rho, params.q(t)
    frac = F_negbin(params, t) if rho > 0.0 else 0.0
    bound = _radius(min(_live_levels(qt, params.p, frac, rho), default=1.0))  # the radius grows with the level
    if not abs(u) < bound:
        raise DomainError(f"|u|={abs(u)} outside radius {bound}")
    if u == 1.0:
        return 1.0
    a, nu, r = params.alpha, params.nu, params.r
    return _branch_transform(lambda level: mittag_leffler(nu, 1.0, _core_arg(level, a, u)).value ** r,
                             qt, params.p, frac, rho)


def _core_pmf(levels: list[float], alpha: float, nu: float, K: int) -> np.ndarray:
    """Single-component pmf for k = 0..K down, one column per success level q.

    A geometric law is Poisson(L) with log-series jumps, L = -log q: so is
    this law, with the STFP count at rate L and time 1 in place of the
    Poisson one.  With c = 1 - q and P_h that count's entries, p_0 = P_0 and
    p_k = c^k/k! sum_{h=1..k} |s(k, h)| h! L^(-h) P_h over h = 0..K.  The
    weights w_kh lie in [0, 1] and follow the unsigned Stirling recurrence,
    so every term has one sign and all cancellation stays inside P_h, whose
    own checks are lifted: every entry is held to _CORE_ABS_GUARD through
    sum_h w_kh err_h plus rounding, each sum by _exact_row_sums.  The first
    refused entry in (k, branch) order raises, a refused count series at its
    branch's k = 0; then entries past STIRLING_CAP raise OutOfRange.
    """
    if min(levels, default=1.0) >= 1.0:  # q(t) = 1 makes F = 0: the running branch alone, or none
        return np.eye(K + 1, 1)
    n, series = min(K, STIRLING_CAP) + 1, []
    try:
        for level in levels:
            series.append(_count_series(StfpParams(alpha, nu, -math.log(level), 1.0), [1.0], range(n), lifted=True))
    except CountingProcessError:
        if series:  # the held series: the running k = 0 entry comes first
            _core_pmf(levels[:1], alpha, nu, 0)
        raise
    probs, errs = np.array(series)[..., 0].swapaxes(0, 1)  # (level, h) each
    big_l, c = np.array([[-math.log(q), 1.0 - q] for q in levels]).T[..., None]
    w = np.zeros((n, len(levels), n))  # w[k, b]: the weights of entry k, 0 past h = k
    w[0, :, 0], hs = 1.0, np.arange(1, n)
    for k in range(n - 1):  # w_{k+1,h} = c/(k+1) (w_{k,h-1} h/L + k w_{k,h})
        w[k + 1, :, 1:] = c / (k + 1) * (w[k, :, :-1] * hs / big_l + k * w[k, :, 1:])
    p = _exact_row_sums((w * probs).reshape(-1, n)).reshape(n, -1)
    # each weight carries about three roundings a step of the recurrence
    err = _exact_row_sums((w * errs).reshape(-1, n)).reshape(n, -1) + (3 * np.arange(n)[:, None] + 1) * _EPS * np.abs(p)
    if not (ok := err <= _CORE_ABS_GUARD).all():  # nan fails: math.fsum raises that sum's refusal below
        k, b = divmod(int(ok.argmin()), len(levels))
        math.fsum((w[k, b] * probs[b]).tolist()), math.fsum((w[k, b] * errs[b]).tolist())
        raise CancellationLoss(f"pmf entry k={k} carries absolute error ~{err[k, b]:.2e}; "
                               "no trustworthy digits at probability scale")
    if K >= n:
        raise OutOfRange(f"k must be in [0, {STIRLING_CAP}], got {n}")
    return p


def pmf_negbin_r1(params: NegBinParams, t: float, K: int) -> PmfTable:
    """Probability table for the shape-1 process at time t, k = 0..K.

    Only r = 1 has a closed form here; larger shapes raise UnsupportedR
    and are reached through the generating function only.  The live
    branches are summed in one _core_pmf call; the held branch reuses the
    running branch's entries when q(t) equals p (t = T), and a branch of
    weight 0 is not summed (the held one at t = 0).
    """
    if params.r != 1:
        raise UnsupportedR(f"closed-form pmf exists for shape 1 only, got r={params.r}")
    _check_index(K, "truncation index")
    rho, qt = params.rho, params.q(t)
    frac = F_negbin(params, t) if rho > 0.0 else 0.0
    live = _live_levels(qt, params.p, frac, rho)
    cols = _core_pmf(live, params.alpha, params.nu, K).T
    return _branch_table(dict(zip(live, cols)), qt, params.p, frac, rho, K)


def operator_residual_prop33(params: NegBinParams, t: float, rho: float, u: float) -> float:
    """|LHS - RHS| of the generating-function operator equation at u.

    The log-kernel operator built from (a, b) = (1/level, (level-1)/level)
    acts on u -> pgf; level is the terminal success p when the pool is fully
    coupled (rho = 1) and the running q(t) when uncoupled (rho = 0).  The
    identity holds for matching space and time indices only, and only at
    the two coupling extremes; everything else is rejected rather than
    extrapolated.
    """
    if params.r != 1:
        raise UnsupportedR(f"operator identity stated for shape 1 only, got r={params.r}")
    if params.alpha != params.nu:
        raise DomainError("identity requires matching space and time indices")
    if rho not in (0.0, 1.0):
        raise DomainError(f"identity stated only for coupling 0 or 1, got {rho}")
    level = params.p if rho == 1.0 else params.q(t)
    if level == 1.0:  # the running level only (p < 1): the operator's map a + b z has b = 0
        raise DomainError(f"identity degenerates at success level 1: q({t})={level}")
    if not 1.0 < u < _radius(level):
        raise DomainError(f"u={u} outside (1, {_radius(level)})")

    def pgf_many(vs: np.ndarray) -> np.ndarray:
        # pgf_negbin's bits at every stencil point v <= u (v = 1 included): the
        # transform at level, mixed as held at rho = 1 (the scalar 1 while F = 0)
        frac = F_negbin(params, t) if rho == 1.0 else 0.0
        g = lambda lv: _mittag_leffler_many(params.nu, [_core_arg(lv, params.alpha, v) for v in vs.tolist()])
        return np.broadcast_to(_branch_transform(g, level, level, frac, rho), vs.shape)

    op = OperatorOAlphaSpec(alpha=params.alpha, a=1.0 / level, b=(level - 1.0) / level)
    lhs = _operator_quadrature(op, pgf_many, u)
    rhs = -pgf_negbin(replace(params, rho=rho), t, u)
    if rho == 1.0:
        rhs += 1.0 - F_negbin(params, t)
    return abs(lhs - rhs)
