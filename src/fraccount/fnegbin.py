"""Correlated fractional negative binomial process on a finite horizon.

The terminal count follows a fractional negative binomial law with success
probability p; interior times see a success level q(t) that decays from 1
at t = 0 down to p at the horizon.  A coupling weight rho mixes the running
law with a held copy of the terminal law; tables and transforms are
assembled by the branch-mixture helpers in pmftable, as in the
space-time-fractional module.  The r = 1 pmf has a closed form built from
signed Stirling numbers and Fox-Wright sums; larger r is exposed through
the generating function only.  The Fox-Wright sum of Stirling order
h does not depend on the count k, so a table keeps one row of them per
success level and grows it lazily, one new sum per entry.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

from .errors import CancellationLoss, DomainError, InvalidProfile, UnsupportedR
from .fracops import OperatorOAlphaSpec, operator_O_alpha_quadrature
from .pmftable import PmfTable, _branch_table, _branch_transform
from .specfun import (
    _CORE_ABS_GUARD,
    DEFAULT_CONFIG,
    FoxWrightSpec,
    SeriesValue,
    SpecfunConfig,
    fox_wright,
    mittag_leffler,
    stirling_first,
)

__all__ = [
    "Example31Profile",
    "TableProfile",
    "NegBinParams",
    "F_negbin",
    "pgf_negbin",
    "pmf_negbin_r1",
    "operator_residual_prop33",
]

# float conversion of row k needs |s(k,h)| <= k! below the double ceiling
_STIRLING_DEPTH = 170

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
        object.__setattr__(self, "points", pts)
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

    def value(self, t: float, T: float) -> float:
        pts = self.points
        if t < pts[0][0] or t > pts[-1][0]:
            raise InvalidProfile(f"t={t} outside sampled range [{pts[0][0]}, {pts[-1][0]}]")
        for (t0, q0), (t1, q1) in zip(pts, pts[1:]):
            if t <= t1:
                w = (t - t0) / (t1 - t0)
                return q0 + w * (q1 - q0)
        return pts[-1][1]


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
        if not self.T > 0.0:
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
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t={t} outside [0, {self.T}]")
        return self.q_profile.value(t, self.T)


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


def _core_pgf(level: float, alpha: float, nu: float, r: int, u: float,
              cfg: SpecfunConfig) -> float:
    x = (1.0 - (1.0 - level) * u) / level
    if x <= 0.0:
        raise DomainError(f"transform argument {u} outside radius {_radius(level)}")
    base = mittag_leffler(nu, 1.0, -_signed_log_power(x, alpha), cfg).value
    return base**r


def pgf_negbin(
    params: NegBinParams, t: float, u: float, cfg: SpecfunConfig | None = None
) -> float:
    """Probability generating function at time t.

    Radius of convergence is set by the terminal success level once the held
    branch is active (rho > 0) and by q(t) otherwise; the continuation above
    u = 1 is taken with the signed log power, which is what the operator
    equations act on.  Returns exactly 1.0 at u = 1.
    """
    cfg = cfg or DEFAULT_CONFIG
    rho = params.rho
    qt = params.q(t)
    frac = F_negbin(params, t) if rho > 0.0 else 0.0
    # only branches with nonzero weight constrain the radius (at t=0 the
    # held branch has weight rho*F = 0 and the pgf is entire)
    bound = math.inf
    if rho < 1.0:
        bound = min(bound, _radius(qt))
    if rho * frac > 0.0:
        bound = min(bound, _radius(params.p))
    if not abs(u) < bound:
        raise DomainError(f"|u|={abs(u)} outside radius {bound}")
    if u == 1.0:
        return 1.0
    a, nu, r = params.alpha, params.nu, params.r

    def transform(level: float) -> Callable[[], float]:
        return lambda: _core_pgf(level, a, nu, r, u, cfg)

    held = None if qt == params.p else transform(params.p)
    return _branch_transform(transform(qt), held, frac, rho)


def _core_pmf(level: float, alpha: float, nu: float,
              cfg: SpecfunConfig) -> Iterator[float]:
    """Single-component pmf at success level q = level, for k = 0, 1, 2, ...

    k = 0 is a plain Mittag-Leffler value; k >= 1 pairs signed Stirling
    numbers s(k, h) with the Fox-Wright sums psi_1..psi_k.  psi_h depends on
    h, the level and the indices but not on k, so the generator keeps one
    row of them and grows it lazily: entry k sums psi_k on first request
    and reuses psi_1..psi_{k-1}, k sums for a K-table instead of K(K+1)/2.
    The prefactor is assembled in log space with its sign carried
    separately.

    The individual Fox-Wright sums lose relative precision as k grows (their
    terms alternate by construction), but the loss is structural and bounded:
    after the (1-q)^k/k! prefactor the assembled entry stays accurate in
    absolute terms far past k = 100 at ordinary parameters.  The per-series
    relative ceiling is therefore lifted here and replaced by an absolute
    error budget accumulated from the series diagnostics; an entry that
    exceeds it raises CancellationLoss and ends the stream.
    """
    if level >= 1.0:
        yield 1.0
        while True:
            yield 0.0
    big_l = -math.log(level)  # log(1 + A) for A = 1/q - 1
    z = -(big_l**alpha)
    yield mittag_leffler(nu, 1.0, z, cfg).value
    loose = replace(cfg, cancellation_limit=1e300)
    row: list[SeriesValue] = []
    for k in itertools.count(1):
        spec = FoxWrightSpec(
            upper=((1.0, alpha), (1.0, 1.0)),
            lower=((1.0 - k, alpha), (1.0, nu)),
        )
        row.append(fox_wright(spec, z, loose))
        pieces = []
        err = 0.0
        for h, psi in enumerate(row, start=1):
            w = float(stirling_first(k, h, cap=_STIRLING_DEPTH)) * big_l ** (-h)
            pieces.append(w * psi.value)
            err += abs(w) * psi.abs_error_estimate
        # (1/k!) * ((-A)/(1+A))^k with A/(1+A) = 1 - level
        log_pref = k * math.log(1.0 - level) - math.lgamma(k + 1.0)
        pref = math.exp(log_pref)
        err += len(pieces) * sys.float_info.epsilon * max(abs(x) for x in pieces)
        if pref * err > _CORE_ABS_GUARD:
            raise CancellationLoss(
                f"pmf entry k={k} carries absolute error ~{pref * err:.2e}; "
                "no trustworthy digits at probability scale"
            )
        yield (-1.0) ** k * pref * math.fsum(pieces)


def pmf_negbin_r1(
    params: NegBinParams, t: float, K: int, cfg: SpecfunConfig | None = None
) -> PmfTable:
    """Probability table for the shape-1 process at time t, k = 0..K.

    Only r = 1 has a manageable closed form; larger shapes go through the
    generating function (or a convolution of shape-1 tables).  Each branch
    reads one lazily grown Fox-Wright row; the held branch reuses the
    running branch's entries when q(t) equals p (t = T), and a branch of
    weight 0 is not evaluated (the held one at t = 0).
    """
    if params.r != 1:
        raise UnsupportedR(f"closed-form pmf exists for shape 1 only, got r={params.r}")
    if K < 0:
        raise DomainError(f"truncation index must be >= 0, got {K}")
    cfg = cfg or DEFAULT_CONFIG
    rho = params.rho
    qt = params.q(t)
    frac = F_negbin(params, t) if rho > 0.0 else 0.0
    held = None if qt == params.p else _core_pmf(params.p, params.alpha, params.nu, cfg)
    return _branch_table(_core_pmf(qt, params.alpha, params.nu, cfg), held, frac, rho, K)


def operator_residual_prop33(
    params: NegBinParams,
    t: float,
    rho: float,
    u: float,
    cfg: SpecfunConfig | None = None,
) -> float:
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
    cfg = cfg or DEFAULT_CONFIG
    work = replace(params, rho=rho)
    level = params.p if rho == 1.0 else params.q(t)
    if not 1.0 < u < _radius(level):
        raise DomainError(f"u={u} outside (1, {_radius(level)})")
    op = OperatorOAlphaSpec(alpha=params.alpha, a=1.0 / level, b=(level - 1.0) / level)
    lhs = operator_O_alpha_quadrature(op, lambda v: pgf_negbin(work, t, v, cfg), u)
    rhs = -pgf_negbin(work, t, u, cfg)
    if rho == 1.0:
        rhs += 1.0 - F_negbin(params, t)
    return abs(lhs - rhs)
