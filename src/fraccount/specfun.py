"""Special-function engine.

Provides the series primitives the process modules are built on: the two- and
three-parameter Mittag-Leffler functions, generalized binomial coefficients, a
signed reciprocal gamma, and exact signed Stirling numbers of the first kind.
Fox-Wright sums are here too; no process module calls them.

Every infinite series here is summed the same way: each term is formed in log
space with an explicit sign, so terms never overflow before the sum settles,
and the result is returned together with its convergence diagnostics rather
than as a bare float.

Coefficients that do not depend on a series' argument live in rows computed
once per index set, grown lazily and kept in a small bounded cache: lgamma
lattice rows lgamma(slope*r + offset) for the Mittag-Leffler sums, signed
falling-factorial rows for the STFP count series.  A row holds the exact
expression a term would form inline, so the terms and sums are the same bits.

Sums over many arguments at once go through one array pass loop,
_series_passes, with two callers: the STFP count series
(stfpoisson._count_series, falling weight rows) and _mittag_leffler_many
(weight 1, a sign per point), which returns mittag_leffler's values bit for
bit.  The scalar mittag_leffler stays on _sum_series: a pass costs some
200 us whatever its width, against ~20 us for one scalar sum.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CancellationLoss,
    DomainError,
    InvalidSpec,
    NonConvergent,
    OutOfRange,
)

_TINY = 1e-300
_EPS = 2.220446049250313e-16
_EXP_MAX = 709.0  # log of the largest finite double, rounded down

# largest tolerated absolute error of one assembled pmf entry
_CORE_ABS_GUARD = 1e-12


@dataclass(frozen=True)
class SpecfunConfig:
    """Knobs of the series primitives (mittag_leffler, gen_mittag_leffler,
    fox_wright, _mittag_leffler_many) and of stfpoisson._count_series.  The
    process functions take no config and run at DEFAULT_CONFIG.

    rel_tol: relative tail bound that ends summation.
    max_terms: hard budget before giving up.
    cancellation_limit: largest tolerated ratio max|term| / |sum|.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10000
    cancellation_limit: float = 1e8

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidSpec(f"rel_tol must be in (0,1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise InvalidSpec(f"max_terms must be >= 1, got {self.max_terms}")
        if not self.cancellation_limit > 1.0:
            raise InvalidSpec(
                f"cancellation_limit must exceed 1, got {self.cancellation_limit}"
            )


DEFAULT_CONFIG = SpecfunConfig()


@dataclass(frozen=True)
class SeriesValue:
    """A converged series sum plus the diagnostics needed to trust it."""

    value: float
    abs_error_estimate: float
    terms_used: int
    max_term_magnitude: float


def _sum_series(terms, cfg: SpecfunConfig, what: str, *parts) -> SeriesValue:
    """Adaptive summation shared by all series.

    Stops after three consecutive terms that are strictly below
    rel_tol * |partial sum|; the strict inequality means an all-zero prefix
    (annihilated leading terms) never triggers a premature stop.  The label
    in error messages is what.format(*parts), formatted only on failure.
    """
    total = 0.0
    max_mag = 0.0
    last_mag = 0.0
    small_run = 0
    used = 0
    for term in terms:
        used += 1
        if used > cfg.max_terms:
            raise _no_convergence(what.format(*parts), cfg, total)
        if not math.isfinite(term):
            raise _not_finite(what.format(*parts), used)
        total += term
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        if mag < cfg.rel_tol * abs(total):
            small_run += 1
            last_mag = mag
            if small_run >= 3:
                break
        else:
            small_run = 0
    if max_mag / max(abs(total), _TINY) > cfg.cancellation_limit:
        raise _cancelled(what.format(*parts), max_mag, total)
    return SeriesValue(total, _error_estimate(last_mag, max_mag, used), used, max_mag)


# the refusals and error estimate of _sum_series, shared with the array sums
# of stfpoisson (numbers or arrays alike)
def _no_convergence(label: str, cfg: SpecfunConfig, total: float) -> NonConvergent:
    return NonConvergent(
        f"{label}: no convergence within {cfg.max_terms} terms (partial sum {total:.6g})"
    )


def _not_finite(label: str, used: int) -> NonConvergent:
    return NonConvergent(f"{label}: term {used} is not finite")


def _cancelled(label: str, max_mag: float, total: float) -> CancellationLoss:
    return CancellationLoss(
        f"{label}: max term {max_mag:.3g} dwarfs sum {total:.3g}; result has no trustworthy digits"
    )


def _error_estimate(last_mag, max_mag, used):
    # the last (third small) term twice, plus rounding of every term added
    return 2.0 * last_mag + _EPS * max_mag * used


def _gamma_sign(w: float) -> float:
    # sign of Gamma(w) for w not a pole; positive reals are +1, and on
    # (-n-1, -n) the sign alternates starting with negative on (-1, 0)
    if w > 0.0:
        return 1.0
    n = math.floor(-w)
    return -1.0 if n % 2 == 0 else 1.0


def recip_gamma_signed(w: float) -> float:
    """1/Gamma(w) with the correct sign, exactly 0.0 at the poles.

    Total on the real line: non-positive integers map to 0, everything else
    to a finite signed value (overflowing to signed inf only for w far below
    anything the process modules produce).
    """
    if w > 0.0:
        lg = math.lgamma(w)
        return math.exp(-lg) if -lg <= _EXP_MAX else math.inf
    if not w > -math.inf:
        raise DomainError(f"argument must be a real number, got {w}")
    if w == math.floor(w):
        return 0.0
    lg = math.lgamma(w)  # log|Gamma(w)|
    sign = _gamma_sign(w)
    if -lg > _EXP_MAX:
        return math.copysign(math.inf, sign)
    return sign * math.exp(-lg)


def gamma_ratio_signed(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a > 0 and any real b, via log space.

    Returns exactly 0.0 when b is a non-positive integer (the pole of the
    denominator kills the ratio). Used for falling-factorial style ratios
    where forming either gamma alone would overflow.
    """
    if not a > 0.0:
        raise DomainError(f"numerator argument must be positive, got {a}")
    if not b > -math.inf:
        raise DomainError(f"denominator argument must be a real number, got {b}")
    if b <= 0.0 and b == math.floor(b):
        return 0.0
    arg = math.lgamma(a) - math.lgamma(b)
    sign = _gamma_sign(b)  # 1/Gamma(b) carries the sign of Gamma(b)
    if arg > _EXP_MAX:
        return math.copysign(math.inf, sign)
    return sign * math.exp(arg)


# ---- argument-free coefficient rows ----

_ROW_CACHE_SIZE = 512

_rows: dict[tuple, list[float]] = {}
_rows_lock = threading.Lock()


def _coef_list(key: tuple, coef: Callable[[int], float], n: int) -> list[float]:
    """The row coef(0), coef(1), ... for the index set key, holding at least
    n values; read it by slice, never write it.  Each value is computed once,
    under the lock, into a row cached for at most _ROW_CACHE_SIZE keys (the
    oldest row is dropped first)."""
    row = _rows.get(key)
    if row is None:
        with _rows_lock:
            if key not in _rows and len(_rows) >= _ROW_CACHE_SIZE:
                del _rows[next(iter(_rows))]
            row = _rows.setdefault(key, [])
    if len(row) < n:
        with _rows_lock:
            row.extend(coef(r) for r in range(len(row), n))
    return row


def _coef_row(key: tuple, coef: Callable[[int], float]) -> Iterator[float]:
    """coef(0), coef(1), ... read from _coef_list in doubling pieces."""

    def pieces(lo: int) -> Iterator[list[float]]:
        while True:
            hi = max(2 * lo, 32)
            yield _coef_list(key, coef, hi)[lo:hi]
            lo = hi

    row = _rows.get(key)
    if row is None:
        row = _coef_list(key, coef, 0)
    n = len(row)  # the values known now are read in place
    return itertools.chain(itertools.islice(row, n), itertools.chain.from_iterable(pieces(n)))


def _lgamma_row(slope: float, offset: float) -> Iterator[float]:
    return _coef_row(("lgamma", slope, offset), lambda r: math.lgamma(slope * r + offset))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:  # past ~709.78
        return math.inf


# A pass costs some 40 numpy calls whatever its width, about as long as 1,000
# math.exp calls, and each term past a point's stop is a wasted math.exp.  So
# a pass forms about _POWERS powers: _POWERS // (live columns) terms for each
# live column, within [_PASS, 8 _PASS].  A table at one or two times adds 64
# terms a pass and mostly ends in one; a quadrature stencil of ~900 points
# adds 8 at a time until few of its points are left.
_POWERS, _PASS = 1024, 8
_NORMAL_MIN = np.finfo(float).tiny


def _series_passes(log_x, neg, lg_key, rows, points, cfg, label, cut=math.inf, log_weight=None):
    """The one array loop of the series sums: at every point p = j*n + c of
    points (ascending, n = len(log_x)) the sum over r of w_j(r) times
    (-1)^r (where neg[c]) times exp(r*log_x[c] - lgamma(slope*r + offset)),
    lg_key = (slope, offset).  rows holds the (key, coef) of each weight row
    for _coef_list, None the one row w = 1; neg may be None.

    Each pass adds a block of terms to every live point: math.exp forms each
    power once per live column (inf past cut), and np.cumsum carries each
    partial sum on in order, as _sum_series adds.  With rows, a term whose
    power is below the normal range, or whose weight is inf, is formed as
    sign * exp(exponent + log_weight(j, r)).  A sum stops at its third term
    in a row below rel_tol times the partial sum; a point is refused for a
    non-finite term or no stop within max_terms, and later points are
    dropped.  Returns the partial sum, max term, last term and terms used
    per point, the points stopped before the first refused one, which of
    those fail the cancellation limit, and the refusal (or None).
    """
    n = len(log_x)
    total, peak, last, used = np.zeros((4, n * len(rows or [1])))
    runs = np.zeros((2, total.size), dtype=bool)
    live, lo, first, refusal, lg_row = points, 0, total.size, None, _lgamma_row(*lg_key)
    with np.errstate(all="ignore"):
        while live.size:
            ki, si = np.divmod(live, n)
            k_on, s_on = np.bincount(ki).nonzero()[0], np.bincount(si).nonzero()[0]
            hi = min(lo + min(max(_POWERS // s_on.size, _PASS), 8 * _PASS), cfg.max_terms)
            # one row per term, one column per point
            lg = np.fromiter(itertools.islice(lg_row, hi - lo), float, hi - lo)
            arg = np.arange(lo, hi)[:, None] * log_x[s_on] - lg[:, None]
            try:
                power = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
            except OverflowError:  # such a power is inf
                power = np.array([_exp_or_inf(x) for x in arg.ravel().tolist()])
            term = power = power.reshape(arg.shape)
            if cut < math.inf:
                power[arg > cut] = math.inf
            if neg is not None:  # odd r at a negative argument
                power[1 - lo % 2::2, neg[s_on]] *= -1.0
            if rows is not None:
                ratio = np.array([_coef_list(*rows[j], hi)[lo:hi] for j in k_on.tolist()]).T
                if k_on.size > 1:  # else the live points are the live columns, in order
                    ratio = ratio[:, np.searchsorted(k_on, ki)]
                    power = power[:, np.searchsorted(s_on, si)]
                term = np.where(ratio == 0.0, 0.0, power * ratio)  # 0 even where the power is inf
                # a power below the normal range, or a weight past a double, as one exponent
                odd = (power < _NORMAL_MIN) & (ratio != 0.0) | np.isinf(ratio)  # an inf power stays inf
                for i, j in zip(*odd.nonzero()):
                    x = arg[i, np.searchsorted(s_on, si[j])] + log_weight(ki[j], lo + i)
                    term[i, j] = math.copysign(_exp_or_inf(x), np.broadcast_to(ratio, term.shape)[i, j])
            fin, mag = np.isfinite(term), np.abs(term)
            term[0] += total[live]  # each sum carried on from its partial sum
            partial = np.cumsum(term, axis=0)
            small = np.concatenate((runs[:, live], mag < cfg.rel_tol * np.abs(partial)))
            # a sum stops at its third small term in a row, or is refused at a non-finite one
            stop = small[:-2] & small[1:-1] & small[2:] | ~fin
            done = stop.any(axis=0)
            row, at = np.where(done, stop.argmax(axis=0), hi - lo - 1), np.arange(live.size)
            total[live], last[live], used[live] = partial[row, at], mag[row, at], lo + row + 1
            summed = np.arange(hi - lo)[:, None] <= row
            peak[live] = np.maximum(peak[live], np.where(summed, mag, 0.0).max(axis=0))
            runs[:, live] = small[-2:]
            broke = ~fin[row, at]
            fail = broke | ~done if hi == cfg.max_terms else broke
            if fail.any():  # the points after the first refused one are dropped
                i = fail.argmax()
                first, done[i:] = live[i], True
                refusal = (_not_finite(label(first), lo + row[i] + 1) if broke[i]
                           else _no_convergence(label(first), cfg, total[first]))
            live, lo = live[~done], hi
        stopped = points[: np.searchsorted(points, first)]
        lost = peak[stopped] / np.maximum(np.abs(total[stopped]), _TINY) > cfg.cancellation_limit
    return total, peak, last, used, stopped, lost, refusal


def _check_orders(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")


def mittag_leffler(
    alpha: float, beta: float, x: float, cfg: SpecfunConfig | None = None
) -> SeriesValue:
    """Two-parameter Mittag-Leffler sum_r x^r / Gamma(alpha r + beta).

    alpha in (0, 1], beta > 0. Reduces to exp(x) at alpha = beta = 1.
    """
    _check_orders(alpha, beta)
    cfg = cfg or DEFAULT_CONFIG

    if x == 0.0:
        return SeriesValue(recip_gamma_signed(beta), 0.0, 1, abs(recip_gamma_signed(beta)))

    log_ax = math.log(abs(x))
    sign_x = 1.0 if x > 0.0 else -1.0

    def terms():
        for r, lg_den in enumerate(_lgamma_row(alpha, beta)):
            lg = r * log_ax - lg_den
            if lg > _EXP_MAX:
                yield math.inf
                return
            yield (sign_x ** r) * math.exp(lg)

    return _sum_series(terms(), cfg, "mittag_leffler({},{},{})", alpha, beta, x)


def _mittag_leffler_many(alpha: float, beta: float, xs, cfg: SpecfunConfig | None = None) -> np.ndarray:
    """mittag_leffler(alpha, beta, x, cfg).value at every x of xs, bit for
    bit, from one _series_passes call (math.log per x, each term formed as
    mittag_leffler forms it).  The first refused x, in order, raises what its
    scalar call raises."""
    _check_orders(alpha, beta)
    given = list(xs)
    x = np.array(given, dtype=float)
    zero = x == 0.0
    log_x = np.fromiter(map(math.log, np.abs(np.where(zero, 1.0, x)).tolist()), float, x.size)

    def label(p):
        return "mittag_leffler({},{},{})".format(alpha, beta, given[p])

    total, peak, _, _, stopped, lost, refusal = _series_passes(
        log_x, x < 0.0, (alpha, beta), None, (~zero).nonzero()[0], cfg or DEFAULT_CONFIG, label,
        cut=_EXP_MAX)
    if lost.any():
        p = stopped[lost.argmax()]
        raise _cancelled(label(p), peak[p], total[p])
    if refusal is not None:
        raise refusal
    return np.where(zero, recip_gamma_signed(beta), total)


def gen_mittag_leffler(
    alpha: float, beta: float, gamma: float, x: float, cfg: SpecfunConfig | None = None
) -> SeriesValue:
    """Three-parameter Mittag-Leffler sum with rising-factorial weights:
    sum_r (gamma)^(r) x^r / (r! Gamma(alpha r + beta)).

    Reduces to mittag_leffler when gamma = 1; a non-positive integer gamma
    truncates the rising factorial and the series becomes a polynomial.
    """
    _check_orders(alpha, beta)
    cfg = cfg or DEFAULT_CONFIG

    log_ax = math.log(abs(x)) if x != 0.0 else 0.0
    sign_x = 1.0 if x >= 0.0 else -1.0

    def terms():
        log_poch = 0.0  # log |(gamma)^(r)|
        sign_poch = 1.0
        rows = zip(_lgamma_row(1.0, 1.0), _lgamma_row(alpha, beta))
        for r, (lg_fact, lg_den) in enumerate(rows):
            if r > 0:
                f = gamma + r - 1
                if f == 0.0:
                    # rising factorial vanished: every later term is zero
                    while True:
                        yield 0.0
                log_poch += math.log(abs(f))
                if f < 0.0:
                    sign_poch = -sign_poch
            if x == 0.0 and r > 0:
                yield 0.0
                continue
            lg = log_poch + r * log_ax - lg_fact - lg_den
            if lg > _EXP_MAX:
                yield math.inf
                return
            yield sign_poch * (sign_x ** r) * math.exp(lg)

    return _sum_series(terms(), cfg, "gen_mittag_leffler({},{},{},{})", alpha, beta, gamma, x)


@dataclass(frozen=True)
class FoxWrightSpec:
    """Parameter block of a Fox-Wright sum: upper (a_h, alpha_h) pairs over
    lower (b_k, beta_k) pairs. Construction rejects specs whose convergence
    margin sum(beta_k) - sum(alpha_h) is not above -1."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple((float(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(be)) for b, be in self.lower))
        for _, al in self.upper:
            if al <= 0.0:
                raise InvalidSpec(f"upper gamma slopes must be positive, got {al}")
        for _, be in self.lower:
            if be <= 0.0:
                raise InvalidSpec(f"lower gamma slopes must be positive, got {be}")
        if self.margin <= -1.0:
            raise InvalidSpec(
                f"convergence margin {self.margin} is not above -1; series diverges"
            )

    @property
    def margin(self) -> float:
        return sum(be for _, be in self.lower) - sum(al for _, al in self.upper)


def fox_wright(spec: FoxWrightSpec, z: float, cfg: SpecfunConfig | None = None) -> SeriesValue:
    """Fox-Wright sum over j of prod Gamma(a_h + alpha_h j) / prod Gamma(b_k + beta_k j)
    * z^j / j!.

    A lower gamma hitting a pole zeroes that term (reciprocal gamma is entire);
    an upper gamma hitting a pole makes the sum undefined and raises InvalidSpec.
    """
    cfg = cfg or DEFAULT_CONFIG
    log_az = math.log(abs(z)) if z != 0.0 else 0.0
    sign_z = 1.0 if z >= 0.0 else -1.0

    def term_at(j: int) -> float:
        lg = j * log_az - math.lgamma(j + 1)
        sign = sign_z ** j
        for a, al in spec.upper:
            w = a + al * j
            if w <= 0.0 and w == math.floor(w):
                raise InvalidSpec(
                    f"upper gamma pole at term {j} (argument {w}); sum undefined"
                )
            lg += math.lgamma(w)
            sign *= _gamma_sign(w)
        for b, be in spec.lower:
            w = b + be * j
            if w <= 0.0 and w == math.floor(w):
                return 0.0
            lg -= math.lgamma(w)
            sign *= _gamma_sign(w)
        if lg > _EXP_MAX:
            return math.inf
        return sign * math.exp(lg)

    if z == 0.0:
        # only j = 0 contributes
        v = term_at(0)
        return SeriesValue(v, 0.0, 1, abs(v))

    def terms():
        for j in itertools.count():
            yield term_at(j)

    return _sum_series(terms(), cfg, "fox_wright(margin={0.margin},z={1})", spec, z)


def gen_binom(alpha: float, j: int) -> float:
    """Generalized binomial coefficient alpha over j for real alpha, integer j >= 0."""
    if j < 0:
        raise DomainError(f"j must be a nonnegative integer, got {j}")
    out = 1.0
    for i in range(j):
        out *= (alpha - i) / (i + 1)
    return out


# ---- Stirling numbers of the first kind (signed, exact) ----

# row 170 is the last whose entries (|s(k, h)| <= k!) fit a double
STIRLING_CAP = 170


@functools.lru_cache(maxsize=None)
def _stirling_row(k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)
    prev = _stirling_row(k - 1) + (0,)
    return tuple((prev[h - 1] if h else 0) - (k - 1) * prev[h] for h in range(k + 1))


def stirling_first(k: int, h: int) -> int:
    """Signed Stirling number of the first kind s(k, h), exact integer.

    Row recurrence s(k+1, h) = s(k, h-1) - k * s(k, h), one cached row per
    k (a concurrent first access may build a row twice, to the same
    integers). Indices outside 0 <= h <= k <= STIRLING_CAP raise OutOfRange.
    """
    if not (0 <= k <= STIRLING_CAP):
        raise OutOfRange(f"k must be in [0, {STIRLING_CAP}], got {k}")
    if not (0 <= h <= k):
        raise OutOfRange(f"h must be in [0, {k}], got {h}")
    return _stirling_row(k)[h]
