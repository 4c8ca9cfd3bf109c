"""Special-function engine.

Provides the series primitives the process modules are built on: the two- and
three-parameter Mittag-Leffler functions, generalized binomial coefficients, a
signed reciprocal gamma, and exact signed Stirling numbers of the first kind.
Fox-Wright sums are here too; no process module calls them.

Every infinite series here is summed the same way: each term is formed in log
space with an explicit sign, so terms never overflow before the sum settles,
and the result is returned together with its convergence diagnostics rather
than as a bare float.  One policy holds for every sum, the module constants
_REL_TOL, _MAX_TERMS and _CANCELLATION_LIMIT, read at call time; only
fox_wright takes a SpecfunConfig, to set its cancellation limit.  A term is
infinite only where math.exp overflows, and a sum whose partial sum is not
finite is refused.

Coefficients that do not depend on a series' argument are cached, and every
reader takes them one way, by term block of 64 r: the lgamma(a r + b) of the
denominators as tuples under one functools.lru_cache (_block), the STFP count
series' falling weights _falling(a, k, r) as read-only numpy blocks of 64 r
by 8 k (_weights).  _ml_series and the residual series walk the blocks in
order; a pass joins the blocks its terms span and slices them.  Each holds
the exact expression a term would form inline, so the terms and sums are the
same bits.

Sums over many arguments at once go through one array pass loop,
_series_passes, with two callers: the STFP count series
(stfpoisson._count_series, falling weights) and _mittag_leffler_many
(beta = 1, weight 1, a sign per point), which returns mittag_leffler's values
bit for bit.  One argument at a time, mittag_leffler and gen_mittag_leffler
sum in one fused loop, _ml_series: a pass costs some 70 us whatever its
width, against a few us for one scalar sum.  _sum_series serves fox_wright
alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CancellationLoss, DomainError, InvalidSpec, NonConvergent, OutOfRange

_TINY = 1e-300
_EPS = 2.220446049250313e-16
_EXP_MAX = 709.0  # log of the largest finite double, rounded down

# largest tolerated absolute error of one assembled pmf entry
_CORE_ABS_GUARD = 1e-12


# the series policy (see _sum_series), read at call time
_REL_TOL = 1e-12
_MAX_TERMS = 10000
_CANCELLATION_LIMIT = 1e8


@dataclass(frozen=True)
class SpecfunConfig:
    """The one series knob a caller may set, taken by fox_wright alone:
    cancellation_limit, the largest tolerated ratio max|term| / |sum|.
    Every other series runs at the module's policy constants.
    """

    cancellation_limit: float = _CANCELLATION_LIMIT

    def __post_init__(self) -> None:
        if not self.cancellation_limit > 1.0:
            raise InvalidSpec(f"cancellation_limit must exceed 1, got {self.cancellation_limit}")


DEFAULT_CONFIG = SpecfunConfig()


@dataclass(frozen=True)
class SeriesValue:
    """A converged series sum plus the diagnostics needed to trust it."""

    value: float
    abs_error_estimate: float
    terms_used: int
    max_term_magnitude: float


def _sum_series(terms, what: str, *parts, limit: float | None = None) -> SeriesValue:
    """Adaptive summation of fox_wright's terms; _ml_series sums by its rule.

    Stops after three consecutive terms that are strictly below
    _REL_TOL * |partial sum|; the strict inequality means an all-zero prefix
    (annihilated leading terms) never triggers a premature stop.  A partial
    sum that is not finite (an overflowing term or sum) is refused, and so is
    a max term past limit (by default _CANCELLATION_LIMIT) times the sum.
    The label in error messages is what.format(*parts), formatted only on
    failure.
    """
    total = 0.0
    max_mag = 0.0
    last_mag = 0.0
    small_run = 0
    used = 0
    for term in terms:
        used += 1
        if used > _MAX_TERMS:
            raise _no_convergence(what.format(*parts), total)
        total += term
        if not math.isfinite(total):
            raise _not_finite(what.format(*parts), used, term)
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        if mag < _REL_TOL * abs(total):
            small_run += 1
            last_mag = mag
            if small_run >= 3:
                break
        else:
            small_run = 0
    if max_mag / max(abs(total), _TINY) > (_CANCELLATION_LIMIT if limit is None else limit):
        raise _cancelled(what.format(*parts), max_mag, total)
    return SeriesValue(total, _error_estimate(last_mag, max_mag, used), used, max_mag)


# the refusals and error estimate of _sum_series, shared with the array sums
# of stfpoisson (numbers or arrays alike)
def _no_convergence(label: str, total: float) -> NonConvergent:
    return NonConvergent(f"{label}: no convergence within {_MAX_TERMS} terms (partial sum {total:.6g})")


def _not_finite(label: str, used: int, term: float) -> NonConvergent:
    what = "partial sum at term" if math.isfinite(term) else "term"
    return NonConvergent(f"{label}: {what} {used} is not finite")


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
    if not w > -math.inf:
        raise DomainError(f"argument must be a real number, got {w}")
    return gamma_ratio_signed(1.0, w)


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

_BLOCK, _COLS = 64, 8  # terms r a block, and k a weight block


@functools.lru_cache(maxsize=1024)
def _block(a: float, b: float, i: int) -> tuple[float, ...]:
    """lgamma(a r + b) for the _BLOCK indices r of block i.  A block never
    changes, so two threads building one at once build the same floats."""
    return tuple(math.lgamma(a * r + b) for r in range(i * _BLOCK, (i + 1) * _BLOCK))


def _falling(a: float, k: int, r: int) -> float:
    # term r of the row (-1)^r * Gamma(a r + 1) / Gamma(a r + 1 - k), r = 0, 1, ...
    return (-1.0) ** r * gamma_ratio_signed(a * r + 1.0, a * r + 1.0 - k)


@functools.lru_cache(maxsize=256)
def _weights(a: float, k0: int, i: int) -> tuple[np.ndarray, bool]:
    """_falling(a, k, r) at the r of block i (rows), k0 <= k < k0 + _COLS: read-only, and whether one is inf."""
    w = np.array([[_falling(a, k, r) for k in range(k0, k0 + _COLS)] for r in range(_BLOCK * i, _BLOCK * (i + 1))])
    w.flags.writeable = False
    return w, bool(np.isinf(w).any())


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:  # past ~709.78
        return math.inf


# A pass costs some 70 numpy operations whatever its width, about as long as
# 1,400 math.exp calls, and each term past a point's stop is a wasted exp.  So
# a pass forms about _POWERS powers: _POWERS // (live columns) terms for each
# live column, within [_PASS, 8 _PASS].  A table at one or two times adds 64
# terms a pass and mostly ends in one; a quadrature stencil of ~900 points
# adds 8 at a time until few of its points are left.
_POWERS, _PASS = 1024, 8
_NORMAL_MIN = np.finfo(float).tiny


def _series_passes(log_x, neg, slope, rows, points, label):
    """The one array loop of the series sums: at every point p = j*n + c of
    points (ascending, n = len(log_x)) the sum over r of w_j(r) times
    (-1)^r (where neg[c]) times exp(r*log_x[c] - lgamma(slope*r + 1)).
    rows = (a, ks) gives the weight rows w_j(r) = _falling(a, ks[j], r) (ks
    an int array), None the one row w = 1; neg may be None.

    Each pass adds the terms lo <= r < hi to every live point, from the
    _block and _weights blocks that span them, joined and sliced: math.exp
    forms each power once per live column (inf where it overflows), and
    np.cumsum carries each partial sum on in order, as _sum_series adds.  A
    term whose power is below the normal range, or whose weight is inf,
    is formed as sign * exp(exponent + log|w_j(r)|), the log weight
    lgamma(a r + 1) - lgamma(a r + 1 - ks[j]) formed here.  One small-term
    rule holds for every sum: it stops at its third small term in a row,
    below _REL_TOL times the partial sum or exactly 0 where its weight is not
    (an underflowed power), so a sum whose partial sum is subnormal or 0
    stops too, while a prefix of weight-0 (annihilated) terms never stops
    one.  A point is refused for a partial sum that is not finite (an
    overflowing term or sum) or no stop within _MAX_TERMS, and later points
    are dropped.  Returns the partial sum, max term, last term and terms used
    per point, the points stopped before the first refused one, which of
    those fail the cancellation limit, and the refusal (or None).
    """
    n, (a, ks) = len(log_x), rows or (None, [0])
    total, peak, last, used = np.zeros((4, n * len(ks)))
    runs = np.zeros((2, total.size), dtype=bool)
    live, lo, first, refusal = points, 0, total.size, None
    with np.errstate(all="ignore"):
        while live.size:
            ki, si = np.divmod(live, n)
            k_on, s_on = np.bincount(ki).nonzero()[0], np.bincount(si).nonzero()[0]
            hi = min(lo + min(max(_POWERS // s_on.size, _PASS), 8 * _PASS), _MAX_TERMS)
            span, cut = range(lo // _BLOCK, (hi - 1) // _BLOCK + 1), slice(lo % _BLOCK, lo % _BLOCK + hi - lo)
            # one row per term, one column per point of s_on (the live points themselves where one k is live)
            lg = np.array(sum((_block(slope, 1.0, i) for i in span), ())[cut])
            arg = np.arange(lo, hi)[:, None] * log_x[s_on] - lg[:, None]
            try:
                power = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
            except OverflowError:  # such a power is inf
                power = np.array([_exp_or_inf(x) for x in arg.ravel().tolist()])
            term = power = power.reshape(arg.shape)
            if neg is not None:  # odd r at a negative argument
                power[1 - lo % 2::2, neg[s_on]] *= -1.0
            ratio = 1.0  # the one row w = 1
            if rows is not None:
                kc = ks[k_on]  # the live weight columns, from the weight blocks at k0, k0 + _COLS, ...
                k0 = kc.min() // _COLS * _COLS
                blocks = [[_weights(a, k, i) for k in range(k0, kc.max() + 1, _COLS)] for i in span]
                ratio = np.concatenate([np.concatenate([w for w, _ in line], axis=1) for line in blocks])
                ratio, power = ratio[cut, ks[ki] - k0], power if k_on.size == 1 else power[:, np.searchsorted(s_on, si)]
                term = np.where(ratio == 0.0, 0.0, power * ratio)  # 0 even where the power is inf
                # a power below the normal range, or a weight past a double, as one exponent
                if power.min() < _NORMAL_MIN or any(wild for line in blocks for _, wild in line):
                    odd = (power < _NORMAL_MIN) & (ratio != 0.0) | np.isinf(ratio)  # an inf power stays inf
                    for i, j in zip(*odd.nonzero()):
                        a_r = a * (lo + i) + 1.0
                        x = arg[i, np.searchsorted(s_on, si[j])] + (math.lgamma(a_r) - math.lgamma(a_r - ks[ki[j]]))
                        term[i, j] = math.copysign(_exp_or_inf(x), ratio[i, j])
            underflow = (term == 0.0) & (ratio != 0.0)  # not a term whose weight is 0
            mag = np.abs(term)
            term[0] += total[live]  # each sum carried on from its partial sum
            partial = np.cumsum(term, axis=0)
            fin = np.isfinite(partial)
            # a term that underflowed to 0 is small whatever the partial sum
            small = np.concatenate((runs[:, live], (mag < _REL_TOL * np.abs(partial)) | underflow))
            # a sum stops at its third small term in a row, or is refused at a non-finite partial sum
            stop = small[:-2] & small[1:-1] & small[2:] | ~fin
            done = stop.any(axis=0)
            row, at = np.where(done, stop.argmax(axis=0), hi - lo - 1), np.arange(live.size)
            total[live], last[live], used[live] = partial[row, at], mag[row, at], lo + row + 1
            summed = np.arange(hi - lo)[:, None] <= row
            peak[live] = np.maximum(peak[live], np.where(summed, mag, 0.0).max(axis=0))
            runs[:, live] = small[-2:]
            broke = ~fin[row, at]
            fail = broke | ~done if hi == _MAX_TERMS else broke
            if fail.any():  # the points after the first refused one are dropped
                i = fail.argmax()
                first, done[i:] = live[i], True
                refusal = (_not_finite(label(first), lo + row[i] + 1, mag[row[i], i]) if broke[i]
                           else _no_convergence(label(first), total[first]))
            live, lo = live[~done], hi
        stopped = points[: np.searchsorted(points, first)]
        lost = peak[stopped] / np.maximum(np.abs(total[stopped]), _TINY) > _CANCELLATION_LIMIT
    return total, peak, last, used, stopped, lost, refusal


def _check_orders(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")


def _ml_series(alpha: float, beta: float, gamma: float | None, x: float, what: str, *parts) -> SeriesValue:
    """mittag_leffler's terms (gamma None) or gen_mittag_leffler's, formed and
    summed in one loop over the _block lgamma rows by _sum_series' rule.

    A negative term's magnitude is subtracted, the bits of adding the term.
    Past a vanished rising factorial, or at x = 0 past r = 0, every term is
    exp(-inf) = 0.0 and small, even at a 0 sum.  A sum turns non-finite at a
    new largest term (an overflowed exp is +inf) or at a finite term that
    overflows it, which then reads as small: only those two check it."""
    log_ax = math.log(abs(x)) if x != 0.0 else 0.0
    neg_x = x < 0.0
    total = max_mag = last_mag = log_poch = 0.0  # log_poch = log|(gamma)^(r)|
    small_run = neg = ended = 0  # ended: the rising factorial has vanished
    for lo in range(0, _MAX_TERMS, _BLOCK):
        den = _block(alpha, beta, lo // _BLOCK)
        fact = den if gamma is None else _block(1.0, 1.0, lo // _BLOCK)
        for r, lg_fact, lg_den in zip(range(lo, _MAX_TERMS), fact, den):
            if gamma is None:
                arg, neg = r * log_ax - lg_den, r & neg_x
            else:
                if r:
                    f = gamma + r - 1
                    if f == 0.0 or x == 0.0:
                        log_poch, ended = -math.inf, 1
                    else:
                        log_poch += math.log(abs(f))
                        neg ^= (f < 0.0) ^ neg_x
                arg = log_poch + r * log_ax - lg_fact - lg_den
            try:
                mag = math.exp(arg)
            except OverflowError:
                mag = math.inf
            total = total - mag if neg else total + mag
            if not mag <= max_mag:
                max_mag = mag
                if not math.isfinite(total):
                    raise _not_finite(what.format(*parts), r + 1, mag)
            if mag < _REL_TOL * (abs(total) or ended):
                if not math.isfinite(total):
                    raise _not_finite(what.format(*parts), r + 1, mag)
                small_run += 1
                last_mag = mag
                if small_run >= 3:
                    if max_mag / max(abs(total), _TINY) > _CANCELLATION_LIMIT:
                        raise _cancelled(what.format(*parts), max_mag, total)
                    return SeriesValue(total, _error_estimate(last_mag, max_mag, r + 1), r + 1, max_mag)
            else:
                small_run = 0
    raise _no_convergence(what.format(*parts), total)


def mittag_leffler(alpha: float, beta: float, x: float) -> SeriesValue:
    """Two-parameter Mittag-Leffler sum_r x^r / Gamma(alpha r + beta).

    alpha in (0, 1], beta > 0. Reduces to exp(x) at alpha = beta = 1.
    """
    _check_orders(alpha, beta)
    if x == 0.0:
        return SeriesValue(recip_gamma_signed(beta), 0.0, 1, abs(recip_gamma_signed(beta)))
    return _ml_series(alpha, beta, None, x, "mittag_leffler({},{},{})", alpha, beta, x)


def _mittag_leffler_many(alpha: float, xs) -> np.ndarray:
    """mittag_leffler(alpha, 1.0, x).value at every x of xs, bit for bit,
    from one _series_passes call (math.log per x, each term formed as
    mittag_leffler forms it).  The first refused x, in order, raises what its
    scalar call raises.  beta is 1, the one value in use: the r = 0 term is
    then 1.0, so a term that underflows to 0 comes after the sum has grown
    and is small by the pass's one rule (at a large beta the leading terms
    underflow first, and that rule would stop the sum at 0)."""
    _check_orders(alpha, 1.0)
    given = list(xs)
    x = np.array(given, dtype=float)
    zero = x == 0.0
    log_x = np.fromiter(map(math.log, np.abs(np.where(zero, 1.0, x)).tolist()), float, x.size)

    def label(p):
        return "mittag_leffler({},1.0,{})".format(alpha, given[p])

    total, peak, _, _, stopped, lost, refusal = _series_passes(
        log_x, x < 0.0, alpha, None, (~zero).nonzero()[0], label)
    if lost.any():
        p = stopped[lost.argmax()]
        raise _cancelled(label(p), peak[p], total[p])
    if refusal is not None:
        raise refusal
    return np.where(zero, 1.0, total)


def gen_mittag_leffler(alpha: float, beta: float, gamma: float, x: float) -> SeriesValue:
    """Three-parameter Mittag-Leffler sum with rising-factorial weights:
    sum_r (gamma)^(r) x^r / (r! Gamma(alpha r + beta)).

    Reduces to mittag_leffler when gamma = 1; a non-positive integer gamma
    truncates the rising factorial and the series becomes a polynomial.
    """
    _check_orders(alpha, beta)
    return _ml_series(alpha, beta, gamma, x, "gen_mittag_leffler({},{},{},{})", alpha, beta, gamma, x)


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
            raise InvalidSpec(f"convergence margin {self.margin} is not above -1; series diverges")

    @property
    def margin(self) -> float:
        return sum(be for _, be in self.lower) - sum(al for _, al in self.upper)


def fox_wright(spec: FoxWrightSpec, z: float, cfg: SpecfunConfig | None = None) -> SeriesValue:
    """Fox-Wright sum over j of prod Gamma(a_h + alpha_h j) / prod Gamma(b_k + beta_k j)
    * z^j / j!.

    A lower gamma hitting a pole zeroes that term (reciprocal gamma is entire);
    an upper gamma hitting a pole makes the sum undefined and raises InvalidSpec.
    cfg may set the cancellation limit; the rest of the policy is the module's.
    """
    log_az = math.log(abs(z)) if z != 0.0 else 0.0
    sign_z = 1.0 if z >= 0.0 else -1.0

    def term_at(j: int) -> float:
        lg = j * log_az - math.lgamma(j + 1)
        sign = sign_z ** j
        for a, al in spec.upper:
            w = a + al * j
            if w <= 0.0 and w == math.floor(w):
                raise InvalidSpec(f"upper gamma pole at term {j} (argument {w}); sum undefined")
            lg += math.lgamma(w)
            sign *= _gamma_sign(w)
        for b, be in spec.lower:
            w = b + be * j
            if w <= 0.0 and w == math.floor(w):
                return 0.0
            lg -= math.lgamma(w)
            sign *= _gamma_sign(w)
        try:
            return sign * math.exp(lg)
        except OverflowError:
            return math.inf

    if z == 0.0:
        # only j = 0 contributes
        v = term_at(0)
        return SeriesValue(v, 0.0, 1, abs(v))

    limit = None if cfg is None else cfg.cancellation_limit
    return _sum_series(map(term_at, itertools.count()), "fox_wright(margin={0.margin},z={1})", spec, z,
                       limit=limit)


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

    No process module calls it: fnegbin runs its own unsigned Stirling
    recurrence and reads only STIRLING_CAP.  The public name stays because
    acceptance criterion 7 pins it, against an independent triangle and the
    frozen row STIRLING_ROW_10.
    """
    if not (0 <= k <= STIRLING_CAP):
        raise OutOfRange(f"k must be in [0, {STIRLING_CAP}], got {k}")
    if not (0 <= h <= k):
        raise OutOfRange(f"h must be in [0, {k}], got {h}")
    return _stirling_row(k)[h]
