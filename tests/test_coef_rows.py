"""Argument-free coefficient rows: the block store must return the same bits
as forming every coefficient inside its term, from a cold and a warm store,
under concurrent reads, and with the store kept within its bound."""

import collections
import itertools
import math
import random
import sys
import threading

import pytest

from fraccount import specfun
from fraccount.errors import CancellationLoss, NonConvergent
from fraccount.fracops import (
    PowerSeriesInT,
    caputo_derivative_quadrature,
    caputo_derivative_series,
    frac_difference,
)
from fraccount.pmftable import PmfTable
from fraccount.specfun import (
    SeriesValue,
    _sum_series,
    gamma_ratio_signed,
    gen_binom,
    gen_mittag_leffler,
    mittag_leffler,
)
from fraccount.stfpoisson import F_stfp, StfpParams, governing_residual, pmf


# ---- references: every coefficient formed inside its own term ----

def ref_mittag_leffler(alpha, beta, x):
    if x == 0.0:
        v = specfun.recip_gamma_signed(beta)
        return SeriesValue(v, 0.0, 1, abs(v))
    log_ax = math.log(abs(x))
    sign_x = 1.0 if x > 0.0 else -1.0

    def terms():
        for r in itertools.count():
            try:
                yield (sign_x ** r) * math.exp(r * log_ax - math.lgamma(alpha * r + beta))
            except OverflowError:
                yield math.inf

    return _sum_series(terms(), f"mittag_leffler({alpha},{beta},{x})")


def ref_gen_mittag_leffler(alpha, beta, gamma, x):
    log_ax = math.log(abs(x)) if x != 0.0 else 0.0
    sign_x = 1.0 if x >= 0.0 else -1.0

    def terms():
        log_poch = 0.0
        sign_poch = 1.0
        for r in itertools.count():
            if r > 0:
                f = gamma + r - 1
                if f == 0.0:
                    while True:
                        yield 0.0
                log_poch += math.log(abs(f))
                if f < 0.0:
                    sign_poch = -sign_poch
            if x == 0.0 and r > 0:
                yield 0.0
                continue
            lg = log_poch + r * log_ax - math.lgamma(r + 1) - math.lgamma(alpha * r + beta)
            try:
                yield sign_poch * (sign_x ** r) * math.exp(lg)
            except OverflowError:
                yield math.inf

    what = f"gen_mittag_leffler({alpha},{beta},{gamma},{x})"
    return _sum_series(terms(), what)


def ref_core(params, s, k):
    if s == 0.0:
        return 1.0 if k == 0 else 0.0
    a, nu = params.alpha, params.nu
    log_x = a * math.log(params.lam) + nu * math.log(s)
    lead = (-1.0) ** k / math.factorial(k)

    def terms():
        for r in itertools.count():
            ratio = gamma_ratio_signed(a * r + 1.0, a * r + 1.0 - k)
            if ratio == 0.0:
                yield 0.0
            else:
                mag = math.exp(r * log_x - math.lgamma(nu * r + 1.0))
                yield (-1.0) ** r * mag * ratio

    return lead * _sum_series(terms(), "ref").value


def ref_pmf(params, t, K):
    rho, frac = params.rho, F_stfp(params, t)
    probs = []
    for k in range(K + 1):
        val = (1.0 - rho) * ref_core(params, t, k)
        if rho != 0.0:
            if k == 0:
                val += rho * (1.0 - frac)
            val += rho * frac * ref_core(params, params.T, k)
        probs.append(val)
    return PmfTable.from_probs(probs)


def ref_governing(params, t, k, method, R=140):
    a, nu, lam, T, rho = params.alpha, params.nu, params.lam, params.T, params.rho
    la = lam**a
    frac = F_stfp(params, t)
    tbl_t, tbl_T = ref_pmf(params, t, k), ref_pmf(params, T, k)
    delta = 1.0 if k == 0 else 0.0
    if method == "quadrature":
        def prob_at(s):
            hold = F_stfp(params, s)
            return (1.0 - rho) * ref_core(params, s, k) + rho * (
                (1.0 - hold) * delta + hold * tbl_T[k])

        lhs = caputo_derivative_quadrature(prob_at, nu, t)
    else:
        lead = (-1.0) ** k / math.factorial(k)
        log_la = a * math.log(lam)
        pairs = []
        for r in range(R + 1):
            ratio = gamma_ratio_signed(a * r + 1.0, a * r + 1.0 - k)
            if ratio == 0.0:
                continue
            mag = math.exp(r * log_la - math.lgamma(nu * r + 1.0))
            pairs.append(((1.0 - rho) * lead * (-1.0) ** r * mag * ratio, nu * r))
        if rho != 0.0:
            if k == 0:
                pairs.append((rho, 0.0))
            pairs.append((rho * T ** (-nu / a) * (tbl_T[k] - delta), nu / a))
        lhs = caputo_derivative_series(PowerSeriesInT.build(pairs), nu, t)
    rhs = -la * frac_difference(tbl_t, a, k)
    if rho != 0.0:
        gfac = gamma_ratio_signed(nu / a + 1.0, nu / a - nu + 1.0)
        rhs += la * rho * (1.0 - frac) * (-1.0) ** k * gen_binom(a, k)
        rhs += rho * frac * (
            la * frac_difference(tbl_T, a, k) + t ** (-nu) * gfac * (tbl_T[k] - delta))
    return abs(lhs - rhs)


# ---- bitwise agreement, cold and warm ----

ML_GRID = tuple(itertools.product((0.4, 0.8, 1.0), (0.6, 1.0, 1.8), (-5.0, -0.7, 0.0, 2.5)))
GML_GRID = tuple(itertools.product((0.5, 1.0), (1.0, 1.5), (-2.0, 0.5, 2.0), (-3.0, 0.0, 1.2)))
TABLE_GRID = ((0.6, 0.5, 1.2, 0.4, 0.6), (0.8, 0.6, 1.0, 0.3, 0.5),
              (1.0, 1.0, 2.0, 0.3, 0.7), (0.6, 1.0, 2.0, 0.0, 1.0))
SERIES_GRID = tuple(itertools.product(((0.6, 0.8, 0.4), (1.0, 0.5, 0.4), (0.5, 0.8, 0.3)),
                                      range(3), (0.3, 1.0)))
# t == T and alpha = 1 included: the quadrature sums its stencil points in
# one grid call, the reference one point and one term at a time
QUAD_GRID = tuple(itertools.product(((0.8, 0.5, 0.4), (0.6, 0.8, 0.0), (1.0, 0.5, 0.0)),
                                    (0, 2, 3), (0.6, 1.0)))


def _outcome(fn, *args):
    # the value's bits, or the refusal it raised
    try:
        return float(fn(*args)).hex()
    except CancellationLoss as exc:
        return f"raises {exc}"


def _collect(ml, gml, table, residual):
    def at(method, grid):
        return [_outcome(residual, StfpParams(al, nu, 1.0, 1.0, rho), t, k, method)
                for (al, nu, rho), k, t in grid]

    return (
        [_outcome(ml, *point) for point in ML_GRID],
        [_outcome(gml, *point) for point in GML_GRID],
        [[v.hex() for v in table(StfpParams(al, nu, lam, 1.0, rho), t, 12).probs]
         for al, nu, lam, rho, t in TABLE_GRID],
        at("series", SERIES_GRID),
        at("quadrature", QUAD_GRID),
    )


def _snapshot():
    return _collect(
        lambda *a: mittag_leffler(*a).value,
        lambda *a: gen_mittag_leffler(*a).value,
        pmf,
        lambda params, t, k, method: governing_residual(params, t, k, method=method),
    )


@pytest.fixture(scope="module")
def reference():
    return _collect(lambda *a: ref_mittag_leffler(*a).value, lambda *a: ref_gen_mittag_leffler(*a).value,
                    ref_pmf, ref_governing)


def test_rows_are_bit_identical_to_per_term_formulas(reference):
    # alpha = 0.4 at x = -5 is refused; the refusal must not move either
    assert sum(v.startswith("raises") for v in reference[0]) == 3
    specfun._block.cache_clear()
    specfun._weights.cache_clear()
    assert _snapshot() == reference  # every block built on the way
    assert specfun._block.cache_info().currsize
    assert _snapshot() == reference  # every block read back from the store


# ---- the scalar sums field by field, refusals included ----

def _series_outcome(fn, *args):
    # every SeriesValue field by hex, or the refusal's class and message
    try:
        v = fn(*args)
    except (CancellationLoss, NonConvergent) as exc:
        return type(exc).__name__, str(exc)
    return v.value.hex(), v.abs_error_estimate.hex(), v.terms_used, v.max_term_magnitude.hex()


def _draws(rng, n, with_gamma):
    # (alpha, beta[, gamma], x): small x of both signs, large negative ones
    # that cancel, and large positive ones whose terms or sums overflow; gamma
    # real or a small integer, which truncates the series where it is <= 0
    for _ in range(n):
        alpha = rng.choice((1.0, 0.5, rng.uniform(0.05, 1.0)))
        beta = rng.choice((1.0, 2.0, rng.uniform(0.05, 4.0)))
        gamma = (rng.choice((rng.uniform(-4.0, 4.0), float(rng.randint(-4, 3)))),) if with_gamma else ()
        x = rng.choice((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-12.0, -2.0),
                        rng.uniform(2.0, 40.0), rng.uniform(300.0, 800.0)))
        yield alpha, beta, *gamma, x


TINY_X = (0.0, 1e-300, -1e-300)
ML_EDGES = (
    *((a, b, x) for a in (0.5, 1.0) for b in (1.0, 200.0) for x in TINY_X),
    (0.6, 1.0, -6.0), (0.6, 1.0, -8.0), (1.0, 1.0, -40.0),  # cancellation
    (0.5, 200, 50),  # a partial sum that overflows on a finite term
    (1.0, 1.0, 709.8),  # ... on a term past the largest one
    (0.5, 200.0, 0.5),  # every term underflows: no stop within the budget
    (0.5, 1.0, math.nan), (0.5, 1.0, math.inf), (0.5, 1.0, -math.inf),  # a nan first term
)
GML_EDGES = (
    *((0.5, 1.5, g, x) for g in (2.0, 0.0, -1.0, -3.0, -2.5) for x in (*TINY_X, -0.7, 3.0, -20.0)),
    (0.05, 1.05, 2.0, -0.77), (0.05, 1.05, 2.0, -5.0),
    (1.0, 1.0, 1.0, 709.8), (0.5, 1.5, math.nan, 1.0), (0.5, 1.5, math.inf, -1.0), (0.5, 1.5, 2.0, math.nan),
)


def test_scalar_sums_match_reference_sums_field_by_field():
    rng = random.Random(2718)
    ml_points = [*ML_EDGES, *_draws(rng, 2000, False)]
    gml_points = [*GML_EDGES, *_draws(rng, 2000, True)]
    seen = collections.Counter()
    for fn, ref, points in ((mittag_leffler, ref_mittag_leffler, ml_points),
                            (gen_mittag_leffler, ref_gen_mittag_leffler, gml_points)):
        for point in points:
            got = _series_outcome(fn, *point)
            assert got == _series_outcome(ref, *point), (fn.__name__, point)
            seen[got[0] if len(got) == 2 else "value"] += 1
    assert _series_outcome(mittag_leffler, 0.5, 200, 50) == (
        "NonConvergent", "mittag_leffler(0.5,200,50): partial sum at term 2618 is not finite")
    # a series truncated after underflowed terms (or at x = 0 after r = 0) ends
    # at 0, where the reference sum finds no stop; an exact cancellation to 0
    # is refused
    zero = "0x0.0p+0"
    assert _series_outcome(gen_mittag_leffler, 0.5, 200.0, -1.0, 1.0) == (zero, zero, 5, zero)
    assert _series_outcome(gen_mittag_leffler, 0.5, 200.0, 0.0, 1.0) == (zero, zero, 4, zero)
    assert _series_outcome(gen_mittag_leffler, 0.5, 200.0, 2.0, 0.0) == (zero, zero, 4, zero)
    assert _series_outcome(gen_mittag_leffler, 1.0, 1.0, -1.0, 1.0) == (
        "CancellationLoss", "gen_mittag_leffler(1.0,1.0,-1.0,1.0): max term 1 dwarfs sum 0; "
        "result has no trustworthy digits")
    # the draws reach values and both refusal classes alike
    assert min(seen["value"], seen["CancellationLoss"], seen["NonConvergent"]) > 100


# ---- concurrent reads and the store's bound ----

def test_concurrent_growth_matches_serial_row():
    n = 4000

    def race(a, b):
        # four threads read the same fresh row at once: two as an array pass
        # does, joining the blocks that a slice of 24 terms spans (some
        # straddle a block edge) and cutting the slice out, and two block by
        # block in order, as the scalar and residual series walk it
        results = [None] * 4
        start = threading.Barrier(4)
        size = specfun._BLOCK

        def joined(lo, hi):
            span = range(lo // size, (hi - 1) // size + 1)
            return sum((specfun._block(a, b, i) for i in span), ())[lo % size : lo % size + hi - lo]

        def read(i):
            start.wait()
            if i % 2:
                results[i] = [x for lo in range(0, n, 24) for x in joined(lo, min(lo + 24, n))]
            else:
                results[i] = [x for j in range(-(-n // size)) for x in specfun._block(a, b, j)][:n]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        return results

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            a, b = 0.37, 0.11 + trial / 1000.0  # a row no other test reads
            serial = [math.lgamma(a * r + b) for r in range(n)]
            assert all(res == serial for res in race(a, b))
    finally:
        sys.setswitchinterval(old)


def test_cache_stays_within_bound():
    bound = specfun._block.cache_info().maxsize
    first = specfun._block(0.5, 1.0, 3)
    for i in range(3 * bound):
        specfun._block(1.0 + i / 7.0, 1.0, 0)
        assert specfun._block.cache_info().currsize <= bound
    # the first block was evicted, and is rebuilt on demand with the same values
    misses = specfun._block.cache_info().misses
    assert specfun._block(0.5, 1.0, 3) == first
    assert specfun._block.cache_info().misses == misses + 1
    assert first == tuple(math.lgamma(0.5 * r + 1.0) for r in range(3 * specfun._BLOCK, 4 * specfun._BLOCK))
    assert mittag_leffler(0.5, 1.0, -0.7).value == ref_mittag_leffler(0.5, 1.0, -0.7).value
