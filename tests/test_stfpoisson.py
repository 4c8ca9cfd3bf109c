import collections
import itertools
import math

import numpy as np
import pytest

from fraccount import stfpoisson
from fraccount.errors import CancellationLoss, DomainError, NonConvergent
from fraccount.specfun import DEFAULT_CONFIG, SpecfunConfig
from fraccount.stfpoisson import (
    StfpParams,
    F_stfp,
    governing_residual,
    joint_prob_brb,
    joint_prob_kps,
    pgf,
    pmf,
)

import _frozen as FR
from test_coef_rows import ref_core


def test_params_validation():
    for bad in (
        dict(alpha=0.0),
        dict(alpha=1.2),
        dict(nu=0.0),
        dict(nu=1.5),
        dict(lam=0.0),
        dict(T=-1.0),
        dict(rho=-0.1),
        dict(rho=1.1),
    ):
        kw = dict(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3)
        kw.update(bad)
        with pytest.raises(DomainError):
            StfpParams(**kw)


def test_F_endpoints_and_shape():
    p = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=2.0, rho=0.0)
    assert F_stfp(p, 0.0) == 0.0
    assert F_stfp(p, 2.0) == 1.0
    q = StfpParams(alpha=0.7, nu=0.7, lam=1.0, T=4.0, rho=0.0)
    assert F_stfp(q, 1.0) == pytest.approx(0.25, rel=1e-15)  # exponent collapses
    with pytest.raises(DomainError):
        F_stfp(p, 2.5)
    with pytest.raises(DomainError):
        F_stfp(p, -0.1)


# ---- pgf ----

def test_pgf_normalization_exact():
    p = StfpParams(alpha=0.8, nu=0.6, lam=1.3, T=2.0, rho=0.3)
    assert pgf(p, 0.7, 1.0) == 1.0


def test_pgf_poisson_reduction():
    p = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0)
    assert pgf(p, 0.5, 0.0) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_pgf_held_branch_at_time_zero():
    p = StfpParams(alpha=0.6, nu=0.9, lam=2.0, T=1.0, rho=1.0)
    for u in (-1.0, 0.0, 0.4):
        assert pgf(p, 0.0, u) == pytest.approx(1.0, rel=1e-15)
    # at rho < 1 the held branch has weight rho * F(0) = 0 and is never
    # evaluated; its lam = 50 Mittag-Leffler value would refuse
    assert pgf(StfpParams(alpha=0.6, nu=0.6, lam=50.0, T=1.0, rho=0.3), 0.0, -1.0) == 1.0


def test_pgf_argument_range():
    p = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0)
    with pytest.raises(DomainError):
        pgf(p, 0.5, 1.2)
    with pytest.raises(DomainError):
        pgf(p, 0.5, -1.2)


def test_pgf_rho_independent_at_horizon():
    for rho in (0.0, 0.4, 1.0):
        p = StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=rho)
        base = StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=0.0)
        for u in (-0.5, 0.0, 0.6):
            assert pgf(p, 1.0, u) == pytest.approx(pgf(base, 1.0, u), rel=1e-12)


# ---- pmf ----

def test_pmf_poisson_reduction():
    p = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0)
    tbl = pmf(p, 0.5, 8)
    for k in range(9):
        want = math.exp(-0.5) * 0.5**k / math.factorial(k)
        assert tbl[k] == pytest.approx(want, rel=1e-12)


def test_pmf_matches_frozen_grid():
    for (al, nu, rho), vals in FR.STFP_PMF_GRID.items():
        p = StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=rho)
        tbl = pmf(p, 0.5, 8)
        for k, want in enumerate(vals):
            assert tbl[k] == pytest.approx(want, rel=1e-5), (al, nu, rho, k)


def test_pmf_matches_frozen_example():
    p = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3)
    tbl = pmf(p, 0.5, 10)
    for k, want in enumerate(FR.STFP_PMF_EXAMPLE):
        assert tbl[k] == pytest.approx(want, rel=1e-6)


def test_pmf_rho_independent_at_horizon():
    tables = [
        pmf(StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=rho), 1.0, 10)
        for rho in (0.0, 0.5, 1.0)
    ]
    for k in range(11):
        assert tables[1][k] == pytest.approx(tables[0][k], rel=1e-12)
        assert tables[2][k] == pytest.approx(tables[0][k], rel=1e-12)


def test_pmf_refuses_entries_without_absolute_digits():
    # alpha = nu = 1 is Poisson(lam); at lam = 10 the alternating series
    # carries ~1e-7 absolute error at k = 11 without tripping the relative
    # cancellation limit, so the absolute budget must refuse it
    with pytest.raises(CancellationLoss, match=r"absolute error"):
        pmf(StfpParams(alpha=1.0, nu=1.0, lam=10.0, T=1.0, rho=0.3), 1.0, 64)
    tbl = pmf(StfpParams(alpha=1.0, nu=1.0, lam=3.0, T=1.0, rho=0.3), 1.0, 40)
    for k in range(41):
        want = math.exp(-3.0 + k * math.log(3.0) - math.lgamma(k + 1))
        assert abs(tbl[k] - want) <= 1e-13, k


def test_pmf_mixture_reassembly_exact():
    # the coupled table must equal the mixture of its own ingredients, bitwise
    al, nu, rho, t = 0.8, 0.6, 0.3, 0.5
    coupled = pmf(StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=rho), t, 8)
    running = pmf(StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=0.0), t, 8)
    terminal = pmf(StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=0.0), 1.0, 8)
    frac = F_stfp(StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=rho), t)
    for k in range(9):
        want = (1.0 - rho) * running[k]
        if k == 0:
            want += rho * (1.0 - frac)
        want += rho * frac * terminal[k]
        assert coupled[k] == want


@pytest.fixture
def core_calls(monkeypatch):
    # (s, k) -> number of times the count series was summed at that point;
    # per_call holds the same count for each call in turn
    calls = collections.Counter()
    calls.per_call = []
    count_series = stfpoisson._count_series

    def counted(p, s, ks, cfg):
        points = collections.Counter(itertools.product(np.asarray(s, dtype=float).tolist(), ks))
        calls.update(points)
        calls.per_call.append(points)
        return count_series(p, s, ks, cfg)

    monkeypatch.setattr(stfpoisson, "_count_series", counted)
    return calls


def test_pmf_at_horizon_sums_each_count_series_once(core_calls):
    # at t == T the running and held branches read one terminal series
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.5, rho=0.4)
    rho, frac = params.rho, F_stfp(params, params.T)
    want = []
    for k in range(13):
        val = (1.0 - rho) * ref_core(params, params.T, k)
        if k == 0:
            val += rho * (1.0 - frac)
        val += rho * frac * ref_core(params, params.T, k)
        want.append(val)
    got = pmf(params, params.T, 12)
    assert core_calls == {(params.T, k): 1 for k in range(13)}
    assert [x.hex() for x in got.probs] == [x.hex() for x in want]


def test_pmf_at_time_zero_sums_no_terminal_series(core_calls):
    # at t = 0 the held branch has weight rho * F(0) = 0 and is never summed;
    # the lam = 10 Poisson series at the horizon would refuse at k = 0
    tbl = pmf(StfpParams(alpha=1.0, nu=1.0, lam=10.0, T=1.0, rho=0.3), 0.0, 20)
    assert core_calls == {(0.0, k): 1 for k in range(21)}
    assert tbl.probs == (1.0,) + (0.0,) * 20
    assert tbl.tail_mass == 0.0


def test_pmf_fully_coupled_sums_no_running_series(core_calls):
    # at rho = 1 and 0 < t < T the running branch has weight 0: only the
    # terminal series is summed, and the table is (1 - F) delta_0 + F p_T
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=1.0)
    frac = F_stfp(params, 0.5)
    got = pmf(params, 0.5, 12)
    assert core_calls == {(1.0, k): 1 for k in range(13)}
    want = [(1.0 - frac if k == 0 else 0.0) + frac * ref_core(params, 1.0, k) for k in range(13)]
    assert [x.hex() for x in got.probs] == [x.hex() for x in want]


@pytest.mark.parametrize("method", ["series", "quadrature"])
def test_governing_residual_uncoupled_builds_no_terminal_table(core_calls, method):
    # at rho = 0 the terminal table has weight 0: at lam = 3 its s = 1 series
    # refuses from k = 1, while the tables at t < 1 are accepted
    params = StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0, rho=0.0)
    for t in (0.1, 0.3, 0.6):
        residual = governing_residual(params, t, 3, method=method)
        assert residual <= (1e-11 if method == "series" else 1e-7)
    assert not [s for s, _ in core_calls if s == params.T]


@pytest.mark.parametrize("method", ["series", "quadrature"])
def test_governing_residual_sums_each_count_series_once(core_calls, method):
    # the tables at t and T share the terminal series in one call; the
    # quadrature then sums entry k alone at its stencil points in [0, t],
    # except at rho = 1, where the running branch has weight 0 at t < T and
    # at every stencil point
    for rho, times in ((0.4, (0.5, 1.0)), (1.0, (1.0,))):
        core_calls.per_call.clear()
        params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=rho)
        residual = governing_residual(params, 0.5, 3, method=method)
        tables, *stencil = core_calls.per_call
        assert tables == {(s, j): 1 for s in times for j in range(4)}
        assert len(stencil) == (method == "quadrature" and rho != 1.0)
        assert all(0.0 <= s <= 0.5 and j == 3 for call in stencil for s, j in call)
        assert residual <= (1e-6 if method == "series" else 1e-3)


def test_count_series_failure_messages_pinned():
    with pytest.raises(CancellationLoss) as exc:
        pmf(StfpParams(alpha=1.0, nu=1.0, lam=40.0, T=1.0, rho=0.3), 1.0, 3)
    assert str(exc.value) == (
        "count series (k=0, s=1.0): max term 1.48e+16 dwarfs sum -104; "
        "result has no trustworthy digits"
    )
    with pytest.raises(NonConvergent) as exc:
        stfpoisson._count_series(StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3), [0.5, 1.0],
                                 range(4), SpecfunConfig(max_terms=3))
    assert str(exc.value) == (
        "count series (k=0, s=0.5): no convergence within 3 terms (partial sum 0.656677)"
    )


def test_count_series_overflow_is_a_numeric_failure():
    # math.exp overflows on term 275 before the stop rule fires
    with pytest.raises(NonConvergent) as exc:
        pmf(StfpParams(alpha=0.8, nu=0.5, lam=300.0, T=1.0), 1.0, 3)
    assert str(exc.value) == "count series (k=0, s=1.0): term 275 is not finite"
    # the powers of terms 3 and 4 overflow; term 3 has a zero falling ratio
    # and is exactly 0, so term 4 is the first that is not finite
    with pytest.raises(NonConvergent) as exc:
        stfpoisson._count_series(StfpParams(1.0, 1.0, 1e160, 1.0), [1.0], [3], DEFAULT_CONFIG)
    assert str(exc.value) == "count series (k=3, s=1.0): term 4 is not finite"


def test_count_series_power_just_below_overflow():
    # the largest power is exp(709.4): past _EXP_MAX, yet finite in math.exp,
    # so the sum runs on and is refused for cancellation with that max term
    with pytest.raises(CancellationLoss) as exc:
        pmf(StfpParams(alpha=1.0, nu=1.0, lam=713.604052, T=1.0), 1.0, 0)
    assert str(exc.value) == (
        "count series (k=0, s=1.0): max term 1.23e+308 dwarfs sum 2.97e+295; "
        "result has no trustworthy digits"
    )


def test_series_residual_overflow_is_a_numeric_failure():
    # lam^alpha = 6.3e4: the coefficient of t^(nu r) overflows at r = 74,
    # while the table at t = 1e-12 is accepted
    params = StfpParams(alpha=0.8, nu=0.5, lam=1e6, T=1.0, rho=0.0)
    with pytest.raises(NonConvergent) as exc:
        governing_residual(params, 1e-12, 0)
    assert str(exc.value) == "residual series (k=0, t=1e-12): term r=74 overflows"


def test_series_residual_runs_past_a_truncated_tail():
    # nu = 0.1: the r = 140 term of the running series at t = 1 is 3.7e-4, so
    # the sum runs on until its last kept term is below rel_tol times the sum
    params = StfpParams(alpha=0.5, nu=0.1, lam=1.2801761896398989, T=1.0, rho=0.0)
    assert pmf(params, 1.0, 0)[0] == 0.45468264423590954
    series = governing_residual(params, 1.0, 0)
    quadrature = governing_residual(params, 1.0, 0, method="quadrature")
    assert series <= 1e-6
    assert quadrature <= 1e-3 and abs(quadrature - series) <= 1e-3


@pytest.mark.parametrize("rho", [0.0, 0.4, 1.0])
def test_series_residual_past_141_terms_at_the_oracle_point(rho):
    # alpha = 0.3, nu = 0.1, lam = 1, t = T = 1: each series residual needs
    # more than 141 terms; the table at t = T is the frozen mpmath one
    params = StfpParams(alpha=0.3, nu=0.1, lam=1.0, T=1.0, rho=rho)
    table = pmf(params, 1.0, 3)
    for got, want in zip(table.probs, FR.STFP_PMF_NU01):
        assert abs(got - want) <= 1e-12
    for k in range(4):
        assert governing_residual(params, 1.0, k) <= 1e-6
        assert governing_residual(params, 1.0, k, method="quadrature") <= 1e-3


@pytest.mark.parametrize("method", ["series", "quadrature"])
@pytest.mark.parametrize("params", [
    StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.4),
    StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.5, rho=0.0),
    StfpParams(alpha=0.6, nu=0.8, lam=2.0, T=1.0, rho=1.0),
    StfpParams(alpha=0.5, nu=0.5, lam=1.0, T=1.0, rho=0.3),  # nu/alpha on the r = 2 lattice point
])
def test_grouped_residuals_match_single_calls(core_calls, params, method):
    # one call over k = 0..5 gives each k the bits of its own call, from one
    # table call and, on the quadrature route, one stencil call
    ks = [0, 1, 2, 3, 5]
    for t in (0.4, 1.0):
        want = [governing_residual(params, t, k, method=method).hex() for k in ks]
        core_calls.per_call.clear()
        got = stfpoisson._governing_residuals(params, t, ks, method)
        assert [x.hex() for x in got] == want
        assert len(core_calls.per_call) == 1 + (method == "quadrature" and params.rho != 1.0)


def _refusal(fn):
    with pytest.raises((CancellationLoss, NonConvergent)) as exc:
        fn()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("params, t, ks, first", [
    # the k = 2 table entry is refused; k = 0 and 1 answer on both routes
    (StfpParams(alpha=0.5, nu=0.1, lam=1.0, T=1.0), 1.0, [0, 1, 2, 3], 2),
    # the k = 171 table entry is refused, after the series of k = 0 overflows
    (StfpParams(alpha=0.8, nu=0.5, lam=1e6, T=1.0), 1e-12, [0, 171], 0),
    (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.4), 0.5, [0, 3, 171], 171),
])
@pytest.mark.parametrize("method", ["series", "quadrature"])
def test_grouped_residuals_refuse_as_the_first_refused_k(params, t, ks, first, method):
    if (method, first) == ("quadrature", 0):
        first = 171  # the quadrature route has no series to overflow
    got = _refusal(lambda: stfpoisson._governing_residuals(params, t, ks, method))
    assert got == _refusal(lambda: governing_residual(params, t, first, method=method))
    for k in ks[: ks.index(first)]:  # each answers on its own
        assert math.isfinite(governing_residual(params, t, k, method=method))


def _series_outcome(fn):
    # hex of every entry, or the refusal raised
    try:
        return [x.hex() for x in fn()]
    except (CancellationLoss, NonConvergent) as exc:
        return f"{type(exc).__name__}: {exc}"


# stencil-like points: s = 0, then geometric from deep inside (0, 1] to 1
SERIES_POINTS = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 300)])


# the refusal each many-point case raises; the others return every entry
MANY_POINT_REFUSALS = {
    (StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0), 1, DEFAULT_CONFIG):
        "CancellationLoss: pmf entry k=1 at s=1.0 carries absolute error ~1.06e-12; "
        "no trustworthy digits at probability scale",
    (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), 1, SpecfunConfig(max_terms=20)):
        "NonConvergent: count series (k=1, s=0.2030917620904739): no convergence within 20 terms "
        "(partial sum -0.192055)",
    (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), 2, SpecfunConfig(cancellation_limit=1.5)):
        "CancellationLoss: count series (k=2, s=0.307818214256508): max term 0.24 dwarfs sum 0.156; "
        "result has no trustworthy digits",
    (StfpParams(alpha=1.0, nu=1.0, lam=40.0, T=1.0), 0, DEFAULT_CONFIG):
        "CancellationLoss: pmf entry k=0 at s=0.16496480740980207 carries absolute error ~1.09e-12; "
        "no trustworthy digits at probability scale",
    (StfpParams(alpha=0.5, nu=0.2, lam=1e6, T=1.0), 2, DEFAULT_CONFIG):
        "NonConvergent: count series (k=2, s=1e-09): term 332 is not finite",
    # math.exp overflows on a term before the stop rule fires
    (StfpParams(alpha=0.8, nu=0.5, lam=300.0, T=1.0), 0, DEFAULT_CONFIG):
        "NonConvergent: count series (k=0, s=1.0): term 275 is not finite",
}


@pytest.mark.parametrize(
    "params, k, cfg, s",
    [
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), 0, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=0.6, nu=0.8, lam=1.0, T=1.0), 3, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.0), 2, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0), 1, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), 1, SpecfunConfig(max_terms=20), SERIES_POINTS),
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), 2, SpecfunConfig(cancellation_limit=1.5),
         SERIES_POINTS),
        (StfpParams(alpha=1.0, nu=1.0, lam=40.0, T=1.0), 0, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=0.5, nu=0.2, lam=1e6, T=1.0), 2, DEFAULT_CONFIG, SERIES_POINTS),
        (StfpParams(alpha=0.8, nu=0.5, lam=300.0, T=1.0), 0, DEFAULT_CONFIG, np.array([1.0, 0.5])),
    ],
)
def test_count_series_many_points_match_scalar_route(params, k, cfg, s):
    # the quadrature's many-point call against the per-term scalar reference,
    # point by point: same bits, or the refusal of the first refused point
    want = MANY_POINT_REFUSALS.get((params, k, cfg)) or [ref_core(params, x, k).hex() for x in s.tolist()]
    assert _series_outcome(lambda: stfpoisson._count_series(params, s, [k], cfg)[0][0]) == want


def test_count_series_many_points_without_scalar_route():
    # alpha=0.8, nu=0.6, lam=3 is accepted at s=0.2 and 0.5 and refused at
    # s=1.0; the refusal is unreachable through governing_residual, whose
    # stencil reaches s=1.0 only at t=1, where the table at t refuses first
    params = StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0)
    s = np.array([0.2, 0.5, 1.0])
    with pytest.raises(CancellationLoss) as exc:
        stfpoisson._count_series(params, s, [1], DEFAULT_CONFIG)
    assert str(exc.value) == (
        "pmf entry k=1 at s=1.0 carries absolute error ~1.06e-12; "
        "no trustworthy digits at probability scale"
    )
    got, err = stfpoisson._count_series(params, s[:2], [1], DEFAULT_CONFIG)
    assert [x.hex() for x in got[0]] == [ref_core(params, x, 1).hex() for x in (0.2, 0.5)]
    # each entry's absolute error bound comes back beside it, within the guard
    assert 0.0 < err.max() <= 1e-12


@pytest.mark.parametrize(
    "params, cfg",
    [
        (StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0), DEFAULT_CONFIG),
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), SpecfunConfig(max_terms=20)),
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), SpecfunConfig(cancellation_limit=1.5)),
        (StfpParams(alpha=0.5, nu=0.2, lam=1e6, T=1.0), DEFAULT_CONFIG),
        # a cancellation refused after the sum, before a later no-convergence
        (StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0), SpecfunConfig(max_terms=20, cancellation_limit=1.5)),
    ],
)
def test_count_series_grid_refuses_in_row_major_order(params, cfg):
    # a (k, s) grid returns every entry of its one-point calls, or raises the
    # refusal of the first refused point taken k by k, then s by s
    ks, s = range(5), SERIES_POINTS[::10]
    want = None
    for k in ks:
        for x in s:
            got = _series_outcome(lambda: stfpoisson._count_series(params, [x], [k], cfg)[0][0])
            if isinstance(got, str):
                want = want or got
    grid = _series_outcome(lambda: stfpoisson._count_series(params, s, ks, cfg)[0].ravel())
    if want is None:
        want = [_series_outcome(lambda: stfpoisson._count_series(params, [x], [k], cfg)[0][0])[0]
                for k in ks for x in s]
    assert grid == want


def test_count_series_weight_past_a_double_is_refused():
    # 171! overflows a double: refused where s > 0, exact 0 at s = 0
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0)
    got, err = stfpoisson._count_series(params, [0.0], [0, 171], DEFAULT_CONFIG)
    assert got.tolist() == [[1.0], [0.0]]
    assert err.tolist() == [[0.0], [0.0]]  # exact at s = 0
    with pytest.raises(NonConvergent) as exc:
        stfpoisson._count_series(params, [0.0, 0.5], [0, 171], DEFAULT_CONFIG)
    assert str(exc.value) == "count series (k=171, s=0.5): 171! overflows a double"


@pytest.mark.parametrize("lam, K", [(2.0, 170), (0.105, 130)])
def test_deep_light_tailed_tables_match_poisson(lam, K):
    # deep entries pair a power below the normal range, or a falling weight
    # past a double, with a finite term: formed as one exponent, not 0 * inf
    tbl = pmf(StfpParams(alpha=1.0, nu=1.0, lam=lam, T=1.0), 1.0, K)
    for k in range(K + 1):
        want = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1.0))
        assert abs(tbl[k] - want) <= 1e-14, k
    # the head keeps the bits of the shallower table
    assert tbl.probs[:65] == pmf(StfpParams(alpha=1.0, nu=1.0, lam=lam, T=1.0), 1.0, 64).probs


def test_underflowed_terms_stop_a_sum_with_a_subnormal_partial_sum():
    # entries past k~136 are ~1e-500: their partial sums are subnormal, so
    # rel_tol times them is 0, and only terms that underflow to 0 stop them
    tbl = pmf(StfpParams(alpha=1.0, nu=1.0, lam=0.01, T=1.0), 0.5, 170)
    for k in range(171):
        want = math.exp(-0.005 + k * math.log(0.005) - math.lgamma(k + 1.0))
        assert abs(tbl[k] - want) <= 1e-15, k


def test_annihilated_prefix_never_stops_a_sum():
    # at alpha = 1 the weights of entry 8 vanish for r < 8; at s = 5e-51 every
    # later term underflows too, and the sum stops at 0 with no error
    params = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0)
    got, err = stfpoisson._count_series(params, [0.5, 5e-51], [8], DEFAULT_CONFIG)
    assert got[0, 0] == pytest.approx(math.exp(-0.5) * 0.5**8 / math.factorial(8), rel=1e-13)
    assert got[0, 1] == 0.0 and err[0, 1] == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_quadrature_residual_stops_where_every_term_underflows(lam):
    # the stencil reaches s ~ 5e-51, where every term of entry 8 is 0
    params = StfpParams(alpha=1.0, nu=0.8, lam=lam, T=1.0)
    assert governing_residual(params, 1.0, 8, method="quadrature") <= 1e-13


def test_pmf_normalization_light_tail():
    # classical-in-space grids: tail must be numerically negligible
    for nu in (0.5, 0.8, 1.0):
        for rho in (0.0, 0.5):
            p = StfpParams(alpha=1.0, nu=nu, lam=1.0, T=1.0, rho=rho)
            for t in (0.25, 0.5, 1.0):
                tbl = pmf(p, t, 40)
                assert abs(sum(tbl.probs) + tbl.tail_mass - 1.0) <= 1e-9
                assert tbl.tail_mass < 1e-6


def test_pmf_heavy_tail_is_reported_not_hidden():
    p = StfpParams(alpha=0.5, nu=0.8, lam=1.0, T=1.0, rho=0.0)
    tbl = pmf(p, 0.5, 40)
    assert tbl.tail_mass > 1e-4  # genuinely heavy
    assert abs(sum(tbl.probs) + tbl.tail_mass - 1.0) <= 1e-9


def test_pgf_pmf_consistency():
    for rho in (0.0, 0.4):
        p = StfpParams(alpha=1.0, nu=0.7, lam=1.0, T=1.0, rho=rho)
        tbl = pmf(p, 0.5, 60)
        for u in (0.0, 0.3, 0.7):
            series = math.fsum(tbl[k] * u**k for k in range(len(tbl)))
            assert series == pytest.approx(pgf(p, 0.5, u), abs=1e-6)


def test_pmf_zero_count_monotone_in_time():
    for al, nu, rho in ((1.0, 1.0, 0.0), (0.7, 0.5, 0.4), (0.5, 0.8, 1.0)):
        p = StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=rho)
        zeros = [pmf(p, t, 0)[0] for t in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(zeros, zeros[1:]))


def test_pmf_input_checks():
    p = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0)
    with pytest.raises(DomainError):
        pmf(p, 1.5, 4)
    with pytest.raises(DomainError):
        pmf(p, 0.5, -1)


# ---- joint probabilities of the two one-event laws ----

def test_joint_probs_classical_coincide():
    k1 = joint_prob_kps(1.0, 1.0, 1.0, 0.5)
    b1 = joint_prob_brb(StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0), 0.5)
    assert abs(k1 - b1) <= 1e-10
    assert k1 == pytest.approx(FR.JOINT11_NU1, rel=1e-10)


def test_joint_probs_fractional_differ():
    k5 = joint_prob_kps(0.5, 1.0, 1.0, 0.5)
    b5 = joint_prob_brb(StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.0, rho=0.0), 0.5)
    assert abs(k5 - b5) > 1e-3
    assert k5 == pytest.approx(0.14372574994043270675, rel=1e-12)
    assert b5 == pytest.approx(0.13660600739194928254, rel=1e-12)


def test_joint_prob_edges():
    p = StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.0, rho=0.0)
    assert joint_prob_brb(p, 0.0) == 0.0
    # at t -> T the hold factor drops out of the chained form
    at_T = joint_prob_kps(0.5, 1.0, 1.0, 1.0)
    assert at_T == pytest.approx(joint_prob_brb(p, 1.0), rel=1e-12)
    with pytest.raises(DomainError):
        joint_prob_kps(0.5, 1.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        joint_prob_brb(StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.0, rho=0.3), 0.5)


# ---- governing equation residuals ----

def test_governing_classical_kolmogorov():
    p = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0)
    for k in range(4):
        assert governing_residual(p, 0.6, k) <= 1e-10


def test_governing_fully_coupled_zero_count():
    for al, nu in ((0.5, 0.8), (0.7, 0.5), (0.9, 0.9)):
        p = StfpParams(alpha=al, nu=nu, lam=1.0, T=1.0, rho=1.0)
        assert governing_residual(p, 0.6, 0) <= 1e-8


def test_governing_mixed_case_grid():
    p = StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=0.4)
    for k in range(4):
        assert governing_residual(p, 0.6, k) <= 1e-6


def test_governing_quadrature_path_agrees():
    # integrate the assembled pmf's derivative directly
    p = StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=0.4)
    for k in range(4):
        assert governing_residual(p, 0.6, k, method="quadrature") <= 1e-3


def test_governing_input_checks():
    p = StfpParams(alpha=0.7, nu=0.5, lam=1.0, T=1.0, rho=0.4)
    with pytest.raises(DomainError):
        governing_residual(p, 0.0, 1)
    with pytest.raises(DomainError):
        governing_residual(p, 0.5, -1)
    with pytest.raises(DomainError):
        governing_residual(p, 0.5, 1, method="midpoint")


@pytest.mark.parametrize("args", [
    (math.nan, 1.0, 1.0, 0.5), (0.5, math.nan, 1.0, 0.5), (0.5, 1.0, math.nan, 0.5), (0.5, 1.0, 1.0, math.nan),
])
def test_joint_prob_kps_rejects_nan(args):
    with pytest.raises(DomainError):
        joint_prob_kps(*args)


@pytest.mark.parametrize("call", [
    lambda: StfpParams(1.0, 1.0, math.inf, 1.0),
    lambda: StfpParams(1.0, 1.0, 1.0, math.inf),
    lambda: pmf(StfpParams(1.0, 1.0, math.inf, 1.0), 0.5, 3),
    lambda: joint_prob_kps(0.5, math.inf, 1.0, 0.5),
    lambda: joint_prob_kps(0.5, 1.0, math.inf, 0.5),
])
def test_infinite_rate_or_horizon_rejected(call):
    with pytest.raises(DomainError):
        call()
